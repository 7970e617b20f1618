//! The host and provenance record printed with every result.

use std::path::Path;

fn json_string(s: &str) -> String {
    let mut out = String::new();
    llsc_shmem::json::push_string(&mut out, s);
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unavailable" outside a git checkout.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unavailable".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(commit) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return commit.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|commit| commit.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unavailable".into())
}

/// The filesystem type of the mount holding `dir`, from
/// `/proc/self/mountinfo` (longest matching mount point).
fn filesystem(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let mount = *fields.get(4)?;
            let sep = fields.iter().position(|f| *f == "-")?;
            let fstype = *fields.get(sep + 1)?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// One JSON object describing the host and the run.
pub fn record(workload: &str, workers: usize, seed: u64, scratch: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"workers\":{workers},\"nproc\":{nproc},\"cpu_model\":{},\"kernel\":{},\"rustc\":{},\"commit\":{},\"job_dir_fs\":{}}}",
        json_string(workload),
        json_string(&cpu_model()),
        json_string(&kernel()),
        json_string(&rustc_version()),
        json_string(&git_commit()),
        json_string(&filesystem(scratch)),
    )
}
