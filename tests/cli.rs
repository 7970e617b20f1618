//! The `llsc table` and `llsc bench` front ends, driven through the real
//! binary: thread-count invariance of a table's stdout and artifact,
//! the usage errors (an unknown flag is one on every subcommand), a
//! failed check told apart from misuse, and the E18 and E20 artifacts'
//! schemas.

use llsc_lowerbound::bench::table::Table;
use std::process::{Command, Output};

fn llsc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_llsc"))
        .args(args)
        .output()
        .expect("llsc runs")
}

#[test]
fn binary_output_is_thread_count_invariant() {
    let dir = std::env::temp_dir();
    let mut outputs = Vec::new();
    for threads in ["1", "4", "8"] {
        let json_path = dir.join(format!("llsc_e13_t{threads}.json"));
        let json = json_path.to_str().expect("utf-8 temp path");
        let out = llsc(&["table", "e13", "--threads", threads, "--json", json]);
        assert!(out.status.success(), "exit status at --threads {threads}");
        let artifact = std::fs::read(&json_path).expect("artifact written");
        let _ = std::fs::remove_file(&json_path);
        outputs.push((out.stdout, artifact));
    }
    let (stdout_1, artifact_1) = &outputs[0];
    for (stdout_t, artifact_t) in &outputs[1..] {
        assert_eq!(stdout_t, stdout_1, "stdout differs across thread counts");
        assert_eq!(
            artifact_t, artifact_1,
            "JSON artifact differs across thread counts"
        );
    }
    // And the artifact is well-formed.
    let text = String::from_utf8(artifact_1.clone()).expect("utf-8 artifact");
    let tables = Table::from_json_artifact(&text).expect("artifact parses");
    assert_eq!(tables.len(), 1);
}

#[test]
fn table_rejects_an_unused_event_budget_and_an_unknown_id() {
    let out = llsc(&["table", "e3", "--max-events", "5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no table is run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`e3` takes no event budget"), "{err}");

    let out = llsc(&["table", "e2"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment `e2`"), "{err}");
    assert!(err.contains("valid ids: e1, e3, e4, e5"), "{err}");
}

#[test]
fn bench_out_writes_the_e18_artifact() {
    let path = std::env::temp_dir().join("llsc_cli_e18.json");
    let out_path = path.to_str().expect("utf-8 temp path");
    let mut args: Vec<&str> = "bench --backend sim --ns 2 --samples 1 --out"
        .split(' ')
        .collect();
    args.push(out_path);
    let out = llsc(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    assert!(
        stdout.contains("e18 wakeup-counter   backend=sim"),
        "{stdout}"
    );
    let artifact = std::fs::read_to_string(&path).expect("artifact written");
    let _ = std::fs::remove_file(&path);
    assert!(artifact.starts_with("{\"bench\":\"pr6\",\"samples\":1,\"cases\":[{"));
    assert!(artifact.contains("\"workload\":\"universal-direct\",\"backend\":\"sim\",\"n\":2,"));
    assert!(artifact.ends_with("\"failures\":[]}\n"), "{artifact}");
}

#[test]
fn e20_bench_writes_its_artifact_only_with_out() {
    let dir = std::env::temp_dir().join("llsc_cli_e20");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let grid = [
        "bench",
        "e20",
        "--backend",
        "sim",
        "--n",
        "3",
        "--trials",
        "2",
    ];
    let grid = [&grid[..], &["--intensities", "0,2"]].concat();
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_llsc"))
            .args(grid.iter().chain(extra))
            .current_dir(&dir)
            .output()
            .expect("llsc runs")
    };
    let bare = run(&[]);
    assert!(
        bare.status.success(),
        "{}",
        String::from_utf8_lossy(&bare.stderr)
    );
    assert_eq!(
        std::fs::read_dir(&dir).expect("temp dir").count(),
        0,
        "no --out, no file"
    );
    // 6 algorithms x 2 intensities x 2 seeds, one simulator row each.
    assert_eq!(String::from_utf8_lossy(&bare.stdout).lines().count(), 24);

    let out = run(&["--out", "e20.json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        out.stdout, bare.stdout,
        "the simulator half is deterministic"
    );
    let artifact = std::fs::read_to_string(dir.join("e20.json")).expect("artifact written");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(artifact.starts_with("{\"bench\":\"pr10\",\"n\":3,\"trials\":2,\"cases\":[{"));
    assert!(
        artifact.ends_with(",\"divergence\":[],\"failures\":[]}\n"),
        "{artifact}"
    );
}

#[test]
fn e20_bench_rejects_bad_values_without_panicking() {
    for (args, message) in [
        (&["--n", "1"][..], "bad --n value `1`"),
        (&["--trials", "0"][..], "bad --trials value `0`"),
        (
            &["--intensities", "0,x"][..],
            "bad --intensities value `0,x`",
        ),
        (&["--ns", "2"][..], "`llsc bench e20` takes no --ns"),
    ] {
        let out = llsc(&[&["bench", "e20"][..], args].concat());
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{err}");
        assert!(!err.contains("panicked"), "{err}");
        assert!(out.stdout.is_empty(), "no trial runs");
    }
}

#[test]
fn every_subcommand_rejects_a_flag_it_does_not_read() {
    let dir = std::env::temp_dir().join(format!("llsc_cli_retries_{}", std::process::id()));
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let job = [
        "job",
        "run",
        "--dir",
        dir_arg,
        "--experiment",
        "e4",
        "--ns",
        "3",
        "--toss-seeds",
        "0",
        "--chunks",
        "1",
        "--retries",
        "1",
    ];
    // Each subcommand keeps its own usage-error exit code.
    for (args, code) in [
        (&job[..], 2),
        (&["table", "e3", "--retries", "1"][..], 2),
        (
            &[
                "wakeup",
                "--alg",
                "counter-wakeup",
                "--n",
                "3",
                "--bogus",
                "1",
            ][..],
            2,
        ),
    ] {
        let out = llsc(args);
        assert_eq!(out.status.code(), Some(code), "{args:?}");
        assert!(out.stdout.is_empty(), "nothing runs: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error: unknown flag"), "{err}");
    }
    assert!(!dir.exists(), "the refused job wrote nothing");
}

#[test]
fn a_failed_check_exits_1_and_misuse_exits_2_with_the_usage_text() {
    // Nobody returns 1 under `strawman-silent`, so every hardware history
    // fails the wakeup check: a verdict, not misuse.
    let out = llsc(&[
        "xcheck",
        "--alg",
        "strawman-silent",
        "--n",
        "2",
        "--trials",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("  FAIL"));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cross-validation FAILED"), "{err}");
    assert!(!err.contains("usage:"), "{err}");

    for args in [
        &["xcheck", "--bogus", "1"][..],
        &["xcheck", "--n", "x"][..],
        &["frobnicate"][..],
    ] {
        let out = llsc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "nothing runs: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error: ") && err.contains("usage:"), "{err}");
    }
}
