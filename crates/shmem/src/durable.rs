//! Crash-safe file emission.
//!
//! Every JSON artifact this workspace writes — experiment tables, repro
//! cases, bench baselines, job checkpoints — goes through
//! [`atomic_write`]: the contents land in a same-directory temporary
//! file, are fsynced, and are renamed over the destination, so a process
//! killed at any instant leaves either the old file, the new file, or an
//! ignorable `*.tmp` — never a half-written artifact.
//!
//! [`fnv64`] is the workspace's content checksum (FNV-1a, 64-bit): small
//! enough to hand-roll in a registry-less build environment, strong
//! enough to detect the torn or bit-flipped checkpoint files the job
//! layer must survive.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The 64-bit FNV-1a hash of `bytes` — the content checksum recorded in
/// checkpoint headers and verified on load.
///
/// # Examples
///
/// ```
/// use llsc_shmem::durable::fnv64;
/// assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(fnv64(b"a"), fnv64(b"b"));
/// ```
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The temporary sibling `atomic_write` stages `path`'s contents in.
/// Exposed so directory scanners (the checkpoint loader) can recognise
/// and ignore the leftovers of a write killed between create and rename.
pub(crate) fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `contents` to `path` crash-safely: temp file in the same
/// directory, flush + fsync, atomic rename over the destination, fsync of
/// the parent directory. A kill at any point leaves either the previous
/// file intact or the new one complete — plus, at worst, a stale
/// `<name>.tmp` sibling that the next write truncates and reuses.
///
/// # Errors
///
/// Any I/O error from the create/write/sync/rename chain, with the
/// temporary file cleaned up on a best-effort basis.
pub fn atomic_write(path: &Path, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(contents.as_ref())?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        // Persist the rename itself: fsync the containing directory so a
        // crash after this call cannot roll the directory entry back.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                // Directory fsync is unsupported on some filesystems;
                // the rename is still atomic, so a failure here is not
                // worth failing the write over.
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("llsc-durable-{name}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = scratch_dir("replace");
        let path = dir.join("artifact.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer contents");
        assert!(
            !tmp_sibling(&path).exists(),
            "no temporary file survives a successful write"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_stale_tmp_sibling_is_overwritten_not_fatal() {
        let dir = scratch_dir("stale-tmp");
        let path = dir.join("artifact.json");
        // Simulate a previous writer killed between create and rename.
        fs::write(tmp_sibling(&path), b"torn half-write").unwrap();
        atomic_write(&path, b"fresh").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"fresh");
        assert!(!tmp_sibling(&path).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_leaves_no_tmp_and_no_destination() {
        let dir = scratch_dir("fail");
        let path = dir.join("no-such-subdir").join("artifact.json");
        assert!(atomic_write(&path, b"x").is_err());
        assert!(!path.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_sibling_stays_in_the_same_directory() {
        let path = Path::new("/some/dir/ckpt-000001.llsc");
        assert_eq!(
            tmp_sibling(path),
            Path::new("/some/dir/ckpt-000001.llsc.tmp")
        );
    }
}
