//! Versioned, checksummed checkpoint files for resumable jobs.
//!
//! A checkpoint is a single file `ckpt-<seq>.llsc` whose first line is a
//! self-describing header and whose remainder is an opaque payload (the
//! job layer stores JSON there, but this module does not care):
//!
//! ```text
//! llsc-job-checkpoint v1 fnv64=<16 hex digits> bytes=<payload length>\n
//! <payload bytes>
//! ```
//!
//! The header carries everything needed to detect the failure modes a
//! crash mid-write can produce:
//!
//! * **truncation** — `bytes=` disagrees with what is actually on disk;
//! * **corruption** — the FNV-1a checksum of the payload does not match;
//! * **version skew** — a checkpoint written by a different format
//!   revision is refused rather than misread;
//! * **torn writes** — [`write()`] goes through
//!   [`atomic_write`], so a kill between
//!   create and rename leaves only an ignorable `*.tmp` sibling.
//!
//! [`load_latest`] scans a directory for the newest checkpoint that
//! decodes cleanly, skipping (and reporting) invalid ones, so a job
//! always resumes from the most recent *valid* state even if the most
//! recent *write* was interrupted. [`write()`] keeps the two newest
//! checkpoints and prunes the rest, bounding disk use while guaranteeing
//! a fallback exists the instant the newest file turns out bad.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::durable::{atomic_write, fnv64};

/// Magic prefix of every checkpoint header line.
const MAGIC: &str = "llsc-job-checkpoint";
/// Format revision this module reads and writes.
const VERSION: &str = "v1";
/// How many checkpoint files [`write`] retains (newest first).
const KEEP: usize = 2;

/// Why a checkpoint file failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The first line is not a `llsc-job-checkpoint` header at all.
    BadHeader(String),
    /// The header is well-formed but written by an unknown format
    /// revision.
    StaleVersion(String),
    /// The payload on disk is shorter than the header's `bytes=` claim
    /// (classic crash-mid-write truncation).
    Truncated {
        /// Payload length the header promised.
        expected: usize,
        /// Payload length actually present.
        actual: usize,
    },
    /// The payload length matches but its FNV-1a checksum does not
    /// (bit rot or an overwritten range).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as read.
        actual: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadHeader(line) => {
                write!(f, "not a checkpoint header: {line:?}")
            }
            CheckpointError::StaleVersion(version) => {
                write!(
                    f,
                    "unsupported checkpoint version {version:?} (expected {VERSION})"
                )
            }
            CheckpointError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated payload: header claims {expected} bytes, found {actual}"
                )
            }
            CheckpointError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "payload checksum mismatch: header fnv64={expected:016x}, computed {actual:016x}"
                )
            }
        }
    }
}

/// Encodes `payload` into the on-disk checkpoint container format.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let header = format!(
        "{MAGIC} {VERSION} fnv64={:016x} bytes={}\n",
        fnv64(payload),
        payload.len()
    );
    let mut out = header.into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Decodes a checkpoint container, verifying version, length, and
/// checksum, and returns the payload.
///
/// # Errors
///
/// A [`CheckpointError`] naming the first integrity check that failed.
pub(crate) fn decode(bytes: &[u8]) -> Result<Vec<u8>, CheckpointError> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| CheckpointError::BadHeader(preview(bytes)))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| CheckpointError::BadHeader(preview(bytes)))?;
    let mut fields = header.split_whitespace();
    if fields.next() != Some(MAGIC) {
        return Err(CheckpointError::BadHeader(header.to_string()));
    }
    let version = fields
        .next()
        .ok_or_else(|| CheckpointError::BadHeader(header.to_string()))?;
    if version != VERSION {
        return Err(CheckpointError::StaleVersion(version.to_string()));
    }
    let expected_hash = fields
        .next()
        .and_then(|f| f.strip_prefix("fnv64="))
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| CheckpointError::BadHeader(header.to_string()))?;
    let expected_len = fields
        .next()
        .and_then(|f| f.strip_prefix("bytes="))
        .and_then(|l| l.parse::<usize>().ok())
        .ok_or_else(|| CheckpointError::BadHeader(header.to_string()))?;
    let payload = &bytes[newline + 1..];
    if payload.len() < expected_len {
        return Err(CheckpointError::Truncated {
            expected: expected_len,
            actual: payload.len(),
        });
    }
    let payload = &payload[..expected_len];
    let actual_hash = fnv64(payload);
    if actual_hash != expected_hash {
        return Err(CheckpointError::ChecksumMismatch {
            expected: expected_hash,
            actual: actual_hash,
        });
    }
    Ok(payload.to_vec())
}

fn preview(bytes: &[u8]) -> String {
    String::from_utf8_lossy(&bytes[..bytes.len().min(40)]).into_owned()
}

/// File name of the checkpoint with sequence number `seq`.
pub fn file_name(seq: u64) -> String {
    format!("ckpt-{seq:08}.llsc")
}

/// Parses a checkpoint sequence number back out of a file name, if the
/// name matches the `ckpt-<seq>.llsc` scheme (temporary `*.tmp` siblings
/// deliberately do not).
pub(crate) fn parse_seq(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".llsc")?
        .parse()
        .ok()
}

/// Atomically writes checkpoint `seq` into `dir` and prunes old state:
/// all but the `KEEP` newest checkpoints, plus any stray `*.tmp`
/// leftovers from interrupted writes.
///
/// # Errors
///
/// I/O errors from directory creation or the durable write itself;
/// pruning failures are ignored (stale files are harmless, merely
/// unclean).
pub fn write(dir: &Path, seq: u64, payload: &[u8]) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(file_name(seq));
    atomic_write(&path, encode(payload))?;
    let mut seqs: Vec<u64> = list_seqs(dir);
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    for &old in seqs.iter().skip(KEEP) {
        let _ = fs::remove_file(dir.join(file_name(old)));
    }
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            if name.to_string_lossy().ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
    Ok(path)
}

/// Sequence numbers of every checkpoint file currently in `dir`
/// (unsorted; `*.tmp` leftovers and foreign files are ignored).
pub fn list_seqs(dir: &Path) -> Vec<u64> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| parse_seq(&e.file_name().to_string_lossy()))
        .collect()
}

/// A checkpoint that failed to decode during [`load_latest`]'s scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedCheckpoint {
    /// Sequence number of the rejected file.
    pub seq: u64,
    /// Why it was rejected.
    pub error: CheckpointError,
}

/// The result of scanning a checkpoint directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedCheckpoint {
    /// Sequence number of the newest checkpoint that decoded cleanly.
    pub seq: u64,
    /// Its payload.
    pub payload: Vec<u8>,
    /// Newer checkpoints that were present but invalid, newest first —
    /// surfaced so the caller can warn that recovery fell back.
    pub skipped: Vec<SkippedCheckpoint>,
}

/// Loads the newest checkpoint in `dir` that passes every integrity
/// check, falling back across truncated/corrupt/stale files (recorded in
/// `skipped`, newest first). Returns `None` if the directory holds no
/// valid checkpoint at all — including the fresh-start case where it
/// does not exist.
pub fn load_latest(dir: &Path) -> Option<LoadedCheckpoint> {
    let mut seqs = list_seqs(dir);
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    let mut skipped = Vec::new();
    for seq in seqs {
        let path = dir.join(file_name(seq));
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                skipped.push(SkippedCheckpoint {
                    seq,
                    error: CheckpointError::BadHeader(format!("unreadable: {e}")),
                });
                continue;
            }
        };
        match decode(&bytes) {
            Ok(payload) => {
                return Some(LoadedCheckpoint {
                    seq,
                    payload,
                    skipped,
                });
            }
            Err(error) => skipped.push(SkippedCheckpoint { seq, error }),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::tmp_sibling;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("llsc-checkpoint-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_preserves_payload() {
        let payload = b"{\"chunks\":[\"0\",\"1\"]}".to_vec();
        assert_eq!(decode(&encode(&payload)).unwrap(), payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        assert_eq!(decode(&encode(b"")).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncated_file_is_detected() {
        let full = encode(b"twelve bytes");
        let torn = &full[..full.len() - 5];
        assert_eq!(
            decode(torn),
            Err(CheckpointError::Truncated {
                expected: 12,
                actual: 7,
            })
        );
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let mut bytes = encode(b"deterministic payload");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode(&bytes),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn stale_version_header_is_refused() {
        let mut bytes = encode(b"payload");
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header = String::from_utf8(bytes[..header_end].to_vec()).unwrap();
        let stale = header.replace(" v1 ", " v0 ");
        let mut out = stale.into_bytes();
        out.extend_from_slice(&bytes.split_off(header_end));
        assert_eq!(
            decode(&out),
            Err(CheckpointError::StaleVersion("v0".to_string()))
        );
    }

    #[test]
    fn garbage_is_a_bad_header() {
        assert!(matches!(
            decode(b"not a checkpoint\nat all"),
            Err(CheckpointError::BadHeader(_))
        ));
        assert!(matches!(
            decode(b"no newline whatsoever"),
            Err(CheckpointError::BadHeader(_))
        ));
    }

    #[test]
    fn write_then_load_latest_returns_the_newest() {
        let dir = scratch_dir("newest");
        write(&dir, 1, b"one").unwrap();
        write(&dir, 2, b"two").unwrap();
        let loaded = load_latest(&dir).unwrap();
        assert_eq!(loaded.seq, 2);
        assert_eq!(loaded.payload, b"two");
        assert!(loaded.skipped.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pruning_keeps_only_the_two_newest() {
        let dir = scratch_dir("prune");
        for seq in 1..=5 {
            write(&dir, seq, format!("payload {seq}").as_bytes()).unwrap();
        }
        let mut seqs = list_seqs(&dir);
        seqs.sort_unstable();
        assert_eq!(seqs, vec![4, 5]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_valid() {
        let dir = scratch_dir("fallback");
        write(&dir, 1, b"good old state").unwrap();
        write(&dir, 2, b"doomed state").unwrap();
        // Flip a payload byte in the newest file.
        let newest = dir.join(file_name(2));
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();
        let loaded = load_latest(&dir).unwrap();
        assert_eq!(loaded.seq, 1);
        assert_eq!(loaded.payload, b"good old state");
        assert_eq!(loaded.skipped.len(), 1);
        assert_eq!(loaded.skipped[0].seq, 2);
        assert!(matches!(
            loaded.skipped[0].error,
            CheckpointError::ChecksumMismatch { .. }
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_newest_falls_back_to_previous_valid() {
        let dir = scratch_dir("truncated");
        write(&dir, 7, b"complete earlier checkpoint").unwrap();
        let newest = dir.join(file_name(8));
        let full = encode(b"interrupted later checkpoint");
        fs::write(&newest, &full[..full.len() - 10]).unwrap();
        let loaded = load_latest(&dir).unwrap();
        assert_eq!(loaded.seq, 7);
        assert_eq!(loaded.payload, b"complete earlier checkpoint");
        assert!(matches!(
            loaded.skipped[0].error,
            CheckpointError::Truncated { .. }
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_between_create_and_rename_leaves_tmp_that_is_ignored() {
        let dir = scratch_dir("kill-rename");
        write(&dir, 3, b"durable state").unwrap();
        // Simulate a writer killed after creating the temp file but
        // before the rename: a half-written ckpt-00000004.llsc.tmp.
        let tmp = tmp_sibling(&dir.join(file_name(4)));
        let half = encode(b"never completed");
        fs::write(&tmp, &half[..half.len() / 2]).unwrap();
        let loaded = load_latest(&dir).unwrap();
        assert_eq!(loaded.seq, 3);
        assert_eq!(loaded.payload, b"durable state");
        assert!(loaded.skipped.is_empty(), "tmp files are not checkpoints");
        // The next successful write cleans the leftover up.
        write(&dir, 4, b"completed this time").unwrap();
        assert!(!tmp.exists());
        assert_eq!(load_latest(&dir).unwrap().payload, b"completed this time");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_or_missing_directory_loads_nothing() {
        let dir = scratch_dir("empty");
        assert!(load_latest(&dir).is_none());
        assert!(load_latest(&dir.join("does-not-exist")).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seq_file_names_round_trip() {
        assert_eq!(file_name(42), "ckpt-00000042.llsc");
        assert_eq!(parse_seq("ckpt-00000042.llsc"), Some(42));
        assert_eq!(parse_seq("ckpt-00000042.llsc.tmp"), None);
        assert_eq!(parse_seq("artifact.json"), None);
    }
}
