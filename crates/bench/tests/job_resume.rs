//! Integration tests for the resumable job layer: kill/resume
//! determinism across thread counts, and graceful fallback past every
//! class of damaged checkpoint (truncation, bit flips, stale versions,
//! and the stray temp file a kill between write and rename leaves).

use llsc_bench::job::{
    artifact_path, resume_job, run_job, JobControl, JobExperiment, JobSpec, JobStatus,
};
use llsc_bench::table::Table;
use llsc_shmem::checkpoint;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("llsc-jobtest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An E4 spec whose 192 trials (6 algorithms x n=4 x 2 toss seeds x 16
/// subsets) span 6 chunks — enough structure for every kill point to
/// land mid-job.
fn e4_spec() -> JobSpec {
    JobSpec {
        ns: vec![4],
        toss_seeds: vec![0, 1],
        chunks: 6,
        ..JobSpec::default_for(JobExperiment::E4)
    }
}

/// An E16 spec whose 12 trials (6 hardened algorithms x f=8 x 2 reps)
/// span 6 chunks. Its stalled trials were delivered faults and published
/// detections before stalling, so every fault-trial record field has
/// something to carry through a checkpoint.
fn e16_spec() -> JobSpec {
    JobSpec {
        intensities: vec![8],
        samples: 2,
        chunks: 6,
        ..JobSpec::default_for(JobExperiment::E16)
    }
}

fn stop_after(chunks: usize) -> JobControl {
    JobControl {
        stop_after_chunks: Some(chunks),
        ..JobControl::new()
    }
}

/// The clean-run artifact every interrupted variant must reproduce.
fn uninterrupted_artifact(spec: &JobSpec, threads: usize) -> String {
    // Tests run in parallel, so each reference run needs a directory of
    // its own: a shared one is wiped by the next test's `scratch`.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = scratch(&format!("clean-{threads}-{run}"));
    let report = run_job(&dir, spec, threads, &JobControl::new()).unwrap();
    assert_eq!(report.status, JobStatus::Complete);
    let artifact = std::fs::read_to_string(report.artifact.unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    artifact
}

fn newest_checkpoint(dir: &Path) -> PathBuf {
    let ckpt_dir = dir.join("checkpoints");
    let seq = *checkpoint::list_seqs(&ckpt_dir).iter().max().unwrap();
    ckpt_dir.join(checkpoint::file_name(seq))
}

#[test]
fn kill_after_chunk_one_resumes_byte_identically_at_another_thread_count() {
    let spec = e4_spec();
    assert!(spec.chunks >= 4, "the sweep must span several chunks");
    let dir = scratch("kill-resume");

    let first = run_job(&dir, &spec, 1, &stop_after(1)).unwrap();
    assert_eq!(first.status, JobStatus::Interrupted);
    assert_eq!(first.completed_chunks, 1);
    assert!(
        first.artifact.is_none(),
        "an interrupted run leaves no artifact"
    );
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"status\":\"interrupted\""));

    // Resume at a different thread count than both the first leg and the
    // reference run.
    let second = resume_job(&dir, 3, &JobControl::new()).unwrap();
    assert_eq!(second.status, JobStatus::Complete);
    assert_eq!(second.completed_chunks, spec.chunks);
    let resumed = std::fs::read_to_string(second.artifact.unwrap()).unwrap();

    assert_eq!(resumed, uninterrupted_artifact(&spec, 2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_kill_point_resumes_to_the_same_artifact() {
    let e16 = Table::from_json_artifact(&uninterrupted_artifact(&e16_spec(), 1)).unwrap();
    let column = |name: &str| e16[0].headers().iter().position(|h| h == name).unwrap();
    let counts = [column("stalled"), column("injected"), column("detected")];
    assert!(
        e16[0]
            .rows()
            .iter()
            .any(|row| counts.iter().all(|&c| row[c] != "0")),
        "some stalled E16 trials carry delivered faults and detections"
    );
    for spec in [e4_spec(), e16_spec()] {
        kill_points_resume_to_the_same_artifact(&spec);
    }
}

fn kill_points_resume_to_the_same_artifact(spec: &JobSpec) {
    let reference = uninterrupted_artifact(spec, 1);
    let tag = spec.experiment.tag();
    for kill_after in [0, 2, 5] {
        let dir = scratch(&format!("kill-{tag}-at-{kill_after}"));
        let first = run_job(&dir, spec, 2, &stop_after(kill_after)).unwrap();
        assert_eq!(
            first.status,
            JobStatus::Interrupted,
            "{tag} kill_after={kill_after}"
        );
        let second = resume_job(&dir, 4, &JobControl::new()).unwrap();
        assert_eq!(
            second.status,
            JobStatus::Complete,
            "{tag} kill_after={kill_after}"
        );
        let resumed = std::fs::read_to_string(second.artifact.unwrap()).unwrap();
        assert_eq!(resumed, reference, "{tag} kill_after={kill_after}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn flipped_byte_checkpoint_falls_back_to_the_previous_valid_one() {
    let spec = e4_spec();
    let dir = scratch("flip");
    run_job(&dir, &spec, 1, &stop_after(2)).unwrap();

    let newest = newest_checkpoint(&dir);
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&newest, bytes).unwrap();

    let report = resume_job(&dir, 2, &JobControl::new()).unwrap();
    assert_eq!(report.status, JobStatus::Complete);
    assert_eq!(
        report.fallback_notes.len(),
        1,
        "{:?}",
        report.fallback_notes
    );
    assert!(
        report.fallback_notes[0].contains("checksum mismatch"),
        "{:?}",
        report.fallback_notes
    );
    let resumed = std::fs::read_to_string(report.artifact.unwrap()).unwrap();
    assert_eq!(resumed, uninterrupted_artifact(&spec, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_checkpoint_falls_back_to_the_previous_valid_one() {
    let spec = e4_spec();
    let dir = scratch("truncate");
    run_job(&dir, &spec, 1, &stop_after(2)).unwrap();

    let newest = newest_checkpoint(&dir);
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 3]).unwrap();

    let report = resume_job(&dir, 2, &JobControl::new()).unwrap();
    assert_eq!(report.status, JobStatus::Complete);
    assert!(
        report.fallback_notes[0].contains("truncated"),
        "{:?}",
        report.fallback_notes
    );
    let resumed = std::fs::read_to_string(report.artifact.unwrap()).unwrap();
    assert_eq!(resumed, uninterrupted_artifact(&spec, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_version_checkpoint_falls_back_to_the_previous_valid_one() {
    let spec = e4_spec();
    let dir = scratch("stale");
    run_job(&dir, &spec, 1, &stop_after(2)).unwrap();

    // Re-encode the newest checkpoint under a future container version:
    // the checksum is valid, the version is not.
    let newest = newest_checkpoint(&dir);
    let text = String::from_utf8(std::fs::read(&newest).unwrap()).unwrap();
    std::fs::write(
        &newest,
        text.replacen("llsc-job-checkpoint v1", "llsc-job-checkpoint v9", 1),
    )
    .unwrap();

    let report = resume_job(&dir, 2, &JobControl::new()).unwrap();
    assert_eq!(report.status, JobStatus::Complete);
    assert!(
        report.fallback_notes[0].contains("version"),
        "{:?}",
        report.fallback_notes
    );
    let resumed = std::fs::read_to_string(report.artifact.unwrap()).unwrap();
    assert_eq!(resumed, uninterrupted_artifact(&spec, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_between_write_and_rename_is_invisible_to_resume() {
    let spec = e4_spec();
    let dir = scratch("tmpfile");
    run_job(&dir, &spec, 1, &stop_after(2)).unwrap();

    // A crash between the temp-file write and the rename leaves a `.tmp`
    // sibling; the loader must ignore it entirely.
    let ckpt_dir = dir.join("checkpoints");
    let next_seq = checkpoint::list_seqs(&ckpt_dir).iter().max().unwrap() + 1;
    let stray = ckpt_dir.join(format!("{}.tmp", checkpoint::file_name(next_seq)));
    std::fs::write(&stray, b"partial garbage from a killed writer").unwrap();

    let report = resume_job(&dir, 2, &JobControl::new()).unwrap();
    assert_eq!(report.status, JobStatus::Complete);
    assert!(
        report.fallback_notes.is_empty(),
        "{:?}",
        report.fallback_notes
    );
    let resumed = std::fs::read_to_string(report.artifact.unwrap()).unwrap();
    assert_eq!(resumed, uninterrupted_artifact(&spec, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_checkpoints_destroyed_restarts_from_scratch() {
    let spec = e4_spec();
    let dir = scratch("wipe");
    run_job(&dir, &spec, 1, &stop_after(3)).unwrap();
    std::fs::remove_dir_all(dir.join("checkpoints")).unwrap();

    let report = resume_job(&dir, 2, &JobControl::new()).unwrap();
    assert_eq!(report.status, JobStatus::Complete);
    let resumed = std::fs::read_to_string(report.artifact.unwrap()).unwrap();
    assert_eq!(resumed, uninterrupted_artifact(&spec, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retry_exhaustion_yields_a_partial_artifact_not_a_crash() {
    // Starving the executor's event budget makes every trial fail; the
    // job must still terminate with an incomplete manifest, a partial
    // (row-less) artifact, and the failure ledger populated.
    let spec = JobSpec {
        ns: vec![4],
        toss_seeds: vec![0],
        chunks: 3,
        max_events: 1,
        ..JobSpec::default_for(JobExperiment::E4)
    };
    let dir = scratch("starve");
    let report = run_job(&dir, &spec, 2, &JobControl::new()).unwrap();
    assert_eq!(report.status, JobStatus::Incomplete);
    assert_eq!(report.failed.len(), 3);

    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"status\":\"incomplete\""));
    assert!(manifest.contains("\"incomplete_rows\":["));
    let artifact = std::fs::read_to_string(artifact_path(&dir)).unwrap();
    assert!(artifact.starts_with("{\"tables\":["));

    // A later resume with a fixed budget completes the job gracefully:
    // resuming is the one way to re-attempt a failed chunk.
    let fixed = JobSpec {
        max_events: 0,
        ..spec
    };
    llsc_shmem::atomic_write(&dir.join("spec.json"), fixed.render()).unwrap();
    std::fs::remove_dir_all(dir.join("checkpoints")).unwrap();
    let report = resume_job(&dir, 2, &JobControl::new()).unwrap();
    assert_eq!(report.status, JobStatus::Complete);
    let resumed = std::fs::read_to_string(report.artifact.unwrap()).unwrap();
    assert_eq!(resumed, uninterrupted_artifact(&fixed, 2));
    std::fs::remove_dir_all(&dir).ok();
}
