//! Golden-artifact regression tests for the subset-sweep hot path.
//!
//! The zero-allocation rework of the simulator (bitmask `Pset`s,
//! clone-free executor dispatch, shared All-run) must not change a single
//! byte of experiment output — determinism is the regression oracle. The
//! fixtures under `tests/fixtures/` were produced by the pre-optimisation
//! code path (`table_e4 --json` / `table_e13 --json` at `--threads 1`,
//! which is byte-identical to `--threads 4`); these tests regenerate the
//! artifacts in-process with the same seeds and assert byte equality.
//!
//! The E15/E16 fixtures play the same role for the fault experiments:
//! captured from `table_e15 --json` / `table_e16 --json` with default
//! parameters, they pin the crash- and memory-fault artifacts across the
//! failure-replay/shrinking rework (and any future change to the trial
//! engine).

use llsc_bench::table::Table;
use llsc_shmem::Sweep;

/// E4 with the `table_e4` parameters (`ns = [4, 6]`, seeds `0, 1, 42`):
/// the JSON artifact is byte-identical to the checked-in old-path fixture
/// at 1, 4 and 8 worker threads.
#[test]
fn e4_artifact_matches_old_path_fixture() {
    let fixture = include_str!("fixtures/e4.json");
    for threads in [1, 4, 8] {
        let sweep = Sweep::with_threads(threads);
        let exp = llsc_bench::e4_indistinguishability(&[4, 6], &[0, 1, 42], &sweep);
        let artifact = Table::render_json_artifact_with_failures(&[&exp.table], &[]);
        assert_eq!(
            artifact, fixture,
            "E4 artifact diverged from the old-path fixture at --threads {threads}"
        );
    }
}

/// E13 with the `table_e13` parameters (`ns = [4, 6]`, `ZeroTosses`):
/// byte-identical to the checked-in old-path fixture at 1, 4 and 8
/// threads.
#[test]
fn e13_artifact_matches_old_path_fixture() {
    let fixture = include_str!("fixtures/e13.json");
    for threads in [1, 4, 8] {
        let sweep = Sweep::with_threads(threads);
        let exp = llsc_bench::e13_appendix_claims(&[4, 6], &sweep);
        let artifact = Table::render_json_artifact_with_failures(&[&exp.table], &[]);
        assert_eq!(
            artifact, fixture,
            "E13 artifact diverged from the old-path fixture at --threads {threads}"
        );
    }
}

/// E15 with the `table_e15` parameters (`n = 8`, `ks = [0, 1, 2, 4]`,
/// 6 reps): byte-identical to the checked-in fixture at 1 and 4 threads,
/// pinning the crash-fault experiment across the replay/shrink rework.
#[test]
fn e15_artifact_matches_fixture() {
    let fixture = include_str!("fixtures/e15.json");
    for threads in [1, 4] {
        let sweep = Sweep::with_threads(threads);
        let (exp, failures) =
            llsc_bench::e15_crash_degradation(8, &[0, 1, 2, 4], 6, 2_000_000, &sweep);
        let artifact = Table::render_json_artifact_with_failures(&[&exp.table], &failures);
        assert_eq!(
            artifact, fixture,
            "E15 artifact diverged from the fixture at --threads {threads}"
        );
    }
}

/// E19 with the `table_e19` parameters (`n = 8`, `ks = [0, 1, 2, 4]`,
/// 6 reps): byte-identical to the checked-in fixture at 1, 4, and 8
/// threads, pinning the crash-recovery experiment (and both RMR cost
/// models' counters) across future reworks of the trial engine.
#[test]
fn e19_artifact_matches_fixture() {
    let fixture = include_str!("fixtures/e19.json");
    for threads in [1, 4, 8] {
        let sweep = Sweep::with_threads(threads);
        let (exp, failures) =
            llsc_bench::e19_recovery_sweep(8, &[0, 1, 2, 4], 6, 2_000_000, &sweep);
        let artifact = Table::render_json_artifact_with_failures(&[&exp.table], &failures);
        assert_eq!(
            artifact, fixture,
            "E19 artifact diverged from the fixture at --threads {threads}"
        );
    }
}

/// E20 (simulator half) with the `table_e20` parameters (`n = 8`,
/// `intensities = [0, 1, 2, 4]`, 6 reps): byte-identical to the
/// checked-in fixture at 1, 4, and 8 threads, pinning the chaos
/// experiment's degradation classes and both RMR cost models across
/// thread counts and future reworks of the fault layer.
#[test]
fn e20_artifact_matches_fixture() {
    let fixture = include_str!("fixtures/e20.json");
    for threads in [1, 4, 8] {
        let sweep = Sweep::with_threads(threads);
        let (exp, failures) =
            llsc_bench::e20_chaos_recovery_sweep(8, &[0, 1, 2, 4], 6, 2_000_000, &sweep);
        let artifact = Table::render_json_artifact_with_failures(&[&exp.table], &failures);
        assert_eq!(
            artifact, fixture,
            "E20 artifact diverged from the fixture at --threads {threads}"
        );
    }
}

/// E16 with the `table_e16` parameters (`n = 8`, `fs = [0, 1, 2, 4, 8]`,
/// 6 reps): byte-identical to the checked-in fixture at 1 and 4 threads,
/// pinning the memory-fault experiment across the replay/shrink rework.
#[test]
fn e16_artifact_matches_fixture() {
    let fixture = include_str!("fixtures/e16.json");
    for threads in [1, 4] {
        let sweep = Sweep::with_threads(threads);
        let (exp, failures) =
            llsc_bench::e16_fault_degradation(8, &[0, 1, 2, 4, 8], 6, 2_000_000, &sweep);
        let artifact = Table::render_json_artifact_with_failures(&[&exp.table], &failures);
        assert_eq!(
            artifact, fixture,
            "E16 artifact diverged from the fixture at --threads {threads}"
        );
    }
}
