//! Golden-artifact regression tests: determinism is the regression
//! oracle, so no rework of the simulator or the trial engine may change a
//! byte of experiment output. The E4/E13 fixtures under `tests/fixtures/`
//! come from the pre-optimisation subset-sweep path; the E15/E16/E17/E19/E20
//! fixtures pin the crash, memory-fault, combined-chaos, recovery and
//! cross-backend chaos artifacts.
//! Each test runs the table's registry entry — what `llsc table <id>`
//! runs — in-process and asserts byte equality. The `trace-*.txt`
//! fixtures pin whole `(All, A)`-run traces (what `llsc trace` prints):
//! every round's operations in phase order, `σ_r` and the `UP` sets.

use llsc_bench::registry;
use llsc_bench::table::Table;
use llsc_core::{build_all_run, trace_all_run, AdversaryConfig};
use llsc_shmem::{Algorithm, SeededTosses, Sweep, TossAssignment, ZeroTosses};
use llsc_wakeup::{CounterWakeup, GossipWakeup, RandomizedCounterWakeup, TournamentWakeup};
use std::sync::Arc;

/// Asserts that `llsc table <id>`'s JSON artifact, rebuilt in-process at
/// each thread count, equals `fixture` byte for byte.
fn assert_matches_fixture(id: &str, fixture: &str, thread_counts: &[usize]) {
    let entry = registry::find(id).unwrap();
    for &threads in thread_counts {
        let (tables, failures) = entry.run(&Sweep::with_threads(threads), None);
        let refs: Vec<&Table> = tables.iter().collect();
        let artifact = Table::render_json_artifact_with_failures(&refs, &failures);
        assert_eq!(
            artifact, fixture,
            "{id} artifact diverged from the fixture at --threads {threads}"
        );
    }
}

/// E4 at 1, 4 and 8 worker threads.
#[test]
fn e4_artifact_matches_old_path_fixture() {
    assert_matches_fixture("e4", include_str!("fixtures/e4.json"), &[1, 4, 8]);
}

/// E13 at 1, 4 and 8 threads.
#[test]
fn e13_artifact_matches_old_path_fixture() {
    assert_matches_fixture("e13", include_str!("fixtures/e13.json"), &[1, 4, 8]);
}

/// E15 at 1 and 4 threads.
#[test]
fn e15_artifact_matches_fixture() {
    assert_matches_fixture("e15", include_str!("fixtures/e15.json"), &[1, 4]);
}

/// E17 at 1, 4 and 8 threads, pinning the chaos-mode class histogram
/// and the median shrunk reproducer sizes; debug and release builds
/// produce the same artifact.
#[test]
fn e17_artifact_matches_fixture() {
    assert_matches_fixture("e17", include_str!("fixtures/e17.json"), &[1, 4, 8]);
}

/// E19 at 1, 4 and 8 threads, pinning both RMR cost models' counters.
#[test]
fn e19_artifact_matches_fixture() {
    assert_matches_fixture("e19", include_str!("fixtures/e19.json"), &[1, 4, 8]);
}

/// E20, simulator half, at 1, 4 and 8 threads, pinning the chaos
/// experiment's degradation classes and both RMR cost models.
#[test]
fn e20_artifact_matches_fixture() {
    assert_matches_fixture("e20", include_str!("fixtures/e20.json"), &[1, 4, 8]);
}

/// E16 at 1 and 4 threads.
#[test]
fn e16_artifact_matches_fixture() {
    assert_matches_fixture("e16", include_str!("fixtures/e16.json"), &[1, 4]);
}

/// Asserts that the trace of `alg`'s whole `(All, A)`-run at `n` equals
/// `fixture` byte for byte.
fn assert_trace_matches(
    alg: &dyn Algorithm,
    n: usize,
    toss: Arc<dyn TossAssignment>,
    fixture: &str,
) {
    let all = build_all_run(alg, n, toss, &AdversaryConfig::default()).unwrap();
    assert_eq!(
        trace_all_run(&all, usize::MAX),
        fixture,
        "{} n={n}: trace diverged from the fixture",
        alg.name()
    );
}

/// LL/SC rounds: SC winners and failures, rule R1/P6/P7.
#[test]
fn counter_wakeup_trace_matches_fixture() {
    let fixture = include_str!("fixtures/trace-counter-wakeup-n4.txt");
    assert_trace_matches(&CounterWakeup, 4, Arc::new(ZeroTosses), fixture);
}

/// Swap rounds: rules R2 and P3/P5.
#[test]
fn tournament_wakeup_trace_matches_fixture() {
    let fixture = include_str!("fixtures/trace-tournament-wakeup-n8.txt");
    assert_trace_matches(&TournamentWakeup, 8, Arc::new(ZeroTosses), fixture);
}

/// Move rounds: secretive `σ_r`, rules R3 and P4.
#[test]
fn gossip_wakeup_trace_matches_fixture() {
    let fixture = include_str!("fixtures/trace-gossip-wakeup-n8.txt");
    assert_trace_matches(&GossipWakeup, 8, Arc::new(ZeroTosses), fixture);
}

/// Phase-1 coin tosses under a seeded toss assignment.
#[test]
fn randomized_counter_wakeup_trace_matches_fixture() {
    let fixture = include_str!("fixtures/trace-randomized-counter-wakeup-n6-seed7.txt");
    assert_trace_matches(
        &RandomizedCounterWakeup,
        6,
        Arc::new(SeededTosses::new(7)),
        fixture,
    );
}
