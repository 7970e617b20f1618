//! End-to-end round trip of the failure-replay subsystem: a seeded,
//! deliberately starved E16 run produces trial failures with attached
//! repro cases; each case replays byte-identically and shrinks to a
//! strictly smaller reproducer with the same failure class.

use llsc_bench::registry;
use llsc_bench::repro::{run_case, shrink_case};
use llsc_shmem::repro::ReproCase;
use llsc_shmem::Sweep;

/// Starves `llsc table e16`'s `f = 0` trials so the zero-cost assertion
/// panics, then round-trips every resulting failure through the repro
/// pipeline.
#[test]
fn starved_e16_failures_replay_and_shrink() {
    let (_, failures) = registry::find("e16")
        .unwrap()
        .run(&Sweep::sequential(), Some(40));
    assert!(!failures.is_empty(), "starved f=0 trials must fail");

    for failure in &failures {
        let json = failure
            .repro
            .as_ref()
            .expect("every failure carries a serialized repro case");

        // The attached JSON is a self-contained, parseable document.
        let case = ReproCase::from_json(json).expect("attached repro parses");
        assert_eq!(case.to_json(), *json, "serialization round-trips");
        assert_eq!(case.experiment, "e16");
        let provenance = case.provenance.expect("provenance recorded");
        assert_eq!(provenance.trial_index, failure.index);

        // Replay: byte-for-byte identical outcome and failure class.
        let first = run_case(&case).expect("the algorithm name resolves");
        assert_eq!(
            first.outcome_debug, case.outcome,
            "replayed outcome matches the recorded one byte-for-byte"
        );
        assert_eq!(first.class, case.class);
        let second = run_case(&case).expect("the algorithm name resolves");
        assert_eq!(
            first.outcome_debug, second.outcome_debug,
            "replay is deterministic"
        );
        assert_eq!(
            first.trace, second.trace,
            "the schedule trace is deterministic"
        );

        // Shrink: strictly smaller (the materialized schedule gives the
        // minimizer room — the starved round-robin trace is hundreds of
        // picks), same failure class, and the minimal case still replays
        // to exactly what it records.
        let report = shrink_case(&case, 500).expect("the algorithm name resolves");
        assert_eq!(
            report.case.class, case.class,
            "shrinking preserves the failure class"
        );
        assert!(
            report.final_size < report.initial_size,
            "shrinking must strictly reduce the reproducer ({} -> {})",
            report.initial_size,
            report.final_size
        );
        assert!(
            report.initial_size > 0,
            "the materialized case has evidence to drop"
        );
        let minimal = run_case(&report.case).expect("the minimal case still resolves");
        assert_eq!(minimal.outcome_debug, report.case.outcome);
        assert_eq!(minimal.class, report.case.class);
    }
}
