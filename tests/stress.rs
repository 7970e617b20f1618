//! Wakeup stress sweeps: beyond the Figure-2 adversary.
//!
//! The adversary run alone cannot expose partial-participation bugs (its
//! first round makes everyone step). The stress portfolio — partition,
//! sequential, and random schedules — closes the gap, and these tests pin
//! down which shipped algorithms survive it and which strawmen fall.

use llsc_lowerbound::core::{standard_portfolio, stress_wakeup, StressSchedule};
use llsc_lowerbound::shmem::{SeededTosses, Sweep, ZeroTosses};
use llsc_lowerbound::wakeup::{correct_algorithms, HalfCountWakeup, NoStepWakeup, PrematureWakeup};
use std::sync::Arc;

#[test]
fn correct_algorithms_survive_the_full_portfolio() {
    for alg in correct_algorithms() {
        for n in [2, 5, 8] {
            let report = stress_wakeup(
                alg.as_ref(),
                n,
                Arc::new(ZeroTosses),
                &standard_portfolio(n, 4),
                2_000_000,
                &Sweep::sequential(),
            )
            .unwrap();
            assert!(report.ok(), "{} n={n}: {report}", alg.name());
        }
    }
}

#[test]
fn randomized_counter_survives_with_real_coins() {
    use llsc_lowerbound::wakeup::RandomizedCounterWakeup;
    for seed in [1u64, 9] {
        let report = stress_wakeup(
            &RandomizedCounterWakeup,
            6,
            Arc::new(SeededTosses::new(seed)),
            &standard_portfolio(6, 3),
            2_000_000,
            &Sweep::sequential(),
        )
        .unwrap();
        assert!(report.ok(), "seed={seed}: {report}");
    }
}

#[test]
fn half_count_falls_to_partition_schedules() {
    // The strawman the adversary cannot catch: stress catches it on every
    // partition of at least ceil(n/2) processes.
    let n = 8;
    let report = stress_wakeup(
        &HalfCountWakeup,
        n,
        Arc::new(ZeroTosses),
        &standard_portfolio(n, 2),
        1_000_000,
        &Sweep::sequential(),
    )
    .unwrap();
    assert!(!report.ok());
    let caught_partitions = report
        .failures
        .iter()
        .filter(|f| matches!(&f.schedule, StressSchedule::Partition(ps) if ps.len() >= n / 2))
        .count();
    assert!(caught_partitions >= 1, "{report}");
}

#[test]
fn premature_and_no_step_fail_almost_everywhere() {
    for (name, alg) in [
        (
            "premature",
            &PrematureWakeup as &dyn llsc_lowerbound::shmem::Algorithm,
        ),
        ("no-step", &NoStepWakeup),
    ] {
        let report = stress_wakeup(
            alg,
            6,
            Arc::new(ZeroTosses),
            &standard_portfolio(6, 2),
            1_000_000,
            &Sweep::sequential(),
        )
        .unwrap();
        assert!(!report.ok(), "{name}");
        // These fail even the smallest partition.
        assert!(
            report
                .failures
                .iter()
                .any(|f| matches!(&f.schedule, StressSchedule::Partition(ps) if ps.len() == 1)),
            "{name}: {report}"
        );
    }
}

#[test]
fn portfolio_is_deterministic() {
    let a = standard_portfolio(5, 2);
    let b = standard_portfolio(5, 2);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y);
    }
}
