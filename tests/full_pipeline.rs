//! End-to-end integration: every shipped wakeup algorithm and every
//! Theorem 6.2 reduction, through the full lower-bound pipeline
//! (adversary run → wakeup check → UP tracking → bound verification →
//! refutation construction where applicable).

use llsc_lowerbound::core::{
    build_all_run, ceil_log4, check_wakeup, estimate_expected_complexity, verify_lower_bound,
    AdversaryConfig, WakeupViolation,
};
use llsc_lowerbound::shmem::{ProcessId, RunEvent, SeededTosses, Sweep, ZeroTosses};
use llsc_lowerbound::universal::{AdtTreeUniversal, HerlihyUniversal, MsQueue, TreiberStack};
use llsc_lowerbound::wakeup::{
    correct_algorithms, randomized_algorithms, strawman_algorithms, ObjectWakeup, ReductionKind,
};
use std::sync::Arc;

#[test]
fn correct_algorithms_pass_the_full_pipeline() {
    let cfg = AdversaryConfig::default();
    for alg in correct_algorithms() {
        for n in [2, 5, 16, 33, 64] {
            let rep = verify_lower_bound(alg.as_ref(), n, Arc::new(ZeroTosses), &cfg).unwrap();
            assert!(rep.completed, "{} n={n}", alg.name());
            assert!(rep.wakeup.ok(), "{} n={n}: {}", alg.name(), rep.wakeup);
            assert!(rep.bound_holds, "{} n={n}", alg.name());
            assert!(rep.refutation.is_none(), "{} n={n}", alg.name());
            assert!(rep.winner_steps >= ceil_log4(n), "{} n={n}", alg.name());
        }
    }
}

#[test]
fn randomized_algorithms_meet_the_expected_bound() {
    let cfg = AdversaryConfig::default();
    for alg in randomized_algorithms() {
        for n in [4, 16] {
            let rep =
                estimate_expected_complexity(alg.as_ref(), n, 0..15, &cfg, &Sweep::sequential())
                    .unwrap();
            assert!(rep.termination_rate > 0.9, "{} n={n}", alg.name());
            assert!(rep.all_meet_bound, "{} n={n}", alg.name());
            // Lemma 3.1: expected complexity >= c * k >= c * ceil(log4 n).
            assert!(
                rep.lemma_3_1_bound >= rep.termination_rate * ceil_log4(n) as f64,
                "{} n={n}",
                alg.name()
            );
        }
    }
}

#[test]
fn lemma_5_1_holds_for_every_algorithm_and_assignment() {
    let cfg = AdversaryConfig::default();
    for alg in correct_algorithms()
        .into_iter()
        .chain(randomized_algorithms())
    {
        for seed in [0u64, 7, 99] {
            let toss: Arc<dyn llsc_lowerbound::shmem::TossAssignment> = if seed == 0 {
                Arc::new(ZeroTosses)
            } else {
                Arc::new(SeededTosses::new(seed))
            };
            let all = build_all_run(alg.as_ref(), 12, toss, &cfg).unwrap();
            assert!(all.base.completed, "{} seed={seed}", alg.name());
            assert!(all.up.lemma_5_1_holds(), "{} seed={seed}", alg.name());
        }
    }
}

#[test]
fn all_reductions_over_all_constructions() {
    // Theorem 6.2's wakeup algorithms, run over three different object
    // implementations: the direct LL/SC object and both single-use
    // universal constructions. (ReadIncrement needs multi-use, so it only
    // runs over the direct object.)
    let cfg = AdversaryConfig::default();
    let n = 8;
    for kind in ReductionKind::all() {
        // Direct.
        let alg = ObjectWakeup::direct(kind, n);
        let all = build_all_run(&alg, n, Arc::new(ZeroTosses), &cfg).unwrap();
        assert!(all.base.completed, "direct {kind}");
        assert!(check_wakeup(&all.base.run).ok(), "direct {kind}");
        assert!(all.up.lemma_5_1_holds(), "direct {kind}");

        if kind.ops_per_process() > 1 {
            continue;
        }
        // ADT Group-Update tree.
        let spec = kind.spec_for(n);
        let alg = ObjectWakeup::new(kind, n, Arc::new(AdtTreeUniversal::new(spec.clone())));
        let all = build_all_run(&alg, n, Arc::new(ZeroTosses), &cfg).unwrap();
        assert!(all.base.completed, "adt {kind}");
        assert!(check_wakeup(&all.base.run).ok(), "adt {kind}");

        // Herlihy.
        let alg = ObjectWakeup::new(kind, n, Arc::new(HerlihyUniversal::new(spec)));
        let all = build_all_run(&alg, n, Arc::new(ZeroTosses), &cfg).unwrap();
        assert!(all.base.completed, "herlihy {kind}");
        assert!(check_wakeup(&all.base.run).ok(), "herlihy {kind}");
    }
}

#[test]
fn oblivious_constructions_pay_the_lower_bound_in_wakeup() {
    // Corollary 6.1 made concrete: wakeup through ANY implementation of a
    // Theorem 6.2 object costs the winner at least ceil(log4 n) shared
    // operations — including through the O(log n)-optimal ADT tree, which
    // sits within a constant factor of the bound.
    let cfg = AdversaryConfig::default();
    for n in [4, 16, 64] {
        let spec = ReductionKind::FetchIncrement.spec_for(n);
        let alg = ObjectWakeup::new(
            ReductionKind::FetchIncrement,
            n,
            Arc::new(AdtTreeUniversal::new(spec)),
        );
        let rep = verify_lower_bound(&alg, n, Arc::new(ZeroTosses), &cfg).unwrap();
        assert!(rep.wakeup.ok(), "n={n}");
        assert!(rep.bound_holds, "n={n}");
        // The ADT tree keeps even the winner within O(log n).
        let log2 = (n as f64).log2() as u64;
        assert!(
            rep.winner_steps <= 4 * log2 + 8,
            "n={n}: winner {} not O(log n)",
            rep.winner_steps
        );
    }
}

#[test]
fn wakeup_through_structural_implementations() {
    // Corollary 6.1 over the realistic pointer-based implementations: one
    // dequeue (pop) per process on an initially-full MS queue / Treiber
    // stack solves wakeup, and the measured winner respects the bound.
    use llsc_lowerbound::objects::{Queue, Stack};
    let cfg = AdversaryConfig::default();
    for n in [4usize, 16, 64] {
        let alg = ObjectWakeup::new(
            ReductionKind::Queue,
            n,
            Arc::new(MsQueue::new(Queue::with_numbered_items(n))),
        );
        let rep = verify_lower_bound(&alg, n, Arc::new(ZeroTosses), &cfg).unwrap();
        assert!(rep.wakeup.ok(), "ms-queue n={n}: {}", rep.wakeup);
        assert!(rep.bound_holds, "ms-queue n={n}");

        let alg = ObjectWakeup::new(
            ReductionKind::Stack,
            n,
            Arc::new(TreiberStack::new(Stack::with_numbered_items(n))),
        );
        let rep = verify_lower_bound(&alg, n, Arc::new(ZeroTosses), &cfg).unwrap();
        assert!(rep.wakeup.ok(), "treiber n={n}: {}", rep.wakeup);
        assert!(rep.bound_holds, "treiber n={n}");
    }
}

#[test]
fn strawmen_are_rejected_somewhere_in_the_pipeline() {
    let cfg = AdversaryConfig::default();
    let n = 32;
    for alg in strawman_algorithms() {
        let rep = verify_lower_bound(alg.as_ref(), n, Arc::new(ZeroTosses), &cfg).unwrap();
        let caught_by_checker = !rep.wakeup.ok();
        let caught_by_bound = !rep.bound_holds;
        // half-count is the special case caught by neither under the
        // adversary (see its module docs); everything else must be caught.
        if alg.name() == "strawman-half-count" {
            assert!(!caught_by_checker && !caught_by_bound);
            continue;
        }
        assert!(
            caught_by_checker || caught_by_bound,
            "{} slipped through",
            alg.name()
        );
        if let Some(refutation) = rep.refutation {
            // A constructed refutation must actually exhibit the violation.
            assert!(refutation.winner_returns_one_in_s_run, "{}", alg.name());
            assert!(refutation
                .violations
                .iter()
                .any(|v| matches!(v, WakeupViolation::PrematureWinner { .. })));
        }
    }
}

#[test]
fn adversary_runs_are_reproducible_across_invocations() {
    let cfg = AdversaryConfig::default();
    for alg in correct_algorithms() {
        let a = build_all_run(alg.as_ref(), 10, Arc::new(SeededTosses::new(5)), &cfg).unwrap();
        let b = build_all_run(alg.as_ref(), 10, Arc::new(SeededTosses::new(5)), &cfg).unwrap();
        assert_eq!(a.base.run.events(), b.base.run.events(), "{}", alg.name());
        assert_eq!(a.base.num_rounds(), b.base.num_rounds());
    }
}

#[test]
fn history_views_match_the_event_log() {
    let cfg = AdversaryConfig::default();
    for alg in correct_algorithms()
        .into_iter()
        .chain(randomized_algorithms())
    {
        for n in [4, 8] {
            let all = build_all_run(alg.as_ref(), n, Arc::new(SeededTosses::new(5)), &cfg).unwrap();
            let run = &all.base.run;
            for p in ProcessId::all(n) {
                // A process's history is the event log filtered to it.
                let filtered: Vec<&RunEvent> =
                    run.events().iter().filter(|e| e.pid() == p).collect();
                let history: Vec<&RunEvent> = run.history(p).iter().collect();
                assert_eq!(history, filtered, "{} n={n} {p}", alg.name());
                // Its first step is its first toss or shared operation.
                let first_step = run
                    .events()
                    .iter()
                    .position(|e| e.pid() == p && !matches!(e, RunEvent::Terminated { .. }));
                assert_eq!(
                    run.first_step_event(p),
                    first_step.map(|i| i as u64),
                    "{} n={n} {p}",
                    alg.name()
                );
                // Each round's prefix ends where the change index says.
                for r in 1..=all.base.num_rounds() {
                    let view = all.base.history_at(p, r);
                    assert_eq!(
                        view.len(),
                        all.base.changes.at(p, r).history_len as usize,
                        "{} n={n} {p}",
                        alg.name()
                    );
                }
            }
        }
    }
}
