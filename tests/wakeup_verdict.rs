//! The online wakeup verdict against the event walk.
//!
//! `check_wakeup` reads only what every run keeps: each process's
//! verdict and the event numbers of its first step and of its
//! termination. The reference below is the walk over the event log that
//! it replaced. Both must give the same `WakeupCheck` on every run, and a
//! run recorded without details must get the same verdict as its
//! detailed twin: under the Figure-2 adversary, under the stress
//! portfolio's schedules cut at many lengths, and under crash plans.

use llsc_lowerbound::core::{
    build_all_run, check_wakeup, standard_portfolio, verify_lower_bound, AdversaryConfig,
    StressSchedule, WakeupCheck, WakeupViolation,
};
use llsc_lowerbound::shmem::{
    Algorithm, CrashDriver, CrashPlan, Executor, ExecutorConfig, PartitionScheduler, ProcessId,
    RandomScheduler, RecoverySpec, Run, RunEvent, Scheduler, SeededTosses, SequentialScheduler,
    TossAssignment, ZeroTosses,
};
use llsc_lowerbound::wakeup::{
    correct_algorithms, hardened_algorithms, randomized_algorithms, recoverable_algorithms,
    strawman_algorithms,
};
use std::sync::Arc;

/// The wakeup specification checked by one walk over the event log.
fn reference_check_wakeup(run: &Run) -> WakeupCheck {
    assert!(run.is_detailed(), "the reference walks the event log");
    let n = run.n();
    let mut check = WakeupCheck {
        terminating: run.is_terminating(),
        ..WakeupCheck::default()
    };
    for p in ProcessId::all(n) {
        if let Some(v) = run.verdict(p) {
            if !matches!(v.as_int(), Some(0 | 1)) {
                check.violations.push(WakeupViolation::NonBinaryReturn {
                    p,
                    value: v.clone(),
                });
            }
        }
    }
    let mut stepped = vec![false; n];
    let mut premature_reported = false;
    for ev in run.events() {
        match ev {
            RunEvent::Toss { pid, .. } | RunEvent::SharedOp { pid, .. } => stepped[pid.0] = true,
            RunEvent::Terminated { pid, value } if value.as_int() == Some(1) => {
                check.winners.push(*pid);
                let missing: Vec<ProcessId> = ProcessId::all(n).filter(|q| !stepped[q.0]).collect();
                if !premature_reported && !missing.is_empty() {
                    premature_reported = true;
                    check.violations.push(WakeupViolation::PrematureWinner {
                        winner: *pid,
                        missing,
                    });
                }
            }
            RunEvent::Terminated { .. } => {}
        }
    }
    if check.terminating && check.winners.is_empty() {
        check.violations.push(WakeupViolation::NoWinner);
    }
    check
}

/// Requires the online verdicts of `detailed` and of `light` (the same
/// run recorded without details) to equal the reference's on `detailed`.
fn assert_verdicts_agree(detailed: &Run, light: &Run, what: &str) {
    assert!(!light.is_detailed(), "{what}");
    assert_eq!(detailed.event_count(), light.event_count(), "{what}");
    let reference = reference_check_wakeup(detailed);
    assert_eq!(check_wakeup(detailed), reference, "{what}");
    assert_eq!(check_wakeup(light), reference, "{what}: lightweight");
}

fn every_algorithm() -> Vec<Box<dyn Algorithm>> {
    correct_algorithms()
        .into_iter()
        .chain(randomized_algorithms())
        .chain(strawman_algorithms())
        .chain(hardened_algorithms())
        .chain(recoverable_algorithms())
        .collect()
}

fn toss_assignments() -> [Arc<dyn TossAssignment>; 2] {
    [Arc::new(ZeroTosses), Arc::new(SeededTosses::new(3))]
}

fn executor(
    alg: &dyn Algorithm,
    n: usize,
    toss: &Arc<dyn TossAssignment>,
    light: bool,
) -> Executor {
    let cfg = ExecutorConfig {
        record_details: !light,
        ..ExecutorConfig::default()
    };
    Executor::new(alg, n, toss.clone(), cfg)
}

#[test]
fn adversary_runs_agree_with_the_event_walk() {
    let light_cfg = AdversaryConfig::lightweight();
    let mut detailed_cfg = light_cfg;
    detailed_cfg.executor.record_details = true;
    for alg in every_algorithm() {
        let alg = alg.as_ref();
        for n in [1, 2, 5, 33, 130, 256] {
            for toss in toss_assignments() {
                let what = format!("{} n={n}", alg.name());
                let detailed = build_all_run(alg, n, toss.clone(), &detailed_cfg).unwrap();
                let light = build_all_run(alg, n, toss, &light_cfg).unwrap();
                assert_verdicts_agree(&detailed.base.run, &light.base.run, &what);
            }
        }
    }
}

#[test]
fn stress_schedules_agree_with_the_event_walk_at_every_cut() {
    // Cut lengths from nothing to completion: the short cuts leave
    // non-terminating prefixes, partitions never terminate.
    let cuts = [0, 1, 2, 3, 5, 8, 13, 21, 40, 80, 2_000_000];
    for alg in every_algorithm() {
        let alg = alg.as_ref();
        for n in [2, 5, 8] {
            for toss in toss_assignments() {
                for schedule in standard_portfolio(n, 3) {
                    for cut in cuts {
                        let what = format!("{} n={n} {schedule} cut={cut}", alg.name());
                        let run = |light: bool| {
                            let mut exec = executor(alg, n, &toss, light);
                            let mut sched: Box<dyn Scheduler> = match &schedule {
                                StressSchedule::Partition(ps) => {
                                    Box::new(PartitionScheduler::new(ps.clone()))
                                }
                                StressSchedule::Sequential => Box::new(SequentialScheduler::new()),
                                StressSchedule::Random(seed) => {
                                    Box::new(RandomScheduler::new(*seed))
                                }
                            };
                            exec.drive(sched.as_mut(), cut).unwrap();
                            exec.into_run()
                        };
                        assert_verdicts_agree(&run(false), &run(true), &what);
                    }
                }
            }
        }
    }
}

#[test]
fn crash_plans_agree_with_the_event_walk() {
    for alg in every_algorithm() {
        let alg = alg.as_ref();
        for n in [3, 5] {
            for seed in 0..6 {
                let toss: Arc<dyn TossAssignment> = Arc::new(SeededTosses::new(seed));
                let plan = CrashPlan::seeded(seed, n, 2, 32);
                // Crash-stop, then crash-recovery with and without a
                // respawn budget.
                let what = format!("{} n={n} seed={seed}", alg.name());
                let drive = |light: bool, recovery: Option<RecoverySpec>| {
                    let mut exec = executor(alg, n, &toss, light);
                    let mut sched = CrashDriver::new(RandomScheduler::new(seed), &plan, recovery);
                    sched.drive(&mut exec, alg, 100_000).unwrap();
                    exec.into_run()
                };
                let stop = |light: bool| drive(light, None);
                assert_verdicts_agree(&stop(false), &stop(true), &format!("{what} stop"));
                for budget in [0, 2] {
                    let recover =
                        |light: bool| drive(light, Some(RecoverySpec { delay: 4, budget }));
                    let what = format!("{what} recover budget={budget}");
                    assert_verdicts_agree(&recover(false), &recover(true), &what);
                }
            }
        }
    }
}

#[test]
fn strawmen_are_still_refuted_from_lightweight_runs() {
    for alg in strawman_algorithms() {
        for n in [5, 16, 64] {
            let report = |cfg: &AdversaryConfig| {
                verify_lower_bound(alg.as_ref(), n, Arc::new(ZeroTosses), cfg).unwrap()
            };
            let (light, detailed) = (
                report(&AdversaryConfig::lightweight()),
                report(&AdversaryConfig::default()),
            );
            let what = format!("{} n={n}", alg.name());
            assert_eq!(light.to_string(), detailed.to_string(), "{what}");
            assert_eq!(light.wakeup, detailed.wakeup, "{what}");
            let summary = |r: &llsc_lowerbound::core::LowerBoundReport| {
                r.refutation.as_ref().map(|f| {
                    (
                        f.s.clone(),
                        f.winner_returns_one_in_s_run,
                        f.never_step.clone(),
                        f.violations.clone(),
                    )
                })
            };
            assert_eq!(summary(&light), summary(&detailed), "{what}");
            if alg.name() == "strawman-half-count" {
                // Everyone steps in round 1: only the stress portfolio
                // exposes it (tests/stress.rs).
                assert!(light.wakeup.ok() && light.bound_holds, "{what}");
            } else {
                assert!(!light.wakeup.ok(), "{what}: {}", light.wakeup);
            }
            if matches!(alg.name(), "strawman-premature" | "strawman-no-step") {
                let refutation = light.refutation.expect("refutation constructed");
                assert!(refutation.winner_returns_one_in_s_run, "{what}");
                assert!(!refutation.never_step.is_empty(), "{what}");
            }
        }
    }
}
