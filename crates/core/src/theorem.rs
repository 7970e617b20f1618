//! Theorem 6.1 and Corollary 6.1: the Ω(log n) wakeup lower bound, as an
//! executable driver.
//!
//! Theorem 6.1 argues: take any toss assignment `A` for which the
//! `(All, A)`-run terminates; let `p_i` be the process that returns 1 and
//! `r` its number of shared-memory operations. If `r < log₄ n` then
//! `S = UP(p_i, r)` has fewer than `n` processes, yet by Lemma 5.2 the
//! `(S, A)`-run is indistinguishable to `p_i` — so `p_i` returns 1 in a run
//! where fewer than `n` processes ever step, violating the wakeup
//! specification. Hence `r ≥ log₄ n`.
//!
//! [`verify_lower_bound`] runs this argument *constructively* on a concrete
//! algorithm: it builds the `(All, A)`-run, measures the winner's step
//! count against `log₄ n`, and — when the count falls below the bound — it
//! actually constructs the refuting `(S, A)`-run and reports the wakeup
//! violation it exhibits. For a correct wakeup algorithm the bound always
//! holds; for the deliberately broken algorithms in `llsc-wakeup` the
//! refutation materialises.

use crate::all_run::{build_all_run, AdversaryConfig, AllRun};
use crate::s_run::build_s_run;
use crate::upsets::ProcSet;
use crate::wakeup::{check_wakeup, WakeupCheck, WakeupViolation};
use llsc_shmem::{Algorithm, ProcessId, RunError, TossAssignment};
use std::fmt;
use std::sync::Arc;

/// `log₄ n`.
pub fn log4(n: usize) -> f64 {
    (n.max(1) as f64).log2() / 2.0
}

/// The smallest integer `r` with `4^r ≥ n` — the concrete per-winner step
/// bound Theorem 6.1 certifies.
pub fn ceil_log4(n: usize) -> u64 {
    let mut r = 0u64;
    let mut pow = 1u128;
    while pow < n as u128 {
        pow *= 4;
        r += 1;
    }
    r
}

/// Concrete counterexample evidence produced when an algorithm's winner
/// beats the bound: the `(S, A)`-run in which the winner still returns 1
/// although processes outside `S` never step.
#[derive(Clone, Debug)]
pub struct Refutation {
    /// The witnessing set `S = UP(winner, r)`.
    pub s: ProcSet,
    /// Whether the winner still returns 1 in the `(S, A)`-run (it must, by
    /// indistinguishability).
    pub winner_returns_one_in_s_run: bool,
    /// Processes that never take a step in the `(S, A)`-run.
    pub never_step: Vec<ProcessId>,
    /// The wakeup violations the `(S, A)`-run exhibits.
    pub violations: Vec<WakeupViolation>,
}

/// The result of running the Theorem 6.1 driver on one algorithm instance.
#[derive(Clone, Debug)]
pub struct LowerBoundReport {
    /// The algorithm's name.
    pub algorithm: String,
    /// Number of processes.
    pub n: usize,
    /// Rounds the `(All, A)`-run took.
    pub rounds: usize,
    /// Whether the `(All, A)`-run terminated within the round limit.
    pub completed: bool,
    /// The wakeup-specification check of the `(All, A)`-run.
    pub wakeup: WakeupCheck,
    /// The first process to return 1.
    pub winner: Option<ProcessId>,
    /// `r`: the winner's shared-memory step count.
    pub winner_steps: u64,
    /// `t(R)`: the maximum shared-memory step count over all processes.
    pub max_steps: u64,
    /// `|UP(winner, r)|`.
    pub up_winner_size: usize,
    /// `log₄ n`.
    pub log4_n: f64,
    /// `true` iff `winner_steps ≥ ⌈log₄ n⌉`, i.e. `4^r ≥ n`.
    pub bound_holds: bool,
    /// When the bound fails: the constructed counterexample.
    pub refutation: Option<Refutation>,
}

impl fmt::Display for LowerBoundReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} rounds={} winner={} steps={} max={} log4(n)={:.2} bound {}",
            self.algorithm,
            self.n,
            self.rounds,
            self.winner
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".into()),
            self.winner_steps,
            self.max_steps,
            self.log4_n,
            if self.bound_holds { "HOLDS" } else { "REFUTED" }
        )
    }
}

/// Runs the Theorem 6.1 argument on `alg` with `n` processes under toss
/// assignment `toss`.
///
/// See the module docs for the structure of the argument. The returned
/// report contains the measured step counts; when the winner's step count
/// is below `⌈log₄ n⌉` (possible only for algorithms that violate the
/// wakeup specification) it also contains the constructed `(S, A)`-run
/// [`Refutation`].
///
/// # Errors
///
/// Propagates any [`RunError`] (event-budget exhaustion, local-burst
/// divergence) the underlying runs report.
pub fn verify_lower_bound(
    alg: &dyn Algorithm,
    n: usize,
    toss: Arc<dyn TossAssignment>,
    cfg: &AdversaryConfig,
) -> Result<LowerBoundReport, RunError> {
    let all = build_all_run(alg, n, toss.clone(), cfg)?;
    report_from_all_run(alg, n, toss, cfg, &all)
}

/// Like [`verify_lower_bound`], but reuses an already-constructed
/// `(All, A)`-run (useful when the caller also needs the run itself).
/// The run may be lightweight: the wakeup verdict reads only what every
/// run keeps, and a refutation rebuilds the detailed runs it needs.
pub fn report_from_all_run(
    alg: &dyn Algorithm,
    n: usize,
    toss: Arc<dyn TossAssignment>,
    cfg: &AdversaryConfig,
    all: &AllRun,
) -> Result<LowerBoundReport, RunError> {
    let wakeup = check_wakeup(&all.base.run);
    let winner = wakeup.first_winner();
    let winner_steps = winner.map(|p| all.base.run.shared_steps(p)).unwrap_or(0);
    let max_steps = all.base.run.max_shared_steps();
    let bound = ceil_log4(n);
    let bound_holds = winner.is_none() || winner_steps >= bound;

    let (up_winner_size, refutation) = match winner {
        Some(w) => {
            // A terminated process's UP set never changes again (rule P8),
            // so for the winner the final snapshot equals the snapshot at
            // its termination round — which lets rolling trackers serve
            // the bound measurement too.
            let s = if all.up.has_full_history() {
                let r = (winner_steps as usize).min(all.up.rounds());
                all.up.proc(w, r).clone()
            } else {
                all.up.current().proc(w).clone()
            };
            let size = s.len();
            let refutation = if !bound_holds && s.len() < n {
                // The refuting (S, A)-run needs the full UP history;
                // rebuild the (All, A)-run with it if necessary
                // (refutations only arise for broken algorithms, which are
                // cheap to re-run).
                let full_cfg = AdversaryConfig {
                    track_up_history: true,
                    record_snapshots: true,
                    executor: llsc_shmem::ExecutorConfig {
                        record_details: true,
                        ..cfg.executor
                    },
                    ..*cfg
                };
                let rebuilt;
                let all_full = if all.up.has_full_history() {
                    all
                } else {
                    rebuilt = build_all_run(alg, n, toss.clone(), &full_cfg)?;
                    &rebuilt
                };
                let srun = build_s_run(alg, n, toss, &s, all_full, &full_cfg)?;
                let s_wakeup = check_wakeup(&srun.base.run);
                let never_step: Vec<ProcessId> = ProcessId::all(n)
                    .filter(|&p| srun.base.run.first_step_event(p).is_none())
                    .collect();
                Some(Refutation {
                    s,
                    winner_returns_one_in_s_run: srun.base.run.verdict(w).and_then(|v| v.as_int())
                        == Some(1),
                    never_step,
                    violations: s_wakeup.violations,
                })
            } else {
                None
            };
            (size, refutation)
        }
        None => (0, None),
    };

    Ok(LowerBoundReport {
        algorithm: alg.name().to_string(),
        n,
        rounds: all.base.num_rounds(),
        completed: all.base.completed,
        wakeup,
        winner,
        winner_steps,
        max_steps,
        up_winner_size,
        log4_n: log4(n),
        bound_holds,
        refutation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_shmem::dsl::{done, ll, sc};
    use llsc_shmem::{FnAlgorithm, RegisterId, Value, ZeroTosses};

    /// The canonical correct wakeup algorithm: one-shot increments on a
    /// counter via LL/SC retry; the process that installs `n` wins.
    fn counter_wakeup() -> impl Algorithm {
        FnAlgorithm::new("counter-wakeup", |_pid, n| {
            fn attempt(n: usize) -> llsc_shmem::dsl::Step {
                ll(RegisterId(0), move |prev| {
                    let v = prev.as_int().unwrap_or(0);
                    sc(RegisterId(0), Value::from(v + 1), move |ok, _| {
                        if !ok {
                            attempt(n)
                        } else if v + 1 == n as i128 {
                            done(Value::from(1i64))
                        } else {
                            done(Value::from(0i64))
                        }
                    })
                })
            }
            attempt(n).into_program()
        })
    }

    /// A broken "wakeup" algorithm: every process immediately returns 1
    /// after a single LL, without evidence anyone else is up.
    fn premature_wakeup() -> impl Algorithm {
        FnAlgorithm::new("premature", |_pid, _n| {
            ll(RegisterId(0), |_| done(Value::from(1i64))).into_program()
        })
    }

    #[test]
    fn ceil_log4_values() {
        assert_eq!(ceil_log4(1), 0);
        assert_eq!(ceil_log4(2), 1);
        assert_eq!(ceil_log4(4), 1);
        assert_eq!(ceil_log4(5), 2);
        assert_eq!(ceil_log4(16), 2);
        assert_eq!(ceil_log4(17), 3);
        assert_eq!(ceil_log4(1024), 5);
    }

    #[test]
    fn log4_matches_definition() {
        assert!((log4(4) - 1.0).abs() < 1e-12);
        assert!((log4(16) - 2.0).abs() < 1e-12);
        assert!((log4(1) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn correct_algorithm_meets_the_bound() {
        let alg = counter_wakeup();
        for n in [2, 4, 8, 16, 32] {
            let rep =
                verify_lower_bound(&alg, n, Arc::new(ZeroTosses), &AdversaryConfig::default())
                    .unwrap();
            assert!(rep.completed, "n={n}");
            assert!(rep.wakeup.ok(), "n={n}: {}", rep.wakeup);
            assert!(
                rep.bound_holds,
                "n={n}: winner {} steps {} < ceil(log4) {}",
                rep.winner.unwrap(),
                rep.winner_steps,
                ceil_log4(n)
            );
            assert!(rep.refutation.is_none());
            // The UP of the winner covers everybody it could know about;
            // Lemma 5.1 caps it by 4^r.
            assert!(
                rep.up_winner_size <= crate::upsets::lemma_5_1_bound(rep.winner_steps as usize)
            );
        }
    }

    #[test]
    fn broken_algorithm_is_refuted_constructively() {
        let alg = premature_wakeup();
        let n = 16;
        let rep =
            verify_lower_bound(&alg, n, Arc::new(ZeroTosses), &AdversaryConfig::default()).unwrap();
        // The (All, A)-run itself already violates wakeup (premature
        // winner), and the bound fails.
        assert!(!rep.wakeup.ok());
        assert!(!rep.bound_holds);
        let refutation = rep.refutation.expect("refutation must be constructed");
        // S is small (the winner knows almost nothing).
        assert!(refutation.s.len() < n);
        // The winner still returns 1 in the (S, A)-run...
        assert!(refutation.winner_returns_one_in_s_run);
        // ...while processes outside S never step: the wakeup violation.
        assert!(!refutation.never_step.is_empty());
        assert!(refutation
            .violations
            .iter()
            .any(|v| matches!(v, WakeupViolation::PrematureWinner { .. })));
    }

    #[test]
    fn winner_steps_grow_logarithmically() {
        // The measured minimum winner step count must weakly dominate
        // ceil(log4(n)) across a sweep.
        let alg = counter_wakeup();
        let mut prev_bound = 0;
        for n in [4, 16, 64, 256] {
            let rep =
                verify_lower_bound(&alg, n, Arc::new(ZeroTosses), &AdversaryConfig::default())
                    .unwrap();
            let bound = ceil_log4(n);
            assert!(bound >= prev_bound);
            assert!(rep.winner_steps >= bound, "n={n}");
            prev_bound = bound;
        }
    }

    #[test]
    fn lightweight_runs_get_the_detailed_report() {
        // A detail-less run keeps what the wakeup verdict reads, and a
        // refutation rebuilds the detailed runs it needs.
        let (correct, broken) = (counter_wakeup(), premature_wakeup());
        for alg in [&correct as &dyn Algorithm, &broken] {
            for n in [2, 5, 16] {
                let report = |cfg: &AdversaryConfig| {
                    let rep = verify_lower_bound(alg, n, Arc::new(ZeroTosses), cfg).unwrap();
                    let line = rep.to_string();
                    let refutation = rep.refutation.map(|r| {
                        (
                            r.s,
                            r.winner_returns_one_in_s_run,
                            r.never_step,
                            r.violations,
                        )
                    });
                    (line, rep.wakeup, rep.up_winner_size, refutation)
                };
                let light = report(&AdversaryConfig::lightweight());
                assert_eq!(light, report(&AdversaryConfig::default()), "n={n}");
                assert_eq!(light.1.ok(), alg.name() == "counter-wakeup", "n={n}");
            }
        }
    }

    #[test]
    fn report_display_summarises() {
        let alg = counter_wakeup();
        let rep =
            verify_lower_bound(&alg, 4, Arc::new(ZeroTosses), &AdversaryConfig::default()).unwrap();
        let s = rep.to_string();
        assert!(s.contains("counter-wakeup"));
        assert!(s.contains("HOLDS"));
    }
}
