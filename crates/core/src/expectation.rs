//! Lemma 3.1 and the randomized lower bound: expected shared-access time
//! complexity, estimated by sampling toss assignments.
//!
//! Lemma 3.1: if an algorithm terminates with probability `c` and there is
//! a scheduler under which every terminating run has some process
//! performing at least `k` shared-memory operations, then the worst-case
//! *expected* shared-access time complexity is at least `c · k`.
//!
//! With the Figure-2 adversary as the scheduler and the Theorem 6.1 bound
//! `k = ⌈log₄ n⌉`, the paper's randomized bound is
//! `c · log₄ n`. [`estimate_expected_complexity`] samples toss assignments
//! (seeded, reproducible), builds the `(All, A)`-run for each, and reports
//! the empirical termination rate, winner-step statistics, and the implied
//! Lemma 3.1 bound.

use crate::all_run::{build_all_run, AdversaryConfig};
use crate::theorem::{ceil_log4, log4};
use crate::wakeup::check_wakeup;
use llsc_shmem::{Algorithm, RunError, SeededTosses, Sweep};
use std::fmt;
use std::sync::Arc;

/// The sampled-expectation report for a (possibly randomized) wakeup
/// algorithm under the adversary scheduler.
#[derive(Clone, Debug)]
pub struct ExpectationReport {
    /// The algorithm's name.
    pub algorithm: String,
    /// Number of processes.
    pub n: usize,
    /// Number of toss assignments sampled.
    pub samples: usize,
    /// Fraction of sampled assignments whose `(All, A)`-run terminated
    /// within the round limit — the empirical `c`.
    pub termination_rate: f64,
    /// Fraction of terminating runs that satisfied the wakeup spec.
    pub wakeup_ok_rate: f64,
    /// Mean, over terminating runs, of the first winner's shared-step
    /// count.
    pub mean_winner_steps: f64,
    /// Minimum winner step count over terminating runs — the empirical
    /// `k` of Lemma 3.1.
    pub min_winner_steps: u64,
    /// Maximum winner step count over terminating runs.
    pub max_winner_steps: u64,
    /// Mean, over terminating runs, of `t(R) = max_p t(p, R)`.
    pub mean_max_steps: f64,
    /// `log₄ n`.
    pub log4_n: f64,
    /// The Lemma 3.1 lower bound `c · k` computed from the empirical
    /// termination rate and minimum winner steps.
    pub lemma_3_1_bound: f64,
    /// `true` iff every sampled terminating run's winner met
    /// `⌈log₄ n⌉` — the randomized Theorem 6.1 check.
    pub all_meet_bound: bool,
}

impl fmt::Display for ExpectationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} samples={} c={:.2} E[winner]={:.2} min={} E[max]={:.2} log4(n)={:.2} c*k={:.2} bound {}",
            self.algorithm,
            self.n,
            self.samples,
            self.termination_rate,
            self.mean_winner_steps,
            self.min_winner_steps,
            self.mean_max_steps,
            self.log4_n,
            self.lemma_3_1_bound,
            if self.all_meet_bound { "HOLDS" } else { "REFUTED" }
        )
    }
}

/// What one sampled toss assignment contributed to the estimate — the
/// checkpointable per-trial unit of a chunked expectation job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpectationSample {
    /// Whether the `(All, A)`-run terminated within the round limit.
    pub terminated: bool,
    /// Whether the terminated run satisfied the wakeup spec.
    pub wakeup_ok: bool,
    /// The first winner's shared-step count (terminating runs only).
    pub winner_steps: Option<u64>,
    /// `t(R) = max_p t(p, R)` (terminating runs only).
    pub max_steps: Option<u64>,
}

/// Runs one seeded toss assignment through the Figure-2 adversary and
/// records what it contributes to the estimate. Deterministic in
/// `(alg, n, seed, cfg)`, so samples may be computed in any order — or
/// any chunking — and reassembled via [`report_from_samples`].
///
/// # Errors
///
/// Propagates the [`RunError`] the `(All, A)`-run reports.
pub fn sample_expectation(
    alg: &dyn Algorithm,
    n: usize,
    seed: u64,
    cfg: &AdversaryConfig,
) -> Result<ExpectationSample, RunError> {
    let all = build_all_run(alg, n, Arc::new(SeededTosses::new(seed)), cfg)?;
    if !all.base.completed {
        return Ok(ExpectationSample {
            terminated: false,
            wakeup_ok: false,
            winner_steps: None,
            max_steps: None,
        });
    }
    let check = check_wakeup(&all.base.run);
    Ok(ExpectationSample {
        terminated: true,
        wakeup_ok: check.ok(),
        winner_steps: check.first_winner().map(|w| all.base.run.shared_steps(w)),
        max_steps: Some(all.base.run.max_shared_steps()),
    })
}

/// Folds per-seed samples (in seed order) into an [`ExpectationReport`].
/// A pure function of its inputs — both the plain sweep path and the
/// chunked job path assemble through here, so their floating-point
/// results are bit-identical by construction.
pub fn report_from_samples(
    algorithm: &str,
    n: usize,
    sampled: &[ExpectationSample],
) -> ExpectationReport {
    let samples = sampled.len();
    let mut terminating = 0usize;
    let mut wakeup_ok = 0usize;
    let mut winner_steps: Vec<u64> = Vec::new();
    let mut max_steps: Vec<u64> = Vec::new();
    for sample in sampled {
        if !sample.terminated {
            continue;
        }
        terminating += 1;
        if sample.wakeup_ok {
            wakeup_ok += 1;
        }
        winner_steps.extend(sample.winner_steps);
        max_steps.extend(sample.max_steps);
    }

    let c = if samples == 0 {
        0.0
    } else {
        terminating as f64 / samples as f64
    };
    let mean = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64
        }
    };
    let min_winner = winner_steps.iter().copied().min().unwrap_or(0);
    let bound = ceil_log4(n);

    ExpectationReport {
        algorithm: algorithm.to_string(),
        n,
        samples,
        termination_rate: c,
        wakeup_ok_rate: if terminating == 0 {
            0.0
        } else {
            wakeup_ok as f64 / terminating as f64
        },
        mean_winner_steps: mean(&winner_steps),
        min_winner_steps: min_winner,
        max_winner_steps: winner_steps.iter().copied().max().unwrap_or(0),
        mean_max_steps: mean(&max_steps),
        log4_n: log4(n),
        lemma_3_1_bound: c * min_winner as f64,
        all_meet_bound: winner_steps.iter().all(|&s| s >= bound),
    }
}

/// Samples `seeds` toss assignments and estimates the expected
/// shared-access complexity of `alg` under the Figure-2 adversary.
///
/// Every seed yields a deterministic [`SeededTosses`] assignment, and the
/// seeds' `(All, A)`-runs are independent: they fan out over `sweep` and
/// merge in seed order, so the report is reproducible and identical at
/// any thread count.
///
/// # Examples
///
/// ```
/// use llsc_core::{estimate_expected_complexity, AdversaryConfig};
/// use llsc_shmem::dsl::{done, ll};
/// use llsc_shmem::{FnAlgorithm, RegisterId, Sweep, Value};
///
/// let alg = FnAlgorithm::new("one-ll", |_p, _n| {
///     ll(RegisterId(0), |_| done(Value::from(1i64))).into_program()
/// });
/// let cfg = AdversaryConfig::default();
/// let rep = estimate_expected_complexity(&alg, 2, 0..8, &cfg, &Sweep::sequential()).unwrap();
/// assert_eq!(rep.samples, 8);
/// assert_eq!(rep.termination_rate, 1.0);
/// ```
///
/// # Errors
///
/// Propagates the first (lowest-seed-index) [`RunError`] any sampled run
/// reports; the other samples still execute to completion under the
/// sweep's panic/fault isolation.
pub fn estimate_expected_complexity(
    alg: &dyn Algorithm,
    n: usize,
    seeds: impl IntoIterator<Item = u64>,
    cfg: &AdversaryConfig,
    sweep: &Sweep,
) -> Result<ExpectationReport, RunError> {
    let seeds: Vec<u64> = seeds.into_iter().collect();
    let sampled = sweep
        .run(&seeds, |_trial, &seed| {
            sample_expectation(alg, n, seed, cfg)
        })
        .into_iter()
        .collect::<Result<Vec<ExpectationSample>, RunError>>()?;
    Ok(report_from_samples(alg.name(), n, &sampled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_shmem::dsl::{done, ll, sc, toss};
    use llsc_shmem::{FnAlgorithm, ProcessId, RegisterId, Value};

    /// Randomized counter wakeup: before the deterministic LL/SC increment
    /// loop, each process tosses a coin to pick one of two scratch
    /// registers to LL first — harmless randomness that exercises toss
    /// assignments without breaking correctness.
    fn randomized_counter_wakeup() -> impl llsc_shmem::Algorithm {
        FnAlgorithm::new("rand-counter-wakeup", |_pid: ProcessId, n| {
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
            toss(move |c| {
                let scratch = RegisterId(100 + (c % 2));
                ll(scratch, move |_| attempt(n))
            })
            .into_program()
        })
    }

    #[test]
    fn randomized_wakeup_meets_expected_bound() {
        let alg = randomized_counter_wakeup();
        for n in [4, 8, 16] {
            let rep = estimate_expected_complexity(
                &alg,
                n,
                0..20,
                &AdversaryConfig::default(),
                &Sweep::sequential(),
            )
            .unwrap();
            assert_eq!(rep.termination_rate, 1.0, "n={n}");
            assert_eq!(rep.wakeup_ok_rate, 1.0, "n={n}");
            assert!(rep.all_meet_bound, "n={n}: min={}", rep.min_winner_steps);
            // Lemma 3.1: expected ≥ c · k ≥ log4(n) here since c = 1 and
            // every winner meets ceil(log4 n).
            assert!(rep.lemma_3_1_bound >= rep.log4_n.floor(), "n={n}");
            assert!(rep.mean_winner_steps >= rep.min_winner_steps as f64);
            assert!(rep.max_winner_steps >= rep.min_winner_steps);
        }
    }

    #[test]
    fn non_terminating_runs_lower_the_rate() {
        // Half the coin outcomes spin forever: termination probability
        // should land strictly between 0 and 1 across seeds.
        let alg = FnAlgorithm::new("flaky", |_p, _n| {
            fn spin() -> llsc_shmem::dsl::Step {
                ll(RegisterId(9), |_| spin())
            }
            toss(|c| {
                if c % 2 == 0 {
                    ll(RegisterId(0), |_| done(Value::from(1i64)))
                } else {
                    spin()
                }
            })
            .into_program()
        });
        let cfg = AdversaryConfig {
            max_rounds: 50,
            ..AdversaryConfig::default()
        };
        let rep = estimate_expected_complexity(&alg, 2, 0..40, &cfg, &Sweep::sequential()).unwrap();
        assert!(rep.termination_rate < 1.0);
        // With 2 processes and independent fair-ish coins, some runs do
        // terminate.
        assert!(rep.termination_rate > 0.0);
        assert!(rep.lemma_3_1_bound <= rep.termination_rate * rep.min_winner_steps as f64 + 1e-9);
    }

    #[test]
    fn chunked_samples_reassemble_to_the_sweep_report() {
        let alg = randomized_counter_wakeup();
        let cfg = AdversaryConfig::default();
        let seeds: Vec<u64> = (0..12).collect();
        let full = estimate_expected_complexity(
            &alg,
            8,
            seeds.iter().copied(),
            &cfg,
            &Sweep::with_threads(3),
        )
        .unwrap();
        // Sample the same seeds one at a time, out of order, then
        // reassemble in seed order.
        let mut sampled: Vec<(u64, ExpectationSample)> = seeds
            .iter()
            .rev()
            .map(|&seed| (seed, sample_expectation(&alg, 8, seed, &cfg).unwrap()))
            .collect();
        sampled.sort_by_key(|(seed, _)| *seed);
        let ordered: Vec<ExpectationSample> = sampled.into_iter().map(|(_, s)| s).collect();
        let assembled = report_from_samples(alg.name(), 8, &ordered);
        assert_eq!(assembled.samples, full.samples);
        assert_eq!(assembled.termination_rate, full.termination_rate);
        assert_eq!(assembled.mean_winner_steps, full.mean_winner_steps);
        assert_eq!(assembled.min_winner_steps, full.min_winner_steps);
        assert_eq!(assembled.max_winner_steps, full.max_winner_steps);
        assert_eq!(assembled.mean_max_steps, full.mean_max_steps);
        assert_eq!(assembled.lemma_3_1_bound, full.lemma_3_1_bound);
        assert_eq!(assembled.all_meet_bound, full.all_meet_bound);
    }

    #[test]
    fn report_is_reproducible_for_same_seeds() {
        let alg = randomized_counter_wakeup();
        let a = estimate_expected_complexity(
            &alg,
            4,
            0..10,
            &AdversaryConfig::default(),
            &Sweep::sequential(),
        )
        .unwrap();
        let b = estimate_expected_complexity(
            &alg,
            4,
            0..10,
            &AdversaryConfig::default(),
            &Sweep::sequential(),
        )
        .unwrap();
        assert_eq!(a.mean_winner_steps, b.mean_winner_steps);
        assert_eq!(a.min_winner_steps, b.min_winner_steps);
        assert_eq!(a.mean_max_steps, b.mean_max_steps);
    }

    #[test]
    fn empty_seed_set_is_degenerate_but_defined() {
        let alg = randomized_counter_wakeup();
        let rep = estimate_expected_complexity(
            &alg,
            4,
            std::iter::empty(),
            &AdversaryConfig::default(),
            &Sweep::sequential(),
        )
        .unwrap();
        assert_eq!(rep.samples, 0);
        assert_eq!(rep.termination_rate, 0.0);
        assert_eq!(rep.lemma_3_1_bound, 0.0);
    }

    #[test]
    fn display_summarises() {
        let alg = randomized_counter_wakeup();
        let rep = estimate_expected_complexity(
            &alg,
            4,
            0..4,
            &AdversaryConfig::default(),
            &Sweep::sequential(),
        )
        .unwrap();
        assert!(rep.to_string().contains("rand-counter-wakeup"));
    }
}
