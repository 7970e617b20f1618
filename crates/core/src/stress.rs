//! Wakeup stress testing beyond the Figure-2 adversary.
//!
//! The paper's adversary is engineered for the *lower bound* — its
//! round-synchronous structure keeps every process in lockstep, which
//! means it never exhibits the partial-participation runs that condition 3
//! of the wakeup specification is really about (in an `(All, A)`-run,
//! everyone has stepped by the end of round 1). A "wakeup algorithm" that
//! declares victory after seeing only half the processes sails through the
//! adversary (see `llsc-wakeup`'s half-count strawman).
//!
//! [`stress_wakeup`] closes that gap: it drives the algorithm under a
//! portfolio of *partial* and *skewed* schedules — every contiguous and
//! random subset of processes, sequential runs, random interleavings — and
//! checks the wakeup specification on each resulting run (including
//! non-terminating prefixes, where condition 3 still applies).

use crate::wakeup::{check_wakeup, WakeupViolation};
use llsc_shmem::{
    Algorithm, Executor, ExecutorConfig, PartitionScheduler, ProcessId, RandomScheduler, RunError,
    Scheduler, SequentialScheduler, Sweep, TossAssignment,
};
use std::fmt;
use std::sync::Arc;

/// One schedule of the stress portfolio.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StressSchedule {
    /// Only the given subset runs (round-robin among them), forever.
    Partition(Vec<ProcessId>),
    /// Everyone runs, one process at a time to completion.
    Sequential,
    /// Everyone runs under a seeded random interleaving.
    Random(u64),
}

impl fmt::Display for StressSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StressSchedule::Partition(ps) => {
                write!(f, "partition[")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "]")
            }
            StressSchedule::Sequential => write!(f, "sequential"),
            StressSchedule::Random(seed) => write!(f, "random({seed})"),
        }
    }
}

/// One failed stress case.
#[derive(Clone, Debug)]
pub struct StressFailure {
    /// The schedule that exposed the failure.
    pub schedule: StressSchedule,
    /// The violations the run exhibited.
    pub violations: Vec<WakeupViolation>,
}

/// The outcome of a stress sweep.
#[derive(Clone, Debug, Default)]
pub struct StressReport {
    /// Schedules tried.
    pub schedules_tried: usize,
    /// Schedules on which every check passed.
    pub passed: usize,
    /// The failures, with their witnesses.
    pub failures: Vec<StressFailure>,
}

impl StressReport {
    /// `true` iff every schedule passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for StressReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wakeup stress: {}/{} schedules passed",
            self.passed, self.schedules_tried
        )?;
        for fail in &self.failures {
            write!(f, "; FAILED under {}", fail.schedule)?;
        }
        Ok(())
    }
}

/// The default stress portfolio for `n` processes: every prefix subset
/// `{p_0..p_k}`, a handful of stride subsets, the sequential schedule, and
/// `random_seeds` random interleavings.
pub fn standard_portfolio(n: usize, random_seeds: u64) -> Vec<StressSchedule> {
    let mut schedules = Vec::new();
    for k in 1..n {
        schedules.push(StressSchedule::Partition((0..k).map(ProcessId).collect()));
    }
    // Odd processes only; every third process.
    for stride in [2usize, 3] {
        let subset: Vec<ProcessId> = (0..n).step_by(stride).map(ProcessId).collect();
        if subset.len() < n && !subset.is_empty() {
            schedules.push(StressSchedule::Partition(subset));
        }
    }
    schedules.push(StressSchedule::Sequential);
    for seed in 0..random_seeds {
        schedules.push(StressSchedule::Random(seed));
    }
    schedules
}

/// Runs `alg` under every schedule of the portfolio and checks the wakeup
/// specification on each resulting run (complete or truncated).
///
/// Partition schedules usually leave the run non-terminating (the excluded
/// processes never step); condition 3 is still checked on the prefix —
/// which is exactly how partial-participation bugs are caught.
///
/// Each schedule drives its own executor, fanned out over `sweep`, and
/// failures are merged in portfolio order, so the report is identical at
/// any thread count.
///
/// # Errors
///
/// Propagates the first [`RunError`] any schedule's executor reports
/// (event budget, divergent local burst). A schedule that merely runs out
/// of `max_steps` is *not* an error — its prefix is still checked.
pub fn stress_wakeup(
    alg: &dyn Algorithm,
    n: usize,
    toss: Arc<dyn TossAssignment>,
    portfolio: &[StressSchedule],
    max_steps: u64,
    sweep: &Sweep,
) -> Result<StressReport, RunError> {
    let outcomes = sweep.run(portfolio, |_trial, schedule| {
        let mut exec = Executor::new(alg, n, toss.clone(), ExecutorConfig::default());
        let mut sched: Box<dyn Scheduler> = match schedule {
            StressSchedule::Partition(ps) => Box::new(PartitionScheduler::new(ps.clone())),
            StressSchedule::Sequential => Box::new(SequentialScheduler::new()),
            StressSchedule::Random(seed) => Box::new(RandomScheduler::new(*seed)),
        };
        exec.drive(sched.as_mut(), max_steps)?;
        let check = check_wakeup(exec.run());
        // For non-terminating prefixes only conditions 1 and 3 apply;
        // check_wakeup already restricts NoWinner to terminating runs.
        if check.ok() {
            Ok(None)
        } else {
            Ok(Some(StressFailure {
                schedule: schedule.clone(),
                violations: check.violations,
            }))
        }
    });

    let mut report = StressReport {
        schedules_tried: outcomes.len(),
        ..StressReport::default()
    };
    for outcome in outcomes {
        match outcome? {
            None => report.passed += 1,
            Some(failure) => report.failures.push(failure),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_shmem::ZeroTosses;

    // The stress harness is exercised against the shipped algorithms in
    // the `llsc-wakeup` crate and the workspace integration tests (this
    // crate cannot depend on `llsc-wakeup`). Here: portfolio shape and a
    // minimal inline algorithm.

    #[test]
    fn portfolio_covers_prefixes_strides_and_randoms() {
        let portfolio = standard_portfolio(6, 3);
        let partitions = portfolio
            .iter()
            .filter(|s| matches!(s, StressSchedule::Partition(_)))
            .count();
        assert_eq!(partitions, 5 + 2, "5 prefixes + 2 strides");
        assert!(portfolio.contains(&StressSchedule::Sequential));
        assert_eq!(
            portfolio
                .iter()
                .filter(|s| matches!(s, StressSchedule::Random(_)))
                .count(),
            3
        );
    }

    #[test]
    fn premature_inline_algorithm_fails_partition_schedules() {
        use llsc_shmem::dsl::{done, ll};
        use llsc_shmem::{FnAlgorithm, RegisterId, Value};
        let alg = FnAlgorithm::new("inline-premature", |_p, _n| {
            ll(RegisterId(0), |_| done(Value::from(1i64))).into_program()
        });
        let report = stress_wakeup(
            &alg,
            4,
            Arc::new(ZeroTosses),
            &standard_portfolio(4, 2),
            10_000,
            &Sweep::sequential(),
        )
        .unwrap();
        assert!(!report.ok());
        assert!(report.to_string().contains("FAILED"));
        // Every partition schedule catches it.
        assert!(report
            .failures
            .iter()
            .any(|f| matches!(f.schedule, StressSchedule::Partition(_))));
    }

    #[test]
    fn correct_inline_counter_passes_everything() {
        use llsc_shmem::dsl::{done, ll, sc};
        use llsc_shmem::{FnAlgorithm, RegisterId, Value};
        let alg = FnAlgorithm::new("inline-counter", |_p, n| {
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
        });
        let report = stress_wakeup(
            &alg,
            5,
            Arc::new(ZeroTosses),
            &standard_portfolio(5, 3),
            100_000,
            &Sweep::sequential(),
        )
        .unwrap();
        assert!(report.ok(), "{report}");
        assert_eq!(report.passed, report.schedules_tried);
    }
}
