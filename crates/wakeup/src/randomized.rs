//! Randomized wakeup algorithms.
//!
//! The paper's lower bound is proved for randomized algorithms: against
//! the Figure-2 adversary (which cannot predict future coin tosses but
//! schedules after seeing the run so far), the worst-case *expected*
//! shared-access complexity is `Ω(log n)` whenever the algorithm
//! terminates with constant probability (Theorem 6.1 + Lemma 3.1).
//!
//! These algorithms put real coin tosses on the execution path so that
//! toss assignments matter: different assignments produce genuinely
//! different runs, which is what
//! [`llsc_core::estimate_expected_complexity`] averages over.

use llsc_shmem::dsl::{done, ll, sc, swap, toss, Step};
use llsc_shmem::{Algorithm, ProcessId, Program, RegisterId, Value};

/// The shared counter register.
const COUNTER: RegisterId = RegisterId(0);
/// Scratch registers touched on randomly chosen warm-up paths.
pub(crate) const SCRATCH_BASE: u64 = 200;

/// Randomized counter wakeup: each process first tosses a coin and touches
/// a randomly chosen scratch register (a warm-up step whose only purpose
/// is to make the run depend on the coin), then runs the one-shot
/// LL/SC-increment wakeup. Terminates with probability 1; correct under
/// every scheduler.
///
/// # Examples
///
/// ```
/// use llsc_core::{estimate_expected_complexity, AdversaryConfig};
/// use llsc_shmem::Sweep;
/// use llsc_wakeup::RandomizedCounterWakeup;
///
/// let cfg = AdversaryConfig::default();
/// let rep = estimate_expected_complexity(&RandomizedCounterWakeup, 8, 0..16, &cfg, &Sweep::sequential())
///     .expect("every sampled run completes within the default budgets");
/// assert_eq!(rep.termination_rate, 1.0);
/// assert!(rep.all_meet_bound);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RandomizedCounterWakeup;

impl Algorithm for RandomizedCounterWakeup {
    fn name(&self) -> &'static str {
        "randomized-counter-wakeup"
    }

    fn spawn(&self, _pid: ProcessId, n: usize) -> Box<dyn Program> {
        fn attempt(n: usize) -> Step {
            ll(COUNTER, move |prev| {
                let v = prev.as_int().unwrap_or(0);
                sc(COUNTER, Value::from(v + 1), move |ok, _| {
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
            let scratch = RegisterId(SCRATCH_BASE + c % 4);
            ll(scratch, move |_| attempt(n))
        })
        .into_program()
    }
}

/// Las-Vegas backoff wakeup: a process repeatedly (a) tosses a coin and,
/// on odd outcomes, performs a "backoff" swap on a scratch register
/// instead of competing; (b) on even outcomes runs one LL/SC increment
/// attempt. Random backoff makes both the number of tosses and the number
/// of shared operations genuinely random, while termination is still
/// certain for any toss assignment in which every process eventually sees
/// an even outcome (probability 1 for fair coins; the degenerate all-odd
/// assignment diverges, so sampled termination rates can sit below 1 when
/// the round limit is tight).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackoffWakeup;

impl Algorithm for BackoffWakeup {
    fn name(&self) -> &'static str {
        "backoff-wakeup"
    }

    fn spawn(&self, pid: ProcessId, n: usize) -> Box<dyn Program> {
        fn round(pid: ProcessId, n: usize) -> Step {
            toss(move |c| {
                if c % 2 == 1 {
                    let scratch = RegisterId(SCRATCH_BASE + 10 + pid.0 as u64 % 4);
                    swap(scratch, Value::from(c as i64), move |_| round(pid, n))
                } else {
                    ll(COUNTER, move |prev| {
                        let v = prev.as_int().unwrap_or(0);
                        sc(COUNTER, Value::from(v + 1), move |ok, _| {
                            if !ok {
                                round(pid, n)
                            } else if v + 1 == n as i128 {
                                done(Value::from(1i64))
                            } else {
                                done(Value::from(0i64))
                            }
                        })
                    })
                }
            })
        }
        round(pid, n).into_program()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_core::{build_all_run, check_wakeup, estimate_expected_complexity, AdversaryConfig};
    use llsc_shmem::{SeededTosses, Sweep, ZeroTosses};
    use std::sync::Arc;

    #[test]
    fn randomized_counter_is_correct_for_many_assignments() {
        for seed in 0..20 {
            let all = build_all_run(
                &RandomizedCounterWakeup,
                6,
                Arc::new(SeededTosses::new(seed)),
                &AdversaryConfig::default(),
            )
            .unwrap();
            assert!(all.base.completed, "seed={seed}");
            assert!(check_wakeup(&all.base.run).ok(), "seed={seed}");
        }
    }

    #[test]
    fn different_assignments_produce_different_runs() {
        let a = build_all_run(
            &RandomizedCounterWakeup,
            4,
            Arc::new(SeededTosses::new(1)),
            &AdversaryConfig::default(),
        )
        .unwrap();
        let b = build_all_run(
            &RandomizedCounterWakeup,
            4,
            Arc::new(SeededTosses::new(2)),
            &AdversaryConfig::default(),
        )
        .unwrap();
        assert_ne!(a.base.run.events(), b.base.run.events());
    }

    #[test]
    fn expected_complexity_respects_the_randomized_bound() {
        for n in [4, 16, 64] {
            let rep = estimate_expected_complexity(
                &RandomizedCounterWakeup,
                n,
                0..25,
                &AdversaryConfig::default(),
                &Sweep::sequential(),
            )
            .unwrap();
            assert_eq!(rep.termination_rate, 1.0, "n={n}");
            assert_eq!(rep.wakeup_ok_rate, 1.0, "n={n}");
            assert!(rep.all_meet_bound, "n={n}");
            assert!(rep.lemma_3_1_bound >= rep.log4_n.floor(), "n={n}");
        }
    }

    #[test]
    fn backoff_wakeup_is_correct_when_it_terminates() {
        let cfg = AdversaryConfig::default();
        let mut terminated = 0;
        for seed in 0..15 {
            let all =
                build_all_run(&BackoffWakeup, 5, Arc::new(SeededTosses::new(seed)), &cfg).unwrap();
            if all.base.completed {
                terminated += 1;
                assert!(check_wakeup(&all.base.run).ok(), "seed={seed}");
            }
        }
        assert!(
            terminated >= 10,
            "most assignments terminate: {terminated}/15"
        );
    }

    #[test]
    fn backoff_all_odd_assignment_never_competes() {
        // ConstantTosses(1) makes every coin odd: processes back off
        // forever — the run hits the round limit without terminating.
        let cfg = AdversaryConfig {
            max_rounds: 30,
            ..AdversaryConfig::default()
        };
        let all = build_all_run(
            &BackoffWakeup,
            3,
            Arc::new(llsc_shmem::ConstantTosses(1)),
            &cfg,
        )
        .unwrap();
        assert!(!all.base.completed);
    }

    #[test]
    fn zero_tosses_degenerate_to_deterministic_counter() {
        // With all-zero coins, RandomizedCounterWakeup behaves like the
        // deterministic counter preceded by one scratch LL.
        let all = build_all_run(
            &RandomizedCounterWakeup,
            4,
            Arc::new(ZeroTosses),
            &AdversaryConfig::default(),
        )
        .unwrap();
        assert!(all.base.completed);
        assert!(check_wakeup(&all.base.run).ok());
        for p in llsc_shmem::ProcessId::all(4) {
            assert_eq!(all.base.run.tosses(p), 1);
        }
    }
}
