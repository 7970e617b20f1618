//! Counter-based wakeup: the canonical one-shot fetch&increment solution.
//!
//! Every process increments a shared counter once, via the optimistic
//! LL/SC retry loop; the process whose successful SC installs `n` has seen
//! response `n - 1` and knows everyone else already incremented — it
//! returns 1; everyone else returns 0. This is exactly the Theorem 6.2
//! fetch&increment reduction inlined onto raw LL/SC.
//!
//! Correct under every scheduler. Its worst-case shared-access complexity
//! under the Figure-2 adversary is `Θ(n)` (one SC success per round), far
//! above the `Ω(log n)` bound — the tournament algorithm in
//! [`crate::TournamentWakeup`] is the one that approaches the bound.

use llsc_shmem::dsl::{done, ll, sc, Step};
use llsc_shmem::{Algorithm, ProcessId, Program, RegisterId, Value};

/// The shared counter register.
pub(crate) const COUNTER: RegisterId = RegisterId(0);

/// The counter-based wakeup algorithm (deterministic, `Θ(n)` worst case).
///
/// # Examples
///
/// ```
/// use llsc_core::{verify_lower_bound, AdversaryConfig};
/// use llsc_wakeup::CounterWakeup;
/// use llsc_shmem::ZeroTosses;
/// use std::sync::Arc;
///
/// let rep = verify_lower_bound(&CounterWakeup, 8, Arc::new(ZeroTosses), &AdversaryConfig::default())
///     .expect("the adversary run completes within the default budgets");
/// assert!(rep.wakeup.ok());
/// assert!(rep.bound_holds);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterWakeup;

impl Algorithm for CounterWakeup {
    fn name(&self) -> &'static str {
        "counter-wakeup"
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
        attempt(n).into_program()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_core::{build_all_run, ceil_log4, check_wakeup, verify_lower_bound, AdversaryConfig};
    use llsc_shmem::{Executor, ExecutorConfig, RandomScheduler, ZeroTosses};
    use std::sync::Arc;

    #[test]
    fn satisfies_wakeup_under_the_adversary() {
        for n in [1, 2, 3, 7, 16, 33] {
            let all = build_all_run(
                &CounterWakeup,
                n,
                Arc::new(ZeroTosses),
                &AdversaryConfig::default(),
            )
            .unwrap();
            assert!(all.base.completed, "n={n}");
            let check = check_wakeup(&all.base.run);
            assert!(check.ok(), "n={n}: {check}");
            assert_eq!(check.winners.len(), 1, "n={n}: exactly one winner");
        }
    }

    #[test]
    fn satisfies_wakeup_under_random_schedules() {
        for seed in 0..10 {
            let mut e = Executor::new(
                &CounterWakeup,
                6,
                Arc::new(ZeroTosses),
                ExecutorConfig::default(),
            );
            let mut s = RandomScheduler::new(seed);
            e.drive(&mut s, 1_000_000).unwrap();
            assert!(e.all_terminated(), "seed={seed}");
            let check = check_wakeup(e.run());
            assert!(check.ok(), "seed={seed}: {check}");
        }
    }

    #[test]
    fn winner_meets_the_log4_bound_with_linear_slack() {
        for n in [4, 16, 64, 256] {
            let rep = verify_lower_bound(
                &CounterWakeup,
                n,
                Arc::new(ZeroTosses),
                &AdversaryConfig::default(),
            )
            .unwrap();
            assert!(rep.bound_holds, "n={n}");
            assert!(rep.winner_steps >= ceil_log4(n));
            // And the worst case is Θ(n): the adversary serialises SCs.
            assert!(rep.max_steps >= n as u64, "n={n}: max={}", rep.max_steps);
        }
    }

    #[test]
    fn adversary_run_is_deterministic() {
        let a = build_all_run(
            &CounterWakeup,
            9,
            Arc::new(ZeroTosses),
            &AdversaryConfig::default(),
        )
        .unwrap();
        let b = build_all_run(
            &CounterWakeup,
            9,
            Arc::new(ZeroTosses),
            &AdversaryConfig::default(),
        )
        .unwrap();
        assert_eq!(a.base.run.events(), b.base.run.events());
    }
}
