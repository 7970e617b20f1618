//! Bitset wakeup: the fetch&or reduction inlined onto raw LL/SC.
//!
//! Every process sets its own bit in a shared `n`-bit word with an LL/SC
//! retry loop. A successful SC returns the previous word; the process whose
//! SC completes the word (previous word = all bits but its own) returns 1.
//! This is the Theorem 6.2 fetch&or / fetch&complement mechanism.

use crate::tournament::limbs;
use llsc_shmem::dsl::{done, ll, sc, Step};
use llsc_shmem::{Algorithm, ProcessId, Program, RegisterId, Value};

/// The shared bitset register.
const WORD: RegisterId = RegisterId(0);

fn bit_is_set(v: &Value, i: usize) -> bool {
    v.bit(i).unwrap_or(false)
}

fn all_set_except(v: &Value, n: usize, except: usize) -> bool {
    (0..n).all(|i| i == except || bit_is_set(v, i))
}

/// The bitset wakeup algorithm (deterministic, `Θ(n)` worst case under the
/// adversary; the per-process word makes the winner's evidence explicit).
///
/// # Examples
///
/// ```
/// use llsc_core::{verify_lower_bound, AdversaryConfig};
/// use llsc_wakeup::BitsetWakeup;
/// use llsc_shmem::ZeroTosses;
/// use std::sync::Arc;
///
/// let rep = verify_lower_bound(&BitsetWakeup, 8, Arc::new(ZeroTosses), &AdversaryConfig::default())
///     .expect("the adversary run completes within the default budgets");
/// assert!(rep.wakeup.ok());
/// assert!(rep.bound_holds);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BitsetWakeup;

impl Algorithm for BitsetWakeup {
    fn name(&self) -> &'static str {
        "bitset-wakeup"
    }

    fn spawn(&self, pid: ProcessId, n: usize) -> Box<dyn Program> {
        fn attempt(pid: ProcessId, n: usize) -> Step {
            ll(WORD, move |prev| {
                let mut words = prev.as_bits().map(<[u64]>::to_vec).unwrap_or_default();
                words.resize(limbs(n), 0);
                words[pid.0 / 64] |= 1 << (pid.0 % 64);
                sc(WORD, Value::bits(words), move |ok, _| {
                    if !ok {
                        attempt(pid, n)
                    } else if all_set_except(&prev, n, pid.0) {
                        done(Value::from(1i64))
                    } else {
                        done(Value::from(0i64))
                    }
                })
            })
        }
        attempt(pid, n).into_program()
    }

    fn initial_memory(&self, n: usize) -> Vec<(RegisterId, Value)> {
        vec![(WORD, Value::zero_bits(limbs(n)))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_core::{build_all_run, check_wakeup, verify_lower_bound, AdversaryConfig};
    use llsc_shmem::{Executor, ExecutorConfig, RandomScheduler, ZeroTosses};
    use std::sync::Arc;

    #[test]
    fn satisfies_wakeup_under_the_adversary() {
        for n in [1, 2, 5, 16, 65, 130] {
            let all = build_all_run(
                &BitsetWakeup,
                n,
                Arc::new(ZeroTosses),
                &AdversaryConfig::default(),
            )
            .unwrap();
            assert!(all.base.completed, "n={n}");
            let check = check_wakeup(&all.base.run);
            assert!(check.ok(), "n={n}: {check}");
            // Exactly one process completes the word.
            assert_eq!(check.winners.len(), 1, "n={n}");
        }
    }

    #[test]
    fn satisfies_wakeup_under_random_schedules() {
        for seed in 0..10 {
            let mut e = Executor::new(
                &BitsetWakeup,
                7,
                Arc::new(ZeroTosses),
                ExecutorConfig::default(),
            );
            e.drive(&mut RandomScheduler::new(seed), 1_000_000).unwrap();
            assert!(e.all_terminated(), "seed={seed}");
            assert!(check_wakeup(e.run()).ok(), "seed={seed}");
        }
    }

    #[test]
    fn bound_holds_across_sweep() {
        for n in [4, 16, 64] {
            let rep = verify_lower_bound(
                &BitsetWakeup,
                n,
                Arc::new(ZeroTosses),
                &AdversaryConfig::default(),
            )
            .unwrap();
            assert!(rep.bound_holds, "n={n}");
            assert!(rep.refutation.is_none());
        }
    }

    #[test]
    fn helpers() {
        let v = Value::bits(vec![0b0111]);
        assert!(all_set_except(&v, 4, 3));
        assert!(!all_set_except(&v, 4, 2));
        assert!(bit_is_set(&v, 1));
        assert!(!bit_is_set(&v, 3));
        assert_eq!(limbs(1), 1);
        assert_eq!(limbs(65), 2);
    }
}
