//! Tournament wakeup: the algorithm that *approaches the lower bound*.
//!
//! Processes are leaves of a complete binary tree; each internal node is a
//! meeting point holding the Unit marker. A process climbs with the bitset
//! of processes it has absorbed, `swap`ping it into each meeting point on
//! its path:
//!
//! * receiving the marker means it arrived first — it loses the meeting,
//!   leaves its bitset parked for the sibling leader, and returns **0**;
//! * receiving the sibling's parked bitset means it arrived second — it
//!   absorbs the bits and climbs as the merged group's leader.
//!
//! Exactly one process survives all meetings; its bitset then covers all
//! `n` processes (each bit enters the system only through its owner's own
//! swap, so everyone demonstrably took a step). It performs one final
//! "victory" swap — making the win observable, and ensuring even the
//! `n = 1` winner takes a step before returning — and returns **1**.
//!
//! The winner performs at most `⌈log₂ n⌉ + 1` shared-memory operations,
//! within a factor 2 of the `log₄ n` lower bound of Theorem 6.1 — this is
//! the repository's witness that the wakeup bound is essentially tight.

use llsc_shmem::dsl::{done, swap, Step};
use llsc_shmem::{Algorithm, ProcessId, Program, RegisterId, Value};
use llsc_universal::tree::{leaf_slots, subtree_nonempty};

/// Meeting-point registers: `NODE_BASE + heap_index`.
pub(crate) const NODE_BASE: u64 = 100;
/// The victory register the final leader swaps before returning 1.
pub(crate) const DONE_REG: RegisterId = RegisterId(99);

pub(crate) fn node_reg(heap_index: u64) -> RegisterId {
    RegisterId(NODE_BASE + heap_index)
}

pub(crate) fn limbs(n: usize) -> usize {
    n.div_ceil(64).max(1)
}

pub(crate) fn own_bits(pid: ProcessId, n: usize) -> Vec<u64> {
    let mut w = vec![0u64; limbs(n)];
    w[pid.0 / 64] |= 1 << (pid.0 % 64);
    w
}

pub(crate) fn or_bits(a: &[u64], b: &[u64]) -> Vec<u64> {
    (0..a.len().max(b.len()))
        .map(|i| a.get(i).copied().unwrap_or(0) | b.get(i).copied().unwrap_or(0))
        .collect()
}

pub(crate) fn is_full(bits: &[u64], n: usize) -> bool {
    (0..n).all(|i| bits.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1))
}

/// The tournament wakeup algorithm: winner cost `⌈log₂ n⌉ + 1`.
///
/// # Examples
///
/// ```
/// use llsc_core::{verify_lower_bound, ceil_log4, AdversaryConfig};
/// use llsc_wakeup::TournamentWakeup;
/// use llsc_shmem::ZeroTosses;
/// use std::sync::Arc;
///
/// let rep = verify_lower_bound(&TournamentWakeup, 64, Arc::new(ZeroTosses), &AdversaryConfig::default())
///     .expect("the adversary run completes within the default budgets");
/// assert!(rep.wakeup.ok());
/// // Winner cost sits between log4(n) and 2*log4(n) + 1.
/// assert!(rep.winner_steps >= ceil_log4(64));
/// assert!(rep.winner_steps <= 2 * ceil_log4(64) + 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TournamentWakeup;

impl Algorithm for TournamentWakeup {
    fn name(&self) -> &'static str {
        "tournament-wakeup"
    }

    fn spawn(&self, pid: ProcessId, n: usize) -> Box<dyn Program> {
        let leaf = leaf_slots(n) + pid.0 as u64;
        climb(n, leaf, own_bits(pid, n)).into_program()
    }
}

fn climb(n: usize, child: u64, bits: Vec<u64>) -> Step {
    if child == 1 {
        // Survived every meeting: the bitset must cover everyone.
        debug_assert!(is_full(&bits, n), "tournament leader missing bits");
        let verdict = i64::from(is_full(&bits, n));
        return swap(DONE_REG, Value::bits(bits), move |_| {
            done(Value::from(verdict))
        });
    }
    let v = child / 2;
    let sibling = child ^ 1;
    if !subtree_nonempty(sibling, n) {
        return climb(n, v, bits);
    }
    swap(node_reg(v), Value::bits(bits.clone()), move |received| {
        match received.as_bits() {
            // First at the meeting point: lose, leave the bits parked.
            None => done(Value::from(0i64)),
            Some(parked) => climb(n, v, or_bits(&bits, parked)),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_core::{build_all_run, ceil_log4, check_wakeup, verify_lower_bound, AdversaryConfig};
    use llsc_shmem::{Executor, ExecutorConfig, RandomScheduler, ZeroTosses};
    use std::sync::Arc;

    #[test]
    fn satisfies_wakeup_under_the_adversary() {
        for n in [1, 2, 3, 5, 8, 13, 16, 64, 100] {
            let all = build_all_run(
                &TournamentWakeup,
                n,
                Arc::new(ZeroTosses),
                &AdversaryConfig::default(),
            )
            .unwrap();
            assert!(all.base.completed, "n={n}");
            let check = check_wakeup(&all.base.run);
            assert!(check.ok(), "n={n}: {check}");
            assert_eq!(check.winners.len(), 1, "n={n}: one tournament survivor");
        }
    }

    #[test]
    fn satisfies_wakeup_under_random_schedules() {
        for seed in 0..12 {
            for n in [3, 6, 9] {
                let mut e = Executor::new(
                    &TournamentWakeup,
                    n,
                    Arc::new(ZeroTosses),
                    ExecutorConfig::default(),
                );
                e.drive(&mut RandomScheduler::new(seed), 1_000_000).unwrap();
                assert!(e.all_terminated(), "seed={seed} n={n}");
                assert!(check_wakeup(e.run()).ok(), "seed={seed} n={n}");
            }
        }
    }

    #[test]
    fn winner_cost_is_logarithmic_and_near_tight() {
        // The tournament winner performs between ceil(log4 n) (the
        // Theorem 6.1 bound) and ceil(log2 n) + 1 operations: the bound is
        // tight within a factor of ~2.
        for n in [2, 4, 8, 16, 64, 256, 1024] {
            let rep = verify_lower_bound(
                &TournamentWakeup,
                n,
                Arc::new(ZeroTosses),
                &AdversaryConfig::default(),
            )
            .unwrap();
            assert!(rep.wakeup.ok(), "n={n}");
            assert!(rep.bound_holds, "n={n}");
            let log2 = (n as f64).log2().ceil() as u64;
            assert!(
                rep.winner_steps <= log2 + 1,
                "n={n}: winner {} > log2+1={}",
                rep.winner_steps,
                log2 + 1
            );
            assert!(rep.winner_steps >= ceil_log4(n), "n={n}");
            // Every process (not just the winner) stays within log2 + 1.
            assert!(rep.max_steps <= log2 + 1, "n={n}: max {}", rep.max_steps);
        }
    }

    #[test]
    fn losers_return_quickly() {
        // A loser performs at most as many swaps as meetings it attended.
        let all = build_all_run(
            &TournamentWakeup,
            16,
            Arc::new(ZeroTosses),
            &AdversaryConfig::default(),
        )
        .unwrap();
        let check = check_wakeup(&all.base.run);
        let winner = check.first_winner().unwrap();
        for p in llsc_shmem::ProcessId::all(16) {
            if p != winner {
                assert!(all.base.run.shared_steps(p) <= 5);
                assert_eq!(
                    all.base.run.verdict(p).unwrap().as_int(),
                    Some(0),
                    "{p} lost"
                );
            }
        }
    }

    #[test]
    fn bit_helpers() {
        assert_eq!(own_bits(ProcessId(65), 70)[1], 2);
        assert!(is_full(&[0b111], 3));
        assert!(!is_full(&[0b101], 3));
        assert_eq!(or_bits(&[1], &[2, 4]), vec![3, 4]);
    }
}
