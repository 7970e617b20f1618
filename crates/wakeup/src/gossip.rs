//! Gossip wakeup: a hybrid algorithm that exercises **every** operation
//! the paper's memory supports — swap, move, validate, LL, and SC — in one
//! adversary run.
//!
//! Why it exists: the lower bound covers a five-operation memory, and the
//! `UP`-set update rules have dedicated cases for moves (register rule R3,
//! process rule P4) and swap chains (rules R2, P3–P5). The other shipped
//! wakeup algorithms only use LL/SC and swap; this one drives the move
//! machinery — including the secretive scheduling of real move groups —
//! through the full `(All, A)`-run / `(S, A)`-run pipeline.
//!
//! ## The algorithm
//!
//! Registers: `A[p]` (announcement bitsets) and `B[p]` (per-process
//! inboxes); one shared counter.
//!
//! 1. `p` swaps its own bit into `A[p]`.
//! 2. For each hypercube dimension `k` with partner `q = p xor 2^k < n`:
//!    `p` *moves* `A[q]` into its inbox `B[p]`, *validates* `B[p]` to read
//!    the copied bitset, merges it into its knowledge, and swaps the merged
//!    set back into `A[p]`.
//! 3. If the merged set covers all `n` processes, return 1 (the gossip
//!    fast path — this is what happens under round-synchronous schedules).
//! 4. Otherwise fall back to the one-shot LL/SC counter: the process whose
//!    increment reaches `n` returns 1. The fallback guarantees wakeup
//!    condition 2 under *every* schedule (pure asynchronous gossip cannot:
//!    a sequential run leaves everyone's bitset incomplete).
//!
//! Both "return 1" paths carry evidence that every process took a step
//! (bits only enter circulation through their owners' swaps; counter value
//! `n` needs `n` increments), so condition 3 holds under any scheduler.

use crate::tournament::{is_full, limbs, own_bits};
use llsc_shmem::dsl::{done, ll, mv, sc, swap, validate, Step};
use llsc_shmem::{Algorithm, ProcessId, Program, RegisterId, Value};

/// Announcement registers `A[p]`. The two register families get widely
/// separated bases so they stay disjoint for any realistic `n` (a base
/// collision at `n > 300` once produced a silent fallback to the counting
/// path — caught by the round-count regression test below).
const ANNOUNCE_BASE: u64 = 1_000_000;
/// Inbox registers `B[p]`.
const INBOX_BASE: u64 = 2_000_000;
/// The fallback counter.
const COUNTER: RegisterId = RegisterId(0);

fn a_reg(p: usize) -> RegisterId {
    RegisterId(ANNOUNCE_BASE + p as u64)
}

fn b_reg(p: usize) -> RegisterId {
    RegisterId(INBOX_BASE + p as u64)
}

fn merge(known: &mut [u64], seen: &Value) {
    if let Some(bits) = seen.as_bits() {
        for (i, w) in bits.iter().enumerate() {
            if i < known.len() {
                known[i] |= w;
            }
        }
    }
}

/// The move/swap/validate gossip wakeup algorithm (with an LL/SC counter
/// fallback for liveness under arbitrary schedules).
///
/// # Examples
///
/// ```
/// use llsc_core::{verify_lower_bound, AdversaryConfig};
/// use llsc_wakeup::GossipWakeup;
/// use llsc_shmem::ZeroTosses;
/// use std::sync::Arc;
///
/// let rep = verify_lower_bound(&GossipWakeup, 16, Arc::new(ZeroTosses), &AdversaryConfig::default())
///     .expect("the adversary run completes within the default budgets");
/// assert!(rep.wakeup.ok());
/// assert!(rep.bound_holds);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GossipWakeup;

impl Algorithm for GossipWakeup {
    fn name(&self) -> &'static str {
        "gossip-wakeup"
    }

    fn spawn(&self, pid: ProcessId, n: usize) -> Box<dyn Program> {
        let known = own_bits(pid, n);
        swap(a_reg(pid.0), Value::bits(known.clone()), move |_| {
            gossip(pid, n, 0, known)
        })
        .into_program()
    }

    fn initial_memory(&self, n: usize) -> Vec<(RegisterId, Value)> {
        let mut mem = vec![(COUNTER, Value::from(0i64))];
        for p in 0..n {
            mem.push((a_reg(p), Value::zero_bits(limbs(n))));
            mem.push((b_reg(p), Value::zero_bits(limbs(n))));
        }
        mem
    }
}

/// One hypercube gossip dimension: move the partner's announcement into
/// the inbox, read it, merge, republish.
fn gossip(pid: ProcessId, n: usize, dim: u32, known: Vec<u64>) -> Step {
    let partner = pid.0 ^ (1usize << dim);
    if 1usize << dim >= n.next_power_of_two().max(2) {
        // Gossip finished.
        if is_full(&known, n) {
            return done(Value::from(1i64));
        }
        return fallback_count(n);
    }
    if partner >= n {
        return gossip(pid, n, dim + 1, known);
    }
    mv(a_reg(partner), b_reg(pid.0), move || {
        validate(b_reg(pid.0), move |_ok, seen| {
            let mut known = known;
            merge(&mut known, &seen);
            swap(a_reg(pid.0), Value::bits(known.clone()), move |_| {
                gossip(pid, n, dim + 1, known)
            })
        })
    })
}

/// The liveness fallback: one-shot LL/SC increment; the process that
/// installs `n` returns 1.
fn fallback_count(n: usize) -> Step {
    ll(COUNTER, move |prev| {
        let v = prev.as_int().unwrap_or(0);
        sc(COUNTER, Value::from(v + 1), move |ok, _| {
            if !ok {
                fallback_count(n)
            } else if v + 1 == n as i128 {
                done(Value::from(1i64))
            } else {
                done(Value::from(0i64))
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_core::{build_all_run, check_wakeup, verify_lower_bound, AdversaryConfig};
    use llsc_shmem::{
        Executor, ExecutorConfig, OpKind, RandomScheduler, SequentialScheduler, ZeroTosses,
    };
    use std::sync::Arc;

    #[test]
    fn satisfies_wakeup_under_the_adversary() {
        for n in [1, 2, 3, 6, 8, 16, 31] {
            let all = build_all_run(
                &GossipWakeup,
                n,
                Arc::new(ZeroTosses),
                &AdversaryConfig::default(),
            )
            .unwrap();
            assert!(all.base.completed, "n={n}");
            let check = check_wakeup(&all.base.run);
            assert!(check.ok(), "n={n}: {check}");
        }
    }

    #[test]
    fn exercises_every_operation_kind_under_the_adversary() {
        let all = build_all_run(
            &GossipWakeup,
            8,
            Arc::new(ZeroTosses),
            &AdversaryConfig::default(),
        )
        .unwrap();
        let mut kinds = std::collections::BTreeSet::new();
        for rec in &all.base.rounds {
            for op in &rec.ops {
                kinds.insert(op.kind);
            }
        }
        // Under the round-synchronous adversary the gossip fast path
        // completes for everyone, so the LL/SC fallback never fires —
        // the adversary run exercises the swap/move/validate rules.
        for expected in [OpKind::Swap, OpKind::Move, OpKind::Validate] {
            assert!(kinds.contains(&expected), "missing {expected}");
        }
        // The LL/SC fallback fires under a sequential schedule instead.
        let mut e = Executor::new(
            &GossipWakeup,
            8,
            Arc::new(ZeroTosses),
            ExecutorConfig::default(),
        );
        e.drive(&mut SequentialScheduler::new(), 1_000_000).unwrap();
        let fallback_kinds: std::collections::BTreeSet<OpKind> = e
            .run()
            .events()
            .iter()
            .filter_map(|ev| match ev {
                llsc_shmem::RunEvent::SharedOp { op, .. } => Some(op.kind()),
                _ => None,
            })
            .collect();
        assert!(fallback_kinds.contains(&OpKind::Ll));
        assert!(fallback_kinds.contains(&OpKind::Sc));
        // And the adversary's move groups were scheduled secretively.
        let some_move_round = all
            .base
            .rounds
            .iter()
            .find(|r| !r.move_config.is_empty())
            .expect("gossip produces move rounds");
        assert!(llsc_core::is_secretive(
            &some_move_round.sigma,
            &some_move_round.move_config
        ));
    }

    #[test]
    fn up_tracking_handles_move_rounds() {
        let all = build_all_run(
            &GossipWakeup,
            16,
            Arc::new(ZeroTosses),
            &AdversaryConfig::default(),
        )
        .unwrap();
        assert!(all.up.lemma_5_1_holds());
        // Knowledge does spread through the move/validate path: someone
        // knows more than themselves well before termination.
        let mid = all.base.num_rounds() / 2;
        let spread = llsc_shmem::ProcessId::all(16)
            .map(|p| all.up.proc(p, mid).len())
            .max()
            .unwrap();
        assert!(spread > 1, "no knowledge spread by round {mid}");
    }

    #[test]
    fn sequential_schedule_falls_back_to_counting() {
        // Under a sequential schedule gossip cannot complete; the counter
        // fallback keeps the algorithm correct.
        let mut e = Executor::new(
            &GossipWakeup,
            5,
            Arc::new(ZeroTosses),
            ExecutorConfig::default(),
        );
        e.drive(&mut SequentialScheduler::new(), 1_000_000).unwrap();
        assert!(e.all_terminated());
        let check = check_wakeup(e.run());
        assert!(check.ok(), "{check}");
        // The last process wins via the counter.
        assert_eq!(check.first_winner(), Some(llsc_shmem::ProcessId(4)));
    }

    #[test]
    fn random_schedules_stay_correct() {
        for seed in 0..10 {
            let mut e = Executor::new(
                &GossipWakeup,
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
    fn meets_the_lower_bound() {
        for n in [4, 16, 64] {
            let rep = verify_lower_bound(
                &GossipWakeup,
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
    fn fast_path_round_count_is_logarithmic() {
        // Regression: the gossip fast path must complete in 1 + 3·dims
        // rounds for every n (an announce/inbox register collision at
        // n > 300 once silently degraded large n to the Θ(n) counting
        // fallback).
        for n in [8usize, 256, 512, 1024] {
            let cfg = AdversaryConfig::lightweight();
            let all = build_all_run(&GossipWakeup, n, Arc::new(ZeroTosses), &cfg).unwrap();
            let dims = n.next_power_of_two().trailing_zeros().max(1) as usize;
            assert!(
                all.base.num_rounds() <= 1 + 3 * dims + 2,
                "n={n}: {} rounds (fallback fired?)",
                all.base.num_rounds()
            );
        }
    }

    #[test]
    fn bit_helpers() {
        let mut k = own_bits(ProcessId(3), 8);
        merge(&mut k, &Value::bits(own_bits(ProcessId(7), 8)));
        assert!(!is_full(&k, 8));
        for p in 0..8 {
            merge(&mut k, &Value::bits(own_bits(ProcessId(p), 8)));
        }
        assert!(is_full(&k, 8));
        // Merging a non-bits value is a no-op.
        merge(&mut k, &Value::Unit);
        assert!(is_full(&k, 8));
    }
}
