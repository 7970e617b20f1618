//! Remote-memory-reference (RMR) cost models.
//!
//! The paper states its lower bound in shared-access complexity — every
//! shared-memory step costs 1 — but the standard cost measure for
//! crash-prone shared memory (Golab–Ramaraju recoverable mutual
//! exclusion, and Chan–Woelfel's tight RMR bound for it) only charges
//! *remote* memory references. This module implements both classical
//! machine models:
//!
//! * **Cache-coherent (CC)** — every process has a local cache. A *read*
//!   access (`LL`, `validate`, the source of a `move`) is remote only
//!   when the reader's cached copy is missing or was invalidated by
//!   another process's write since the reader last fetched it; the fetch
//!   re-validates the copy, so spinning on an unchanged register is
//!   free after the first read. A *write* access (`SC`, `swap`, the
//!   destination of a `move`) always goes to the interconnect (1 RMR);
//!   a *mutating* write — a successful SC, any swap or move — also
//!   invalidates every other process's cached copy while installing a
//!   valid copy for the writer. A failed SC mutates nothing and
//!   invalidates nothing.
//! * **Distributed shared memory (DSM)** — no caches; each register
//!   permanently lives in one process's memory segment, assigned by
//!   [`dsm_home`] (`home(R) = R mod n`). An access is remote exactly
//!   when the accessing process is not the register's home, regardless
//!   of history. Unlike the CC charge, DSM remoteness is a pure function
//!   of `(process, register, n)`, which is what lets the hardware
//!   backend count DSM RMRs locally per thread.
//!
//! A `move` touches two registers and is charged per register (up to 2
//! RMRs); every other operation touches one.
//!
//! The CC state is one valid-copy set per register, kept in the
//! register's own [`SharedMemory`](crate::SharedMemory) slot beside its
//! value and `Pset`: [`SharedMemory::apply_charged`](crate::SharedMemory::apply_charged)
//! applies an operation and charges it against that set in the same
//! lookup, so the charge costs no map probe of its own. Corruption
//! ([`SharedMemory::corrupt_in_place`](crate::SharedMemory::corrupt_in_place))
//! empties the victim's set, crash recovery
//! ([`SharedMemory::evict`](crate::SharedMemory::evict)) removes one
//! process from every set, and a memory reset forgets them all. The
//! executor takes the CC charge from `apply_charged` and the DSM charge
//! from [`dsm_cost`] once per shared step and accumulates both next to
//! the shared-access counters in [`Run`](crate::Run) /
//! [`OpCounters`](crate::OpCounters).

use crate::{Operation, ProcMask, ProcessId, RegisterId};

/// The home process of `reg` in the DSM model: `home(R) = R mod n`.
///
/// Deterministic and independent of execution history, so both backends
/// (and the cross-check envelope) agree on it by construction. For the
/// degenerate `n = 0` system every register is homed at `p0`.
pub fn dsm_home(reg: RegisterId, n: usize) -> ProcessId {
    ProcessId((reg.0 % n.max(1) as u64) as usize)
}

/// `true` iff `p`'s access to `reg` is remote in the DSM model.
pub(crate) fn dsm_remote(p: ProcessId, reg: RegisterId, n: usize) -> bool {
    dsm_home(reg, n) != p
}

/// The DSM-model RMR cost of one shared-memory operation by `p`: the
/// number of registers it touches that are not homed at `p` (0, 1, or —
/// for a `move` between two foreign registers — 2).
pub fn dsm_cost(p: ProcessId, op: &Operation, n: usize) -> u64 {
    match op {
        Operation::Ll(r) | Operation::Validate(r) | Operation::Sc(r, _) | Operation::Swap(r, _) => {
            u64::from(dsm_remote(p, *r, n))
        }
        Operation::Move { src, dst } => {
            u64::from(dsm_remote(p, *src, n)) + u64::from(dsm_remote(p, *dst, n))
        }
    }
}

/// A CC *read* access by `p` (`LL`, `validate`, the source of a
/// `move`) against the register's valid-copy set `cached`: remote (1)
/// iff `p`'s copy is invalid; the fetch validates it either way.
#[inline]
pub(crate) fn cc_read(cached: &mut ProcMask, p: ProcessId) -> u64 {
    u64::from(cached.insert(p))
}

/// A CC *write* access by `p` (`SC`, `swap`, the destination of a
/// `move`) against the register's valid-copy set `cached`: always remote
/// (1). A mutating write invalidates every other cached copy and installs
/// a valid one for the writer; a non-mutating write (failed SC) leaves
/// the set untouched.
#[inline]
pub(crate) fn cc_write(cached: &mut ProcMask, p: ProcessId, mutates: bool) -> u64 {
    if mutates {
        cached.clear();
        cached.insert(p);
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SharedMemory, Value};

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);

    #[test]
    fn dsm_home_is_register_mod_n() {
        assert_eq!(dsm_home(RegisterId(0), 3), ProcessId(0));
        assert_eq!(dsm_home(RegisterId(5), 3), ProcessId(2));
        assert!(!dsm_remote(ProcessId(2), RegisterId(5), 3));
        assert!(dsm_remote(ProcessId(0), RegisterId(5), 3));
        // n = 0 degenerates to everything homed at p0 instead of dividing
        // by zero.
        assert_eq!(dsm_home(RegisterId(7), 0), ProcessId(0));
    }

    #[test]
    fn dsm_cost_charges_per_foreign_register() {
        let n = 4;
        assert_eq!(dsm_cost(P0, &Operation::Ll(RegisterId(0)), n), 0);
        assert_eq!(dsm_cost(P0, &Operation::Ll(RegisterId(1)), n), 1);
        assert_eq!(
            dsm_cost(
                P0,
                &Operation::Move {
                    src: RegisterId(1),
                    dst: RegisterId(2)
                },
                n
            ),
            2
        );
        assert_eq!(
            dsm_cost(
                P1,
                &Operation::Move {
                    src: RegisterId(1),
                    dst: RegisterId(2)
                },
                n
            ),
            1
        );
    }

    /// Registers in the slab tier, at its edge, in the spill tier and
    /// in the telemetry range above 2^40: the CC charge lives in every
    /// tier's slot and must not depend on which one.
    const REGS: [RegisterId; 5] = [
        RegisterId(0),
        RegisterId(1023),
        RegisterId(1024),
        RegisterId(1_000_000),
        RegisterId((1 << 40) + 7),
    ];

    fn ll(mem: &mut SharedMemory, p: ProcessId, r: RegisterId) -> u64 {
        mem.apply_charged(p, &Operation::Ll(r)).1
    }

    fn sc(mem: &mut SharedMemory, p: ProcessId, r: RegisterId) -> (bool, u64) {
        let (resp, cc) = mem.apply_charged(p, &Operation::Sc(r, Value::Unit));
        (resp.flag() == Some(true), cc)
    }

    #[test]
    fn cc_spinning_read_is_free_after_first_fetch() {
        for r in REGS {
            let mut mem = SharedMemory::new();
            assert_eq!(ll(&mut mem, P0, r), 1, "{r}");
            assert_eq!(ll(&mut mem, P0, r), 0, "{r}");
            assert_eq!(mem.apply_charged(P0, &Operation::Validate(r)).1, 0, "{r}");
            assert!(mem.is_cached(P0, r));
        }
    }

    #[test]
    fn cc_mutating_write_invalidates_other_readers() {
        for r in REGS {
            let mut mem = SharedMemory::new();
            ll(&mut mem, P0, r);
            ll(&mut mem, P1, r);
            // p1's successful SC: 1 RMR, and p0's copy is invalidated
            // while p1 keeps a valid one.
            assert_eq!(sc(&mut mem, P1, r), (true, 1), "{r}");
            assert!(!mem.is_cached(P0, r));
            assert!(mem.is_cached(P1, r));
            assert_eq!(ll(&mut mem, P0, r), 1, "{r}");
        }
    }

    #[test]
    fn cc_failed_sc_costs_but_does_not_invalidate() {
        for r in REGS {
            let mut mem = SharedMemory::new();
            ll(&mut mem, P0, r);
            assert_eq!(sc(&mut mem, P1, r), (false, 1), "{r}");
            assert!(mem.is_cached(P0, r), "failed SC mutates nothing");
            assert!(!mem.is_cached(P1, r), "a failed SC installs no copy");
        }
    }

    #[test]
    fn cc_move_charges_source_read_and_destination_write() {
        let (src, dst) = (RegisterId(3), RegisterId((1 << 40) + 3));
        let mut mem = SharedMemory::new();
        ll(&mut mem, P1, dst);
        let mv = Operation::Move { src, dst };
        assert_eq!(mem.apply_charged(P0, &mv).1, 2, "cold source + write");
        assert_eq!(mem.apply_charged(P0, &mv).1, 1, "cached source");
        assert!(mem.is_cached(P0, src) && mem.is_cached(P0, dst));
        assert!(!mem.is_cached(P1, dst), "the move invalidated p1's copy");
    }

    #[test]
    fn cc_corruption_invalidates_everyone() {
        for r in REGS {
            let mut mem = SharedMemory::new();
            ll(&mut mem, P0, r);
            mem.corrupt(r, Value::from(1i64), false);
            assert!(!mem.is_cached(P0, r));
            assert_eq!(ll(&mut mem, P0, r), 1, "{r}");
        }
    }

    #[test]
    fn cc_evict_cold_starts_one_process() {
        let mut mem = SharedMemory::new();
        for r in REGS {
            ll(&mut mem, P0, r);
            ll(&mut mem, P1, r);
        }
        mem.evict(P0);
        for r in REGS {
            assert!(!mem.is_cached(P0, r), "{r}");
            assert!(mem.is_cached(P1, r), "other caches survive the eviction");
        }
    }

    #[test]
    fn cc_reset_forgets_all_state() {
        let mut mem = SharedMemory::new();
        for r in REGS {
            ll(&mut mem, P0, r);
        }
        mem.reset();
        for r in REGS {
            assert!(!mem.is_cached(P0, r));
            assert_eq!(ll(&mut mem, P0, r), 1, "{r}");
        }
    }
}
