//! The memory-fault adversary on real atomics: deterministic fault
//! streams for the hardware backend.
//!
//! The simulator injects faults off its global event counter — a number
//! that does not exist on the hardware backend, where the OS scheduler
//! decides the interleaving and the global logical clock is a race
//! outcome. What *is* deterministic per run is each process's own access
//! count: thread `p`'s `k`-th shared operation is the same operation in
//! every interleaving (of a per-process-deterministic program). This
//! module therefore re-times a simulator [`FaultPlan`] onto the
//! **per-process logical clock**:
//!
//! * `split_plan` deals the plan's global-event thresholds out to the
//!   `n` processes (entry `i` → process `i mod n`) and rescales each
//!   threshold from global event time to per-process access time
//!   (`t / n`, the expected share of a fair interleaving), deriving a
//!   decorrelated per-process value seed;
//! * [`HwFaultLayer`] arms one [`FaultInjector`] per process; the
//!   injectors never contend (each is touched only by its owner's
//!   thread) and their delivery decisions depend only on the owner's
//!   access count — so the delivered fault stream is a pure function of
//!   `(algorithm, plan, n)`, byte-identical across thread interleavings.
//!
//! The hooks themselves live in [`HwMemory::apply`](crate::HwMemory):
//! corruption rewrites the register an operation is about to observe,
//! and a due spurious entry suppresses the first SC whose link is still
//! valid — exactly the simulator's two weak-LL/SC failure modes.

use llsc_shmem::{FaultInjector, FaultPlan, FaultStats, ProcessId};
use std::sync::{Mutex, MutexGuard};

/// Domain separation for per-process value-mutation seeds, so the `n`
/// replacement-value streams are decorrelated even though they derive
/// from one plan seed.
const PER_PROCESS_VALUE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Re-times a simulator [`FaultPlan`] (thresholds in global event time)
/// into `n` per-process plans (thresholds in per-process access time).
///
/// Entry `i` of each sorted threshold list goes to process `i mod n`,
/// with its threshold divided by `n`: under a fair interleaving a global
/// event count of `t` corresponds to roughly `t / n` accesses by each
/// process, so the rescaled plan fires in the same phase of the run.
/// The result is a pure function of `(plan, n)` — hardware fault sweeps
/// are as seed-deterministic as simulator ones.
pub(crate) fn split_plan(plan: &FaultPlan, n: usize) -> Vec<FaultPlan> {
    let n = n.max(1);
    let mut spurious: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (i, &t) in plan.spurious().iter().enumerate() {
        spurious[i % n].push(t / n as u64);
    }
    let mut corruptions: Vec<Vec<(u64, bool)>> = vec![Vec::new(); n];
    for (i, &(t, clear)) in plan.corruptions().iter().enumerate() {
        corruptions[i % n].push((t / n as u64, clear));
    }
    (0..n)
        .map(|p| {
            let seed = plan
                .value_seed()
                .wrapping_add(PER_PROCESS_VALUE_SALT.wrapping_mul(p as u64 + 1));
            FaultPlan::at(
                std::mem::take(&mut spurious[p]),
                std::mem::take(&mut corruptions[p]),
                seed,
            )
        })
        .collect()
}

/// One armed [`FaultInjector`] per process, for the hardware backend.
///
/// Each injector is only ever touched by its owning process's thread
/// (the mutexes exist to keep the backend `Sync` inside
/// `#![forbid(unsafe_code)]`, not for contention), and every delivery
/// decision is keyed on the owner's private access count — see the
/// module docs for why that makes hardware fault streams deterministic.
#[derive(Debug)]
pub struct HwFaultLayer {
    per_process: Vec<Mutex<FaultInjector>>,
}

impl HwFaultLayer {
    /// Arms `plan` for `n` processes by `split_plan`.
    pub fn new(plan: &FaultPlan, n: usize) -> HwFaultLayer {
        HwFaultLayer::from_assignments(split_plan(plan, n))
    }

    /// Arms an explicit per-process plan assignment (one plan per
    /// process, in process order) — the targeted form tests and the
    /// conformance suite use to aim a fault at a specific process.
    pub(crate) fn from_assignments<I>(plans: I) -> HwFaultLayer
    where
        I: IntoIterator<Item = FaultPlan>,
    {
        HwFaultLayer {
            per_process: plans
                .into_iter()
                .map(|plan| Mutex::new(FaultInjector::new(plan)))
                .collect(),
        }
    }

    /// The injector owned by `p` (panics if `p` is out of range — the
    /// memory constructs the layer for exactly its own `n`).
    pub(crate) fn injector(&self, p: ProcessId) -> MutexGuard<'_, FaultInjector> {
        self.per_process[p.0]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Faults actually delivered so far, summed over every process.
    pub fn stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for inj in &self.per_process {
            let s = inj.lock().unwrap_or_else(|e| e.into_inner()).stats();
            total.spurious_sc += s.spurious_sc;
            total.corruptions += s.corruptions;
        }
        total
    }

    /// `true` iff no per-process plan schedules any fault.
    pub fn is_empty(&self) -> bool {
        self.per_process.iter().all(|inj| {
            inj.lock()
                .unwrap_or_else(|e| e.into_inner())
                .plan()
                .is_empty()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_deals_entries_round_robin_and_rescales() {
        let plan = FaultPlan::at([0, 10, 20], [(30, true), (40, false)], 7);
        let split = split_plan(&plan, 2);
        assert_eq!(split.len(), 2);
        // Sorted spurious [0, 10, 20]: entries 0 and 2 land on p0,
        // entry 1 on p1; thresholds halve.
        assert_eq!(split[0].spurious(), &[0, 10]);
        assert_eq!(split[1].spurious(), &[5]);
        // Sorted corruptions [(30, true), (40, false)] deal the same way.
        assert_eq!(split[0].corruptions(), &[(15, true)]);
        assert_eq!(split[1].corruptions(), &[(20, false)]);
        // Value seeds are decorrelated but deterministic.
        assert_ne!(split[0].value_seed(), split[1].value_seed());
        let again = split_plan(&plan, 2);
        assert_eq!(split, again);
    }

    #[test]
    fn split_preserves_the_total_fault_count() {
        for n in [1, 3, 7] {
            let plan = FaultPlan::seeded(11, 9, 5, 64);
            let split = split_plan(&plan, n);
            let spurious: usize = split.iter().map(|p| p.spurious().len()).sum();
            let corruptions: usize = split.iter().map(|p| p.corruptions().len()).sum();
            assert_eq!(spurious, 9, "n={n}");
            assert_eq!(corruptions, 5, "n={n}");
        }
    }

    #[test]
    fn layer_aggregates_stats_across_processes() {
        let layer = HwFaultLayer::from_assignments([
            FaultPlan::at([0], [], 1),
            FaultPlan::at([], [(0, true)], 2),
        ]);
        assert_eq!(layer.per_process.len(), 2);
        assert!(!layer.is_empty());
        assert_eq!(
            layer.stats(),
            FaultStats::default(),
            "nothing delivered yet"
        );
        {
            let mut inj = layer.injector(ProcessId(0));
            assert!(inj.spurious_due(0));
            inj.consume_spurious();
        }
        {
            let mut inj = layer.injector(ProcessId(1));
            assert_eq!(inj.take_corruption(0), Some(true));
        }
        let stats = layer.stats();
        assert_eq!(stats.spurious_sc, 1);
        assert_eq!(stats.corruptions, 1);
        assert_eq!(stats.total(), 2);
        assert!(HwFaultLayer::new(&FaultPlan::none(), 4).is_empty());
    }
}
