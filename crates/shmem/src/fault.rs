//! The memory-fault adversary: spurious SC failures and transient
//! register corruption.
//!
//! The paper's Section-3 memory is perfect; real LL/SC hardware is not.
//! This module extends the model with a seeded, deterministic fault
//! injector for the two classic weak-LL/SC failure modes:
//!
//! * **Spurious SC failure** — an `SC` whose `Pset` condition holds
//!   nevertheless returns `false`, as if the process's reservation were
//!   silently lost (cache-line eviction, context switch). Only the
//!   caller's link is dropped; the register's value and every other
//!   process's link are untouched.
//! * **Transient register corruption** — the register an operation is
//!   about to observe has its value replaced by a seeded arbitrary value
//!   *of the same type*, with `Pset` optionally cleared, before the
//!   operation applies.
//!
//! A [`FaultPlan`] fixes *when* (event-count thresholds) and *how*
//! (value-mutation seed) faults fire, so a run with a given plan is a
//! pure function of `(algorithm, toss assignment, schedule, plan)` —
//! fault sweeps stay byte-identical at any `--threads`, exactly like
//! crash sweeps built on [`CrashPlan`](crate::CrashPlan). The
//! [`Executor`](crate::Executor) consumes the plan via
//! [`Executor::set_fault_plan`](crate::Executor::set_fault_plan) and
//! classifies a terminating faulted run as
//! [`RunOutcome::FaultInjected`](crate::RunOutcome::FaultInjected).

use crate::rng::XorShift64;
use crate::{ProcessId, Value};
use std::fmt;

/// Domain-separation constant for the value-mutation stream.
const VALUE_STREAM_SALT: u64 = 0x00FA_171E_57ED_C0DE;

/// A deterministic schedule of memory faults for one run.
///
/// Thresholds are *event counts* (`Executor::recorded_events`): a
/// spurious entry with threshold `t` suppresses the first qualifying SC
/// at or after event `t`; a corruption entry with threshold `t` rewrites
/// the register observed by the first shared operation at or after event
/// `t`. Expressing faults in event time (not wall time or thread time)
/// is what keeps fault sweeps threads-invariant.
///
///
/// # Examples
///
/// ```
/// use llsc_shmem::FaultPlan;
/// let plan = FaultPlan::at([3, 10], [(5, true)], 42);
/// assert_eq!(plan.spurious(), &[3, 10]);
/// assert_eq!(plan.corruptions(), &[(5, true)]);
/// let seeded = FaultPlan::seeded(7, 2, 2, 64);
/// assert_eq!(seeded.spurious().len(), 2);
/// assert_eq!(seeded.corruptions().len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Event thresholds of spurious SC failures, ascending.
    spurious: Vec<u64>,
    /// Event thresholds of corruptions, ascending, each with its
    /// clear-`Pset` flag.
    corruptions: Vec<(u64, bool)>,
    /// Seed of the stream that picks replacement values.
    value_seed: u64,
}

impl FaultPlan {
    /// The empty plan: no faults ever fire.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with explicit event thresholds (sorted internally) and a
    /// seed for the value-mutation stream.
    pub fn at<S, C>(spurious: S, corruptions: C, value_seed: u64) -> Self
    where
        S: IntoIterator<Item = u64>,
        C: IntoIterator<Item = (u64, bool)>,
    {
        let mut spurious: Vec<u64> = spurious.into_iter().collect();
        spurious.sort_unstable();
        let mut corruptions: Vec<(u64, bool)> = corruptions.into_iter().collect();
        corruptions.sort_unstable();
        FaultPlan {
            spurious,
            corruptions,
            value_seed,
        }
    }

    /// A seeded plan: `spurious` spurious-SC thresholds and `corruptions`
    /// corruption thresholds, each drawn uniformly from `0..window`
    /// (a `window` of 0 is treated as 1), with `Pset`-clearing decided by
    /// a fair coin per corruption. Pure function of its arguments.
    pub fn seeded(seed: u64, spurious: usize, corruptions: usize, window: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0x000F_A57F_A175_C0FF_u64);
        let window = window.max(1);
        let spurious: Vec<u64> = (0..spurious).map(|_| rng.below(window)).collect();
        let corruptions: Vec<(u64, bool)> = (0..corruptions)
            .map(|_| (rng.below(window), rng.chance(1, 2)))
            .collect();
        FaultPlan::at(spurious, corruptions, rng.next_u64())
    }

    /// The spurious-SC thresholds, ascending.
    pub fn spurious(&self) -> &[u64] {
        &self.spurious
    }

    /// The corruption thresholds with their clear-`Pset` flags, ascending.
    pub fn corruptions(&self) -> &[(u64, bool)] {
        &self.corruptions
    }

    /// `true` iff the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.spurious.is_empty() && self.corruptions.is_empty()
    }

    /// The seed of the replacement-value stream, so a plan can be
    /// serialized (e.g. into a [`crate::repro::ReproCase`]) and rebuilt
    /// byte-identically with [`FaultPlan::at`].
    pub fn value_seed(&self) -> u64 {
        self.value_seed
    }

    /// A one-line human-readable summary, used in trial-failure context
    /// strings so a failed trial is reproducible from the artifact alone.
    pub fn summary(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("fault-plan:none");
        }
        write!(f, "fault-plan:spurious@{:?}", self.spurious)?;
        write!(f, ",corrupt@[")?;
        for (i, (t, clear)) in self.corruptions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}{}", if *clear { "!" } else { "" })?;
        }
        write!(f, "],values-seed={:#018x}", self.value_seed)
    }
}

/// Counts of faults an injector actually delivered (ground truth for
/// experiment tables, as opposed to the *planned* faults — a plan whose
/// thresholds lie beyond the run's end injects nothing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Spurious SC failures delivered.
    pub spurious_sc: u64,
    /// Register corruptions delivered.
    pub corruptions: u64,
}

impl FaultStats {
    /// Total faults delivered.
    pub fn total(&self) -> u64 {
        self.spurious_sc + self.corruptions
    }
}

/// The runtime state of a [`FaultPlan`] over one run: consumption
/// cursors, the value-mutation stream, and delivery statistics.
///
/// Owned by the [`Executor`](crate::Executor); experiments interact with
/// it only through [`FaultPlan`] and [`FaultStats`].
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    next_spurious: usize,
    next_corruption: usize,
    rng: XorShift64,
    stats: FaultStats,
}

impl FaultInjector {
    /// Arms `plan`, starting all cursors at the first entry.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = XorShift64::new(plan.value_seed ^ VALUE_STREAM_SALT);
        FaultInjector {
            plan,
            next_spurious: 0,
            next_corruption: 0,
            rng,
            stats: FaultStats::default(),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults delivered so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// `true` iff a spurious SC failure is due at event count `events`.
    /// The entry is only consumed by [`FaultInjector::consume_spurious`] —
    /// a due fault waits for the next SC whose `Pset` condition actually
    /// holds (suppressing an SC that would fail anyway injects nothing).
    pub fn spurious_due(&self, events: u64) -> bool {
        self.plan
            .spurious
            .get(self.next_spurious)
            .is_some_and(|&t| t <= events)
    }

    /// Consumes the pending spurious entry and counts the delivery.
    pub fn consume_spurious(&mut self) {
        self.next_spurious += 1;
        self.stats.spurious_sc += 1;
    }

    /// Takes the next corruption due at event count `events`, if any,
    /// returning its clear-`Pset` flag. Multiple corruptions due at the
    /// same event are delivered by repeated calls.
    pub fn take_corruption(&mut self, events: u64) -> Option<bool> {
        let (t, clear) = *self.plan.corruptions.get(self.next_corruption)?;
        if t > events {
            return None;
        }
        self.next_corruption += 1;
        self.stats.corruptions += 1;
        Some(clear)
    }

    /// Corrupts `v` *in place*, preserving its type: the corrupted
    /// register stays type-plausible (an `Int` stays an `Int`, a bit
    /// string keeps its width — one word gets one bit flipped, no buffer
    /// is rebuilt) so corruption models transient bit flips rather than
    /// arbitrary rewrites. [`Value::Unit`] has a single inhabitant, so
    /// its corruption is observable only through the optional `Pset`
    /// clear.
    pub fn corrupt_in_place(&mut self, v: &mut Value) {
        match v {
            Value::Unit => {}
            Value::Bool(b) => *b = !*b,
            Value::Int(i) => {
                let fresh = i128::from(self.rng.range_i64(0, 1024));
                *i = if fresh == *i { fresh + 1 } else { fresh };
            }
            Value::Pid(p) => {
                // Provably a *different* process name.
                *p = ProcessId((p.0 + 1 + self.rng.index(63)) % 64);
            }
            Value::Reg(r) => r.0 ^= 1 + self.rng.below(255),
            Value::Bits(ws) => {
                // The word slab may be shared with run histories and
                // snapshots; corruption rebuilds the node so the mutation
                // stays local to this register.
                let mut words = ws.to_vec();
                if words.is_empty() {
                    words.push(self.rng.next_u64());
                } else {
                    let i = self.rng.index(words.len());
                    words[i] ^= 1 << self.rng.below(64);
                }
                *v = Value::bits(words);
            }
            Value::Tuple(vs) => {
                if vs.is_empty() {
                    // An empty tuple corrupts to Unit: same "sequence"
                    // family, observably different.
                    *v = Value::Unit;
                } else {
                    let mut items = vs.to_vec();
                    let i = self.rng.index(items.len());
                    self.corrupt_in_place(&mut items[i]);
                    *v = Value::tuple(items);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RegisterId;

    #[test]
    fn empty_plan_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        assert!(!inj.spurious_due(u64::MAX));
        assert_eq!(inj.take_corruption(u64::MAX), None);
        assert_eq!(inj.stats().total(), 0);
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none().summary(), "fault-plan:none");
    }

    #[test]
    fn thresholds_fire_in_order_and_count() {
        let mut inj = FaultInjector::new(FaultPlan::at([10, 3], [(5, true), (2, false)], 1));
        // `at` sorts: spurious [3, 10], corruptions [(2, false), (5, true)].
        assert!(!inj.spurious_due(2));
        assert!(inj.spurious_due(3));
        inj.consume_spurious();
        assert!(!inj.spurious_due(5), "second threshold not yet due");
        assert!(inj.spurious_due(10));
        inj.consume_spurious();
        assert!(!inj.spurious_due(u64::MAX), "plan exhausted");
        assert_eq!(inj.take_corruption(1), None);
        assert_eq!(inj.take_corruption(2), Some(false));
        assert_eq!(inj.take_corruption(4), None);
        assert_eq!(inj.take_corruption(7), Some(true));
        assert_eq!(inj.take_corruption(u64::MAX), None);
        assert_eq!(
            inj.stats(),
            FaultStats {
                spurious_sc: 2,
                corruptions: 2
            }
        );
        assert_eq!(inj.stats().total(), 4);
    }

    #[test]
    fn multiple_corruptions_due_at_one_event_all_fire() {
        let mut inj = FaultInjector::new(FaultPlan::at([], [(4, true), (4, false), (4, true)], 0));
        let mut fired = 0;
        while inj.take_corruption(4).is_some() {
            fired += 1;
        }
        assert_eq!(fired, 3);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let a = FaultPlan::seeded(9, 3, 4, 32);
        let b = FaultPlan::seeded(9, 3, 4, 32);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::seeded(10, 3, 4, 32));
        assert_eq!(a.spurious().len(), 3);
        assert_eq!(a.corruptions().len(), 4);
        assert!(a.spurious().iter().all(|&t| t < 32));
        assert!(a.corruptions().iter().all(|&(t, _)| t < 32));
        assert!(a.spurious().windows(2).all(|w| w[0] <= w[1]), "sorted");
        // Window 0 clamps to 1 instead of panicking.
        let z = FaultPlan::seeded(1, 2, 2, 0);
        assert!(z.spurious().iter().all(|&t| t == 0));
    }

    /// `v` after one in-place corruption by `inj`.
    fn corrupted(inj: &mut FaultInjector, v: &Value) -> Value {
        let mut out = v.clone();
        inj.corrupt_in_place(&mut out);
        out
    }

    #[test]
    fn corrupt_value_preserves_type_and_differs() {
        let mut inj = FaultInjector::new(FaultPlan::at([], [], 7));
        let cases = [
            Value::Bool(true),
            Value::Int(5),
            Value::Pid(ProcessId(3)),
            Value::Reg(RegisterId(9)),
            Value::bits(vec![0, 1]),
            Value::bits(vec![]),
            Value::tuple([Value::Int(1), Value::Bool(false)]),
            Value::tuple([Value::bits(vec![1]), Value::Int(0)]),
        ];
        for v in &cases {
            let c = corrupted(&mut inj, v);
            assert_ne!(&c, v, "corruption must be observable for {v}");
            assert_eq!(
                std::mem::discriminant(&c),
                std::mem::discriminant(v),
                "same-type corruption for {v}"
            );
        }
        // Unit is the documented fixed point.
        assert_eq!(corrupted(&mut inj, &Value::Unit), Value::Unit);
        // Bit strings keep their width.
        let c = corrupted(&mut inj, &Value::bits(vec![7, 7, 7]));
        assert_eq!(c.as_bits().map(<[u64]>::len), Some(3));
        // Tuples keep their arity (one corrupted element).
        let t = Value::tuple([Value::Int(1), Value::Int(2)]);
        assert_eq!(corrupted(&mut inj, &t).len(), Some(2));
        // Empty tuple corrupts to Unit (still observable).
        assert_eq!(corrupted(&mut inj, &Value::empty_tuple()), Value::Unit);
    }

    #[test]
    fn corrupt_value_streams_are_seed_deterministic() {
        let mut a = FaultInjector::new(FaultPlan::at([], [], 11));
        let mut b = FaultInjector::new(FaultPlan::at([], [], 11));
        for _ in 0..20 {
            assert_eq!(
                corrupted(&mut a, &Value::Int(100)),
                corrupted(&mut b, &Value::Int(100))
            );
        }
    }

    #[test]
    fn display_lists_thresholds() {
        let p = FaultPlan::at([3], [(5, true), (8, false)], 0xAB);
        let s = p.summary();
        assert!(s.contains("spurious@[3]"), "{s}");
        assert!(s.contains("5!"), "{s}");
        assert!(s.contains("8"), "{s}");
    }
}
