//! The shared memory: a lazily-infinite array of registers.

use crate::{OpKind, Operation, ProcessId, RegisterId, RegisterState, Response, Value};
use std::collections::BTreeMap;
use std::fmt;

/// The paper's shared memory: registers `R_0, R_1, ...`, conceptually
/// infinite in number and unbounded in size.
///
/// Registers are materialised on first touch; an untouched register behaves
/// exactly like a register holding its configured initial value (which is
/// [`Value::Unit`] unless set via [`SharedMemory::set_initial`]). This makes
/// the "infinite number of words" of the paper observationally exact.
///
/// Internally the registers live in two tiers: ids below
/// `DENSE_REGISTERS` (1024) sit in a directly indexed slab, so an access
/// to one costs one bounds check instead of an ordered-map search, while
/// larger ids spill into a [`BTreeMap`]. The split is invisible: iteration and
/// snapshots present both tiers merged in id order.
///
/// # Examples
///
/// ```
/// use llsc_shmem::{Operation, ProcessId, RegisterId, Response, SharedMemory, Value};
/// let mut mem = SharedMemory::new();
/// let p = ProcessId(0);
/// let r = RegisterId(1_000_000); // any register exists
/// assert_eq!(mem.apply(p, &Operation::Ll(r)), Response::Value(Value::Unit));
/// let resp = mem.apply(p, &Operation::Sc(r, Value::from(1i64)));
/// assert_eq!(resp.flag(), Some(true));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SharedMemory {
    /// Slab tier: slot `i` is `R_i`'s state, `None` until first touch.
    /// Grown on demand, never beyond [`DENSE_REGISTERS`] slots.
    dense: Vec<Option<RegisterState>>,
    /// Spill tier for register ids at or above [`DENSE_REGISTERS`].
    sparse: BTreeMap<RegisterId, RegisterState>,
    /// Registers materialised in either tier (sizes [`SharedMemory::snapshot`]).
    touched: usize,
    initial: BTreeMap<RegisterId, Value>,
    stats: MemoryStats,
}

/// Register ids below this bound live in the directly indexed slab tier;
/// ids at or above it live in the ordered spill map.
const DENSE_REGISTERS: u64 = 1024;

impl SharedMemory {
    /// Creates an empty shared memory: every register holds
    /// [`Value::Unit`] and has an empty `Pset`.
    pub fn new() -> Self {
        SharedMemory::default()
    }

    /// Creates a shared memory whose registers start with the given initial
    /// values (all others start at [`Value::Unit`]).
    ///
    /// Implementations of initialised objects (e.g. a queue that "initially
    /// contains `n` items") use this to set up their representation.
    pub fn with_initial<I>(initial: I) -> Self
    where
        I: IntoIterator<Item = (RegisterId, Value)>,
    {
        SharedMemory {
            initial: initial.into_iter().collect(),
            ..SharedMemory::default()
        }
    }

    /// Sets the initial value of `reg`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` has already been touched by an operation: initial
    /// values are part of the experiment setup, not of its execution.
    pub fn set_initial(&mut self, reg: RegisterId, value: Value) {
        assert!(
            self.state(reg).is_none(),
            "set_initial({reg}) after the register was touched"
        );
        self.initial.insert(reg, value);
    }

    fn initial_value(&self, reg: RegisterId) -> Value {
        self.initial.get(&reg).cloned().unwrap_or_default()
    }

    /// The state of `reg` if it has been touched, `None` otherwise.
    fn state(&self, reg: RegisterId) -> Option<&RegisterState> {
        if reg.0 < DENSE_REGISTERS {
            self.dense.get(reg.0 as usize)?.as_ref()
        } else {
            self.sparse.get(&reg)
        }
    }

    fn state_mut(&mut self, reg: RegisterId) -> &mut RegisterState {
        if reg.0 < DENSE_REGISTERS {
            let i = reg.0 as usize;
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, || None);
            }
            if self.dense[i].is_none() {
                let init = self.initial_value(reg);
                self.dense[i] = Some(RegisterState::new(init));
                self.touched += 1;
            }
            self.dense[i].as_mut().expect("just materialised")
        } else {
            match self.sparse.entry(reg) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(v) => {
                    let init = self.initial.get(&reg).cloned().unwrap_or_default();
                    self.touched += 1;
                    v.insert(RegisterState::new(init))
                }
            }
        }
    }

    /// Every touched register with its state, in id order (the slab tier
    /// holds strictly smaller ids than the spill tier, so chaining them
    /// preserves the order).
    fn states(&self) -> impl Iterator<Item = (RegisterId, &RegisterState)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((RegisterId(i as u64), s.as_ref()?)))
            .chain(self.sparse.iter().map(|(r, s)| (*r, s)))
    }

    /// Reads the current value of `reg` without perturbing any state
    /// (an omniscient-observer read, used by checkers — not a process step).
    pub fn peek(&self, reg: RegisterId) -> Value {
        self.state(reg)
            .map(|s| s.value().clone())
            .unwrap_or_else(|| self.initial_value(reg))
    }

    /// Whether `p` is currently in `Pset(reg)` (omniscient view).
    pub fn peek_linked(&self, reg: RegisterId, p: ProcessId) -> bool {
        self.state(reg).is_some_and(|s| s.linked(p))
    }

    /// The set of registers that have been touched by at least one
    /// operation, in id order.
    pub fn touched(&self) -> impl Iterator<Item = RegisterId> + '_ {
        self.states().map(|(r, _)| r)
    }

    /// Applies `op` on behalf of process `p` and returns the response,
    /// following the Section-3 semantics exactly.
    pub fn apply(&mut self, p: ProcessId, op: &Operation) -> Response {
        self.stats.record(op.kind());
        match op {
            Operation::Ll(r) => Response::Value(self.state_mut(*r).ll(p)),
            Operation::Validate(r) => {
                let (ok, value) = self.state_mut(*r).validate(p);
                Response::Flagged { ok, value }
            }
            Operation::Sc(r, v) => {
                let (ok, value) = self.state_mut(*r).sc(p, v.clone());
                if ok {
                    self.stats.successful_scs += 1;
                }
                Response::Flagged { ok, value }
            }
            Operation::Swap(r, v) => Response::Value(self.state_mut(*r).swap(v.clone())),
            Operation::Move { src, dst } => {
                // The source is read without mutation; reading it still
                // counts as "touching" so that snapshots list it.
                let moved = self.state_mut(*src).value().clone();
                self.state_mut(*dst).receive_move(moved);
                Response::Ack
            }
        }
    }

    /// Applies a *spurious* `SC` failure on behalf of `p`: if `p` is
    /// linked to `reg` (the SC would have succeeded), the link is silently
    /// dropped — [`RegisterState::suppress_sc`] — and the failed-SC
    /// response is returned. Returns `None` when `p` holds no link, in
    /// which case the SC would fail anyway and suppression would inject
    /// nothing; the caller should apply the operation normally and keep
    /// the fault pending.
    ///
    /// The suppressed SC is still a shared access and is counted in
    /// [`MemoryStats::scs`] (but not as successful).
    pub fn suppress_sc(&mut self, p: ProcessId, reg: RegisterId) -> Option<Response> {
        if !self.state(reg).is_some_and(|s| s.linked(p)) {
            return None;
        }
        self.stats.record(OpKind::Sc);
        let value = self.state_mut(reg).suppress_sc(p);
        Some(Response::Flagged { ok: false, value })
    }

    /// Transient corruption of `reg`: the value becomes `value` and, when
    /// `clear_pset` is set, every link is dropped. A fault-injector
    /// primitive — not a process step, so it is not counted in
    /// [`MemoryStats`].
    pub fn corrupt(&mut self, reg: RegisterId, value: Value, clear_pset: bool) {
        self.state_mut(reg).corrupt(value, clear_pset);
    }

    /// Transient corruption of `reg` *in place*: materialises the register
    /// and hands its value to `mutate` (no copy out, no copy back — the
    /// fault injector rewrites individual fields/words directly). When
    /// `clear_pset` is set, every link is dropped. Like
    /// [`SharedMemory::corrupt`], not counted in [`MemoryStats`].
    pub fn corrupt_in_place(
        &mut self,
        reg: RegisterId,
        clear_pset: bool,
        mutate: impl FnOnce(&mut Value),
    ) {
        self.state_mut(reg).corrupt_in_place(clear_pset, mutate);
    }

    /// Clears every touched register and the operation statistics while
    /// keeping the configured initial values (and the initial map's
    /// allocation): after a reset the memory is observationally the
    /// freshly constructed [`SharedMemory::with_initial`] memory again.
    /// The executor's trial-reset primitive
    /// ([`Executor::reset`](crate::Executor::reset)).
    pub fn reset(&mut self) {
        self.dense.clear();
        self.sparse.clear();
        self.touched = 0;
        self.stats = MemoryStats::default();
    }

    /// Cumulative operation statistics.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// A snapshot of every touched register's state (value and `Pset`), in
    /// id order, for end-of-round comparisons: one pass, one allocation
    /// sized by the touched registers. Untouched registers are omitted
    /// (they hold their initial values and empty `Pset`s by definition).
    pub fn snapshot(&self) -> Vec<(RegisterId, RegisterState)> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// [`SharedMemory::snapshot`] into a caller-owned vector: `out` is
    /// cleared and refilled, keeping its allocation when it already holds
    /// room for every touched register.
    pub fn snapshot_into(&self, out: &mut Vec<(RegisterId, RegisterState)>) {
        out.clear();
        out.reserve_exact(self.touched);
        out.extend(self.states().map(|(r, s)| (r, s.clone())));
    }
}

/// Counts of operations applied to a [`SharedMemory`], by kind.
///
/// These are *global* counters used for sanity checks and reporting; the
/// per-process shared-access counts that the paper's complexity measure
/// `t(p, R)` needs live in [`crate::Run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Number of `LL` operations applied.
    pub lls: u64,
    /// Number of `validate` operations applied.
    pub validates: u64,
    /// Number of `SC` operations applied (successful or not).
    pub scs: u64,
    /// Number of *successful* `SC` operations.
    pub successful_scs: u64,
    /// Number of `swap` operations applied.
    pub swaps: u64,
    /// Number of `move` operations applied.
    pub moves: u64,
}

impl MemoryStats {
    fn record(&mut self, kind: OpKind) {
        match kind {
            OpKind::Ll => self.lls += 1,
            OpKind::Validate => self.validates += 1,
            OpKind::Sc => self.scs += 1,
            OpKind::Swap => self.swaps += 1,
            OpKind::Move => self.moves += 1,
        }
    }

    /// Total number of shared-memory operations applied.
    pub fn total(&self) -> u64 {
        self.lls + self.validates + self.scs + self.swaps + self.moves
    }
}

impl fmt::Display for MemoryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LL={} validate={} SC={} (ok {}) swap={} move={} total={}",
            self.lls,
            self.validates,
            self.scs,
            self.successful_scs,
            self.swaps,
            self.moves,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);

    fn int(i: i64) -> Value {
        Value::from(i)
    }

    #[test]
    fn untouched_register_reads_initial_unit() {
        let mem = SharedMemory::new();
        assert_eq!(mem.peek(RegisterId(123)), Value::Unit);
        assert!(!mem.peek_linked(RegisterId(123), P0));
    }

    #[test]
    fn with_initial_seeds_values() {
        let mem = SharedMemory::with_initial([(RegisterId(0), int(5))]);
        assert_eq!(mem.peek(RegisterId(0)), int(5));
        assert_eq!(mem.peek(RegisterId(1)), Value::Unit);
    }

    #[test]
    fn first_ll_of_seeded_register_sees_initial_value() {
        let mut mem = SharedMemory::with_initial([(RegisterId(0), int(5))]);
        assert_eq!(
            mem.apply(P0, &Operation::Ll(RegisterId(0))),
            Response::Value(int(5))
        );
    }

    #[test]
    #[should_panic(expected = "after the register was touched")]
    fn set_initial_after_touch_panics() {
        let mut mem = SharedMemory::new();
        mem.apply(P0, &Operation::Ll(RegisterId(0)));
        mem.set_initial(RegisterId(0), int(1));
    }

    #[test]
    fn move_copies_value_and_preserves_source() {
        let mut mem = SharedMemory::with_initial([(RegisterId(0), int(9))]);
        // P1 links dst; the move must invalidate that link.
        mem.apply(P1, &Operation::Ll(RegisterId(1)));
        let resp = mem.apply(
            P0,
            &Operation::Move {
                src: RegisterId(0),
                dst: RegisterId(1),
            },
        );
        assert_eq!(resp, Response::Ack);
        assert_eq!(mem.peek(RegisterId(1)), int(9));
        assert_eq!(mem.peek(RegisterId(0)), int(9), "source unchanged");
        assert!(!mem.peek_linked(RegisterId(1), P1), "move clears dst Pset");
    }

    #[test]
    fn move_does_not_clear_source_pset() {
        let mut mem = SharedMemory::new();
        mem.apply(P1, &Operation::Ll(RegisterId(0)));
        mem.apply(
            P0,
            &Operation::Move {
                src: RegisterId(0),
                dst: RegisterId(1),
            },
        );
        assert!(mem.peek_linked(RegisterId(0), P1), "source Pset unchanged");
    }

    #[test]
    fn self_move_clears_pset_but_keeps_value() {
        let mut mem = SharedMemory::with_initial([(RegisterId(0), int(3))]);
        mem.apply(P0, &Operation::Ll(RegisterId(0)));
        mem.apply(
            P1,
            &Operation::Move {
                src: RegisterId(0),
                dst: RegisterId(0),
            },
        );
        assert_eq!(mem.peek(RegisterId(0)), int(3));
        assert!(!mem.peek_linked(RegisterId(0), P0));
    }

    #[test]
    fn stats_count_by_kind() {
        let mut mem = SharedMemory::new();
        mem.apply(P0, &Operation::Ll(RegisterId(0)));
        mem.apply(P0, &Operation::Sc(RegisterId(0), int(1)));
        mem.apply(P1, &Operation::Sc(RegisterId(0), int(2)));
        mem.apply(P0, &Operation::Validate(RegisterId(0)));
        mem.apply(P0, &Operation::Swap(RegisterId(0), int(3)));
        mem.apply(
            P0,
            &Operation::Move {
                src: RegisterId(0),
                dst: RegisterId(1),
            },
        );
        let s = mem.stats();
        assert_eq!(s.lls, 1);
        assert_eq!(s.scs, 2);
        assert_eq!(s.successful_scs, 1);
        assert_eq!(s.validates, 1);
        assert_eq!(s.swaps, 1);
        assert_eq!(s.moves, 1);
        assert_eq!(s.total(), 6);
        assert!(s.to_string().contains("total=6"));
    }

    #[test]
    fn suppress_sc_requires_a_live_link_and_counts_as_an_sc() {
        let mut mem = SharedMemory::with_initial([(RegisterId(0), int(3))]);
        // No link yet: suppression has nothing to inject.
        assert_eq!(mem.suppress_sc(P0, RegisterId(0)), None);
        assert_eq!(mem.stats().scs, 0);
        mem.apply(P0, &Operation::Ll(RegisterId(0)));
        let resp = mem.suppress_sc(P0, RegisterId(0));
        assert_eq!(
            resp,
            Some(Response::Flagged {
                ok: false,
                value: int(3)
            })
        );
        assert!(!mem.peek_linked(RegisterId(0), P0));
        assert_eq!(mem.peek(RegisterId(0)), int(3), "value untouched");
        let s = mem.stats();
        assert_eq!(s.scs, 1, "a spurious SC is still a shared access");
        assert_eq!(s.successful_scs, 0);
    }

    #[test]
    fn corrupt_rewrites_without_counting_an_operation() {
        let mut mem = SharedMemory::with_initial([(RegisterId(0), int(3))]);
        mem.apply(P0, &Operation::Ll(RegisterId(0)));
        mem.corrupt(RegisterId(0), int(99), false);
        assert_eq!(mem.peek(RegisterId(0)), int(99));
        assert!(mem.peek_linked(RegisterId(0), P0), "links kept");
        mem.corrupt(RegisterId(0), int(100), true);
        assert!(!mem.peek_linked(RegisterId(0), P0), "links cleared");
        assert_eq!(mem.stats().total(), 1, "corruption is not a step");
        // Corrupting an untouched register materialises it.
        mem.corrupt(RegisterId(5), int(1), true);
        assert_eq!(mem.peek(RegisterId(5)), int(1));
    }

    #[test]
    fn snapshots_cover_touched_registers_only() {
        let mut mem = SharedMemory::new();
        mem.apply(P0, &Operation::Swap(RegisterId(2), int(4)));
        let snap = mem.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, RegisterId(2));
        assert_eq!(snap[0].1.value(), &int(4));
        let touched: Vec<_> = mem.touched().collect();
        assert_eq!(touched, vec![RegisterId(2)]);
    }

    #[test]
    fn dense_and_sparse_tiers_merge_in_id_order() {
        let mut mem = SharedMemory::with_initial([(RegisterId(5_000_000), int(7))]);
        // Touch a spill-tier register first, then two slab registers.
        mem.apply(P0, &Operation::Ll(RegisterId(5_000_000)));
        mem.apply(P0, &Operation::Swap(RegisterId(9), int(1)));
        mem.apply(P0, &Operation::Swap(RegisterId(2), int(2)));
        assert_eq!(
            mem.touched().collect::<Vec<_>>(),
            vec![RegisterId(2), RegisterId(9), RegisterId(5_000_000)]
        );
        assert_eq!(mem.peek(RegisterId(5_000_000)), int(7));
        assert!(mem.peek_linked(RegisterId(5_000_000), P0));
        let snap = mem.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[2].0, RegisterId(5_000_000));
        assert_eq!(snap[2].1.value(), &int(7));
        assert_eq!(
            snap.capacity(),
            3,
            "sized by touched registers, not the slab"
        );
        // Spill-tier registers reset like slab ones.
        mem.reset();
        assert_eq!(mem.touched().count(), 0);
        assert_eq!(mem.peek(RegisterId(5_000_000)), int(7), "initial kept");
    }

    #[test]
    fn validate_is_readlike_even_without_link() {
        let mut mem = SharedMemory::with_initial([(RegisterId(0), int(7))]);
        let resp = mem.apply(P0, &Operation::Validate(RegisterId(0)));
        assert_eq!(
            resp,
            Response::Flagged {
                ok: false,
                value: int(7)
            }
        );
    }

    #[test]
    fn pset_snapshot_lists_linked_processes() {
        let mut mem = SharedMemory::new();
        mem.apply(P0, &Operation::Ll(RegisterId(0)));
        mem.apply(P1, &Operation::Ll(RegisterId(0)));
        let snap = mem.snapshot();
        assert_eq!(snap[0].0, RegisterId(0));
        assert_eq!(snap[0].1.pset().iter().collect::<Vec<_>>(), vec![P0, P1]);
    }
}
