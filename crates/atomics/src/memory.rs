//! LL/SC/VL/swap/move from pointer-width CAS: the hardware memory.
//!
//! The paper's strong LL/SC is not what real machines offer, but it can be
//! *built* from single-word compare-and-swap the way Blelloch–Wei
//! (arXiv:1911.09671) build LL/SC from pointer-width CAS: publish values
//! indirectly through a version-tagged word, and let tag equality stand in
//! for link validity.
//!
//! Each register is one `AtomicU64` **tag** packing `version | slot`:
//!
//! * `slot` indexes a pool of `Mutex<Value>` cells holding the actual
//!   (unbounded, structured) register contents — the "pointer" half of a
//!   tagged pointer, realized as a pool index so the whole backend stays
//!   inside `#![forbid(unsafe_code)]`;
//! * `version` increments on every install, so a tag value can never
//!   recur (no ABA).
//!
//! The paper's semantics then fall out of tag arithmetic:
//!
//! * **LL(r)** — atomically read the tag, clone the slot it names, and
//!   cache `(tag, value)` locally as the link;
//! * **VL(r)** — the link is valid iff the current tag still equals the
//!   cached one (any successful SC/swap/move changed it);
//! * **SC(r, v)** — write `v` into a slot owned by the calling process,
//!   then `compare_exchange` the tag from the cached link to a fresh
//!   `(version+1, slot)`; the CAS is the linearization point, its success
//!   is exactly "no install since my LL", and the cached LL value is then
//!   the paper-mandated previous value;
//! * **swap / move** — unconditional installs: read-then-CAS retry loops.
//!
//! Torn reads are impossible (slot contents are mutex-guarded and a read
//! revalidates the tag after cloning), and a process alternates between
//! two private slots per register, so a slot named by the *current* tag is
//! never overwritten: an owner only rewrites a slot after an intervening
//! install of its other slot, which moved the tag — and versions never
//! repeat, so the tag cannot move back.

use crate::fault::HwFaultLayer;
use llsc_shmem::{
    dsm_cost, ExecutionBackend, FaultInjector, FaultPlan, FaultStats, OpKind, Operation, ProcessId,
    RegisterId, Response, TossAssignment, Value,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One timestamped record in the hardware backend's history. Stamps come
/// from the backend's global logical clock: a `fetch_add` total order
/// that respects real time, so sorting by `at` yields a valid
/// linearization order for the run's accesses — and interleaves the
/// fault and crash adversaries' deliveries with the operations they hit.
#[derive(Clone, Debug, PartialEq)]
pub struct HwEvent {
    /// Logical-clock stamp of the record.
    pub at: u64,
    /// The process the record belongs to (the performer of an operation,
    /// the victim of a fault or crash).
    pub pid: ProcessId,
    /// What happened.
    pub kind: HwEventKind,
}

/// What one [`HwEvent`] records: a shared-memory operation, a
/// memory-fault delivery, or a crash-adversary action on the owning
/// thread.
#[derive(Clone, Debug, PartialEq)]
pub enum HwEventKind {
    /// A shared-memory operation the process performed.
    Op {
        /// Which of the five operations ran.
        op: OpKind,
        /// The operation's target register (`dst` for moves).
        target: RegisterId,
        /// The response the process observed.
        response: Response,
    },
    /// The fault layer suppressed an SC whose link was still valid — the
    /// weak-LL/SC spurious failure. The suppressed operation itself is
    /// recorded as the next [`HwEventKind::Op`] with a failed response.
    SpuriousSc {
        /// The SC's target register.
        target: RegisterId,
    },
    /// The fault layer corrupted the register this process's next
    /// operation observes.
    Corruption {
        /// The corrupted register.
        target: RegisterId,
        /// Whether the corruption also invalidated every outstanding
        /// link (the hardware realization of the simulator's
        /// clear-`Pset` flag: a corrupted value is *installed*, moving
        /// the tag, instead of rewritten in place).
        cleared: bool,
    },
    /// The crash supervisor killed this process's thread at its crash
    /// step (panic-based teardown; links dropped).
    Killed {
        /// How many crashes this victim has now suffered, this one
        /// included.
        crashes: u64,
    },
    /// The crash supervisor respawned this process after its recovery
    /// delay.
    Respawned {
        /// Respawns left in the victim's re-crash budget after this one.
        respawns_left: u64,
    },
}

/// One register: the version-tagged word plus its slot pool.
#[derive(Debug)]
struct HwRegister {
    /// `version << slot_bits | slot`, the single CAS-able word.
    tag: AtomicU64,
    /// Install-version allocator; versions are unique per register.
    version: AtomicU64,
    /// Slot 0 holds the initial value; process `p` owns slots `1 + 2p`
    /// and `2 + 2p` and alternates between them.
    slots: Vec<Mutex<Value>>,
}

impl HwRegister {
    fn new(n: usize, initial: Value) -> HwRegister {
        let mut slots = Vec::with_capacity(2 * n + 1);
        slots.push(Mutex::new(initial));
        for _ in 0..2 * n {
            slots.push(Mutex::new(Value::Unit));
        }
        HwRegister {
            // Initial tag: version 0, slot 0.
            tag: AtomicU64::new(0),
            version: AtomicU64::new(0),
            slots,
        }
    }

    fn slot_of(&self, tag: u64, slot_mask: u64) -> usize {
        (tag & slot_mask) as usize
    }

    /// An atomic (tag, value) snapshot: clone the named slot, then check
    /// the tag did not move while we held the slot lock. A changed tag
    /// means the clone may belong to a newer install — retry.
    fn read(&self, slot_mask: u64) -> (u64, Value) {
        loop {
            let t1 = self.tag.load(Ordering::Acquire);
            let value = self.slots[self.slot_of(t1, slot_mask)]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            if self.tag.load(Ordering::Acquire) == t1 {
                return (t1, value);
            }
        }
    }
}

/// Per-process local state: the LL links (cached `(tag, value)` pairs)
/// and the slot-parity bit per register. Only the owning process's
/// thread touches its entry, so the mutex is uncontended.
#[derive(Debug, Default)]
struct LocalState {
    links: HashMap<RegisterId, (u64, Value)>,
    parity: HashMap<RegisterId, bool>,
}

/// The real-hardware [`ExecutionBackend`]: registers built from
/// `AtomicU64` CAS as described in the module docs, shared by one OS
/// thread per process (see [`crate::run_threads_watchdog`]).
///
/// Unlike the simulator this backend is *not* deterministic — the OS
/// scheduler interleaves the threads — which is exactly what the
/// cross-validation harness wants to compare against simulator sweeps.
#[derive(Debug)]
pub struct HwMemory {
    n: usize,
    slot_bits: u32,
    slot_mask: u64,
    regs: RwLock<BTreeMap<RegisterId, Arc<HwRegister>>>,
    initial: BTreeMap<RegisterId, Value>,
    locals: Vec<Mutex<LocalState>>,
    accesses: Vec<AtomicU64>,
    dsm_rmrs: Vec<AtomicU64>,
    tosses: Vec<AtomicU64>,
    toss: Arc<dyn TossAssignment>,
    clock: AtomicU64,
    record: AtomicBool,
    events: Vec<Mutex<Vec<HwEvent>>>,
    faults: Option<HwFaultLayer>,
}

impl HwMemory {
    /// A hardware memory for `n` processes with every register initially
    /// `Value::Unit`, tosses answered by `toss` (indexed per process by
    /// call order, so seeded runs stay comparable across backends).
    pub fn new(n: usize, toss: Arc<dyn TossAssignment>) -> HwMemory {
        assert!(n >= 1, "at least one process");
        // Bits to address slots 0..=2n; versions take the remaining
        // (plentiful) high bits.
        let slot_bits = (u64::BITS - (2 * n as u64).leading_zeros()).max(1);
        HwMemory {
            n,
            slot_bits,
            slot_mask: (1u64 << slot_bits) - 1,
            regs: RwLock::new(BTreeMap::new()),
            initial: BTreeMap::new(),
            locals: (0..n).map(|_| Mutex::new(LocalState::default())).collect(),
            accesses: (0..n).map(|_| AtomicU64::new(0)).collect(),
            dsm_rmrs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            tosses: (0..n).map(|_| AtomicU64::new(0)).collect(),
            toss,
            clock: AtomicU64::new(0),
            record: AtomicBool::new(true),
            events: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            faults: None,
        }
    }

    /// Arms the memory-fault adversary: `plan`'s global-event thresholds
    /// are re-timed onto each process's private access clock (see
    /// `crate::fault::split_plan`), so the delivered fault stream is
    /// deterministic across thread interleavings. Stats are surfaced by
    /// [`HwMemory::fault_stats`] and every delivery is stamped into the
    /// [`HwEvent`] history.
    pub fn with_faults(mut self, plan: &FaultPlan) -> HwMemory {
        self.faults = Some(HwFaultLayer::new(plan, self.n));
        self
    }

    /// Faults the armed adversary actually delivered so far (all zeros
    /// when no plan is armed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map(HwFaultLayer::stats)
            .unwrap_or_default()
    }

    /// Sets the initial contents of registers (before first touch).
    pub fn with_initial<I>(mut self, initial: I) -> HwMemory
    where
        I: IntoIterator<Item = (RegisterId, Value)>,
    {
        assert!(
            self.regs
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty(),
            "set initial values before any register is touched"
        );
        self.initial.extend(initial);
        self
    }

    /// A hardware memory seeded with `alg`'s initial layout for `n`
    /// processes.
    pub fn for_algorithm(
        alg: &dyn llsc_shmem::Algorithm,
        n: usize,
        toss: Arc<dyn TossAssignment>,
    ) -> HwMemory {
        HwMemory::new(n, toss).with_initial(alg.initial_memory(n))
    }

    /// Disables (or re-enables) per-operation history recording — the
    /// throughput benchmarks turn it off so the measured cost is the
    /// memory itself, not the log.
    pub fn set_recording(&self, on: bool) {
        self.record.store(on, Ordering::Relaxed);
    }

    /// Advances the global logical clock and returns the fresh stamp.
    /// The driver uses this to timestamp operation invocations and
    /// responses in the same total order as the memory accesses.
    pub fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// The global logical clock's current value, without advancing it.
    /// The crash supervisor polls this to realize recovery delays in
    /// logical time (clock ticks are memory activity by the surviving
    /// processes).
    pub(crate) fn clock_now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Drops `p`'s process-local memory state — its LL links. The crash
    /// supervisor calls this when it kills a victim thread, so the
    /// respawned incarnation starts with no reservations, exactly like
    /// the simulator's crash teardown. The slot-parity bits survive: they
    /// are an artifact of the memory's slot pool (resetting them could
    /// overwrite the currently published slot), not algorithm state.
    pub(crate) fn clear_local(&self, p: ProcessId) {
        self.local(p).links.clear();
    }

    /// Stamps `kind` into `p`'s history on the global logical clock.
    /// Used by the fault hooks below and by the crash supervisor for its
    /// kill/respawn records; respects the recording switch like every
    /// other history write.
    pub(crate) fn record_event(&self, p: ProcessId, kind: HwEventKind) {
        if self.record.load(Ordering::Relaxed) {
            let at = self.stamp();
            self.events[p.0]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(HwEvent { at, pid: p, kind });
        } else {
            self.stamp();
        }
    }

    /// Drains every process's recorded operation events, merged and
    /// sorted by clock stamp.
    pub fn take_events(&self) -> Vec<HwEvent> {
        let mut all = Vec::new();
        for per_process in &self.events {
            all.append(&mut per_process.lock().unwrap_or_else(|e| e.into_inner()));
        }
        all.sort_by_key(|e| e.at);
        all
    }

    fn reg(&self, r: RegisterId) -> Arc<HwRegister> {
        if let Some(reg) = self.regs.read().unwrap_or_else(|e| e.into_inner()).get(&r) {
            return reg.clone();
        }
        let mut regs = self.regs.write().unwrap_or_else(|e| e.into_inner());
        regs.entry(r)
            .or_insert_with(|| {
                let initial = self.initial.get(&r).cloned().unwrap_or_default();
                Arc::new(HwRegister::new(self.n, initial))
            })
            .clone()
    }

    fn local(&self, p: ProcessId) -> std::sync::MutexGuard<'_, LocalState> {
        self.locals[p.0].lock().unwrap_or_else(|e| e.into_inner())
    }

    fn pack(&self, version: u64, slot: usize) -> u64 {
        (version << self.slot_bits) | slot as u64
    }

    /// The slot `p` installs into next on this register (alternating
    /// between its two private slots, so the currently published slot is
    /// never overwritten — see the module docs for why that is safe).
    fn next_own_slot(&self, p: ProcessId, r: RegisterId, local: &mut LocalState) -> usize {
        let flip = local.parity.entry(r).or_default();
        *flip = !*flip;
        1 + 2 * p.0 + usize::from(*flip)
    }

    /// Unconditional install (swap/move): read-then-CAS until it lands.
    /// Returns the value displaced by the install.
    fn install(&self, reg: &HwRegister, slot: usize, value: Value) -> Value {
        *reg.slots[slot].lock().unwrap_or_else(|e| e.into_inner()) = value;
        let version = reg.version.fetch_add(1, Ordering::Relaxed) + 1;
        let new_tag = self.pack(version, slot);
        loop {
            let (current, displaced) = reg.read(self.slot_mask);
            if reg
                .tag
                .compare_exchange(current, new_tag, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return displaced;
            }
        }
    }

    fn apply_inner(&self, p: ProcessId, op: &Operation) -> Response {
        match op {
            Operation::Ll(r) => {
                let reg = self.reg(*r);
                let (tag, value) = reg.read(self.slot_mask);
                self.local(p).links.insert(*r, (tag, value.clone()));
                Response::Value(value)
            }
            Operation::Validate(r) => {
                let reg = self.reg(*r);
                let (tag, value) = reg.read(self.slot_mask);
                let ok = self
                    .local(p)
                    .links
                    .get(r)
                    .is_some_and(|(link_tag, _)| *link_tag == tag);
                Response::Flagged { ok, value }
            }
            Operation::Sc(r, v) => {
                let reg = self.reg(*r);
                let link = {
                    let mut local = self.local(p);
                    local.links.remove(r)
                };
                let Some((link_tag, link_value)) = link else {
                    // Never linked: the SC fails, reporting the current
                    // value like the simulator's RegisterState does.
                    let (_, current) = reg.read(self.slot_mask);
                    return Response::Flagged {
                        ok: false,
                        value: current,
                    };
                };
                let slot = {
                    let mut local = self.local(p);
                    self.next_own_slot(p, *r, &mut local)
                };
                *reg.slots[slot].lock().unwrap_or_else(|e| e.into_inner()) = v.clone();
                let version = reg.version.fetch_add(1, Ordering::Relaxed) + 1;
                let new_tag = self.pack(version, slot);
                match reg.tag.compare_exchange(
                    link_tag,
                    new_tag,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    // Success means no install happened since the LL, so
                    // the linked value *is* the pre-SC value the paper's
                    // strong SC must report.
                    Ok(_) => Response::Flagged {
                        ok: true,
                        value: link_value,
                    },
                    Err(_) => {
                        let (_, current) = reg.read(self.slot_mask);
                        Response::Flagged {
                            ok: false,
                            value: current,
                        }
                    }
                }
            }
            Operation::Swap(r, v) => {
                let reg = self.reg(*r);
                let slot = {
                    let mut local = self.local(p);
                    self.next_own_slot(p, *r, &mut local)
                };
                let previous = self.install(&reg, slot, v.clone());
                Response::Value(previous)
            }
            Operation::Move { src, dst } => {
                let src_reg = self.reg(*src);
                let (_, moved) = src_reg.read(self.slot_mask);
                let dst_reg = self.reg(*dst);
                let slot = {
                    let mut local = self.local(p);
                    self.next_own_slot(p, *dst, &mut local)
                };
                self.install(&dst_reg, slot, moved);
                Response::Ack
            }
        }
    }

    /// Stamps one completed operation into the history (or just burns a
    /// clock tick when recording is off, keeping stamps dense either
    /// way).
    fn record_op(&self, p: ProcessId, op: &Operation, response: &Response) {
        if self.record.load(Ordering::Relaxed) {
            self.record_event(
                p,
                HwEventKind::Op {
                    op: op.kind(),
                    target: op.target(),
                    response: response.clone(),
                },
            );
        } else {
            self.stamp();
        }
    }

    /// Delivers one corruption to `r` on behalf of `p`'s fault injector.
    ///
    /// With `clear` set the corrupted value is *installed* through one
    /// of `p`'s own slots: the tag moves, so every outstanding link
    /// drops — the hardware realization of the simulator's clear-`Pset`
    /// flag. Without it the currently published slot is rewritten in
    /// place under tag validation: links stay valid but now vouch for a
    /// corrupted value, the sneakier of the two modes.
    fn inject_corruption(&self, p: ProcessId, r: RegisterId, clear: bool, inj: &mut FaultInjector) {
        let reg = self.reg(r);
        if clear {
            let (_, mut value) = reg.read(self.slot_mask);
            inj.corrupt_in_place(&mut value);
            let slot = {
                let mut local = self.local(p);
                self.next_own_slot(p, r, &mut local)
            };
            self.install(&reg, slot, value);
        } else {
            loop {
                let t1 = reg.tag.load(Ordering::Acquire);
                let mut slot = reg.slots[reg.slot_of(t1, self.slot_mask)]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                if reg.tag.load(Ordering::Acquire) == t1 {
                    inj.corrupt_in_place(&mut slot);
                    return;
                }
            }
        }
    }

    /// The fault hooks of [`HwMemory::apply`]: due corruptions strike
    /// the register this operation is about to observe (the source of a
    /// move, the target of everything else — mirroring the simulator),
    /// then a due spurious entry suppresses an SC whose link is still
    /// valid (suppressing an already-failing SC would inject nothing).
    /// Returns the forced failure response when the SC was suppressed.
    fn apply_faulted(
        &self,
        faults: &HwFaultLayer,
        p: ProcessId,
        op: &Operation,
        ticks: u64,
    ) -> Option<Response> {
        let mut inj = faults.injector(p);
        while let Some(cleared) = inj.take_corruption(ticks) {
            let target = op.observed();
            self.inject_corruption(p, target, cleared, &mut inj);
            self.record_event(p, HwEventKind::Corruption { target, cleared });
        }
        let Operation::Sc(r, _) = op else { return None };
        if !inj.spurious_due(ticks) || !self.linked(p, *r) {
            return None;
        }
        inj.consume_spurious();
        drop(inj);
        // Drop only the caller's link, exactly like a lost reservation:
        // the register's value and every other process's link survive.
        self.local(p).links.remove(r);
        let (_, current) = self.reg(*r).read(self.slot_mask);
        let response = Response::Flagged {
            ok: false,
            value: current,
        };
        self.record_event(p, HwEventKind::SpuriousSc { target: *r });
        self.record_op(p, op, &response);
        Some(response)
    }
}

impl ExecutionBackend for HwMemory {
    fn backend_name(&self) -> &'static str {
        "atomic"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn apply(&self, p: ProcessId, op: &Operation) -> Response {
        // The previous count is `p`'s private logical clock — the
        // fault layer keys its thresholds on it, because it is the one
        // clock the OS scheduler cannot perturb (see `crate::fault`).
        let ticks = self.accesses[p.0].fetch_add(1, Ordering::Relaxed);
        // DSM remoteness is a pure function of (process, register, n) —
        // see `llsc_shmem::dsm_home` — so the hardware backend can bill
        // it locally per thread, with no cache state to share. The CC
        // model needs the coherence history and stays simulator-only.
        let dsm = dsm_cost(p, op, self.n);
        if dsm > 0 {
            self.dsm_rmrs[p.0].fetch_add(dsm, Ordering::Relaxed);
        }
        if let Some(faults) = &self.faults {
            if let Some(suppressed) = self.apply_faulted(faults, p, op, ticks) {
                return suppressed;
            }
        }
        let response = self.apply_inner(p, op);
        self.record_op(p, op, &response);
        response
    }

    fn toss(&self, p: ProcessId) -> u64 {
        let index = self.tosses[p.0].fetch_add(1, Ordering::Relaxed);
        self.toss.outcome(p, index)
    }

    fn shared_accesses(&self, p: ProcessId) -> u64 {
        self.accesses[p.0].load(Ordering::Relaxed)
    }

    fn dsm_rmrs(&self, p: ProcessId) -> u64 {
        self.dsm_rmrs[p.0].load(Ordering::Relaxed)
    }

    fn peek(&self, r: RegisterId) -> Value {
        self.reg(r).read(self.slot_mask).1
    }

    fn linked(&self, p: ProcessId, r: RegisterId) -> bool {
        let reg = self.reg(r);
        let current = reg.tag.load(Ordering::Acquire);
        self.local(p)
            .links
            .get(&r)
            .is_some_and(|(link_tag, _)| *link_tag == current)
    }

    fn is_deterministic(&self) -> bool {
        false
    }
}
