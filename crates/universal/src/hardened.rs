//! Fault-hardened universal constructions: epoch/checksum self-validation
//! against the memory-fault adversary.
//!
//! The seeded [`FaultPlan`](llsc_shmem::FaultPlan) adversary delivers two
//! fault classes the strong Section-3 model excludes: **spurious SC
//! failures** (weak-LL/SC semantics) and **transient register corruption**.
//! The constructions here are hardened twins of
//! [`DirectLlSc`](crate::DirectLlSc),
//! [`CombiningTreeUniversal`](crate::CombiningTreeUniversal) and
//! [`AdtTreeUniversal`](crate::AdtTreeUniversal) designed around one invariant: **zero extra shared accesses when no
//! fault fires** — every check rides on data an operation already returns.
//!
//! * [`HardenedDirectLlSc`] keeps `(state, epoch)` in the state register,
//!   sealed with a [`Value::fingerprint`] checksum. Every successful SC
//!   increments the epoch, so a failed SC that observes *our own* epoch is
//!   spurious (a fault-free failure always observes a larger epoch), and a
//!   value that does not checksum is corruption — recovered by restarting
//!   from the sealed initial state.
//! * [`HardenedCombiningTreeUniversal`] seals every node batch. Fault-free
//!   batches only grow (each successful SC installs a strict superset), so
//!   a failed SC observing an *unchanged* batch is spurious; a node that
//!   does not checksum is treated as empty and repaired by the next SC.
//! * [`HardenedAdtTreeUniversal`] seals parked batches and the log. A
//!   meeting point corrupted in place is detected on receipt (never
//!   absorbed into the linearisation); the detecting leader climbs on with
//!   its own group only, which degrades safely: orphaned followers stall
//!   (a reported budget-exhaustion) rather than return wrong answers.
//!
//! Sealing, backoff and detection telemetry come from the shared
//! [`hardening`](crate::hardening) kit: a detected fault triggers a
//! bounded backoff before the retry, and each process publishes its
//! detection count just before responding — but only when the count is
//! nonzero, so fault-free runs never touch telemetry. Experiment E16
//! reads the count to split wrong answers into *detected* and *silent*.
//! The trees' batches and registers are the plain trees' own
//! ([`crate::tree`], `node_reg`, `log_reg`); a batch register counts as
//! intact only if it checksums *and* holds a well-formed batch.

use crate::direct::STATE_REG;
use crate::hardening::{backoff, publish, seal, unseal};
use crate::implementation::ObjectImplementation;
use crate::tree::{
    contains, entries, entry, extend_log, leaf_slots, path, replay_response, subtree_nonempty,
    union,
};
use crate::{adt_tree, combining_tree};
use llsc_objects::ObjectSpec;
use llsc_shmem::dsl::{ll, read, sc, swap, Step};
use llsc_shmem::{ProcessId, RegisterId, Value};
use std::fmt;
use std::sync::Arc;

/// Unseals a batch register, additionally requiring a well-formed batch.
fn unseal_batch(v: &Value) -> Option<Value> {
    unseal(v).filter(|b| entries(b).is_some())
}

// ---- hardened direct LL/SC ----------------------------------------------

fn encode_state(state: Value, epoch: i128) -> Value {
    seal(Value::tuple([state, Value::from(epoch)]))
}

fn decode_state(v: &Value) -> Option<(Value, i128)> {
    let cell = unseal(v)?;
    let items = cell.as_tuple()?;
    if items.len() != 2 {
        return None;
    }
    let epoch = items[1].as_int()?;
    Some((items[0].clone(), epoch))
}

/// Hardened [`DirectLlSc`](crate::DirectLlSc): the single-register
/// optimistic LL/SC loop over `(state, epoch)` sealed with a
/// [`Value::fingerprint`] checksum. A failed SC is diagnosed for free from
/// the epoch the SC already returned; corruption is recovered by
/// restarting from the initial state. Contention-free cost stays exactly
/// 2 shared operations.
pub struct HardenedDirectLlSc {
    spec: Arc<dyn ObjectSpec>,
}

impl HardenedDirectLlSc {
    /// Creates the hardened direct implementation of `spec`.
    pub fn new(spec: Arc<dyn ObjectSpec>) -> Self {
        HardenedDirectLlSc { spec }
    }
}

impl fmt::Debug for HardenedDirectLlSc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HardenedDirectLlSc")
            .field("spec", &self.spec.name())
            .finish()
    }
}

impl ObjectImplementation for HardenedDirectLlSc {
    fn name(&self) -> String {
        format!("hardened-direct-llsc[{}]", self.spec.name())
    }

    fn initial_memory(&self, _n: usize) -> Vec<(RegisterId, Value)> {
        vec![(STATE_REG, encode_state(self.spec.initial(), 0))]
    }

    fn invoke(
        &self,
        pid: ProcessId,
        _n: usize,
        op: Value,
        k: Box<dyn FnOnce(Value) -> Step>,
    ) -> Step {
        direct_attempt(Arc::clone(&self.spec), pid, op, 0, k)
    }

    fn is_multi_use(&self) -> bool {
        true
    }
}

fn direct_attempt(
    spec: Arc<dyn ObjectSpec>,
    pid: ProcessId,
    op: Value,
    detections: u64,
    k: Box<dyn FnOnce(Value) -> Step>,
) -> Step {
    ll(STATE_REG, move |cur| {
        // A state cell that does not checksum is corruption: recover from
        // the initial state (our SC then repairs the register).
        let (state, epoch, detections) = match decode_state(&cur) {
            Some((state, epoch)) => (state, epoch, detections),
            None => (spec.initial(), 0, detections + 1),
        };
        let (next, resp) = spec.apply(&state, &op);
        sc(STATE_REG, encode_state(next, epoch + 1), move |ok, obs| {
            if ok {
                publish(pid, detections, move || k(resp))
            } else {
                // Free diagnosis: a fault-free failure always observes a
                // strictly larger epoch (every successful SC after our LL
                // increments it). Our own epoch ⇒ spurious; undecodable or
                // smaller ⇒ corruption.
                let legit = decode_state(&obs).is_some_and(|(_, e)| e > epoch);
                if legit {
                    direct_attempt(spec, pid, op, detections, k)
                } else {
                    let d = detections + 1;
                    backoff(pid, d, move || direct_attempt(spec, pid, op, d, k))
                }
            }
        })
    })
}

// ---- hardened combining tree --------------------------------------------

/// Hardened [`CombiningTreeUniversal`](crate::CombiningTreeUniversal):
/// every node batch is sealed with its checksum, a corrupted node is
/// treated as empty and repaired by the next SC, and failed SCs are
/// diagnosed for free from the observed batch (fault-free batches only
/// grow, so an unchanged batch means the failure was spurious). Solo cost
/// stays `2·(⌈log₂ n⌉ + 1)`.
pub struct HardenedCombiningTreeUniversal {
    spec: Arc<dyn ObjectSpec>,
}

impl HardenedCombiningTreeUniversal {
    /// Creates the hardened construction instantiated with `spec`.
    pub fn new(spec: Arc<dyn ObjectSpec>) -> Self {
        HardenedCombiningTreeUniversal { spec }
    }
}

impl fmt::Debug for HardenedCombiningTreeUniversal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HardenedCombiningTreeUniversal")
            .field("spec", &self.spec.name())
            .finish()
    }
}

impl ObjectImplementation for HardenedCombiningTreeUniversal {
    fn name(&self) -> String {
        format!("hardened-combining-tree-llsc[{}]", self.spec.name())
    }

    fn initial_memory(&self, n: usize) -> Vec<(RegisterId, Value)> {
        let slots = leaf_slots(n);
        (1..slots * 2)
            .map(|i| (combining_tree::node_reg(i), seal(Value::empty_tuple())))
            .collect()
    }

    fn invoke(
        &self,
        pid: ProcessId,
        n: usize,
        op: Value,
        k: Box<dyn FnOnce(Value) -> Step>,
    ) -> Step {
        let spec = Arc::clone(&self.spec);
        let path = path(pid, n);
        let batch = Value::tuple([entry(pid, &op)]);
        combining_climb(spec, pid, path, 0, batch, 0, k)
    }
}

fn combining_climb(
    spec: Arc<dyn ObjectSpec>,
    pid: ProcessId,
    path: Vec<u64>,
    level: usize,
    batch: Value,
    detections: u64,
    k: Box<dyn FnOnce(Value) -> Step>,
) -> Step {
    let node = path[level];
    let is_root = node == 1;
    ll(combining_tree::node_reg(node), move |cur| {
        // A node that does not checksum is corruption: treat it as empty
        // (losing parked contributions is detected, never absorbed as
        // garbage) and let our SC repair the register.
        let (cur_batch, detections) = match unseal_batch(&cur) {
            Some(b) => (b, detections),
            None => (Value::empty_tuple(), detections + 1),
        };
        if is_root {
            if contains(&cur_batch, pid) == Some(true) {
                // Helped: my op is already in the log.
                let resp = replay_response(spec.as_ref(), &cur_batch, pid).unwrap_or(Value::Unit);
                return publish(pid, detections, move || k(resp));
            }
            let new_log = extend_log(&cur_batch, &batch).unwrap_or_else(|| batch.clone());
            sc(
                combining_tree::node_reg(node),
                seal(new_log.clone()),
                move |ok, obs| {
                    if ok {
                        let resp =
                            replay_response(spec.as_ref(), &new_log, pid).unwrap_or(Value::Unit);
                        publish(pid, detections, move || k(resp))
                    } else {
                        // Fault-free failure: someone extended the log, so
                        // the observed batch differs from our basis.
                        let legit = unseal_batch(&obs).is_some_and(|b| b != cur_batch);
                        if legit {
                            combining_climb(spec, pid, path, level, batch, detections, k)
                        } else {
                            let d = detections + 1;
                            backoff(pid, d, move || {
                                combining_climb(spec, pid, path, level, batch, d, k)
                            })
                        }
                    }
                },
            )
        } else {
            let merged = union(&cur_batch, &batch).unwrap_or_else(|| batch.clone());
            if contains(&cur_batch, pid) == Some(true) {
                return combining_climb(spec, pid, path, level + 1, merged, detections, k);
            }
            sc(
                combining_tree::node_reg(node),
                seal(merged.clone()),
                move |ok, obs| {
                    if ok {
                        combining_climb(spec, pid, path, level + 1, merged, detections, k)
                    } else {
                        let legit = unseal_batch(&obs).is_some_and(|b| b != cur_batch);
                        if legit {
                            combining_climb(spec, pid, path, level, batch, detections, k)
                        } else {
                            let d = detections + 1;
                            backoff(pid, d, move || {
                                combining_climb(spec, pid, path, level, batch, d, k)
                            })
                        }
                    }
                },
            )
        }
    })
}

// ---- hardened ADT group-update tree -------------------------------------

/// Hardened [`AdtTreeUniversal`](crate::AdtTreeUniversal): parked batches
/// and the final log are sealed with checksums, so a meeting point or log
/// corrupted in place is detected on receipt instead of being absorbed
/// into the linearisation. A leader that detects a corrupted park climbs
/// on with its own group only — degraded-safe: the orphaned sibling group
/// stalls (an honestly reported budget exhaustion) rather than receive
/// wrong responses; a follower that reads a corrupted log responds `Unit`
/// after publishing the detection.
pub struct HardenedAdtTreeUniversal {
    spec: Arc<dyn ObjectSpec>,
}

impl HardenedAdtTreeUniversal {
    /// Creates the hardened construction instantiated with `spec`.
    pub fn new(spec: Arc<dyn ObjectSpec>) -> Self {
        HardenedAdtTreeUniversal { spec }
    }
}

impl fmt::Debug for HardenedAdtTreeUniversal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HardenedAdtTreeUniversal")
            .field("spec", &self.spec.name())
            .finish()
    }
}

impl ObjectImplementation for HardenedAdtTreeUniversal {
    fn name(&self) -> String {
        format!("hardened-adt-group-update[{}]", self.spec.name())
    }

    fn initial_memory(&self, n: usize) -> Vec<(RegisterId, Value)> {
        // The Unit marker still means "nobody parked here yet", so the log
        // and meeting points start unsealed, exactly like the original.
        adt_tree::initial_memory(n)
    }

    fn invoke(
        &self,
        pid: ProcessId,
        n: usize,
        op: Value,
        k: Box<dyn FnOnce(Value) -> Step>,
    ) -> Step {
        let spec = Arc::clone(&self.spec);
        let leaf = leaf_slots(n) + pid.0 as u64;
        let batch = Value::tuple([entry(pid, &op)]);
        adt_climb(spec, pid, n, leaf, batch, 0, k)
    }
}

fn adt_climb(
    spec: Arc<dyn ObjectSpec>,
    pid: ProcessId,
    n: usize,
    child: u64,
    batch: Value,
    detections: u64,
    k: Box<dyn FnOnce(Value) -> Step>,
) -> Step {
    if child == 1 {
        // Final leader: install the sealed log with a single swap.
        return swap(adt_tree::log_reg(), seal(batch.clone()), move |_| {
            let resp = replay_response(spec.as_ref(), &batch, pid).unwrap_or(Value::Unit);
            publish(pid, detections, move || k(resp))
        });
    }
    let v = child / 2;
    let sibling = child ^ 1;
    if !subtree_nonempty(sibling, n) {
        return adt_climb(spec, pid, n, v, batch, detections, k);
    }
    swap(
        adt_tree::node_reg(v),
        seal(batch.clone()),
        move |received| {
            if received.is_unit() {
                // First at the meeting point: the sealed batch is parked for
                // the sibling leader; follow the log from here on.
                adt_follow(spec, pid, detections, k)
            } else {
                match unseal_batch(&received) {
                    Some(parked) => {
                        let merged = union(&batch, &parked).unwrap_or_else(|| batch.clone());
                        adt_climb(spec, pid, n, v, merged, detections, k)
                    }
                    None => {
                        // The parked payload was corrupted in place: the
                        // sibling group is unrecoverable. Climb with our own
                        // group only — never absorb garbage into the log.
                        let d = detections + 1;
                        backoff(pid, d, move || adt_climb(spec, pid, n, v, batch, d, k))
                    }
                }
            }
        },
    )
}

fn adt_follow(
    spec: Arc<dyn ObjectSpec>,
    pid: ProcessId,
    detections: u64,
    k: Box<dyn FnOnce(Value) -> Step>,
) -> Step {
    read(adt_tree::log_reg(), move |log| {
        if log.is_unit() {
            return adt_follow(spec, pid, detections, k);
        }
        match unseal_batch(&log) {
            Some(logged) if contains(&logged, pid) == Some(true) => {
                let resp = replay_response(spec.as_ref(), &logged, pid).unwrap_or(Value::Unit);
                publish(pid, detections, move || k(resp))
            }
            // A log that omits us means our park was lost to corruption
            // upstream; keep polling (the run ends as an honestly reported
            // budget exhaustion, never a wrong answer).
            Some(_) => adt_follow(spec, pid, detections, k),
            None => {
                // Corrupted log: a follower has nothing to replay. Publish
                // the detection and respond Unit (detected-wrong).
                publish(pid, detections + 1, move || k(Value::Unit))
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{measure, MeasureConfig, ScheduleKind};
    use llsc_objects::FetchIncrement;
    use llsc_shmem::dsl::done;
    use llsc_shmem::{
        Executor, ExecutorConfig, FaultPlan, FnAlgorithm, RoundRobinScheduler, ZeroTosses,
    };

    fn run_faulty(
        imp: Arc<dyn ObjectImplementation>,
        n: usize,
        plan: FaultPlan,
        max_steps: u64,
    ) -> Executor {
        let mem = imp.initial_memory(n);
        run_from(imp, n, mem, plan, max_steps)
    }

    /// One fetch&increment per process from initial memory `mem`.
    fn run_from(
        imp: Arc<dyn ObjectImplementation>,
        n: usize,
        mem: Vec<(RegisterId, Value)>,
        plan: FaultPlan,
        max_steps: u64,
    ) -> Executor {
        let alg = FnAlgorithm::new("fi-once", move |pid, n| {
            let imp = Arc::clone(&imp);
            imp.invoke(pid, n, FetchIncrement::op(), Box::new(done))
                .into_program()
        })
        .with_initial_memory(mem);
        let mut e = Executor::new(&alg, n, Arc::new(ZeroTosses), ExecutorConfig::default());
        e.set_fault_plan(plan);
        let _ = e.drive(&mut RoundRobinScheduler::new(), max_steps);
        e
    }

    /// Runs `plain` and `hard` with the register `reg` holding the
    /// non-batch value 7 from the start: `plain` must panic with
    /// `message`, `hard` must respond and report the detection.
    fn assert_loud_and_hardened(
        plain: Arc<dyn ObjectImplementation>,
        hard: Arc<dyn ObjectImplementation>,
        reg: RegisterId,
        message: &str,
    ) {
        let garbled = |imp: &Arc<dyn ObjectImplementation>| {
            let mut mem = imp.initial_memory(2);
            mem.iter_mut()
                .filter(|(r, _)| *r == reg)
                .for_each(|(_, v)| *v = Value::from(7i64));
            run_from(Arc::clone(imp), 2, mem, FaultPlan::none(), 10_000)
        };
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            garbled(&plain);
        }))
        .expect_err(&plain.name());
        assert_eq!(llsc_shmem::panic_message(payload.as_ref()), message);
        let e = garbled(&hard);
        assert!(e.all_terminated(), "{}", hard.name());
        let detections = crate::hardening::detections(2, |r| e.memory().peek(r));
        assert!(detections >= 1, "{}", hard.name());
    }

    #[test]
    fn plain_trees_still_panic_on_a_corrupted_batch_register() {
        // The shared batch helpers return `None` on a malformed batch; the
        // plain trees E16 compares against must still fail loudly on one,
        // with their own messages, while the hardened twins respond. With
        // n = 2 both processes meet at the root (heap index 1).
        let spec: Arc<dyn ObjectSpec> = Arc::new(FetchIncrement::new(16));
        assert_loud_and_hardened(
            Arc::new(crate::CombiningTreeUniversal::new(spec.clone())),
            Arc::new(HardenedCombiningTreeUniversal::new(spec.clone())),
            combining_tree::node_reg(1),
            "a combining-tree batch register always holds a tuple of entries",
        );
        assert_loud_and_hardened(
            Arc::new(crate::AdtTreeUniversal::new(spec.clone())),
            Arc::new(HardenedAdtTreeUniversal::new(spec)),
            adt_tree::node_reg(1),
            "batch",
        );
    }

    #[test]
    fn state_cells_round_trip_and_reject_tampering() {
        let cell = encode_state(Value::from(5i64), 3);
        assert_eq!(decode_state(&cell), Some((Value::from(5i64), 3)));
        // Tampered payload: checksum mismatch.
        let items = cell.as_tuple().unwrap();
        let forged = Value::tuple([
            Value::tuple([Value::from(6i64), Value::from(3i64)]),
            items[1].clone(),
        ]);
        assert_eq!(decode_state(&forged), None);
        assert_eq!(decode_state(&Value::from(5i64)), None);
        assert_eq!(decode_state(&Value::Unit), None);
    }

    #[test]
    fn sealed_batches_reject_malformed_payloads() {
        let good = seal(Value::tuple([entry(ProcessId(1), &Value::from(0i64))]));
        assert!(unseal_batch(&good).is_some());
        // A sealed non-batch checksums but fails the structure check.
        let non_batch = seal(Value::from(9i64));
        assert_eq!(unseal_batch(&non_batch), None);
        let bad_entry = seal(Value::tuple([Value::from(1i64)]));
        assert_eq!(unseal_batch(&bad_entry), None);
    }

    #[test]
    fn hardening_is_zero_cost_without_faults() {
        // At fault rate 0 each hardened twin's measured shared-access
        // counts exactly match the unhardened original's.
        let spec = Arc::new(FetchIncrement::new(64));
        let pairs: Vec<(Box<dyn ObjectImplementation>, Box<dyn ObjectImplementation>)> = vec![
            (
                Box::new(crate::DirectLlSc::new(spec.clone())),
                Box::new(HardenedDirectLlSc::new(spec.clone())),
            ),
            (
                Box::new(crate::CombiningTreeUniversal::new(spec.clone())),
                Box::new(HardenedCombiningTreeUniversal::new(spec.clone())),
            ),
            (
                Box::new(crate::AdtTreeUniversal::new(spec.clone())),
                Box::new(HardenedAdtTreeUniversal::new(spec.clone())),
            ),
        ];
        // Fair schedules only (the ADT followers poll the log).
        for kind in [
            ScheduleKind::RoundRobin,
            ScheduleKind::RandomInterleave { seed: 5 },
            ScheduleKind::Adversary,
        ] {
            for n in [1, 2, 5, 8] {
                let ops = vec![FetchIncrement::op(); n];
                for (plain, hard) in &pairs {
                    let a = measure(
                        plain.as_ref(),
                        spec.as_ref(),
                        n,
                        &ops,
                        kind,
                        &MeasureConfig::default(),
                    )
                    .unwrap();
                    let b = measure(
                        hard.as_ref(),
                        spec.as_ref(),
                        n,
                        &ops,
                        kind,
                        &MeasureConfig::default(),
                    )
                    .unwrap();
                    assert!(b.linearizable, "{} {kind:?} n={n}", hard.name());
                    assert_eq!(
                        a.max_ops,
                        b.max_ops,
                        "{} vs {} {kind:?} n={n}",
                        plain.name(),
                        hard.name()
                    );
                    assert_eq!(a.total_ops, b.total_ops, "{} {kind:?} n={n}", hard.name());
                }
            }
        }
    }

    #[test]
    fn direct_recovers_from_spurious_sc() {
        // Suppress the first qualifying SC: the victim observes its own
        // epoch, diagnoses the failure as spurious, backs off, retries.
        let spec = Arc::new(FetchIncrement::new(16));
        let e = run_faulty(
            Arc::new(HardenedDirectLlSc::new(spec)),
            3,
            FaultPlan::at([1], [], 5),
            1_000_000,
        );
        assert!(e.all_terminated());
        assert_eq!(e.fault_stats().spurious_sc, 1);
        // Responses are still a permutation of 0..3: recovered, not wrong.
        let mut got: Vec<i128> = llsc_shmem::ProcessId::all(3)
            .map(|p| e.verdict(p).unwrap().as_int().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        let detections = crate::hardening::detections(3, |r| e.memory().peek(r));
        assert!(detections >= 1, "the victim published its detection");
    }

    #[test]
    fn direct_recovers_from_state_corruption() {
        // Corrupt the state register before the first LL: the reader sees
        // a cell that fails its checksum, recovers from the initial state,
        // and the run still produces a permutation of responses.
        let spec = Arc::new(FetchIncrement::new(16));
        let e = run_faulty(
            Arc::new(HardenedDirectLlSc::new(spec)),
            3,
            FaultPlan::at([], [(0, false)], 23),
            1_000_000,
        );
        assert!(e.all_terminated());
        assert_eq!(e.fault_stats().corruptions, 1);
        let mut got: Vec<i128> = llsc_shmem::ProcessId::all(3)
            .map(|p| e.verdict(p).unwrap().as_int().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2], "recovered from the corrupted cell");
        let detections = crate::hardening::detections(3, |r| e.memory().peek(r));
        assert!(detections >= 1);
    }

    #[test]
    fn adt_never_absorbs_a_corrupted_park() {
        // Corrupt a meeting point between the park and its pickup: the
        // second arrival must reject the payload. The run either completes
        // with detections published or stalls honestly — it never returns
        // a silently-wrong full set of responses.
        for threshold in 0..6u64 {
            let spec = Arc::new(FetchIncrement::new(16));
            let e = run_faulty(
                Arc::new(HardenedAdtTreeUniversal::new(spec)),
                4,
                FaultPlan::at([], [(threshold, false)], 31),
                200_000,
            );
            if e.fault_stats().corruptions == 0 {
                continue;
            }
            let detections = crate::hardening::detections(4, |r| e.memory().peek(r));
            if e.all_terminated() {
                let mut got: Vec<i128> = llsc_shmem::ProcessId::all(4)
                    .map(|p| e.verdict(p).unwrap().as_int().unwrap_or(-1))
                    .collect();
                got.sort_unstable();
                assert!(
                    got == vec![0, 1, 2, 3] || detections >= 1,
                    "threshold={threshold}: wrong answers must come flagged: \
                     {got:?} detections={detections}"
                );
            }
            // Non-termination is the honest degraded mode (orphaned
            // followers poll a log that cannot include them).
        }
    }

    #[test]
    fn combining_tree_repairs_a_corrupted_node() {
        for threshold in 0..6u64 {
            let spec = Arc::new(FetchIncrement::new(16));
            let e = run_faulty(
                Arc::new(HardenedCombiningTreeUniversal::new(spec)),
                4,
                FaultPlan::at([], [(threshold, false)], 41),
                200_000,
            );
            if e.fault_stats().corruptions == 0 {
                continue;
            }
            let detections = crate::hardening::detections(4, |r| e.memory().peek(r));
            if e.all_terminated() {
                let mut got: Vec<i128> = llsc_shmem::ProcessId::all(4)
                    .map(|p| e.verdict(p).unwrap().as_int().unwrap_or(-1))
                    .collect();
                got.sort_unstable();
                assert!(
                    got == vec![0, 1, 2, 3] || detections >= 1,
                    "threshold={threshold}: wrong answers must come flagged: \
                     {got:?} detections={detections}"
                );
            }
        }
    }

    #[test]
    fn names_mention_hardening_and_spec() {
        let spec = Arc::new(FetchIncrement::new(8));
        assert_eq!(
            HardenedDirectLlSc::new(spec.clone()).name(),
            "hardened-direct-llsc[fetch&increment(k=8)]"
        );
        assert!(HardenedCombiningTreeUniversal::new(spec.clone())
            .name()
            .starts_with("hardened-combining-tree-llsc["));
        assert!(HardenedAdtTreeUniversal::new(spec.clone())
            .name()
            .starts_with("hardened-adt-group-update["));
        assert!(HardenedDirectLlSc::new(spec.clone()).is_multi_use());
        assert!(!HardenedAdtTreeUniversal::new(spec).is_multi_use());
    }
}
