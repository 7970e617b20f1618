//! A Group-Update-style oblivious universal construction (after Afek,
//! Dauber & Touitou) with measured `O(log n)` shared-access complexity —
//! the upper bound that makes the paper's lower bound **tight**.
//!
//! ## The discipline that earns the logarithm
//!
//! The naive combining tree ([`crate::CombiningTreeUniversal`]) lets every
//! process race to the root, where SC contention serialises appends and
//! costs `Θ(n)`. Group Update's key idea is *pairing with parking*:
//!
//! * Processes are leaves of a complete binary tree. Each internal node is
//!   a **meeting point** for the leaders of its two child subtrees.
//! * A subtree leader arriving at a node `swap`s its batch of `(pid, op)`
//!   contributions into the node register. If it receives the initial
//!   marker, it arrived **first**: its batch is parked for its sibling and
//!   it becomes a *follower*, polling the log register until its operation
//!   appears. If it receives the sibling leader's parked batch, it arrived
//!   **second**: it absorbs the batch and climbs as the merged group's
//!   leader.
//! * Exactly one leader survives per subtree, so the register of every
//!   node is swapped at most twice and the root meeting produces a single
//!   final leader carrying *all* `n` contributions, which it installs into
//!   the log register with one `swap` — no contention at all.
//! * Every process replays the log through the sequential specification to
//!   compute its response; the log order is the linearisation.
//!
//! Per process: at most `⌈log₂ n⌉` swaps while climbing, plus `O(log n)`
//! log polls while following (under round-based schedules the log appears
//! within `O(log n)` rounds). Experiment E8 measures exactly this against
//! the `Θ(n)` of the Herlihy-style baseline and the naive tree.
//!
//! ## Faithfulness note (recorded in DESIGN.md)
//!
//! Followers here *poll* the log rather than helping their leader climb,
//! so the construction requires a fair schedule (every non-terminated
//! process keeps taking steps) to terminate — the paper's Figure-2
//! adversary, round-robin, and random schedules all qualify; a purely
//! sequential run-to-completion schedule does not (a parked follower would
//! poll forever). The original ADT construction adds follower-helping
//! machinery to be wait-free under arbitrary schedules; reproducing that
//! handshake is out of scope, and all shipped measurements use fair
//! schedules, where the complexity shape matches the paper's claim.

use crate::implementation::ObjectImplementation;
use crate::tree::{entry, leaf_slots, replay_response, subtree_nonempty, union};
use llsc_objects::ObjectSpec;
use llsc_shmem::dsl::{read, swap, Step};
use llsc_shmem::{ProcessId, RegisterId, Value};
use std::fmt;
use std::sync::Arc;

/// Registers: `NODE_BASE + 0` is the log; `NODE_BASE + heap_index` (heap
/// index ≥ 1) are the meeting points.
const NODE_BASE: u64 = 3000;

pub(crate) fn log_reg() -> RegisterId {
    RegisterId(NODE_BASE)
}

pub(crate) fn node_reg(heap_index: u64) -> RegisterId {
    RegisterId(NODE_BASE + heap_index)
}

/// The log and every meeting point start at the Unit marker ("nobody
/// parked here yet").
pub(crate) fn initial_memory(n: usize) -> Vec<(RegisterId, Value)> {
    (0..leaf_slots(n))
        .map(|i| (node_reg(i), Value::Unit))
        .collect()
}

/// The Group-Update-style universal construction (oblivious, single-use,
/// measured `O(log n)` under fair schedules).
///
/// # Examples
///
/// ```
/// use llsc_universal::{AdtTreeUniversal, measure, MeasureConfig, ScheduleKind};
/// use llsc_objects::FetchIncrement;
/// use std::sync::Arc;
///
/// let spec = Arc::new(FetchIncrement::new(16));
/// let imp = AdtTreeUniversal::new(spec.clone());
/// let ops = vec![FetchIncrement::op(); 8];
/// let r = measure(&imp, spec.as_ref(), 8, &ops, ScheduleKind::Adversary, &MeasureConfig::default())
///     .expect("the adversary run completes within the default budgets");
/// assert!(r.linearizable);
/// ```
pub struct AdtTreeUniversal {
    spec: Arc<dyn ObjectSpec>,
}

impl AdtTreeUniversal {
    /// Creates the construction instantiated with `spec`.
    pub fn new(spec: Arc<dyn ObjectSpec>) -> Self {
        AdtTreeUniversal { spec }
    }
}

impl fmt::Debug for AdtTreeUniversal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdtTreeUniversal")
            .field("spec", &self.spec.name())
            .finish()
    }
}

impl ObjectImplementation for AdtTreeUniversal {
    fn name(&self) -> String {
        format!("adt-group-update[{}]", self.spec.name())
    }

    fn initial_memory(&self, n: usize) -> Vec<(RegisterId, Value)> {
        initial_memory(n)
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
        climb(spec, pid, n, leaf, batch, k)
    }
}

/// Climbs from tree position `child` towards the root, pairing at each
/// meeting point; installs the log upon winning at the root.
fn climb(
    spec: Arc<dyn ObjectSpec>,
    pid: ProcessId,
    n: usize,
    child: u64,
    batch: Value,
    k: Box<dyn FnOnce(Value) -> Step>,
) -> Step {
    if child == 1 {
        // Final leader: install the complete log with a single swap.
        return swap(log_reg(), batch.clone(), move |_| {
            k(replay_response(spec.as_ref(), &batch, pid).expect("p's entry is in the log"))
        });
    }
    let v = child / 2;
    let sibling = child ^ 1;
    if !subtree_nonempty(sibling, n) {
        // No meeting needed: the sibling subtree has no processes.
        return climb(spec, pid, n, v, batch, k);
    }
    swap(node_reg(v), batch.clone(), move |received| {
        if received.is_unit() {
            // First at the meeting point: my batch is parked for the
            // sibling leader; follow the log from here on.
            follow(spec, pid, k)
        } else {
            // Second: absorb the parked batch and lead the merged group.
            let merged = union(&batch, &received).expect("batch");
            climb(spec, pid, n, v, merged, k)
        }
    })
}

/// Polls the log until it appears, then computes the response.
fn follow(spec: Arc<dyn ObjectSpec>, pid: ProcessId, k: Box<dyn FnOnce(Value) -> Step>) -> Step {
    read(log_reg(), move |log| {
        if log.is_unit() {
            follow(spec, pid, k)
        } else {
            k(replay_response(spec.as_ref(), &log, pid).expect("log"))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{measure, MeasureConfig, ScheduleKind};
    use crate::tree::entry_pid;
    use llsc_objects::{FetchIncrement, Queue, Stack};

    fn fi(n: usize, kind: ScheduleKind) -> crate::measure::MeasureResult {
        let spec = Arc::new(FetchIncrement::new(32));
        let imp = AdtTreeUniversal::new(spec.clone());
        let ops = vec![FetchIncrement::op(); n];
        measure(
            &imp,
            spec.as_ref(),
            n,
            &ops,
            kind,
            &MeasureConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn subtree_emptiness() {
        // n = 5, slots = 8: leaves 8..12 occupied, 13..15 empty.
        assert!(subtree_nonempty(1, 5));
        assert!(subtree_nonempty(2, 5)); // leaves 8..11
        assert!(subtree_nonempty(3, 5)); // leaves 12..15 → 12 occupied
        assert!(subtree_nonempty(6, 5)); // leaves 12,13 → 12 occupied
        assert!(!subtree_nonempty(7, 5)); // leaves 14,15 → empty
        assert!(!subtree_nonempty(13, 5));
        assert!(subtree_nonempty(12, 5));
    }

    #[test]
    fn linearizable_under_fair_schedules() {
        for kind in [
            ScheduleKind::RoundRobin,
            ScheduleKind::RandomInterleave { seed: 7 },
            ScheduleKind::Adversary,
        ] {
            for n in [1, 2, 3, 5, 8] {
                let r = fi(n, kind);
                assert!(r.linearizable, "{kind:?} n={n}");
                let mut got: Vec<i128> = r.responses.iter().map(|v| v.as_int().unwrap()).collect();
                got.sort_unstable();
                assert_eq!(got, (0..n as i128).collect::<Vec<_>>(), "{kind:?} n={n}");
            }
        }
    }

    #[test]
    fn single_process_costs_one_swap() {
        let r = fi(1, ScheduleKind::RoundRobin);
        assert_eq!(r.max_ops, 1, "solo: one log swap, no meetings");
    }

    #[test]
    fn adversary_cost_is_logarithmic() {
        // The headline: under the paper's own adversary, the measured
        // shared-access complexity is O(log n) — the lower bound is tight.
        for n in [4, 16, 64, 256] {
            let cfg = MeasureConfig {
                check_linearizability: n <= 64,
                ..MeasureConfig::default()
            };
            let spec = Arc::new(FetchIncrement::new(32));
            let imp = AdtTreeUniversal::new(spec.clone());
            let ops = vec![FetchIncrement::op(); n];
            let r = measure(&imp, spec.as_ref(), n, &ops, ScheduleKind::Adversary, &cfg).unwrap();
            let log2 = (n as f64).log2();
            assert!(
                (r.max_ops as f64) <= 4.0 * log2 + 6.0,
                "n={n}: max_ops={} not O(log n)",
                r.max_ops
            );
        }
    }

    #[test]
    fn scales_past_the_naive_tree_and_herlihy() {
        let n = 64;
        let adt = fi(n, ScheduleKind::Adversary);
        let spec = Arc::new(FetchIncrement::new(32));
        let ops = vec![FetchIncrement::op(); n];
        let naive = measure(
            &crate::CombiningTreeUniversal::new(spec.clone()),
            spec.as_ref(),
            n,
            &ops,
            ScheduleKind::Adversary,
            &MeasureConfig::default(),
        )
        .unwrap();
        let herlihy = measure(
            &crate::HerlihyUniversal::new(spec.clone()),
            spec.as_ref(),
            n,
            &ops,
            ScheduleKind::Adversary,
            &MeasureConfig::default(),
        )
        .unwrap();
        assert!(
            adt.max_ops < herlihy.max_ops && adt.max_ops < naive.max_ops,
            "adt={} herlihy={} naive={}",
            adt.max_ops,
            herlihy.max_ops,
            naive.max_ops
        );
    }

    #[test]
    fn queue_and_stack_instantiations() {
        let q = Arc::new(Queue::with_numbered_items(6));
        let imp = AdtTreeUniversal::new(q.clone());
        let ops = vec![Queue::dequeue_op(); 6];
        let r = measure(
            &imp,
            q.as_ref(),
            6,
            &ops,
            ScheduleKind::Adversary,
            &MeasureConfig::default(),
        )
        .unwrap();
        assert!(r.linearizable);
        let mut got: Vec<i128> = r.responses.iter().map(|v| v.as_int().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6]);

        let st = Arc::new(Stack::with_numbered_items(4));
        let imp = AdtTreeUniversal::new(st.clone());
        let ops = vec![Stack::pop_op(); 4];
        let r = measure(
            &imp,
            st.as_ref(),
            4,
            &ops,
            ScheduleKind::RandomInterleave { seed: 4 },
            &MeasureConfig::default(),
        )
        .unwrap();
        assert!(r.linearizable);
    }

    #[test]
    fn union_dedups_and_sorts() {
        let a = Value::tuple([entry(ProcessId(3), &Value::from(1i64))]);
        let b = Value::tuple([
            entry(ProcessId(0), &Value::from(2i64)),
            entry(ProcessId(3), &Value::from(1i64)),
        ]);
        let u = union(&a, &b).unwrap();
        let pids: Vec<usize> = u
            .as_tuple()
            .unwrap()
            .iter()
            .map(|e| entry_pid(e).unwrap().0)
            .collect();
        assert_eq!(pids, vec![0, 3]);
    }

    #[test]
    fn name_mentions_group_update() {
        let imp = AdtTreeUniversal::new(Arc::new(FetchIncrement::new(8)));
        assert!(imp.name().contains("adt-group-update"));
        assert!(!imp.is_multi_use());
    }
}
