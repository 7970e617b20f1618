//! A lock-free LL/SC combining tree — the *ablation* showing why naive
//! combining does not reach the `O(log n)` bound.
//!
//! Processes are the leaves of a complete binary tree; each process climbs
//! from its leaf to the root, at every internal node merging the batch of
//! `(pid, op)` contributions it carries into the node register with an
//! LL / union / SC retry loop, and finally appends its batch to the root
//! *log*, whose order is the linearisation.
//!
//! This is the "obvious" combining-tree design — and measuring it is the
//! point: under the paper's Figure-2 adversary (and plain round-robin) the
//! root SC serialises appends roughly one batch per round, so the worst
//! process pays `Θ(n)` shared operations despite the tree. The batching
//! only pays off when losers *wait for* winners, which is what the
//! Group-Update leader/follower discipline of [`crate::AdtTreeUniversal`]
//! adds. The bench suite reports both, as the ablation pair of
//! experiment E8.
//!
//! Properties: oblivious, single-use, wait-free (a process retries at a
//! node at most once per other process in the node's subtree, so the total
//! cost is bounded by `O(n)`); solo cost `2·(⌈log₂ n⌉ + 1)`.

use crate::implementation::ObjectImplementation;
use crate::tree::{contains, entry, extend_log, leaf_slots, path, replay_response, union};
use llsc_objects::ObjectSpec;
use llsc_shmem::dsl::{ll, sc, Step};
use llsc_shmem::{ProcessId, RegisterId, Value};
use std::fmt;
use std::sync::Arc;

/// Tree node registers: `NODE_BASE + heap_index`. The root is heap index 1,
/// so the root/log register is `NODE_BASE + 1`.
const NODE_BASE: u64 = 2000;

pub(crate) fn node_reg(heap_index: u64) -> RegisterId {
    RegisterId(NODE_BASE + heap_index)
}

const BATCH_REG: &str = "a combining-tree batch register always holds a tuple of entries";
const LOG_REG: &str = "the root log register always holds a tuple of entries";
const REPLAY: &str = "replay_response is only called after p's entry reached the root log";

/// The lock-free LL/SC combining tree (oblivious, single-use, wait-free
/// with worst case `O(n)`, solo cost `Θ(log n)`).
///
/// # Examples
///
/// ```
/// use llsc_universal::{CombiningTreeUniversal, measure, MeasureConfig, ScheduleKind};
/// use llsc_objects::FetchIncrement;
/// use std::sync::Arc;
///
/// let spec = Arc::new(FetchIncrement::new(16));
/// let imp = CombiningTreeUniversal::new(spec.clone());
/// let ops = vec![FetchIncrement::op(); 8];
/// let r = measure(&imp, spec.as_ref(), 8, &ops, ScheduleKind::RoundRobin, &MeasureConfig::default())
///     .expect("the round-robin run completes within the default budgets");
/// assert!(r.linearizable);
/// ```
pub struct CombiningTreeUniversal {
    spec: Arc<dyn ObjectSpec>,
}

impl CombiningTreeUniversal {
    /// Creates the construction instantiated with `spec`.
    pub fn new(spec: Arc<dyn ObjectSpec>) -> Self {
        CombiningTreeUniversal { spec }
    }
}

impl fmt::Debug for CombiningTreeUniversal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CombiningTreeUniversal")
            .field("spec", &self.spec.name())
            .finish()
    }
}

impl ObjectImplementation for CombiningTreeUniversal {
    fn name(&self) -> String {
        format!("combining-tree-llsc[{}]", self.spec.name())
    }

    fn initial_memory(&self, n: usize) -> Vec<(RegisterId, Value)> {
        let slots = leaf_slots(n);
        (1..slots * 2)
            .map(|i| (node_reg(i), Value::empty_tuple()))
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
        climb(spec, pid, path, 0, batch, k)
    }
}

/// Processes node `path[level]`; the root (last path element) installs the
/// batch into the log and computes the response.
fn climb(
    spec: Arc<dyn ObjectSpec>,
    pid: ProcessId,
    path: Vec<u64>,
    level: usize,
    batch: Value,
    k: Box<dyn FnOnce(Value) -> Step>,
) -> Step {
    let node = path[level];
    let is_root = node == 1;
    ll(node_reg(node), move |cur| {
        let helped = contains(&cur, pid).expect(BATCH_REG);
        if is_root {
            if helped {
                // Helped: my op is already in the log.
                return k(replay_response(spec.as_ref(), &cur, pid).expect(REPLAY));
            }
            let new_log = extend_log(&cur, &batch).expect(LOG_REG);
            sc(node_reg(node), new_log.clone(), move |ok, _| {
                if ok {
                    k(replay_response(spec.as_ref(), &new_log, pid).expect(REPLAY))
                } else {
                    climb(spec, pid, path, level, batch, k)
                }
            })
        } else {
            let merged = union(&cur, &batch).expect(BATCH_REG);
            if helped {
                // A same-subtree straggler already carried my batch here;
                // take the combined group upward.
                return climb(spec, pid, path, level + 1, merged, k);
            }
            sc(node_reg(node), merged.clone(), move |ok, _| {
                if ok {
                    climb(spec, pid, path, level + 1, merged, k)
                } else {
                    climb(spec, pid, path, level, batch, k)
                }
            })
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
        let imp = CombiningTreeUniversal::new(spec.clone());
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
    fn paths_lead_to_root() {
        assert_eq!(path(ProcessId(0), 1), vec![1]);
        assert_eq!(path(ProcessId(0), 4), vec![2, 1]);
        assert_eq!(path(ProcessId(3), 4), vec![3, 1]);
        assert_eq!(path(ProcessId(5), 8), vec![6, 3, 1]);
        // Non-power-of-two n rounds the leaf row up.
        assert_eq!(path(ProcessId(4), 5), vec![6, 3, 1]);
    }

    #[test]
    fn linearizable_under_all_schedules() {
        for kind in [
            ScheduleKind::Sequential,
            ScheduleKind::RoundRobin,
            ScheduleKind::RandomInterleave { seed: 9 },
            ScheduleKind::Adversary,
        ] {
            let r = fi(8, kind);
            assert!(r.linearizable, "{kind:?}");
            let mut got: Vec<i128> = r.responses.iter().map(|v| v.as_int().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, (0..8).collect::<Vec<i128>>(), "{kind:?}");
        }
    }

    #[test]
    fn solo_cost_is_logarithmic() {
        // Contention-free: 2 ops (LL+SC) per tree level.
        for n in [1, 2, 4, 16, 64] {
            let r = fi(n, ScheduleKind::Sequential);
            let levels = path(ProcessId(0), n).len() as u64;
            assert_eq!(r.max_ops, 2 * levels, "n={n}");
        }
    }

    #[test]
    fn adversary_cost_is_linear_the_ablation_point() {
        // Root SC serialisation defeats naive combining: under the
        // Figure-2 adversary the worst process pays Θ(n). This is the
        // ablation motivating the leader/follower discipline of
        // AdtTreeUniversal.
        for n in [8, 32, 128] {
            let r = fi(n, ScheduleKind::Adversary);
            assert!(r.linearizable || !r.lin_checked, "n={n}");
            assert!(
                r.max_ops as usize >= n,
                "n={n}: max_ops={} unexpectedly sublinear",
                r.max_ops
            );
            assert!(
                (r.max_ops as usize) <= 4 * n + 16,
                "n={n}: max_ops={} exceeds the O(n) wait-freedom bound",
                r.max_ops
            );
        }
    }

    #[test]
    fn batches_union_and_dedup() {
        let a = Value::tuple([entry(ProcessId(2), &Value::from(1i64))]);
        let b = Value::tuple([
            entry(ProcessId(1), &Value::from(2i64)),
            entry(ProcessId(2), &Value::from(1i64)),
        ]);
        let u = union(&a, &b).unwrap();
        let pids: Vec<usize> = u
            .as_tuple()
            .unwrap()
            .iter()
            .map(|e| entry_pid(e).unwrap().0)
            .collect();
        assert_eq!(pids, vec![1, 2]);
    }

    #[test]
    fn log_extension_preserves_prefix() {
        let log = Value::tuple([entry(ProcessId(3), &Value::from(1i64))]);
        let batch = Value::tuple([
            entry(ProcessId(3), &Value::from(1i64)),
            entry(ProcessId(0), &Value::from(2i64)),
        ]);
        let out = extend_log(&log, &batch).unwrap();
        let pids: Vec<usize> = out
            .as_tuple()
            .unwrap()
            .iter()
            .map(|e| entry_pid(e).unwrap().0)
            .collect();
        assert_eq!(pids, vec![3, 0], "prefix kept, fresh entries appended");
    }

    #[test]
    fn queue_and_stack_instantiations() {
        let q = Arc::new(Queue::with_numbered_items(6));
        let imp = CombiningTreeUniversal::new(q.clone());
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
        let imp = CombiningTreeUniversal::new(st.clone());
        let ops = vec![Stack::pop_op(); 4];
        let r = measure(
            &imp,
            st.as_ref(),
            4,
            &ops,
            ScheduleKind::RandomInterleave { seed: 2 },
            &MeasureConfig::default(),
        )
        .unwrap();
        assert!(r.linearizable);
    }
}
