//! The heap-shaped process tree and the `(pid, op)` batches its nodes
//! carry — one definition for the combining tree, the ADT group-update
//! tree, their hardened twins and the tournament wakeup algorithms.
//!
//! Processes are the leaves of a complete binary tree in heap order: the
//! root is index 1, node `v`'s children are `2v` and `2v + 1`, and
//! process `p` sits at leaf `leaf_slots(n) + p`.
//!
//! A batch is a tuple of `(Pid, op)` entries. Every batch function returns
//! `None` on a malformed batch — a value that is not a tuple of
//! `(Pid, op)` pairs — and leaves the reaction to the caller: the plain
//! trees panic (`expect`), the hardened twins count a detection.

use llsc_objects::{apply_all, ObjectSpec};
use llsc_shmem::{ProcessId, Value};

/// Number of leaf slots: the smallest power of two ≥ `n`.
pub fn leaf_slots(n: usize) -> u64 {
    (n.max(1) as u64).next_power_of_two()
}

/// `true` iff the subtree rooted at heap index `v` contains at least one
/// of the `n` processes (the tree has `leaf_slots(n)` leaf positions, the
/// high ones unused when `n` is not a power of two).
pub fn subtree_nonempty(v: u64, n: usize) -> bool {
    let slots = leaf_slots(n);
    // Widen v to the leaf row: the lowest leaf under v.
    let mut low = v;
    while low < slots {
        low *= 2;
    }
    (low - slots) < n as u64
}

/// The heap indices of the internal nodes process `p` visits, from its
/// leaf's parent up to and including the root (index 1). A
/// single-process tree has no internal nodes; its path is the root alone.
pub(crate) fn path(p: ProcessId, n: usize) -> Vec<u64> {
    let mut node = (leaf_slots(n) + p.0 as u64) / 2;
    let mut path = Vec::new();
    while node >= 1 {
        path.push(node);
        node /= 2;
    }
    if path.is_empty() {
        path.push(1);
    }
    path
}

/// Process `p`'s batch entry for operation `op`.
pub(crate) fn entry(p: ProcessId, op: &Value) -> Value {
    Value::tuple([Value::Pid(p), op.clone()])
}

/// The process id of batch entry `e`.
pub(crate) fn entry_pid(e: &Value) -> Option<ProcessId> {
    e.index(0).and_then(Value::as_pid)
}

/// The entries of `batch`, or `None` unless it is a tuple of `(Pid, op)`
/// pairs.
pub(crate) fn entries(batch: &Value) -> Option<&[Value]> {
    let es = batch.as_tuple()?;
    es.iter()
        .all(|e| e.len() == Some(2) && entry_pid(e).is_some())
        .then_some(es)
}

/// Whether `batch` holds an entry of process `p`.
pub(crate) fn contains(batch: &Value, p: ProcessId) -> Option<bool> {
    Some(entries(batch)?.iter().any(|e| entry_pid(e) == Some(p)))
}

/// Union of two batches, deduplicated by process id, sorted by process id.
pub(crate) fn union(a: &Value, b: &Value) -> Option<Value> {
    let mut out = entries(a)?.to_vec();
    for e in entries(b)? {
        if !out.iter().any(|x| entry_pid(x) == entry_pid(e)) {
            out.push(e.clone());
        }
    }
    out.sort_by_key(entry_pid);
    Some(Value::tuple(out))
}

/// Appends to `log` every entry of `batch` not already present, in
/// ascending pid order (the existing prefix is preserved).
pub(crate) fn extend_log(log: &Value, batch: &Value) -> Option<Value> {
    let mut out = entries(log)?.to_vec();
    let mut fresh: Vec<Value> = entries(batch)?
        .iter()
        .filter(|e| !out.iter().any(|x| entry_pid(x) == entry_pid(e)))
        .cloned()
        .collect();
    fresh.sort_by_key(entry_pid);
    out.extend(fresh);
    Some(Value::tuple(out))
}

/// `p`'s response: the log prefix up to `p`'s entry replayed through the
/// sequential specification. `None` if the log is malformed or lacks `p`.
pub(crate) fn replay_response(spec: &dyn ObjectSpec, log: &Value, p: ProcessId) -> Option<Value> {
    let es = entries(log)?;
    let upto = es.iter().position(|e| entry_pid(e) == Some(p))?;
    let ops: Vec<Value> = es[..=upto]
        .iter()
        .filter_map(|e| e.index(1).cloned())
        .collect();
    apply_all(spec, &ops).1.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_batches_are_none() {
        let good = Value::tuple([entry(ProcessId(1), &Value::from(0i64))]);
        assert_eq!(contains(&good, ProcessId(1)), Some(true));
        for bad in [
            Value::from(9i64),
            Value::Unit,
            Value::tuple([Value::from(1i64)]),
            Value::tuple([Value::tuple([Value::from(1i64), Value::Unit])]),
        ] {
            assert_eq!(contains(&bad, ProcessId(1)), None, "{bad}");
            assert_eq!(union(&good, &bad), None, "{bad}");
            assert_eq!(extend_log(&bad, &good), None, "{bad}");
        }
    }
}
