//! A Wing–Gong linearizability checker.
//!
//! Linearizability (Herlihy & Wing; the paper's `[20]`) is the correctness
//! condition every implementation in this repository is held to: a
//! concurrent history is linearizable iff there is a total order of its
//! operations, consistent with real-time precedence, whose responses match
//! the sequential specification.
//!
//! [`check_linearizability`] performs the classic Wing–Gong depth-first
//! search: repeatedly pick a *minimal* operation (one not preceded by any
//! other remaining operation), apply it to the specification state, match
//! the observed response, and recurse — with memoisation on
//! `(remaining-set, state)` to tame the exponential worst case. Pending
//! operations may linearize with any response, or never take effect.

use crate::history::{History, OpId};
use crate::seqspec::ObjectSpec;
use llsc_shmem::Value;
use std::collections::HashSet;

/// The maximum number of operations the checker accepts (the remaining-set
/// is a `u128` bitmask).
pub const MAX_OPS: usize = 128;

/// The verdict of a linearizability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinCheck {
    /// The history is linearizable; a witness linearisation order (by
    /// [`OpId`]) is included. Pending operations that never took effect are
    /// absent from the witness.
    Linearizable {
        /// One valid linearisation order.
        witness: Vec<OpId>,
    },
    /// No linearisation exists.
    NotLinearizable,
}

impl LinCheck {
    /// `true` iff the history is linearizable.
    pub fn is_ok(&self) -> bool {
        matches!(self, LinCheck::Linearizable { .. })
    }
}

/// Checks whether `history` is linearizable with respect to `spec`.
///
/// # Panics
///
/// Panics if the history has more than [`MAX_OPS`] operations.
///
/// # Examples
///
/// ```
/// use llsc_objects::{check_linearizability, History, Queue, ObjectSpec};
/// use llsc_shmem::{ProcessId, Value};
///
/// let q = Queue::new();
/// // p0 enqueues 1; later p1 dequeues and gets 1: linearizable.
/// let h = History::sequential([
///     (ProcessId(0), Queue::enqueue_op(Value::from(1i64)), Value::Unit),
///     (ProcessId(1), Queue::dequeue_op(), Value::from(1i64)),
/// ]);
/// assert!(check_linearizability(&q, &h).is_ok());
/// ```
pub fn check_linearizability(spec: &dyn ObjectSpec, history: &History) -> LinCheck {
    let n = history.len();
    assert!(n <= MAX_OPS, "history too large for the checker ({n} ops)");
    if n == 0 {
        return LinCheck::Linearizable { witness: vec![] };
    }

    let full: u128 = if n == 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    };
    let mut visited: HashSet<(u128, Value)> = HashSet::new();
    let mut witness: Vec<OpId> = Vec::new();

    fn dfs(
        spec: &dyn ObjectSpec,
        history: &History,
        remaining: u128,
        state: &Value,
        visited: &mut HashSet<(u128, Value)>,
        witness: &mut Vec<OpId>,
    ) -> bool {
        // Success once every *complete* operation is linearized; remaining
        // pending ones are deemed to never take effect.
        let mut complete_left = false;
        for i in 0..history.len() {
            if remaining & (1 << i) != 0 && history.records()[i].is_complete() {
                complete_left = true;
                break;
            }
        }
        if !complete_left {
            return true;
        }
        if !visited.insert((remaining, state.clone())) {
            return false;
        }
        for i in 0..history.len() {
            if remaining & (1 << i) == 0 {
                continue;
            }
            let cand = OpId::from_index(i);
            // Minimality: no other remaining op completed before cand's
            // invocation.
            let minimal = (0..history.len()).all(|j| {
                j == i || remaining & (1 << j) == 0 || !history.precedes(OpId::from_index(j), cand)
            });
            if !minimal {
                continue;
            }
            let rec = &history.records()[i];
            let (next_state, resp) = spec.apply(state, &rec.op);
            let resp_ok = match &rec.resp {
                Some(observed) => observed == &resp,
                None => true, // pending: any response is acceptable
            };
            if !resp_ok {
                continue;
            }
            witness.push(cand);
            if dfs(
                spec,
                history,
                remaining & !(1 << i),
                &next_state,
                visited,
                witness,
            ) {
                return true;
            }
            witness.pop();
        }
        false
    }

    if dfs(
        spec,
        history,
        full,
        &spec.initial(),
        &mut visited,
        &mut witness,
    ) {
        LinCheck::Linearizable { witness }
    } else {
        LinCheck::NotLinearizable
    }
}

/// Shorthand for `check_linearizability(..).is_ok()`.
pub fn is_linearizable(spec: &dyn ObjectSpec, history: &History) -> bool {
    check_linearizability(spec, history).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cas::TAG_CAS;
    use crate::register_obj::TAG_WRITE;
    use crate::seqspec::encode_op;
    use crate::{CasRegister, Counter, FetchIncrement, Queue, RwRegister, Stack};
    use llsc_shmem::ProcessId;

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn empty_history_is_linearizable() {
        let q = Queue::new();
        assert!(is_linearizable(&q, &History::new()));
    }

    #[test]
    fn sequential_correct_history_passes() {
        let c = FetchIncrement::new(8);
        let h = History::sequential([
            (p(0), FetchIncrement::op(), Value::from(0i64)),
            (p(1), FetchIncrement::op(), Value::from(1i64)),
            (p(2), FetchIncrement::op(), Value::from(2i64)),
        ]);
        assert!(is_linearizable(&c, &h));
    }

    #[test]
    fn sequential_wrong_response_fails() {
        let c = FetchIncrement::new(8);
        let h = History::sequential([
            (p(0), FetchIncrement::op(), Value::from(0i64)),
            (p(1), FetchIncrement::op(), Value::from(0i64)), // duplicate 0!
        ]);
        assert_eq!(check_linearizability(&c, &h), LinCheck::NotLinearizable);
    }

    #[test]
    fn concurrent_ops_may_reorder() {
        // Two concurrent fetch&increments observing 1 and 0 respectively:
        // linearizable by ordering the second first.
        let c = FetchIncrement::new(8);
        let mut h = History::new();
        let a = h.invoke(p(0), FetchIncrement::op());
        let b = h.invoke(p(1), FetchIncrement::op());
        h.respond(a, Value::from(1i64));
        h.respond(b, Value::from(0i64));
        let check = check_linearizability(&c, &h);
        match check {
            LinCheck::Linearizable { witness } => assert_eq!(witness, vec![b, a]),
            other => panic!("expected linearizable, got {other:?}"),
        }
    }

    #[test]
    fn real_time_order_must_be_respected() {
        // a completes before b starts, but a saw 1 and b saw 0: the only
        // spec-consistent order (b, a) violates real time — not
        // linearizable.
        let c = FetchIncrement::new(8);
        let mut h = History::new();
        let a = h.invoke(p(0), FetchIncrement::op());
        h.respond(a, Value::from(1i64));
        let b = h.invoke(p(1), FetchIncrement::op());
        h.respond(b, Value::from(0i64));
        assert!(!is_linearizable(&c, &h));
    }

    #[test]
    fn queue_new_item_cannot_jump_the_line() {
        let q = Queue::with_numbered_items(2);
        // Dequeues must see 1 then 2; seeing 2 first is not linearizable.
        let h = History::sequential([
            (p(0), Queue::dequeue_op(), Value::from(2i64)),
            (p(1), Queue::dequeue_op(), Value::from(1i64)),
        ]);
        assert!(!is_linearizable(&q, &h));
        let ok = History::sequential([
            (p(0), Queue::dequeue_op(), Value::from(1i64)),
            (p(1), Queue::dequeue_op(), Value::from(2i64)),
        ]);
        assert!(is_linearizable(&q, &ok));
    }

    #[test]
    fn stack_concurrent_pushes_both_pop_orders_ok() {
        let st = Stack::new();
        let mut h = History::new();
        let a = h.invoke(p(0), Stack::push_op(Value::from(1i64)));
        let b = h.invoke(p(1), Stack::push_op(Value::from(2i64)));
        h.respond(a, Value::Unit);
        h.respond(b, Value::Unit);
        let c = h.invoke(p(0), Stack::pop_op());
        h.respond(c, Value::from(1i64)); // 1 on top ⇒ pushes ordered 2 then 1
        assert!(is_linearizable(&st, &h));
    }

    #[test]
    fn register_stale_read_fails() {
        let r = RwRegister::with_initial(Value::from(0i64));
        // write(1) completes, then a read returns 0: stale.
        let h = History::sequential([
            (p(0), encode_op(TAG_WRITE, [Value::from(1i64)]), Value::Unit),
            (p(1), RwRegister::read_op(), Value::from(0i64)),
        ]);
        assert!(!is_linearizable(&r, &h));
    }

    #[test]
    fn register_concurrent_read_may_see_either() {
        let r = RwRegister::with_initial(Value::from(0i64));
        for seen in [0i64, 1i64] {
            let mut h = History::new();
            let w = h.invoke(p(0), encode_op(TAG_WRITE, [Value::from(1i64)]));
            let rd = h.invoke(p(1), RwRegister::read_op());
            h.respond(w, Value::Unit);
            h.respond(rd, Value::from(seen));
            assert!(is_linearizable(&r, &h), "seen={seen}");
        }
    }

    #[test]
    fn pending_op_may_take_effect_or_not() {
        let c = Counter::new(8);
        // p0's increment never responds; p1 reads 1 — linearizable if the
        // pending increment took effect.
        let mut h = History::new();
        let _inc = h.invoke(p(0), Counter::increment_op());
        let rd = h.invoke(p(1), Counter::read_op());
        h.respond(rd, Value::from(1i64));
        assert!(is_linearizable(&c, &h));
        // ...and a read of 0 is also linearizable (it never took effect).
        let mut h2 = History::new();
        let _inc = h2.invoke(p(0), Counter::increment_op());
        let rd2 = h2.invoke(p(1), Counter::read_op());
        h2.respond(rd2, Value::from(0i64));
        assert!(is_linearizable(&c, &h2));
        // But a read of 2 is not.
        let mut h3 = History::new();
        let _inc = h3.invoke(p(0), Counter::increment_op());
        let rd3 = h3.invoke(p(1), Counter::read_op());
        h3.respond(rd3, Value::from(2i64));
        assert!(!is_linearizable(&c, &h3));
    }

    #[test]
    fn cas_history_with_two_winners_fails() {
        let c = CasRegister::with_initial(Value::from(0i64));
        // Both CASes from 0 claim to have seen 0: impossible.
        let mut h = History::new();
        let a = h.invoke(
            p(0),
            encode_op(TAG_CAS, [Value::from(0i64), Value::from(1i64)]),
        );
        let b = h.invoke(
            p(1),
            encode_op(TAG_CAS, [Value::from(0i64), Value::from(2i64)]),
        );
        h.respond(a, Value::from(0i64));
        h.respond(b, Value::from(0i64));
        // Wait: a CAS response is the previous value; if a ran first, b
        // would see 1, not 0. Hence not linearizable... unless b ran first
        // and a saw 2. Both saw 0 ⇒ contradiction.
        assert!(!is_linearizable(&c, &h));
    }

    #[test]
    fn larger_contended_history_is_checked_quickly() {
        // 12 concurrent fetch&increments with responses forming a valid
        // permutation — exercises memoisation.
        let c = FetchIncrement::new(16);
        let mut h = History::new();
        let ids: Vec<OpId> = (0..12)
            .map(|i| h.invoke(p(i), FetchIncrement::op()))
            .collect();
        // Respond in reverse invocation order with values 0..12 assigned to
        // the responder order.
        for (v, id) in ids.iter().rev().enumerate() {
            h.respond(*id, Value::from(v as i64));
        }
        assert!(is_linearizable(&c, &h));
    }

    #[test]
    #[should_panic(expected = "history too large")]
    fn oversized_history_panics() {
        let c = Counter::new(8);
        let mut h = History::new();
        for _ in 0..129 {
            h.invoke(p(0), Counter::increment_op());
        }
        check_linearizability(&c, &h);
    }
}
