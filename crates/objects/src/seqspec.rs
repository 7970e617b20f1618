//! The sequential-specification trait shared by every object type.
//!
//! A universal construction is *oblivious*: it manipulates the instantiated
//! type only through its sequential specification, never through knowledge
//! of its semantics. [`ObjectSpec`] is exactly that interface — state,
//! operations, and responses are all opaque [`Value`]s, and the only
//! capability is `apply`.

use llsc_shmem::Value;
use std::fmt::Debug;

/// A sequential specification of an object type `T`: a deterministic
/// transition function over [`Value`]-encoded states, operations, and
/// responses.
///
/// Implementations must be pure: `apply` on equal inputs yields equal
/// outputs. This is what lets the linearizability checker explore
/// permutations and lets universal constructions replay operation logs.
pub trait ObjectSpec: Debug + Send + Sync {
    /// A short human-readable type name, e.g. `"fetch&increment(k=8)"`.
    fn name(&self) -> String;

    /// The object's initial state.
    fn initial(&self) -> Value;

    /// Applies one operation: `(state, op) -> (state', response)`.
    ///
    /// # Panics
    ///
    /// Implementations may panic on malformed operations or states; the
    /// shipped harness only feeds operations produced by the same module's
    /// constructors.
    fn apply(&self, state: &Value, op: &Value) -> (Value, Value);
}

/// Encodes an operation as `(tag, args...)`.
///
/// Every object module uses this convention, giving each operation of the
/// type a small integer tag. Constructors in the object modules (e.g.
/// `Queue::enqueue_op`) are preferred over calling this directly.
pub(crate) fn encode_op<I: IntoIterator<Item = Value>>(tag: i64, args: I) -> Value {
    let mut items = vec![Value::from(tag)];
    items.extend(args);
    Value::tuple(items)
}

/// Decodes the tag of an `encode_op`-encoded operation.
pub fn op_tag(op: &Value) -> Option<i128> {
    op.index(0)?.as_int()
}

/// Returns the `i`-th argument (0-based, after the tag) of an encoded
/// operation.
pub fn op_arg(op: &Value, i: usize) -> Option<&Value> {
    op.index(i + 1)
}

/// Applies a whole sequence of operations, returning the final state and
/// every response — the reference execution used by tests, the
/// linearizability checker, and universal-construction replay.
pub fn apply_all<'a, I>(spec: &dyn ObjectSpec, ops: I) -> (Value, Vec<Value>)
where
    I: IntoIterator<Item = &'a Value>,
{
    let mut state = spec.initial();
    let mut resps = Vec::new();
    for op in ops {
        let (next, resp) = spec.apply(&state, op);
        state = next;
        resps.push(resp);
    }
    (state, resps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Adder;

    impl ObjectSpec for Adder {
        fn name(&self) -> String {
            "adder".into()
        }
        fn initial(&self) -> Value {
            Value::from(0i64)
        }
        fn apply(&self, state: &Value, op: &Value) -> (Value, Value) {
            let s = state.as_int().expect("int state");
            let d = op_arg(op, 0).and_then(Value::as_int).expect("int arg");
            (Value::from(s + d), Value::from(s))
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let op = encode_op(3, [Value::from(10i64), Value::Unit]);
        assert_eq!(op_tag(&op), Some(3));
        assert_eq!(op_arg(&op, 0), Some(&Value::from(10i64)));
        assert_eq!(op_arg(&op, 1), Some(&Value::Unit));
        assert_eq!(op_arg(&op, 2), None);
    }

    #[test]
    fn op_tag_of_non_op_is_none() {
        assert_eq!(op_tag(&Value::Unit), None);
        assert_eq!(op_tag(&Value::tuple([Value::Bool(true)])), None);
    }

    #[test]
    fn apply_all_threads_state() {
        let ops: Vec<Value> = (1..=3)
            .map(|i| encode_op(0, [Value::from(i as i64)]))
            .collect();
        let (state, resps) = apply_all(&Adder, &ops);
        assert_eq!(state, Value::from(6i64));
        assert_eq!(
            resps,
            vec![Value::from(0i64), Value::from(1i64), Value::from(3i64)]
        );
    }
}
