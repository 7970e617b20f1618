//! A plain read/write register object.
//!
//! Not one of the Theorem 6.2 types — a read/write register *cannot* solve
//! wakeup in constantly many operations, which is exactly why the paper's
//! reduction technique does not apply to it. It is included as the
//! "weakest" instantiation target for universal constructions and as a
//! baseline for the linearizability tests.

use crate::seqspec::{encode_op, op_arg, op_tag, ObjectSpec};
use llsc_shmem::Value;

const TAG_READ: i64 = 30;
pub(crate) const TAG_WRITE: i64 = 31;

/// An atomic read/write register holding an arbitrary [`Value`].
/// Operations are `(tag, args…)` tuples: `write(v)` is `(31, v)`.
///
/// # Examples
///
/// ```
/// use llsc_objects::{RwRegister, ObjectSpec};
/// use llsc_shmem::Value;
///
/// let r = RwRegister::with_initial(Value::from(1i64));
/// let write = Value::tuple([31i64, 2].map(Value::from));
/// let (s, ack) = r.apply(&r.initial(), &write);
/// assert_eq!(ack, Value::Unit);
/// let (_, v) = r.apply(&s, &RwRegister::read_op());
/// assert_eq!(v, Value::from(2i64));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RwRegister {
    initial: Value,
}

impl RwRegister {
    /// A register initially holding [`Value::Unit`].
    pub fn new() -> Self {
        RwRegister::default()
    }

    /// A register initially holding `v`.
    pub fn with_initial(v: Value) -> Self {
        RwRegister { initial: v }
    }

    /// `read()`: returns the state.
    pub fn read_op() -> Value {
        encode_op(TAG_READ, [])
    }
}

impl ObjectSpec for RwRegister {
    fn name(&self) -> String {
        "rw-register".into()
    }

    fn initial(&self) -> Value {
        self.initial.clone()
    }

    fn apply(&self, state: &Value, op: &Value) -> (Value, Value) {
        match op_tag(op) {
            Some(t) if t == i128::from(TAG_READ) => (state.clone(), state.clone()),
            Some(t) if t == i128::from(TAG_WRITE) => {
                let v = op_arg(op, 0).expect("write argument").clone();
                (v, Value::Unit)
            }
            _ => panic!("bad register op {op}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_see_latest_write() {
        let r = RwRegister::new();
        let (s, _) = r.apply(&r.initial(), &encode_op(TAG_WRITE, [Value::from(5i64)]));
        let (s2, v) = r.apply(&s, &RwRegister::read_op());
        assert_eq!(v, Value::from(5i64));
        assert_eq!(s2, s);
    }

    #[test]
    fn initial_value_is_respected() {
        let r = RwRegister::with_initial(Value::from(9i64));
        let (_, v) = r.apply(&r.initial(), &RwRegister::read_op());
        assert_eq!(v, Value::from(9i64));
    }

    #[test]
    #[should_panic(expected = "bad register op")]
    fn rejects_foreign_op() {
        let r = RwRegister::new();
        r.apply(&r.initial(), &Value::Unit);
    }
}
