//! A compare&swap register object.
//!
//! Mentioned throughout the paper's introduction and open problems:
//! compare&swap has a *constant-time* implementation from LL/SC — but only
//! by exploiting its semantics; no oblivious universal construction can
//! produce one (that is the point of the lower bound). The direct
//! implementation lives in `llsc-universal`; this module is its sequential
//! specification.

use crate::seqspec::{encode_op, op_arg, op_tag, ObjectSpec};
use llsc_shmem::Value;

pub(crate) const TAG_CAS: i64 = 40;
const TAG_READ: i64 = 41;

/// A compare&swap register: `cas(expected, new)` installs `new` iff the
/// state equals `expected`, returning the previous state either way;
/// `read()` returns the state. Operations are `(tag, args…)` tuples:
/// `cas(expected, new)` is `(40, expected, new)`.
///
/// # Examples
///
/// ```
/// use llsc_objects::{CasRegister, ObjectSpec};
/// use llsc_shmem::Value;
///
/// let c = CasRegister::with_initial(Value::from(0i64));
/// let op = Value::tuple([40i64, 0, 1].map(Value::from));
/// let (s, prev) = c.apply(&c.initial(), &op);
/// assert_eq!(prev, Value::from(0i64));
/// assert_eq!(s, Value::from(1i64));
/// // A stale CAS fails but still reports the current value.
/// let (s2, prev2) = c.apply(&s, &op);
/// assert_eq!(prev2, Value::from(1i64));
/// assert_eq!(s2, s);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CasRegister {
    initial: Value,
}

impl CasRegister {
    /// A CAS register initially holding [`Value::Unit`].
    pub fn new() -> Self {
        CasRegister::default()
    }

    /// A CAS register initially holding `v`.
    pub fn with_initial(v: Value) -> Self {
        CasRegister { initial: v }
    }

    /// `read()`.
    pub fn read_op() -> Value {
        encode_op(TAG_READ, [])
    }
}

impl ObjectSpec for CasRegister {
    fn name(&self) -> String {
        "cas-register".into()
    }

    fn initial(&self) -> Value {
        self.initial.clone()
    }

    fn apply(&self, state: &Value, op: &Value) -> (Value, Value) {
        match op_tag(op) {
            Some(t) if t == i128::from(TAG_CAS) => {
                let expected = op_arg(op, 0).expect("cas expected");
                let new = op_arg(op, 1).expect("cas new");
                if state == expected {
                    (new.clone(), state.clone())
                } else {
                    (state.clone(), state.clone())
                }
            }
            Some(t) if t == i128::from(TAG_READ) => (state.clone(), state.clone()),
            _ => panic!("bad cas op {op}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successful_cas_installs() {
        let c = CasRegister::with_initial(Value::from(0i64));
        let (s, prev) = c.apply(
            &c.initial(),
            &encode_op(TAG_CAS, [Value::from(0i64), Value::from(7i64)]),
        );
        assert_eq!(prev, Value::from(0i64));
        assert_eq!(s, Value::from(7i64));
    }

    #[test]
    fn failed_cas_leaves_state() {
        let c = CasRegister::with_initial(Value::from(0i64));
        let (s, prev) = c.apply(
            &c.initial(),
            &encode_op(TAG_CAS, [Value::from(9i64), Value::from(7i64)]),
        );
        assert_eq!(prev, Value::from(0i64));
        assert_eq!(s, Value::from(0i64));
    }

    #[test]
    fn only_one_of_n_contending_cas_succeeds() {
        // The classic consensus-like usage: everyone CASes from Unit to
        // their own id; exactly the first succeeds.
        let c = CasRegister::new();
        let mut s = c.initial();
        let mut winners = 0;
        for i in 0..5 {
            let before = s.clone();
            let (next, _) = c.apply(
                &s,
                &encode_op(TAG_CAS, [Value::Unit, Value::from(i as i64)]),
            );
            if next != before {
                winners += 1;
            }
            s = next;
        }
        assert_eq!(winners, 1);
        assert_eq!(s, Value::from(0i64));
    }

    #[test]
    fn read_is_pure() {
        let c = CasRegister::with_initial(Value::from(3i64));
        let (s, v) = c.apply(&c.initial(), &CasRegister::read_op());
        assert_eq!(s, Value::from(3i64));
        assert_eq!(v, Value::from(3i64));
    }

    #[test]
    #[should_panic(expected = "bad cas op")]
    fn rejects_foreign_op() {
        CasRegister::new().apply(&Value::Unit, &Value::Unit);
    }
}
