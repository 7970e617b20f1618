//! A (single-shot) consensus object.
//!
//! Consensus underpins the related-work bounds the paper cites (Fich–
//! Herlihy–Shavit's Ω(√n) space bound, Aspnes's time bound, and the
//! Jayanti–Tan–Toueg Ω(n) bound for consensus-based oblivious universal
//! constructions). `propose(v)` decides the first proposed value and
//! returns the decision.

use crate::seqspec::{op_arg, op_tag, ObjectSpec};
use llsc_shmem::Value;

const TAG_PROPOSE: i64 = 50;

/// A consensus object: the first `propose(v)` fixes the decision to `v`;
/// every `propose` returns the decided value.
///
/// State: [`Value::Unit`] while undecided, then `(decided,)`. The one
/// operation, `propose(v)`, is the tuple `(50, v)`.
///
/// # Examples
///
/// ```
/// use llsc_objects::{Consensus, ObjectSpec};
/// use llsc_shmem::Value;
///
/// let c = Consensus::new();
/// let propose = |v: i64| Value::tuple([50, v].map(Value::from));
/// let (s, d1) = c.apply(&c.initial(), &propose(4));
/// let (_, d2) = c.apply(&s, &propose(9));
/// assert_eq!(d1, Value::from(4i64));
/// assert_eq!(d2, Value::from(4i64), "agreement");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Consensus;

impl Consensus {
    /// Creates an undecided consensus object.
    pub fn new() -> Self {
        Consensus
    }
}

impl ObjectSpec for Consensus {
    fn name(&self) -> String {
        "consensus".into()
    }

    fn initial(&self) -> Value {
        Value::Unit
    }

    fn apply(&self, state: &Value, op: &Value) -> (Value, Value) {
        assert_eq!(op_tag(op), Some(i128::from(TAG_PROPOSE)), "bad op {op}");
        let v = op_arg(op, 0).expect("propose argument");
        match state {
            Value::Unit => {
                let decided = Value::tuple([v.clone()]);
                (decided, v.clone())
            }
            decided => {
                let d = decided.index(0).expect("decided state").clone();
                (decided.clone(), d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqspec::encode_op;

    #[test]
    fn first_proposal_wins_validity_and_agreement() {
        let c = Consensus::new();
        let mut s = c.initial();
        let mut decisions = Vec::new();
        for i in [5i64, 3, 8] {
            let (next, d) = c.apply(&s, &encode_op(TAG_PROPOSE, [Value::from(i)]));
            s = next;
            decisions.push(d);
        }
        // Agreement: all equal. Validity: the decision was proposed first.
        assert!(decisions.iter().all(|d| d == &Value::from(5i64)));
    }

    #[test]
    fn unit_can_not_be_confused_with_decided_unit() {
        // Deciding on a tuple value still works because the decided state
        // wraps the value.
        let c = Consensus::new();
        let v = Value::empty_tuple();
        let (s, d) = c.apply(&c.initial(), &encode_op(TAG_PROPOSE, [v.clone()]));
        assert_eq!(d, v);
        let (_, d2) = c.apply(&s, &encode_op(TAG_PROPOSE, [Value::from(1i64)]));
        assert_eq!(d2, v);
    }

    #[test]
    #[should_panic(expected = "bad op")]
    fn rejects_foreign_op() {
        Consensus::new().apply(&Value::Unit, &Value::Unit);
    }
}
