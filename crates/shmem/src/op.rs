//! The five shared-memory operations of the paper and their responses.

use crate::{RegisterId, Value};
use std::fmt;

/// A shared-memory operation, as defined in Section 3 of the paper.
///
/// The paper studies exactly five operations. `read` is deliberately absent:
/// as the paper notes, a process can read `R` without perturbing its state by
/// performing `validate(R)` (our [`Operation::Validate`] returns the current
/// value regardless of the validity flag).
///
/// # Examples
///
/// ```
/// use llsc_shmem::{Operation, OpKind, RegisterId, Value};
/// let op = Operation::Sc(RegisterId(4), Value::from(7i64));
/// assert_eq!(op.kind(), OpKind::Sc);
/// assert_eq!(op.target(), RegisterId(4));
/// assert_eq!(op.to_string(), "SC(R4, 7)");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operation {
    /// `LL(R)`: returns `value(R)` and adds the caller to `Pset(R)`.
    Ll(RegisterId),
    /// `validate(R)`: returns `(caller ∈ Pset(R), value(R))`. Leaves the
    /// register unchanged; doubles as a read.
    Validate(RegisterId),
    /// `SC(R, v)`: if the caller is in `Pset(R)`, writes `v`, empties
    /// `Pset(R)`, and returns `(true, previous value)`; otherwise leaves the
    /// register unchanged and returns `(false, value(R))`. This is the
    /// paper's *strong* SC, which reports the previous/current value in
    /// addition to the success flag.
    Sc(RegisterId, Value),
    /// `swap(R, v)`: writes `v`, empties `Pset(R)`, and returns the previous
    /// value. Strictly stronger than a plain write.
    Swap(RegisterId, Value),
    /// `move(R_src, R_dst)`: copies `value(R_src)` into `R_dst`, empties
    /// `Pset(R_dst)`, leaves `R_src` unchanged, and returns only `ack`.
    Move {
        /// The register whose value is copied (left unchanged).
        src: RegisterId,
        /// The register receiving the copy (its `Pset` is emptied).
        dst: RegisterId,
    },
}

impl Operation {
    /// The operation's kind, used for the adversary's group partition.
    pub fn kind(&self) -> OpKind {
        match self {
            Operation::Ll(_) => OpKind::Ll,
            Operation::Validate(_) => OpKind::Validate,
            Operation::Sc(..) => OpKind::Sc,
            Operation::Swap(..) => OpKind::Swap,
            Operation::Move { .. } => OpKind::Move,
        }
    }

    /// The register whose *state can change*: the operated-on register, or
    /// the destination for a move.
    pub fn target(&self) -> RegisterId {
        match self {
            Operation::Ll(r)
            | Operation::Validate(r)
            | Operation::Sc(r, _)
            | Operation::Swap(r, _) => *r,
            Operation::Move { dst, .. } => *dst,
        }
    }

    /// The register whose value the caller may learn something about:
    /// the operated-on register, or the source for a move.
    pub fn observed(&self) -> RegisterId {
        match self {
            Operation::Move { src, .. } => *src,
            other => other.target(),
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Ll(r) => write!(f, "LL({r})"),
            Operation::Validate(r) => write!(f, "validate({r})"),
            Operation::Sc(r, v) => write!(f, "SC({r}, {v})"),
            Operation::Swap(r, v) => write!(f, "swap({r}, {v})"),
            Operation::Move { src, dst } => write!(f, "move({src}, {dst})"),
        }
    }
}

/// The kind of a shared-memory operation, i.e. [`Operation`] without its
/// operands.
///
/// The Figure-2 adversary partitions processes by the kind of their next
/// operation: LL/validate together form group `G_1`, moves `G_2`, swaps
/// `G_3`, and SCs `G_4`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// An `LL`.
    Ll,
    /// A `validate`.
    Validate,
    /// An `SC`.
    Sc,
    /// A `swap`.
    Swap,
    /// A `move`.
    Move,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Ll => "LL",
            OpKind::Validate => "validate",
            OpKind::Sc => "SC",
            OpKind::Swap => "swap",
            OpKind::Move => "move",
        };
        f.write_str(s)
    }
}

/// The response a shared-memory operation returns to its caller.
///
/// # Examples
///
/// ```
/// use llsc_shmem::{Response, Value};
/// let r = Response::Flagged { ok: true, value: Value::from(3i64) };
/// assert_eq!(r.flag(), Some(true));
/// assert_eq!(r.value(), Some(&Value::from(3i64)));
/// assert_eq!(Response::Ack.value(), None);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Response {
    /// The value returned by `LL` or `swap` (the register's previous value).
    Value(Value),
    /// The `(boolean, value)` pair returned by the strong `SC` and
    /// `validate` operations.
    Flagged {
        /// For `SC`: whether the SC succeeded. For `validate`: whether the
        /// caller's link is still valid.
        ok: bool,
        /// The register value observed (previous value for a successful SC;
        /// current value otherwise).
        value: Value,
    },
    /// The bare acknowledgement returned by `move`.
    Ack,
}

impl Response {
    /// The success/validity flag, for flagged responses.
    pub fn flag(&self) -> Option<bool> {
        match self {
            Response::Flagged { ok, .. } => Some(*ok),
            _ => None,
        }
    }

    /// The value carried by the response, if any.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Response::Value(v) | Response::Flagged { value: v, .. } => Some(v),
            Response::Ack => None,
        }
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Value(v) => write!(f, "{v}"),
            Response::Flagged { ok, value } => write!(f, "({ok}, {value})"),
            Response::Ack => write!(f, "ack"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ops() -> Vec<Operation> {
        vec![
            Operation::Ll(RegisterId(1)),
            Operation::Validate(RegisterId(2)),
            Operation::Sc(RegisterId(3), Value::from(1i64)),
            Operation::Swap(RegisterId(4), Value::from(2i64)),
            Operation::Move {
                src: RegisterId(5),
                dst: RegisterId(6),
            },
        ]
    }

    #[test]
    fn kinds_cover_all_variants() {
        let kinds: Vec<_> = all_ops().iter().map(Operation::kind).collect();
        assert_eq!(
            kinds,
            vec![
                OpKind::Ll,
                OpKind::Validate,
                OpKind::Sc,
                OpKind::Swap,
                OpKind::Move
            ]
        );
    }

    #[test]
    fn target_is_mutated_register() {
        let ops = all_ops();
        assert_eq!(ops[0].target(), RegisterId(1));
        assert_eq!(ops[4].target(), RegisterId(6)); // move mutates dst
    }

    #[test]
    fn observed_is_read_register() {
        let ops = all_ops();
        assert_eq!(ops[0].observed(), RegisterId(1));
        assert_eq!(ops[4].observed(), RegisterId(5)); // move reads src
    }

    #[test]
    fn response_accessors() {
        assert_eq!(Response::Ack.flag(), None);
        assert_eq!(Response::Ack.value(), None);
        let v = Response::Value(Value::from(9i64));
        assert_eq!(v.flag(), None);
        assert_eq!(v.value(), Some(&Value::from(9i64)));
        let fl = Response::Flagged {
            ok: false,
            value: Value::Unit,
        };
        assert_eq!(fl.flag(), Some(false));
        assert_eq!(fl.value(), Some(&Value::Unit));
    }

    #[test]
    fn display_forms() {
        assert_eq!(all_ops()[0].to_string(), "LL(R1)");
        assert_eq!(all_ops()[4].to_string(), "move(R5, R6)");
        assert_eq!(OpKind::Validate.to_string(), "validate");
        assert_eq!(Response::Ack.to_string(), "ack");
    }
}
