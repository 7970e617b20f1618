//! Register values of unbounded size.
//!
//! The paper's shared memory consists of registers "each of an unbounded
//! size". [`Value`] models such unbounded words as a small recursive term
//! language: signed integers of arbitrary practical width, booleans, process
//! and register names, and tuples/sequences of values. This is expressive
//! enough to hold anything the paper's constructions store in a register —
//! counters, process sets, announced operations, whole object states, and
//! linked structures encoded by register names.
//!
//! # Representation: inline scalars, shared heavy nodes
//!
//! Small values (`Unit`, `Bool`, `Int`, `Pid`, `Reg`) are stored inline in
//! the enum word. The two unbounded variants — [`Value::Bits`] and
//! [`Value::Tuple`] — store their payload behind an [`Arc`] slab, so a
//! `Value` is a *handle*: cloning one is a reference-count bump, never a
//! deep copy. The simulator clones register contents constantly (into the
//! run's event log and into operation responses), and with handle
//! semantics every one of those clones is O(1) regardless of how wide the
//! register word is. The payloads are immutable once built — an algorithm
//! that sets a bit builds a fresh node with [`Value::bits`] — which is
//! exactly what makes the sharing sound across the sweep worker threads
//! that hold the same `(All, A)`-run.

use crate::{ProcessId, RegisterId};
use std::fmt;
use std::sync::Arc;

/// The contents of a shared register: an unbounded, structured word.
///
/// `Value` is a deep-comparable, hashable term with O(1) clones (see the
/// module docs). Registers initially hold [`Value::Unit`] unless the
/// experiment configures otherwise.
///
/// # Examples
///
/// ```
/// use llsc_shmem::Value;
/// let v = Value::tuple([Value::from(1i64), Value::from(true)]);
/// assert_eq!(v.index(0).and_then(Value::as_int), Some(1));
/// assert_eq!(v.index(1), Some(&Value::from(true)));
/// assert_eq!(v.to_string(), "(1, true)");
/// ```
// The manual `PartialEq` below is structural-equality-consistent with the
// derived `Hash` (its pointer check only short-circuits structurally equal
// slabs), so the derive is sound.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Debug, Default, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// The distinguished initial value of every register ("⊥").
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed integer. 128 bits covers every quantity the paper's
    /// algorithms store numerically; quantities wider than that (such as the
    /// `k`-bit words of fetch&and objects with `k ≥ n`) are stored as
    /// [`Value::Bits`].
    Int(i128),
    /// A process name.
    Pid(ProcessId),
    /// A register name (registers can point at registers, enabling linked
    /// structures and the `move` operation's indirection patterns).
    Reg(RegisterId),
    /// An arbitrary-width bit string, least-significant word first.
    /// Width is `words.len() * 64` bits. The word slab is shared: clones
    /// alias it.
    Bits(Arc<[u64]>),
    /// An ordered sequence of values. The element slab is shared: clones
    /// alias it.
    Tuple(Arc<[Value]>),
}

/// Structural equality with a handle fast path: two clones of the same
/// `Bits`/`Tuple` slab compare equal by pointer without walking the
/// payload. Consistent with the derived `Ord`/`Hash` — the pointer check
/// only short-circuits cases that are structurally equal anyway.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Pid(a), Value::Pid(b)) => a == b,
            (Value::Reg(a), Value::Reg(b)) => a == b,
            (Value::Bits(a), Value::Bits(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::Tuple(a), Value::Tuple(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl Value {
    /// Builds a tuple value from an iterator of elements.
    ///
    /// ```
    /// use llsc_shmem::Value;
    /// let t = Value::tuple([Value::Unit, Value::from(2i64)]);
    /// assert_eq!(t.len(), Some(2));
    /// ```
    pub fn tuple<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Tuple(items.into_iter().collect())
    }

    /// Builds a bit-string value from its little-endian words.
    pub fn bits(words: impl Into<Arc<[u64]>>) -> Value {
        Value::Bits(words.into())
    }

    /// Builds an empty tuple (distinct from [`Value::Unit`]).
    pub fn empty_tuple() -> Value {
        Value::Tuple(Arc::from([]))
    }

    /// Builds a bit string of `words * 64` bits, all zero.
    pub fn zero_bits(words: usize) -> Value {
        Value::bits(vec![0; words])
    }

    /// Builds a bit string of `words * 64` bits, all one.
    pub fn ones_bits(words: usize) -> Value {
        Value::bits(vec![u64::MAX; words])
    }

    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the process name, if this is a [`Value::Pid`].
    pub fn as_pid(&self) -> Option<ProcessId> {
        match self {
            Value::Pid(p) => Some(*p),
            _ => None,
        }
    }

    /// Returns the register name, if this is a [`Value::Reg`].
    pub fn as_reg(&self) -> Option<RegisterId> {
        match self {
            Value::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// Returns the elements, if this is a [`Value::Tuple`].
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(vs) => Some(vs),
            _ => None,
        }
    }

    /// Returns the words of the bit string, if this is a [`Value::Bits`].
    pub fn as_bits(&self) -> Option<&[u64]> {
        match self {
            Value::Bits(ws) => Some(ws),
            _ => None,
        }
    }

    /// Returns element `i` of a tuple, or `None` for non-tuples or
    /// out-of-range indices.
    pub fn index(&self, i: usize) -> Option<&Value> {
        self.as_tuple().and_then(|vs| vs.get(i))
    }

    /// The number of elements of a tuple, or `None` for non-tuples.
    pub fn len(&self) -> Option<usize> {
        self.as_tuple().map(<[Value]>::len)
    }

    /// Whether this is a tuple with no elements. Non-tuples are not "empty".
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }

    /// `true` iff this is [`Value::Unit`].
    pub fn is_unit(&self) -> bool {
        matches!(self, Value::Unit)
    }

    /// Reads bit `i` (0-based, little-endian) of a [`Value::Bits`] string.
    ///
    /// Bits beyond the stored width read as zero; non-bit-strings read as
    /// `None`.
    pub fn bit(&self, i: usize) -> Option<bool> {
        let ws = self.as_bits()?;
        let (word, off) = (i / 64, i % 64);
        Some(ws.get(word).is_some_and(|w| (w >> off) & 1 == 1))
    }

    /// A 64-bit structural checksum of the value term (FNV-1a over a
    /// variant-tagged traversal). Hardened algorithms store a value's
    /// fingerprint next to the value itself so a transiently corrupted
    /// register is *detectable*: any single-field mutation changes the
    /// fingerprint, and forging a matching one would require corrupting
    /// value and checksum consistently.
    ///
    /// ```
    /// use llsc_shmem::Value;
    /// let v = Value::tuple([Value::from(1i64), Value::from(true)]);
    /// assert_eq!(v.fingerprint(), v.clone().fingerprint());
    /// assert_ne!(v.fingerprint(), Value::Unit.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        fn mix(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
        }
        fn go(v: &Value, h: u64) -> u64 {
            match v {
                Value::Unit => mix(h, 1),
                Value::Bool(b) => mix(mix(h, 2), u64::from(*b)),
                Value::Int(i) => mix(mix(mix(h, 3), *i as u64), (*i >> 64) as u64),
                Value::Pid(p) => mix(mix(h, 4), p.0 as u64),
                Value::Reg(r) => mix(mix(h, 5), r.0),
                Value::Bits(ws) => ws
                    .iter()
                    .fold(mix(mix(h, 6), ws.len() as u64), |h, w| mix(h, *w)),
                Value::Tuple(vs) => vs
                    .iter()
                    .fold(mix(mix(h, 7), vs.len() as u64), |h, v| go(v, h)),
            }
        }
        go(self, 0xcbf2_9ce4_8422_2325)
    }

    /// A structural size measure: the number of nodes in the value term.
    /// Useful for asserting that experiments do not accidentally blow up
    /// register contents.
    pub fn size(&self) -> usize {
        match self {
            Value::Tuple(vs) => 1 + vs.iter().map(Value::size).sum::<usize>(),
            Value::Bits(ws) => 1 + ws.len(),
            _ => 1,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i128::from(i))
    }
}

impl From<i128> for Value {
    fn from(i: i128) -> Self {
        Value::Int(i)
    }
}

impl From<u64> for Value {
    fn from(i: u64) -> Self {
        Value::Int(i128::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i128)
    }
}

impl From<ProcessId> for Value {
    fn from(p: ProcessId) -> Self {
        Value::Pid(p)
    }
}

impl From<RegisterId> for Value {
    fn from(r: RegisterId) -> Self {
        Value::Reg(r)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Value::tuple(iter)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "⊥"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Pid(p) => write!(f, "{p}"),
            Value::Reg(r) => write!(f, "{r}"),
            Value::Bits(ws) => {
                write!(f, "0x")?;
                for w in ws.iter().rev() {
                    write!(f, "{w:016x}")?;
                }
                Ok(())
            }
            Value::Tuple(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unit() {
        assert_eq!(Value::default(), Value::Unit);
        assert!(Value::default().is_unit());
    }

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::from(5i64).as_int(), Some(5));
        assert_eq!(Value::from(ProcessId(2)).as_pid(), Some(ProcessId(2)));
        assert_eq!(Value::from(RegisterId(9)).as_reg(), Some(RegisterId(9)));
        assert_eq!(Value::Unit.as_int(), None);
    }

    #[test]
    fn tuple_indexing() {
        let t = Value::tuple([Value::from(1i64), Value::from(2i64)]);
        assert_eq!(t.index(0), Some(&Value::from(1i64)));
        assert_eq!(t.index(2), None);
        assert_eq!(t.len(), Some(2));
        assert!(!t.is_empty());
        assert!(Value::empty_tuple().is_empty());
        assert_eq!(Value::Unit.index(0), None);
    }

    #[test]
    fn bit_access_round_trips() {
        let z = Value::zero_bits(2);
        assert_eq!(z.bit(0), Some(false));
        assert_eq!(z.bit(127), Some(false));
        // Out-of-width bits read as zero.
        assert_eq!(z.bit(500), Some(false));
        let v = Value::bits(vec![0, 1 << 6]);
        assert_eq!(v.bit(70), Some(true));
        assert_eq!(v.bit(69), Some(false));
    }

    #[test]
    fn ones_bits_has_all_bits_set() {
        let v = Value::ones_bits(1);
        for i in 0..64 {
            assert_eq!(v.bit(i), Some(true));
        }
    }

    #[test]
    fn bit_on_non_bits_is_none() {
        assert_eq!(Value::from(3i64).bit(0), None);
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Value::Unit.size(), 1);
        let t = Value::tuple([Value::Unit, Value::tuple([Value::from(1i64)])]);
        assert_eq!(t.size(), 4);
        assert_eq!(Value::zero_bits(3).size(), 4);
    }

    #[test]
    fn clones_share_their_slab() {
        let t = Value::tuple([Value::from(1i64), Value::zero_bits(4)]);
        let u = t.clone();
        match (&t, &u) {
            (Value::Tuple(a), Value::Tuple(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
        // Sharing is invisible to structural operations.
        assert_eq!(t, u);
        assert_eq!(t.fingerprint(), u.fingerprint());
        // Equality also holds for structurally equal, separately built terms.
        let rebuilt = Value::tuple([Value::from(1i64), Value::zero_bits(4)]);
        assert_eq!(t, rebuilt);
    }

    #[test]
    fn display_is_nonempty_and_structured() {
        assert_eq!(Value::Unit.to_string(), "⊥");
        assert_eq!(
            Value::tuple([Value::from(1i64), Value::Bool(false)]).to_string(),
            "(1, false)"
        );
        assert_eq!(Value::bits(vec![0xff]).to_string(), "0x00000000000000ff");
    }

    #[test]
    fn fingerprint_separates_structure() {
        // Distinct values that a naive (untagged, unlengthed) hash would
        // conflate must fingerprint differently.
        let distinct = [
            Value::Unit,
            Value::Bool(false),
            Value::from(0i64),
            Value::from(1i64),
            Value::Pid(ProcessId(0)),
            Value::Reg(RegisterId(0)),
            Value::zero_bits(1),
            Value::zero_bits(2),
            Value::empty_tuple(),
            Value::tuple([Value::Unit]),
            Value::tuple([Value::Unit, Value::Unit]),
            Value::tuple([Value::from(1i64), Value::from(2i64)]),
            Value::tuple([Value::from(2i64), Value::from(1i64)]),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for v in &distinct {
            assert!(seen.insert(v.fingerprint()), "collision at {v}");
            assert_eq!(v.fingerprint(), v.fingerprint(), "stable for {v}");
        }
    }

    #[test]
    fn from_iterator_builds_tuple() {
        let t: Value = (0..3).map(|i| Value::from(i as i64)).collect();
        assert_eq!(t.len(), Some(3));
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut vs = [
            Value::tuple([Value::from(1i64)]),
            Value::Unit,
            Value::from(false),
            Value::from(-3i64),
        ];
        vs.sort();
        // Unit sorts first per variant order.
        assert_eq!(vs[0], Value::Unit);
    }
}
