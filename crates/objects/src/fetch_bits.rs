//! Bitwise fetch-objects: `fetch&and`, `fetch&or`, and
//! `fetch&complement`.
//!
//! Theorem 6.2 proves the Ω(log n) bound for `k`-bit objects supporting any
//! one of these operations with `k ≥ n`: each process owns one bit, so a
//! single returned word reveals exactly which processes have already
//! operated — the wakeup reduction in `llsc-wakeup` exploits precisely
//! that.

use crate::bits;
use crate::seqspec::{encode_op, op_arg, op_tag, ObjectSpec};
use llsc_shmem::Value;

const TAG_FETCH_AND: i64 = 3;
const TAG_FETCH_OR: i64 = 4;
const TAG_FETCH_COMPLEMENT: i64 = 5;

/// A `k`-bit fetch&and object: `fetch&and(v)` replaces the state `s` by
/// `s & v` and returns `s`. Initial state: all ones (the Theorem 6.2
/// initialisation).
///
/// # Examples
///
/// ```
/// use llsc_objects::{FetchAnd, ObjectSpec};
/// use llsc_shmem::Value;
///
/// let obj = FetchAnd::new(128);
/// // Process i clears its own bit:
/// let (s, prev) = obj.apply(&obj.initial(), &FetchAnd::op_clear_bit(5, 128));
/// assert_eq!(prev, Value::ones_bits(2));
/// assert_eq!(s.bit(5), Some(false));
/// assert_eq!(s.bit(6), Some(true));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchAnd {
    k: usize,
}

impl FetchAnd {
    /// Creates a `k`-bit fetch&and object, initially all ones.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        FetchAnd { k }
    }

    /// The object's width in bits.
    pub fn width(&self) -> usize {
        self.k
    }

    /// `fetch&and(v)` with an explicit mask.
    pub fn op(v: Vec<u64>) -> Value {
        encode_op(TAG_FETCH_AND, [Value::bits(v)])
    }

    /// The Theorem 6.2 per-process mask: all ones except bit `i`.
    pub fn op_clear_bit(i: usize, k: usize) -> Value {
        assert!(i < k, "bit {i} out of width {k}");
        let mut mask = bits::normalize(vec![u64::MAX; bits::limbs_for(k)], k);
        mask[i / 64] &= !(1u64 << (i % 64));
        Self::op(mask)
    }
}

impl ObjectSpec for FetchAnd {
    fn name(&self) -> String {
        format!("fetch&and(k={})", self.k)
    }

    fn initial(&self) -> Value {
        Value::bits(bits::normalize(
            vec![u64::MAX; bits::limbs_for(self.k)],
            self.k,
        ))
    }

    fn apply(&self, state: &Value, op: &Value) -> (Value, Value) {
        assert_eq!(op_tag(op), Some(i128::from(TAG_FETCH_AND)), "bad op {op}");
        let s = state
            .as_bits()
            .expect("fetch&and state register must hold a Bits value (set by initial())");
        let v = op_arg(op, 0)
            .and_then(Value::as_bits)
            .expect("fetch&and/fetch&or operations carry exactly one Bits argument");
        (
            Value::bits(bits::and(s, v, self.k)),
            Value::bits(bits::normalize(s.to_vec(), self.k)),
        )
    }
}

/// A `k`-bit fetch&or object: `fetch&or(v)` replaces `s` by `s | v` and
/// returns `s`. Initial state: all zeros.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchOr {
    k: usize,
}

impl FetchOr {
    /// Creates a `k`-bit fetch&or object, initially all zeros.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        FetchOr { k }
    }

    /// The object's width in bits.
    pub fn width(&self) -> usize {
        self.k
    }

    /// `fetch&or(v)` with an explicit mask.
    pub fn op(v: Vec<u64>) -> Value {
        encode_op(TAG_FETCH_OR, [Value::bits(v)])
    }

    /// The per-process mask: only bit `i` set.
    pub fn op_set_bit(i: usize, k: usize) -> Value {
        assert!(i < k, "bit {i} out of width {k}");
        let mut mask = vec![0u64; bits::limbs_for(k)];
        mask[i / 64] |= 1u64 << (i % 64);
        Self::op(mask)
    }
}

impl ObjectSpec for FetchOr {
    fn name(&self) -> String {
        format!("fetch&or(k={})", self.k)
    }

    fn initial(&self) -> Value {
        Value::bits(vec![0; bits::limbs_for(self.k)])
    }

    fn apply(&self, state: &Value, op: &Value) -> (Value, Value) {
        assert_eq!(op_tag(op), Some(i128::from(TAG_FETCH_OR)), "bad op {op}");
        let s = state
            .as_bits()
            .expect("fetch&or state register must hold a Bits value (set by initial())");
        let v = op_arg(op, 0)
            .and_then(Value::as_bits)
            .expect("fetch&and/fetch&or operations carry exactly one Bits argument");
        (
            Value::bits(bits::or(s, v, self.k)),
            Value::bits(bits::normalize(s.to_vec(), self.k)),
        )
    }
}

/// A `k`-bit fetch&complement object: `fetch&complement(i)` flips bit `i`
/// of the state and returns the previous state. Initial state: all zeros.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchComplement {
    k: usize,
}

impl FetchComplement {
    /// Creates a `k`-bit fetch&complement object, initially all zeros.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        FetchComplement { k }
    }

    /// The object's width in bits.
    pub fn width(&self) -> usize {
        self.k
    }

    /// `fetch&complement(i)`: flip bit `i` (0-based).
    pub fn op(i: usize) -> Value {
        encode_op(TAG_FETCH_COMPLEMENT, [Value::from(i)])
    }
}

impl ObjectSpec for FetchComplement {
    fn name(&self) -> String {
        format!("fetch&complement(k={})", self.k)
    }

    fn initial(&self) -> Value {
        Value::bits(vec![0; bits::limbs_for(self.k)])
    }

    fn apply(&self, state: &Value, op: &Value) -> (Value, Value) {
        assert_eq!(
            op_tag(op),
            Some(i128::from(TAG_FETCH_COMPLEMENT)),
            "bad op {op}"
        );
        let s = state
            .as_bits()
            .expect("fetch&complement state register must hold a Bits value (set by initial())");
        let i = op_arg(op, 0)
            .and_then(Value::as_int)
            .expect("fetch&complement operations carry exactly one integer bit-index argument")
            as usize;
        (
            Value::bits(bits::complement_bit(s, i, self.k)),
            Value::bits(bits::normalize(s.to_vec(), self.k)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqspec::apply_all;

    #[test]
    fn fetch_and_theorem_6_2_shape() {
        // n processes each clear their own bit; the process whose response
        // has zeros in all first-n bits except its own is the last one.
        let n = 70;
        let obj = FetchAnd::new(n);
        let ops: Vec<Value> = (0..n).map(|i| FetchAnd::op_clear_bit(i, n)).collect();
        let (state, resps) = apply_all(&obj, &ops);
        assert!(state.as_bits().unwrap().iter().all(|&w| w == 0));
        // The last response has exactly one bit set (its own).
        let last = resps.last().unwrap().as_bits().unwrap();
        let ones = (0..n).filter(|&i| bits::bit(last, i)).count();
        assert_eq!(ones, 1);
        assert!(bits::bit(last, n - 1));
        // Every earlier response has ≥ 2 bits set.
        for r in &resps[..n - 1] {
            let rb = r.as_bits().unwrap();
            assert!((0..n).filter(|&i| bits::bit(rb, i)).count() >= 2);
        }
    }

    #[test]
    fn fetch_or_accumulates_bits() {
        let n = 67;
        let obj = FetchOr::new(n);
        let ops: Vec<Value> = (0..n).map(|i| FetchOr::op_set_bit(i, n)).collect();
        let (state, resps) = apply_all(&obj, &ops);
        let sb = state.as_bits().unwrap();
        assert!((0..n).all(|i| bits::bit(sb, i)));
        // The last responder sees everyone else's bit.
        let last = resps.last().unwrap().as_bits().unwrap();
        assert_eq!((0..n).filter(|&i| bits::bit(last, i)).count(), n - 1);
    }

    #[test]
    fn fetch_complement_is_an_involution() {
        let obj = FetchComplement::new(80);
        let (s1, r1) = obj.apply(&obj.initial(), &FetchComplement::op(79));
        assert!(r1.as_bits().unwrap().iter().all(|&w| w == 0));
        assert!(s1.bit(79).unwrap());
        let (s2, r2) = obj.apply(&s1, &FetchComplement::op(79));
        assert_eq!(r2, s1);
        assert!(s2.as_bits().unwrap().iter().all(|&w| w == 0));
    }

    #[test]
    fn responses_are_previous_states() {
        let obj = FetchOr::new(64);
        let (s1, r1) = obj.apply(&obj.initial(), &FetchOr::op(vec![0b01]));
        assert_eq!(r1, obj.initial());
        let (_, r2) = obj.apply(&s1, &FetchOr::op(vec![0b10]));
        assert_eq!(r2, s1);
    }

    #[test]
    fn masks_are_width_limited() {
        let obj = FetchOr::new(4);
        let (s, _) = obj.apply(&obj.initial(), &FetchOr::op(vec![u64::MAX]));
        assert_eq!(s, Value::bits(vec![0xf]));
    }

    #[test]
    #[should_panic(expected = "out of width")]
    fn clear_bit_out_of_width_panics() {
        FetchAnd::op_clear_bit(8, 8);
    }

    #[test]
    fn names_include_width() {
        assert_eq!(FetchAnd::new(8).name(), "fetch&and(k=8)");
        assert_eq!(FetchOr::new(8).name(), "fetch&or(k=8)");
        assert_eq!(FetchComplement::new(8).name(), "fetch&complement(k=8)");
    }

    #[test]
    fn cross_object_ops_rejected() {
        let and = FetchAnd::new(8);
        let or_op = FetchOr::op_set_bit(1, 8);
        let result = std::panic::catch_unwind(|| and.apply(&and.initial(), &or_op));
        assert!(result.is_err());
    }
}
