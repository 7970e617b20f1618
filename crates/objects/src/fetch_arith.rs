//! Arithmetic fetch-objects: `fetch&increment` and `fetch&multiply`.
//!
//! Theorem 6.2 proves the Ω(log n) bound for a `k`-bit fetch&increment
//! object for any `k ≥ log n`, and for a `k`-bit fetch&multiply object for
//! any `k ≥ n`. Both are *closed* objects in the sense of Chandra–Jayanti–
//! Tan (their operations commute or overwrite), which is why the paper's
//! related-work section can point at an `O(log² n)` upper bound for them.

use crate::bits;
use crate::seqspec::{encode_op, op_arg, op_tag, ObjectSpec};
use llsc_shmem::Value;

const TAG_FETCH_INCREMENT: i64 = 1;
const TAG_FETCH_MULTIPLY: i64 = 2;

/// A `k`-bit fetch&increment object: `fetch&increment()` adds one to the
/// state modulo `2^k` and returns the previous state.
///
/// State and responses are `Value::Int` (the paper only needs
/// `k ≥ log n`, so 126 bits is ample).
///
/// # Examples
///
/// ```
/// use llsc_objects::{FetchIncrement, ObjectSpec};
/// use llsc_shmem::Value;
///
/// let obj = FetchIncrement::new(8);
/// let (s1, r1) = obj.apply(&obj.initial(), &FetchIncrement::op());
/// assert_eq!(r1, Value::from(0i64));
/// assert_eq!(s1, Value::from(1i64));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchIncrement {
    k: u32,
}

impl FetchIncrement {
    /// Creates a `k`-bit fetch&increment object.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 126` (the state is stored in an `i128`;
    /// the paper's instantiation only needs `k ≥ log n`).
    pub fn new(k: u32) -> Self {
        assert!(k > 0 && k <= 126, "k = {k} out of supported range 1..=126");
        FetchIncrement { k }
    }

    /// The object's width in bits.
    pub fn width(&self) -> u32 {
        self.k
    }

    /// The (only) operation: `fetch&increment()`.
    pub fn op() -> Value {
        encode_op(TAG_FETCH_INCREMENT, [])
    }
}

impl ObjectSpec for FetchIncrement {
    fn name(&self) -> String {
        format!("fetch&increment(k={})", self.k)
    }

    fn initial(&self) -> Value {
        Value::from(0i64)
    }

    fn apply(&self, state: &Value, op: &Value) -> (Value, Value) {
        assert_eq!(
            op_tag(op),
            Some(i128::from(TAG_FETCH_INCREMENT)),
            "bad op {op}"
        );
        let s = state.as_int().expect("fetch&increment state is an int");
        let modulus = 1i128 << self.k;
        (Value::Int((s + 1) % modulus), Value::Int(s))
    }
}

/// A `k`-bit fetch&multiply object: `fetch&multiply(v)` changes the state
/// to `(s · v) mod 2^k` and returns `s`.
///
/// State and responses are `Value::Bits` of width `k` (Theorem 6.2 needs
/// `k ≥ n`, far beyond machine words).
///
/// # Examples
///
/// ```
/// use llsc_objects::{FetchMultiply, ObjectSpec};
/// use llsc_shmem::Value;
///
/// let obj = FetchMultiply::new(256);
/// // The Theorem 6.2 wakeup use: initialise to 1, everyone multiplies by 2;
/// // after n = 256 doublings the state is 0.
/// let mut s = obj.initial();
/// for _ in 0..256 {
///     let (next, _prev) = obj.apply(&s, &FetchMultiply::op(2));
///     s = next;
/// }
/// assert_eq!(s, Value::zero_bits(4));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchMultiply {
    k: usize,
}

impl FetchMultiply {
    /// Creates a `k`-bit fetch&multiply object with initial state 1.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        FetchMultiply { k }
    }

    /// The object's width in bits.
    pub fn width(&self) -> usize {
        self.k
    }

    /// The operation `fetch&multiply(v)` for a small multiplier.
    pub fn op(v: u64) -> Value {
        encode_op(TAG_FETCH_MULTIPLY, [Value::bits(vec![v])])
    }
}

impl ObjectSpec for FetchMultiply {
    fn name(&self) -> String {
        format!("fetch&multiply(k={})", self.k)
    }

    fn initial(&self) -> Value {
        Value::bits(bits::from_u64(1, self.k))
    }

    fn apply(&self, state: &Value, op: &Value) -> (Value, Value) {
        assert_eq!(
            op_tag(op),
            Some(i128::from(TAG_FETCH_MULTIPLY)),
            "bad op {op}"
        );
        let s = state.as_bits().expect("fetch&multiply state is bits");
        let v = op_arg(op, 0)
            .and_then(Value::as_bits)
            .expect("fetch&multiply argument is bits");
        let next = bits::mul(s, v, self.k);
        (
            Value::bits(next),
            Value::bits(bits::normalize(s.to_vec(), self.k)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqspec::apply_all;

    #[test]
    fn fetch_increment_counts_and_returns_previous() {
        let obj = FetchIncrement::new(10);
        let ops: Vec<Value> = (0..5).map(|_| FetchIncrement::op()).collect();
        let (state, resps) = apply_all(&obj, &ops);
        assert_eq!(state, Value::from(5i64));
        let got: Vec<i128> = resps.iter().map(|r| r.as_int().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn fetch_increment_wraps_at_width() {
        let obj = FetchIncrement::new(2);
        let ops: Vec<Value> = (0..4).map(|_| FetchIncrement::op()).collect();
        let (state, _) = apply_all(&obj, &ops);
        assert_eq!(state, Value::from(0i64), "2-bit counter wraps at 4");
    }

    #[test]
    #[should_panic(expected = "out of supported range")]
    fn zero_width_increment_rejected() {
        FetchIncrement::new(0);
    }

    #[test]
    #[should_panic(expected = "bad op")]
    fn fetch_increment_rejects_foreign_ops() {
        let obj = FetchIncrement::new(4);
        obj.apply(&obj.initial(), &FetchMultiply::op(2));
    }

    #[test]
    fn fetch_multiply_theorem_6_2_wakeup_shape() {
        // k = n: after exactly n multiplications by 2, and not before, the
        // response is 0 for nobody and the *last* multiplier sees 2^(n-1).
        let n = 100;
        let obj = FetchMultiply::new(n);
        let mut s = obj.initial();
        let mut last_resp = Value::Unit;
        for _ in 0..n {
            let (next, resp) = obj.apply(&s, &FetchMultiply::op(2));
            s = next;
            last_resp = resp;
        }
        // The n-th multiplier saw 2^(n-1) ≠ 0; everyone before saw smaller
        // nonzero powers; the state is now 0.
        assert_eq!(s, Value::bits(bits::from_u64(0, n)));
        let resp_bits = last_resp.as_bits().unwrap();
        assert!(bits::bit(resp_bits, n - 1));
        assert!(!resp_bits.iter().all(|&w| w == 0));
    }

    #[test]
    fn fetch_multiply_returns_previous_state() {
        let obj = FetchMultiply::new(64);
        let (s1, r1) = obj.apply(&obj.initial(), &FetchMultiply::op(3));
        assert_eq!(r1, Value::bits(vec![1]));
        let (_, r2) = obj.apply(&s1, &FetchMultiply::op(5));
        assert_eq!(r2, Value::bits(vec![3]));
    }

    #[test]
    fn fetch_multiply_wide_arguments() {
        let obj = FetchMultiply::new(128);
        let big = encode_op(TAG_FETCH_MULTIPLY, [Value::bits(vec![0, 1])]); // 2^64
        let (s, _) = obj.apply(&obj.initial(), &big);
        assert_eq!(s, Value::bits(vec![0, 1]));
    }

    #[test]
    fn names_include_width() {
        assert_eq!(FetchIncrement::new(8).name(), "fetch&increment(k=8)");
        assert_eq!(FetchMultiply::new(9).name(), "fetch&multiply(k=9)");
        assert_eq!(FetchIncrement::new(8).width(), 8);
        assert_eq!(FetchMultiply::new(9).width(), 9);
    }
}
