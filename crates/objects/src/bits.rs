//! Fixed-width bit-string arithmetic for `k`-bit object states.
//!
//! Theorem 6.2 instantiates objects with `k ≥ n` bits (fetch&and,
//! fetch&or, fetch&complement, fetch&multiply), so `k` routinely exceeds
//! any machine word. This module implements the handful of operations those
//! sequential specifications need over little-endian `u64`-limb vectors:
//! masking to a width, bitwise AND/OR, single-bit complement, addition, and
//! schoolbook multiplication, all modulo `2^k`.

/// The number of 64-bit limbs needed for `k` bits.
pub(crate) fn limbs_for(k: usize) -> usize {
    k.div_ceil(64).max(1)
}

/// Masks `words` in place so only the low `k` bits survive.
pub(crate) fn mask_to_width(words: &mut [u64], k: usize) {
    let full = k / 64;
    for (i, w) in words.iter_mut().enumerate() {
        if i > full || (i == full && k.is_multiple_of(64)) {
            *w = 0;
        } else if i == full {
            *w &= (1u64 << (k % 64)) - 1;
        }
    }
}

/// Returns `words` resized to exactly `limbs_for(k)` limbs and masked to
/// `k` bits.
pub(crate) fn normalize(mut words: Vec<u64>, k: usize) -> Vec<u64> {
    words.resize(limbs_for(k), 0);
    mask_to_width(&mut words, k);
    words
}

/// `(a & b) mod 2^k`, operands normalised to `k` bits.
pub fn and(a: &[u64], b: &[u64], k: usize) -> Vec<u64> {
    let mut out = vec![0u64; limbs_for(k)];
    for (i, o) in out.iter_mut().enumerate() {
        *o = a.get(i).copied().unwrap_or(0) & b.get(i).copied().unwrap_or(0);
    }
    mask_to_width(&mut out, k);
    out
}

/// `(a | b) mod 2^k`.
pub fn or(a: &[u64], b: &[u64], k: usize) -> Vec<u64> {
    let mut out = vec![0u64; limbs_for(k)];
    for (i, o) in out.iter_mut().enumerate() {
        *o = a.get(i).copied().unwrap_or(0) | b.get(i).copied().unwrap_or(0);
    }
    mask_to_width(&mut out, k);
    out
}

/// `a` with bit `i` complemented, `i < k`.
///
/// # Panics
///
/// Panics if `i >= k`.
pub(crate) fn complement_bit(a: &[u64], i: usize, k: usize) -> Vec<u64> {
    assert!(i < k, "bit index {i} out of width {k}");
    let mut out = normalize(a.to_vec(), k);
    out[i / 64] ^= 1u64 << (i % 64);
    out
}

/// `(a + b) mod 2^k`.
pub fn add(a: &[u64], b: &[u64], k: usize) -> Vec<u64> {
    let limbs = limbs_for(k);
    let mut out = vec![0u64; limbs];
    let mut carry = 0u64;
    for (i, o) in out.iter_mut().enumerate() {
        let (s1, c1) = a
            .get(i)
            .copied()
            .unwrap_or(0)
            .overflowing_add(b.get(i).copied().unwrap_or(0));
        let (s2, c2) = s1.overflowing_add(carry);
        *o = s2;
        carry = u64::from(c1) + u64::from(c2);
    }
    mask_to_width(&mut out, k);
    out
}

/// `(a * b) mod 2^k` (schoolbook; `O(limbs²)`).
pub(crate) fn mul(a: &[u64], b: &[u64], k: usize) -> Vec<u64> {
    let limbs = limbs_for(k);
    let mut out = vec![0u64; limbs];
    for i in 0..limbs.min(a.len()) {
        if a[i] == 0 {
            continue;
        }
        let mut carry = 0u128;
        for j in 0..limbs - i {
            let bj = b.get(j).copied().unwrap_or(0);
            let cur = out[i + j] as u128 + (a[i] as u128) * (bj as u128) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
    }
    mask_to_width(&mut out, k);
    out
}

/// A `k`-bit string from a small unsigned value.
pub(crate) fn from_u64(v: u64, k: usize) -> Vec<u64> {
    normalize(vec![v], k)
}

/// Reads bit `i` (zero beyond the stored limbs).
pub fn bit(a: &[u64], i: usize) -> bool {
    a.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limb_counts() {
        assert_eq!(limbs_for(1), 1);
        assert_eq!(limbs_for(64), 1);
        assert_eq!(limbs_for(65), 2);
        assert_eq!(limbs_for(128), 2);
        assert_eq!(limbs_for(0), 1);
    }

    #[test]
    fn mask_clears_high_bits() {
        let mut w = vec![u64::MAX, u64::MAX];
        mask_to_width(&mut w, 70);
        assert_eq!(w, vec![u64::MAX, 0x3f]);
        let mut x = vec![u64::MAX];
        mask_to_width(&mut x, 64);
        assert_eq!(x, vec![u64::MAX]);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = vec![u64::MAX];
        let b = vec![1];
        assert_eq!(add(&a, &b, 128), vec![0, 1]);
        // Modulo 64 bits: wraps to zero.
        assert_eq!(add(&a, &b, 64), vec![0]);
    }

    #[test]
    fn mul_matches_small_cases() {
        assert_eq!(mul(&[7], &[6], 64), vec![42]);
        // (2^64 - 1)^2 mod 2^128 = 2^128 - 2^65 + 1.
        let sq = mul(&[u64::MAX], &[u64::MAX], 128);
        assert_eq!(sq, vec![1, u64::MAX - 1]);
        // Multiplying by 2 shifts.
        let x = vec![1u64 << 63];
        assert_eq!(mul(&x, &[2], 128), vec![0, 1]);
        assert_eq!(mul(&x, &[2], 64), vec![0], "overflow drops mod 2^64");
        // Two-limb operands against u128 arithmetic.
        let (a, b) = (0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128, u128::MAX / 3);
        let limbs = |x: u128| [x as u64, (x >> 64) as u64];
        for k in [65, 100, 128] {
            let mask = u128::MAX >> (128 - k);
            let want = (a & mask).wrapping_mul(b & mask) & mask;
            assert_eq!(mul(&limbs(a), &limbs(b), k), limbs(want), "k={k}");
        }
    }

    #[test]
    fn mul_by_two_repeatedly_reaches_zero_at_width() {
        // This is exactly the fetch&multiply wakeup mechanism: starting
        // from 1, the n-th doubling mod 2^n is 0.
        let k = 130;
        let mut v = from_u64(1, k);
        for _ in 0..k {
            v = mul(&v, &[2], k);
        }
        assert_eq!(v, vec![0; 3]);
    }

    #[test]
    fn and_or_width_masking() {
        let a = vec![0b1100, 0xff];
        let b = vec![0b1010, 0xff];
        assert_eq!(and(&a, &b, 128), vec![0b1000, 0xff]);
        assert_eq!(or(&a, &b, 4), vec![0b1110]);
    }

    #[test]
    fn complement_flips_one_bit() {
        let a = from_u64(0, 70);
        let c = complement_bit(&a, 69, 70);
        assert!(bit(&c, 69));
        assert!(!bit(&c, 68));
        let back = complement_bit(&c, 69, 70);
        assert_eq!(back, vec![0; 2]);
    }

    #[test]
    #[should_panic(expected = "out of width")]
    fn complement_out_of_width_panics() {
        complement_bit(&[0], 64, 64);
    }

    #[test]
    fn normalize_resizes_and_masks() {
        assert_eq!(normalize(vec![u64::MAX], 4), vec![0xf]);
        assert_eq!(normalize(vec![], 65), vec![0, 0]);
        assert_eq!(normalize(vec![1, 2, 3], 64), vec![1]);
    }
}
