//! Deterministic pseudo-random streams for experiments and tests.
//!
//! Everything in this repository is reproducible: toss assignments, move
//! configurations, schedules, and test inputs are all derived from explicit
//! seeds. This module is the single home for the two generators those
//! derivations use:
//!
//! * [`XorShift64`] — the xorshift stream the experiment sweeps have always
//!   used for random move configurations (seeding and shift constants are
//!   stable; regenerated tables stay byte-identical);
//! * [`split_mix`] — a one-shot mixer for deriving independent per-trial
//!   seeds from a `(sweep seed, trial index)` pair, used by the parallel
//!   sweep engine in [`crate::sweep`].

/// A deterministic xorshift-64 stream.
///
/// The seeding (`seed * GOLDEN | 1`) and shift triple (13, 7, 17) are load
/// bearing: experiment tables generated from this stream are committed in
/// `EXPERIMENTS.md` and must not drift.
///
/// # Examples
///
/// ```
/// use llsc_shmem::rng::XorShift64;
/// let mut a = XorShift64::new(7);
/// let mut b = XorShift64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.below(10) < 10);
/// ```
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a stream from a seed (any value, including 0, is fine).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// A value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        self.next_u64() % bound
    }

    /// A `usize` in `0..bound` (panics if `bound` is 0).
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// A signed value in the half-open range `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as i64
    }

    /// `true` with probability `num / denom` (of the stream's outputs).
    pub fn chance(&mut self, num: u64, denom: u64) -> bool {
        self.below(denom) < num
    }
}

/// SplitMix64: a statistically strong one-shot mixer.
///
/// Used to derive independent trial seeds: `split_mix(sweep_seed ^ index)`
/// decorrelates adjacent indices so trials never share toss streams even
/// when sweep seeds are small consecutive integers.
pub fn split_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of trial `index` within a sweep seeded by `sweep_seed`.
///
/// Pure function of its inputs: the same trial gets the same seed no matter
/// which worker thread runs it or in what order, which is what makes the
/// parallel sweep engine's output independent of the thread count.
pub fn trial_seed(sweep_seed: u64, index: usize) -> u64 {
    split_mix(sweep_seed ^ split_mix(index as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_matches_legacy_stream() {
        // The exact sequence the pre-harness experiment code produced for
        // seed 3 (state = 3 * GOLDEN | 1, shifts 13/7/17). Guards the
        // committed tables in EXPERIMENTS.md against generator drift.
        let mut legacy_state = 3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut legacy = move || {
            legacy_state ^= legacy_state << 13;
            legacy_state ^= legacy_state >> 7;
            legacy_state ^= legacy_state << 17;
            legacy_state
        };
        let mut stream = XorShift64::new(3);
        for _ in 0..64 {
            assert_eq!(stream.next_u64(), legacy());
        }
    }

    #[test]
    fn below_and_range_respect_bounds() {
        let mut r = XorShift64::new(11);
        for _ in 0..200 {
            assert!(r.below(7) < 7);
            let v = r.range_i64(-5, 5);
            assert!((-5..5).contains(&v));
            assert!(r.index(3) < 3);
        }
    }

    #[test]
    fn trial_seeds_are_distinct_across_indices_and_sweeps() {
        let mut seen = std::collections::BTreeSet::new();
        for sweep in 0..8u64 {
            for index in 0..64usize {
                assert!(seen.insert(trial_seed(sweep, index)), "collision");
            }
        }
    }

    #[test]
    fn trial_seed_is_a_pure_function() {
        assert_eq!(trial_seed(42, 17), trial_seed(42, 17));
        assert_ne!(trial_seed(42, 17), trial_seed(42, 18));
        assert_ne!(trial_seed(42, 17), trial_seed(43, 17));
    }

    #[test]
    fn chance_is_deterministic() {
        let mut a = XorShift64::new(9);
        let mut b = XorShift64::new(9);
        for _ in 0..50 {
            assert_eq!(a.chance(1, 3), b.chance(1, 3));
        }
    }
}
