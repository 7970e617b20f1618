//! Coin tosses and toss assignments.
//!
//! Section 5.2 of the paper fixes randomness by a *toss assignment*: a
//! function `A : {p_0, ..., p_{n-1}} × ℕ → COIN-RANGE` giving the outcome of
//! each process's `j`-th coin toss. Fixing `A` makes `(All, A)`-run a
//! *unique* run, and lets the `(S, A)`-run replay exactly the same outcomes.
//! We embed the arbitrary `COIN-RANGE` into `u64`.

use crate::ProcessId;
use std::collections::BTreeMap;
use std::fmt::Debug;

/// A toss assignment `A(p_i, j)`: the outcome of the `j`-th coin toss
/// (0-based) performed by process `p_i`.
///
/// Implementations must be pure functions of `(pid, index)` — the executor
/// may query the same toss more than once across replayed runs and must see
/// identical outcomes.
pub trait TossAssignment: Debug + Send + Sync {
    /// The outcome of `p`'s `index`-th coin toss.
    fn outcome(&self, p: ProcessId, index: u64) -> u64;
}

/// The toss assignment that answers every toss with `0`.
///
/// Deterministic algorithms never toss, so this is the conventional
/// assignment for them; it also serves as a degenerate adversary choice for
/// randomized ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ZeroTosses;

impl TossAssignment for ZeroTosses {
    fn outcome(&self, _p: ProcessId, _index: u64) -> u64 {
        0
    }
}

/// A toss assignment that answers every toss with a fixed constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstantTosses(pub u64);

impl TossAssignment for ConstantTosses {
    fn outcome(&self, _p: ProcessId, _index: u64) -> u64 {
        self.0
    }
}

/// A pseudorandom toss assignment derived from a seed.
///
/// Outcomes are a pure function of `(seed, pid, index)` via SplitMix64
/// finalization, so replays are exact and two assignments with the same seed
/// are identical. Sampling many seeds approximates the distribution over
/// coin-toss sequences, which is how the expected-complexity experiments
/// (Lemma 3.1) estimate expectations.
///
/// # Examples
///
/// ```
/// use llsc_shmem::{SeededTosses, TossAssignment, ProcessId};
/// let a = SeededTosses::new(42);
/// let b = SeededTosses::new(42);
/// assert_eq!(a.outcome(ProcessId(3), 7), b.outcome(ProcessId(3), 7));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeededTosses {
    seed: u64,
}

impl SeededTosses {
    /// Creates the assignment for `seed`.
    pub fn new(seed: u64) -> Self {
        SeededTosses { seed }
    }

    /// The seed this assignment was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl TossAssignment for SeededTosses {
    fn outcome(&self, p: ProcessId, index: u64) -> u64 {
        // Mix the three coordinates through two rounds of SplitMix64.
        let mixed = splitmix64(self.seed ^ splitmix64((p.0 as u64) << 32 | (index & 0xFFFF_FFFF)))
            ^ splitmix64(index.rotate_left(17) ^ (p.0 as u64).wrapping_mul(0x9E37_79B9));
        splitmix64(mixed)
    }
}

/// A toss assignment given by an explicit table, with a default for
/// unlisted tosses.
///
/// Used to pin down specific adversarial coin sequences in tests and in the
/// Theorem 6.1 driver (which needs "a toss assignment such that
/// `(All, A)`-run is a terminating run").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MapTosses {
    table: BTreeMap<(ProcessId, u64), u64>,
    default: u64,
}

impl MapTosses {
    /// Creates an empty table whose every toss answers `default`.
    pub fn new(default: u64) -> Self {
        MapTosses {
            table: BTreeMap::new(),
            default,
        }
    }

    /// Pins `p`'s `index`-th toss to `outcome`, returning `self` for
    /// chaining.
    pub fn with(mut self, p: ProcessId, index: u64, outcome: u64) -> Self {
        self.table.insert((p, index), outcome);
        self
    }
}

impl TossAssignment for MapTosses {
    fn outcome(&self, p: ProcessId, index: u64) -> u64 {
        self.table.get(&(p, index)).copied().unwrap_or(self.default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_constant() {
        assert_eq!(ZeroTosses.outcome(ProcessId(0), 0), 0);
        assert_eq!(ZeroTosses.outcome(ProcessId(9), 100), 0);
        assert_eq!(ConstantTosses(7).outcome(ProcessId(1), 2), 7);
    }

    #[test]
    fn seeded_is_deterministic() {
        let a = SeededTosses::new(1);
        for pid in 0..4 {
            for idx in 0..16 {
                assert_eq!(
                    a.outcome(ProcessId(pid), idx),
                    SeededTosses::new(1).outcome(ProcessId(pid), idx)
                );
            }
        }
        assert_eq!(a.seed(), 1);
    }

    #[test]
    fn seeded_varies_across_coordinates() {
        let a = SeededTosses::new(1);
        // Not a cryptographic requirement, but distinct coordinates should
        // essentially never collide for these small inputs.
        let mut seen = std::collections::BTreeSet::new();
        for pid in 0..8 {
            for idx in 0..8 {
                seen.insert(a.outcome(ProcessId(pid), idx));
            }
        }
        assert!(seen.len() > 60, "only {} distinct outcomes", seen.len());
    }

    #[test]
    fn seeded_varies_across_seeds() {
        let a = SeededTosses::new(1).outcome(ProcessId(0), 0);
        let b = SeededTosses::new(2).outcome(ProcessId(0), 0);
        assert_ne!(a, b);
    }

    #[test]
    fn map_tosses_table_and_default() {
        let t = MapTosses::new(9)
            .with(ProcessId(0), 0, 1)
            .with(ProcessId(1), 0, 5)
            .with(ProcessId(1), 1, 6);
        assert_eq!(t.outcome(ProcessId(0), 0), 1);
        assert_eq!(t.outcome(ProcessId(0), 1), 9);
        assert_eq!(t.outcome(ProcessId(1), 0), 5);
        assert_eq!(t.outcome(ProcessId(1), 1), 6);
        assert_eq!(t.outcome(ProcessId(2), 0), 9);
    }
}
