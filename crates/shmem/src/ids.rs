//! Identifier newtypes for processes and shared registers.

use std::fmt;

/// The identity of a process `p_i` in an `n`-process system.
///
/// Process ids are dense: a system of `n` processes uses ids
/// `ProcessId(0) .. ProcessId(n - 1)`, mirroring the paper's
/// `p_0, ..., p_{n-1}`. The id order is significant: the Figure-2 adversary
/// schedules the LL-, swap-, and SC-groups of each round "in the order of
/// their IDs".
///
/// # Examples
///
/// ```
/// use llsc_shmem::ProcessId;
/// let p = ProcessId(3);
/// assert_eq!(p.to_string(), "p3");
/// assert!(ProcessId(1) < ProcessId(2));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// Returns an iterator over all process ids of an `n`-process system,
    /// in id order.
    ///
    /// ```
    /// use llsc_shmem::ProcessId;
    /// let ids: Vec<_> = ProcessId::all(3).collect();
    /// assert_eq!(ids, vec![ProcessId(0), ProcessId(1), ProcessId(2)]);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> {
        (0..n).map(ProcessId)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(i: usize) -> Self {
        ProcessId(i)
    }
}

/// A set of [`ProcessId`]s stored as a bitmask.
///
/// The simulator's hot structures — a register's LL/SC `Pset` and the
/// Lemma 5.1 `UP` sets — are sets of dense process ids that are inserted
/// into, cleared, and subset-tested on every simulated event. A
/// `BTreeSet<ProcessId>` pays a heap allocation per element for that;
/// `ProcMask` packs ids below [`ProcMask::FAST_BITS`] into one inline
/// `u128` word, making membership, insertion, clearing, union, and subset
/// tests single word operations with **zero heap traffic**. Every subset
/// sweep caps `n` at 16, so the exhaustive-verification hot path lives
/// entirely in the fast word (debug-asserted in the sweeps); the scaling
/// experiments push `n` to 32 768, so ids `>= 128` spill into a
/// lazily-allocated *window* of 128-bit blocks rather than being
/// rejected.
///
/// The window stores `(first block, dense words)` and never keeps a zero
/// word at either end, so a set costs words for the span between its
/// smallest and largest spilled id, not for every block from 128 up: the
/// round-0 `UP` singleton `{p}` is one word whatever `p` is. Sets that
/// fill their span (late-round `UP` sets, full `Pset`s) run the same word
/// loops as a plain bitmask. Because the window is trimmed at both ends
/// after every operation, equal sets have equal fields, so `Eq` and
/// `Hash` stay canonical regardless of history.
///
/// Iteration order is ascending id order, matching the `BTreeSet` this
/// type replaces — schedule construction and `Display` output depend on
/// that order, and it keeps experiment output byte-identical.
///
/// # Examples
///
/// ```
/// use llsc_shmem::{ProcMask, ProcessId};
/// let mut s = ProcMask::new();
/// assert!(s.insert(ProcessId(2)));
/// assert!(s.insert(ProcessId(0)));
/// assert!(!s.insert(ProcessId(2)), "already present");
/// assert!(s.contains(ProcessId(0)));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![ProcessId(0), ProcessId(2)]);
/// assert!(s.is_subset(&ProcMask::full(3)));
/// s.clear();
/// assert!(s.is_empty());
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct ProcMask {
    /// Ids `0 .. 128`: the allocation-free fast word.
    lo: u128,
    /// The spill window's first block: `hi[i]` is block `first + i`,
    /// which covers ids `128 * (first + i + 1) .. 128 * (first + i + 2)`.
    /// Zero whenever `hi` is empty.
    first: usize,
    /// The spill window's words. Empty (no allocation) until a large id
    /// is inserted; never starts or ends with a zero word, so
    /// `Eq`/`Hash` see a canonical form.
    hi: Vec<u128>,
}

impl ProcMask {
    /// The number of ids the inline fast word covers.
    pub const FAST_BITS: usize = 128;

    /// The empty set. Allocation-free.
    pub const fn new() -> ProcMask {
        ProcMask {
            lo: 0,
            first: 0,
            hi: Vec::new(),
        }
    }

    /// The full set `{p_0, …, p_{n-1}}` of an `n`-process system.
    pub fn full(n: usize) -> ProcMask {
        let mut m = ProcMask::new();
        for p in ProcessId::all(n) {
            m.insert(p);
        }
        m
    }

    #[inline]
    fn split(p: ProcessId) -> (Option<usize>, u128) {
        if p.0 < Self::FAST_BITS {
            (None, 1u128 << p.0)
        } else {
            let off = p.0 - Self::FAST_BITS;
            (
                Some(off / Self::FAST_BITS),
                1u128 << (off % Self::FAST_BITS),
            )
        }
    }

    /// One past the window's last block.
    #[inline]
    fn end(&self) -> usize {
        self.first + self.hi.len()
    }

    /// The index of `block` in the window, if the window covers it.
    #[inline]
    fn slot(&self, block: usize) -> Option<usize> {
        block.checked_sub(self.first).filter(|&i| i < self.hi.len())
    }

    /// Grows the window (with zero words) until it covers `block`, and
    /// returns `block`'s index in it. The caller must leave a non-zero
    /// word at each end.
    fn widen(&mut self, block: usize) -> usize {
        if self.hi.is_empty() {
            self.first = block;
            self.hi.push(0);
        } else if block < self.first {
            let grow = self.first - block;
            self.hi.splice(0..0, std::iter::repeat_n(0, grow));
            self.first = block;
        } else if block >= self.end() {
            self.hi.resize(block - self.first + 1, 0);
        }
        block - self.first
    }

    /// Drops zero words from both ends of the window (the canonical form).
    fn trim(&mut self) {
        while self.hi.last() == Some(&0) {
            self.hi.pop();
        }
        let lead = self.hi.iter().take_while(|&&w| w == 0).count();
        if lead > 0 {
            self.hi.drain(..lead);
            self.first += lead;
        }
        if self.hi.is_empty() {
            self.first = 0;
        }
    }

    /// Inserts `p`; returns `true` iff it was not already present.
    #[inline]
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let (word, bit) = match Self::split(p) {
            (None, bit) => (&mut self.lo, bit),
            (Some(block), bit) => {
                let i = match self.slot(block) {
                    Some(i) => i,
                    None => self.widen(block),
                };
                (&mut self.hi[i], bit)
            }
        };
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes `p`; returns `true` iff it was present.
    #[inline]
    pub fn remove(&mut self, p: ProcessId) -> bool {
        match Self::split(p) {
            (None, bit) => {
                let had = self.lo & bit != 0;
                self.lo &= !bit;
                had
            }
            (Some(block), bit) => {
                let Some(i) = self.slot(block) else {
                    return false;
                };
                let had = self.hi[i] & bit != 0;
                self.hi[i] &= !bit;
                if self.hi[i] == 0 {
                    self.trim();
                }
                had
            }
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, p: ProcessId) -> bool {
        match Self::split(p) {
            (None, bit) => self.lo & bit != 0,
            (Some(block), bit) => self.slot(block).is_some_and(|i| self.hi[i] & bit != 0),
        }
    }

    /// Empties the set, keeping any spill capacity for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.lo = 0;
        self.first = 0;
        self.hi.clear();
    }

    /// The number of ids in the set.
    pub fn len(&self) -> usize {
        self.lo.count_ones() as usize
            + self
                .hi
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// `true` iff the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo == 0 && self.hi.is_empty()
    }

    /// `true` iff every id of `self` is in `other` — one AND-NOT per word,
    /// where the `BTreeSet` predecessor walked both trees. This test runs
    /// per process per round per subset in the Lemma 5.2 sweeps.
    #[inline]
    pub fn is_subset(&self, other: &ProcMask) -> bool {
        if self.lo & !other.lo != 0 {
            return false;
        }
        if self.hi.is_empty() {
            return true;
        }
        // Both end words of `self` are non-zero, so `other`'s window must
        // cover `self`'s.
        if self.first < other.first || self.end() > other.end() {
            return false;
        }
        let theirs = &other.hi[self.first - other.first..];
        self.hi.iter().zip(theirs).all(|(&w, &o)| w & !o == 0)
    }

    /// `true` iff every id of `other` is in `self`.
    pub fn is_superset(&self, other: &ProcMask) -> bool {
        other.is_subset(self)
    }

    /// Adds every id of `other` to `self`.
    pub fn union_with(&mut self, other: &ProcMask) {
        self.lo |= other.lo;
        if other.hi.is_empty() {
            return;
        }
        if self.hi.is_empty() {
            self.first = other.first;
            self.hi.extend_from_slice(&other.hi);
            return;
        }
        if other.first < self.first || other.end() > self.end() {
            self.widen(other.first);
            self.widen(other.end() - 1);
        }
        let mine = &mut self.hi[other.first - self.first..];
        for (dst, src) in mine.iter_mut().zip(&other.hi) {
            *dst |= src;
        }
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> ProcMaskIter<'_> {
        ProcMaskIter {
            word: self.lo,
            base: 0,
            first: self.first,
            hi: &self.hi,
            next_block: 0,
        }
    }
}

impl fmt::Debug for ProcMask {
    /// Renders like the `BTreeSet<ProcessId>` it replaces
    /// (`{ProcessId(0), ProcessId(2)}`), keeping diagnostic strings —
    /// including the subset-sweep violation reports — stable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<const N: usize> From<[ProcessId; N]> for ProcMask {
    fn from(ids: [ProcessId; N]) -> Self {
        ids.into_iter().collect()
    }
}

impl FromIterator<ProcessId> for ProcMask {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut m = ProcMask::new();
        for p in iter {
            m.insert(p);
        }
        m
    }
}

impl Extend<ProcessId> for ProcMask {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl<'a> IntoIterator for &'a ProcMask {
    type Item = ProcessId;
    type IntoIter = ProcMaskIter<'a>;
    fn into_iter(self) -> ProcMaskIter<'a> {
        self.iter()
    }
}

/// Ascending-order iterator over a [`ProcMask`].
#[derive(Clone, Debug)]
pub struct ProcMaskIter<'a> {
    word: u128,
    base: usize,
    first: usize,
    hi: &'a [u128],
    next_block: usize,
}

impl Iterator for ProcMaskIter<'_> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        loop {
            if self.word != 0 {
                let bit = self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                return Some(ProcessId(self.base + bit));
            }
            let block = self.next_block;
            if block >= self.hi.len() {
                return None;
            }
            self.word = self.hi[block];
            self.base = ProcMask::FAST_BITS * (self.first + block + 1);
            self.next_block = block + 1;
        }
    }
}

/// The identity of a shared register `R_j`.
///
/// The paper's shared memory has an infinite number of registers
/// `R_0, R_1, ...`; [`crate::SharedMemory`] materialises them lazily, so any
/// `RegisterId` is always valid to use.
///
/// # Examples
///
/// ```
/// use llsc_shmem::RegisterId;
/// assert_eq!(RegisterId(7).to_string(), "R7");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegisterId(pub u64);

impl fmt::Display for RegisterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<u64> for RegisterId {
    fn from(i: u64) -> Self {
        RegisterId(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_ordering_follows_index() {
        assert!(ProcessId(0) < ProcessId(1));
        assert!(ProcessId(10) > ProcessId(9));
        assert_eq!(ProcessId(4), ProcessId(4));
    }

    #[test]
    fn process_id_all_yields_dense_range() {
        let ids: Vec<_> = ProcessId::all(4).collect();
        assert_eq!(ids.len(), 4);
        for (i, p) in ids.iter().enumerate() {
            assert_eq!(p.0, i);
        }
    }

    #[test]
    fn process_id_all_empty_system() {
        assert_eq!(ProcessId::all(0).count(), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ProcessId(12).to_string(), "p12");
        assert_eq!(RegisterId(0).to_string(), "R0");
    }

    #[test]
    fn conversions() {
        assert_eq!(ProcessId::from(5), ProcessId(5));
        assert_eq!(RegisterId::from(5u64), RegisterId(5));
    }

    #[test]
    fn proc_mask_insert_remove_contains() {
        let mut m = ProcMask::new();
        assert!(m.is_empty());
        assert!(m.insert(ProcessId(5)));
        assert!(!m.insert(ProcessId(5)));
        assert!(m.contains(ProcessId(5)));
        assert!(!m.contains(ProcessId(4)));
        assert_eq!(m.len(), 1);
        assert!(m.remove(ProcessId(5)));
        assert!(!m.remove(ProcessId(5)));
        assert!(m.is_empty());
    }

    #[test]
    fn proc_mask_iterates_in_ascending_id_order() {
        let m: ProcMask = [9, 0, 127, 3].into_iter().map(ProcessId).collect();
        let ids: Vec<_> = m.iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![0, 3, 9, 127]);
    }

    #[test]
    fn proc_mask_spills_past_the_fast_word() {
        // Scaling experiments run executors at n up to 4096; ids >= 128
        // must round-trip through the spill blocks.
        let ids = [0usize, 127, 128, 129, 1023, 4095];
        let m: ProcMask = ids.into_iter().map(ProcessId).collect();
        assert_eq!(m.len(), ids.len());
        assert_eq!(m.iter().map(|p| p.0).collect::<Vec<_>>(), ids);
        for i in ids {
            assert!(m.contains(ProcessId(i)));
        }
        assert!(!m.contains(ProcessId(2048)));
        let mut trimmed = m;
        assert!(trimmed.remove(ProcessId(4095)));
        assert!(trimmed.remove(ProcessId(1023)));
        // Trailing zero blocks are trimmed, so equality is canonical.
        let expect: ProcMask = [0usize, 127, 128, 129].into_iter().map(ProcessId).collect();
        assert_eq!(trimmed, expect);
    }

    #[test]
    fn proc_mask_subset_and_union() {
        let small: ProcMask = [1usize, 3].into_iter().map(ProcessId).collect();
        let big = ProcMask::full(4);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(ProcMask::new().is_subset(&small), "empty set is a subset");
        // Subset tests across the spill boundary.
        let tall: ProcMask = [1usize, 200].into_iter().map(ProcessId).collect();
        assert!(!tall.is_subset(&big));
        let mut u = small.clone();
        u.union_with(&tall);
        assert_eq!(u.iter().map(|p| p.0).collect::<Vec<_>>(), vec![1, 3, 200]);
        assert!(small.is_subset(&u));
        assert!(tall.is_subset(&u));
    }

    #[test]
    fn proc_mask_full_matches_process_id_all() {
        for n in [0usize, 1, 7, 128, 130] {
            let m = ProcMask::full(n);
            assert_eq!(m.len(), n);
            assert_eq!(
                m.iter().collect::<Vec<_>>(),
                ProcessId::all(n).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn proc_mask_clear_keeps_nothing() {
        let mut m = ProcMask::full(200);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m, ProcMask::new(), "cleared mask equals the empty mask");
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn proc_mask_debug_matches_btreeset_shape() {
        let m: ProcMask = [0usize, 2].into_iter().map(ProcessId).collect();
        let b: std::collections::BTreeSet<ProcessId> =
            [0usize, 2].into_iter().map(ProcessId).collect();
        assert_eq!(format!("{m:?}"), format!("{b:?}"));
    }

    #[test]
    fn ids_are_hashable_and_usable_as_keys() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(RegisterId(3), "x");
        m.insert(RegisterId(1), "y");
        assert_eq!(m.keys().next(), Some(&RegisterId(1)));
    }
}
