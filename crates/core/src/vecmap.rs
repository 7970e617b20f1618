//! A small key-sorted vector map for per-round records.
//!
//! A round touches a handful of registers and processes, and an
//! exhaustive subset sweep fills one record per round of each of its
//! `2^n` `(S, A)`-runs. An ordered tree pays a node allocation per entry
//! for that; [`VecMap`] keeps the entries in one vector sorted by key, so
//! a map costs at most one allocation (none once a reused `(S, A)`-run
//! refills it in place) and lookups are a binary search. Iteration is in
//! ascending key order, like the `BTreeMap` it replaces.

/// A map stored as a vector of `(key, value)` pairs sorted by key.
///
/// # Examples
///
/// ```
/// use llsc_core::VecMap;
/// use llsc_shmem::{ProcessId, RegisterId};
///
/// let mut m = VecMap::new();
/// m.insert(RegisterId(7), ProcessId(1));
/// m.insert(RegisterId(2), ProcessId(0));
/// assert_eq!(m.get(&RegisterId(7)), Some(&ProcessId(1)));
/// assert_eq!(m.keys().copied().collect::<Vec<_>>(), [RegisterId(2), RegisterId(7)]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// The empty map. Allocation-free.
    pub const fn new() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Replaces the entries with those `fill` pushes onto the emptied
    /// entry vector, keeping its allocation. `fill` must push keys in
    /// strictly increasing order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the keys are not strictly increasing.
    pub(crate) fn refill_sorted(&mut self, fill: impl FnOnce(&mut Vec<(K, V)>)) {
        self.entries.clear();
        fill(&mut self.entries);
        debug_assert!(self.entries.windows(2).all(|w| w[0].0 < w[1].0));
    }

    fn find(&self, key: &K) -> Result<usize, usize> {
        // Entries usually arrive in key order: check the end first.
        match self.entries.last() {
            Some((last, _)) if last < key => Err(self.entries.len()),
            _ => self.entries.binary_search_by(|(k, _)| k.cmp(key)),
        }
    }

    /// `true` iff the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value stored under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// `true` iff `key` has a value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Stores `value` under `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// The keys, in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.entries.iter().map(|(k, _)| k)
    }

    /// The values, in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries.iter().map(|(_, v)| v)
    }

    /// The entries, in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_inserts_iterate_sorted() {
        let mut m = VecMap::new();
        for k in [5u32, 1, 9, 3, 7] {
            assert_eq!(m.insert(k, k * 10), None);
        }
        assert_eq!(m.insert(3, 33), Some(30));
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), [1, 3, 5, 7, 9]);
        assert_eq!(
            m.values().copied().collect::<Vec<_>>(),
            [10, 33, 50, 70, 90]
        );
        assert_eq!(m.get(&9), Some(&90));
        assert!(!m.contains_key(&4));
    }
}
