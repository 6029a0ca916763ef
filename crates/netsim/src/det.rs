//! Deterministic collections for simulation code.
//!
//! `std::collections::HashMap`'s iteration order depends on `RandomState`,
//! which is seeded from the OS — two runs of the *same* simulation can visit
//! entries in different orders, and any order-dependent side effect (event
//! scheduling, round-robin cursors, counter folding) then diverges between
//! runs. That silently breaks the bit-for-bit determinism every figure in
//! the reproduction rests on (see `tests/tests/chaos.rs` and
//! `tests/tests/determinism.rs`).
//!
//! [`DetMap`] and [`DetSet`] are thin wrappers over `BTreeMap`/`BTreeSet`
//! whose iteration order is the key order — a pure function of the inserted
//! keys, never of OS state. `skv-lint` (rule `hashmap`) rejects the std
//! hash collections in simulation crates and points here.

use std::borrow::Borrow;
use std::collections::{btree_map, BTreeMap, BTreeSet};

/// An ordered map with deterministic iteration order (key order).
///
/// Drop-in replacement for the `HashMap` subset the simulation uses; keys
/// must be `Ord` instead of `Hash`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetMap<K, V> {
    inner: BTreeMap<K, V>,
}

// Not derived: the derive would demand `K: Default` of an empty map.
impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap {
            inner: BTreeMap::new(),
        }
    }
}

impl<K: Ord, V> DetMap<K, V> {
    /// Create an empty map.
    pub fn new() -> Self {
        DetMap {
            inner: BTreeMap::new(),
        }
    }

    /// Insert a key-value pair, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.inner.insert(key, value)
    }

    /// Look up a value by key — or by any borrowed form of it, so a
    /// `DetMap<Vec<u8>, _>` is probed with a `&[u8]` and no owned copy.
    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.inner.get(key)
    }

    /// Look up a value mutably by key.
    pub fn get_mut<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        self.inner.get_mut(key)
    }

    /// Whether `key` is present.
    pub fn contains_key<Q: Ord + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.inner.contains_key(key)
    }

    /// Remove a key, returning its value if it was present.
    pub fn remove<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.inner.remove(key)
    }

    /// Get the value for `key`, inserting `default` first if absent.
    pub fn or_insert(&mut self, key: K, default: V) -> &mut V {
        self.inner.entry(key).or_insert(default)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> btree_map::Iter<'_, K, V> {
        self.inner.iter()
    }

    /// Iterate keys in order.
    pub fn keys(&self) -> btree_map::Keys<'_, K, V> {
        self.inner.keys()
    }

    /// Iterate values in key order.
    pub fn values(&self) -> btree_map::Values<'_, K, V> {
        self.inner.values()
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = btree_map::Iter<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        DetMap {
            inner: iter.into_iter().collect(),
        }
    }
}

/// An ordered set with deterministic iteration order (element order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetSet<T> {
    inner: BTreeSet<T>,
}

impl<T: Ord> DetSet<T> {
    /// Create an empty set.
    pub fn new() -> Self {
        DetSet {
            inner: BTreeSet::new(),
        }
    }

    /// Insert an element; returns `true` if it was not already present.
    pub fn insert(&mut self, value: T) -> bool {
        self.inner.insert(value)
    }

    /// Whether `value` (in any borrowed form) is present.
    pub fn contains<Q: Ord + ?Sized>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
    {
        self.inner.contains(value)
    }

    /// Remove an element; returns `true` if it was present.
    pub fn remove<Q: Ord + ?Sized>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
    {
        self.inner.remove(value)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Iterate elements in order.
    pub fn iter(&self) -> std::collections::btree_set::Iter<'_, T> {
        self.inner.iter()
    }
}

impl<'a, T: Ord> IntoIterator for &'a DetSet<T> {
    type Item = &'a T;
    type IntoIter = std::collections::btree_set::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

impl<T: Ord> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        DetSet {
            inner: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_iterates_in_key_order_regardless_of_insertion() {
        let mut a = DetMap::new();
        for k in [5u32, 1, 9, 3] {
            a.insert(k, k * 10);
        }
        let mut b = DetMap::new();
        for k in [9u32, 3, 5, 1] {
            b.insert(k, k * 10);
        }
        let ka: Vec<u32> = a.keys().copied().collect();
        let kb: Vec<u32> = b.keys().copied().collect();
        assert_eq!(ka, vec![1, 3, 5, 9]);
        assert_eq!(ka, kb);
    }

    #[test]
    fn map_basic_ops() {
        let mut m = DetMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert("a", 1), None);
        assert_eq!(m.insert("a", 2), Some(1));
        assert_eq!(m.get(&"a"), Some(&2));
        *m.or_insert("b", 0) += 7;
        assert_eq!(m.get(&"b"), Some(&7));
        assert!(m.contains_key(&"b"));
        assert_eq!(m.remove(&"a"), Some(2));
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn lookups_take_borrowed_keys() {
        let mut m: DetMap<Vec<u8>, u32> = DetMap::new();
        m.insert(b"key".to_vec(), 7);
        let probe: &[u8] = b"key";
        assert_eq!(m.get(probe), Some(&7));
        assert!(m.contains_key(probe));
        *m.get_mut(probe).unwrap() += 1;
        assert_eq!(m.remove(probe), Some(8));
        let mut s: DetSet<Vec<u8>> = DetSet::new();
        s.insert(b"key".to_vec());
        assert!(s.contains(probe));
        assert!(s.remove(probe) && s.is_empty());
    }

    #[test]
    fn set_deduplicates_and_orders() {
        let s: DetSet<u8> = [3u8, 1, 3, 2].into_iter().collect();
        assert_eq!(s.len(), 3);
        let v: Vec<u8> = s.iter().copied().collect();
        assert_eq!(v, vec![1, 2, 3]);
        let mut s = s;
        assert!(!s.insert(2));
        assert!(s.remove(&2));
        assert!(!s.contains(&2));
    }
}
