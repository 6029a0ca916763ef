//! Incrementally rehashed hash table, after Redis's `dict.c`.
//!
//! Redis never rehashes a table in one blocking step: when the load factor
//! crosses a threshold it allocates a second table and migrates a few
//! buckets per operation, so the latency cost of resizing is spread across
//! requests instead of appearing as a tail-latency spike. That property
//! matters for the latency figures this reproduction measures, so the
//! structure is modelled faithfully: two tables, a `rehash_idx` cursor, one
//! bucket-migration step per mutating operation, and an explicit
//! [`Dict::rehash_step`] hook for the server cron to burn idle cycles.

use crate::hash::siphash13;

/// Initial table size (Redis `DICT_HT_INITIAL_SIZE`).
const INITIAL_SIZE: usize = 4;
/// Grow when used/size reaches this ratio.
const GROW_RATIO: f64 = 1.0;
/// Shrink when used/size drops below this ratio (and size > initial).
const SHRINK_RATIO: f64 = 0.1;

/// One key and its value, as a bucket holds them.
pub(crate) type Entry<V> = (Box<[u8]>, V);

type Bucket<V> = Vec<Entry<V>>;

/// An entry's place: which table, which bucket, where in the bucket.
#[derive(Clone, Copy)]
struct Slot {
    in_ht1: bool,
    idx: usize,
    pos: usize,
}

#[derive(Debug, Clone)]
struct Table<V> {
    buckets: Vec<Bucket<V>>,
    used: usize,
}

impl<V> Table<V> {
    fn new(size: usize) -> Self {
        debug_assert!(size.is_power_of_two());
        Table {
            buckets: (0..size).map(|_| Vec::new()).collect(),
            used: 0,
        }
    }

    /// The bucket a key with this hash lives in. Callers hash a key once
    /// and index both tables of a rehashing dict with the same value.
    #[inline]
    fn index(&self, hash: u64) -> usize {
        (hash as usize) & (self.buckets.len() - 1)
    }

    /// Position of `key` within bucket `idx`.
    #[inline]
    fn position(&self, idx: usize, key: &[u8]) -> Option<usize> {
        self.buckets[idx].iter().position(|(k, _)| &**k == key)
    }
}

/// A hash map from byte-string keys to `V`, with incremental rehashing.
#[derive(Debug, Clone)]
pub struct Dict<V> {
    ht0: Table<V>,
    /// Present while a rehash is in progress; new entries go here.
    ht1: Option<Table<V>>,
    /// Next bucket of `ht0` to migrate.
    rehash_idx: usize,
}

impl<V> Default for Dict<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Dict<V> {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Dict {
            ht0: Table::new(INITIAL_SIZE),
            ht1: None,
            rehash_idx: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ht0.used + self.ht1.as_ref().map_or(0, |t| t.used)
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True while an incremental rehash is in progress.
    pub fn is_rehashing(&self) -> bool {
        self.ht1.is_some()
    }

    /// Total bucket slots across both tables (diagnostics).
    pub fn capacity(&self) -> usize {
        self.ht0.buckets.len() + self.ht1.as_ref().map_or(0, |t| t.buckets.len())
    }

    /// Insert or replace. Returns the previous value if the key existed.
    ///
    /// The key is hashed once and, outside a rehash, its bucket is walked
    /// once: a miss appends to the bucket the walk just searched.
    pub fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        self.maybe_start_resize();
        self.rehash_step(1);
        let hash = siphash13(key);
        // Replace in whichever table currently holds the key.
        if let Some(slot) = self.find_mut(hash, key) {
            return Some(std::mem::replace(slot, value));
        }
        self.push_new(hash, key, value);
        None
    }

    /// The value at `key`, inserting `make()` first when the key is absent;
    /// the flag is true when it did. The caller updates an existing value
    /// in place instead of replacing it.
    ///
    /// Takes exactly [`Dict::insert`]'s steps — the resize check, one
    /// rehash step, one hash, one walk — so no table layout, iteration
    /// order or scan cursor tells an upsert from an insert of the same key.
    pub fn upsert(&mut self, key: &[u8], make: impl FnOnce() -> V) -> (&mut V, bool) {
        self.maybe_start_resize();
        self.rehash_step(1);
        let hash = siphash13(key);
        match self.locate(hash, key) {
            Some(slot) => (self.value_mut(slot), false),
            None => (self.push_new(hash, key, make()), true),
        }
    }

    /// Append a key known to be absent. New entries always go to the
    /// newest table.
    fn push_new(&mut self, hash: u64, key: &[u8], value: V) -> &mut V {
        let table = self.ht1.as_mut().unwrap_or(&mut self.ht0);
        let idx = table.index(hash);
        table.used += 1;
        let bucket = &mut table.buckets[idx];
        bucket.push((Box::from(key), value));
        &mut bucket.last_mut().expect("just pushed").1
    }

    /// Look up a key.
    pub fn get(&self, key: &[u8]) -> Option<&V> {
        if self.is_empty() {
            return None; // nothing to find: skip the hash
        }
        let Slot { in_ht1, idx, pos } = self.locate(siphash13(key), key)?;
        let table = if in_ht1 {
            self.ht1.as_ref().expect("located in ht1")
        } else {
            &self.ht0
        };
        Some(&table.buckets[idx][pos].1)
    }

    /// Mutable lookup (performs a rehash step, as any Redis dict op would).
    pub fn get_mut(&mut self, key: &[u8]) -> Option<&mut V> {
        self.rehash_step(1);
        self.find_mut(siphash13(key), key)
    }

    fn find_mut(&mut self, hash: u64, key: &[u8]) -> Option<&mut V> {
        let slot = self.locate(hash, key)?;
        Some(self.value_mut(slot))
    }

    /// Where `key` is: `ht0` first, then `ht1` of a rehashing dict, both
    /// indexed with the one hash.
    fn locate(&self, hash: u64, key: &[u8]) -> Option<Slot> {
        let idx = self.ht0.index(hash);
        if let Some(pos) = self.ht0.position(idx, key) {
            return Some(Slot {
                in_ht1: false,
                idx,
                pos,
            });
        }
        let ht1 = self.ht1.as_ref()?;
        let idx = ht1.index(hash);
        let pos = ht1.position(idx, key)?;
        Some(Slot {
            in_ht1: true,
            idx,
            pos,
        })
    }

    fn value_mut(&mut self, Slot { in_ht1, idx, pos }: Slot) -> &mut V {
        let table = if in_ht1 {
            self.ht1.as_mut().expect("located in ht1")
        } else {
            &mut self.ht0
        };
        &mut table.buckets[idx][pos].1
    }

    /// True if the key exists.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Remove a key, returning its value.
    pub fn remove(&mut self, key: &[u8]) -> Option<V> {
        if self.ht1.is_none() && self.ht0.used == 0 {
            return None; // nothing to find or migrate: skip the hash
        }
        self.rehash_step(1);
        let hash = siphash13(key);
        let idx = self.ht0.index(hash);
        if let Some(pos) = self.ht0.position(idx, key) {
            let (_, v) = self.ht0.buckets[idx].swap_remove(pos);
            self.ht0.used -= 1;
            self.maybe_start_resize();
            return Some(v);
        }
        if let Some(ht1) = self.ht1.as_mut() {
            let idx = ht1.index(hash);
            if let Some(pos) = ht1.position(idx, key) {
                let (_, v) = ht1.buckets[idx].swap_remove(pos);
                ht1.used -= 1;
                return Some(v);
            }
        }
        None
    }

    /// Migrate up to `buckets` buckets from the old table. Called
    /// implicitly by mutating operations and explicitly by the server cron.
    pub fn rehash_step(&mut self, buckets: usize) {
        let Some(ht1) = self.ht1.as_mut() else { return };
        let mut moved = 0;
        while moved < buckets && self.rehash_idx < self.ht0.buckets.len() {
            let bucket = std::mem::take(&mut self.ht0.buckets[self.rehash_idx]);
            for (k, v) in bucket {
                let idx = ht1.index(siphash13(&k));
                ht1.buckets[idx].push((k, v));
                ht1.used += 1;
                self.ht0.used -= 1;
            }
            self.rehash_idx += 1;
            moved += 1;
        }
        if self.rehash_idx >= self.ht0.buckets.len() {
            // Rehash complete: the new table becomes ht0.
            debug_assert_eq!(self.ht0.used, 0);
            self.ht0 = self.ht1.take().expect("checked above");
            self.rehash_idx = 0;
        }
    }

    fn maybe_start_resize(&mut self) {
        if self.ht1.is_some() {
            return;
        }
        let used = self.ht0.used as f64;
        let size = self.ht0.buckets.len() as f64;
        let target = if used / size >= GROW_RATIO {
            (self.ht0.used * 2).next_power_of_two().max(INITIAL_SIZE)
        } else if used / size < SHRINK_RATIO && self.ht0.buckets.len() > INITIAL_SIZE {
            self.ht0.used.next_power_of_two().max(INITIAL_SIZE)
        } else {
            return;
        };
        if target == self.ht0.buckets.len() {
            return;
        }
        self.ht1 = Some(Table::new(target));
        self.rehash_idx = 0;
    }

    /// Iterate over all entries (order unspecified but deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &V)> {
        let t0 = self
            .ht0
            .buckets
            .iter()
            .flat_map(|b| b.iter().map(|(k, v)| (&**k, v)));
        let t1 = self.ht1.iter().flat_map(|t| {
            t.buckets
                .iter()
                .flat_map(|b| b.iter().map(|(k, v)| (&**k, v)))
        });
        t0.chain(t1)
    }

    /// Iterate mutably over all values.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&[u8], &mut V)> {
        let t1 = self.ht1.iter_mut().flat_map(|t| {
            t.buckets
                .iter_mut()
                .flat_map(|b| b.iter_mut().map(|(k, v)| (&**k, v)))
        });
        self.ht0
            .buckets
            .iter_mut()
            .flat_map(|b| b.iter_mut().map(|(k, v)| (&**k, v)))
            .chain(t1)
    }

    /// A uniformly-ish random entry, for `RANDOMKEY` and the active expire
    /// cycle. `r` supplies randomness (two draws).
    pub fn random_entry(&self, mut r: impl FnMut(u64) -> u64) -> Option<(&[u8], &V)> {
        if self.is_empty() {
            return None;
        }
        // Sample a non-empty bucket by scanning from a random start.
        let total_buckets = self.capacity();
        let start = r(total_buckets as u64) as usize;
        for i in 0..total_buckets {
            let idx = (start + i) % total_buckets;
            let bucket = if idx < self.ht0.buckets.len() {
                &self.ht0.buckets[idx]
            } else {
                &self
                    .ht1
                    .as_ref()
                    .expect("idx beyond ht0 implies ht1")
                    .buckets[idx - self.ht0.buckets.len()]
            };
            if !bucket.is_empty() {
                let (k, v) = &bucket[r(bucket.len() as u64) as usize];
                return Some((&**k, v));
            }
        }
        None
    }

    /// Remove entries for which `pred` returns false. Returns removed count.
    pub fn retain(&mut self, mut pred: impl FnMut(&[u8], &mut V) -> bool) -> usize {
        let mut removed = 0;
        for bucket in &mut self.ht0.buckets {
            let before = bucket.len();
            bucket.retain_mut(|(k, v)| pred(k, v));
            let delta = before - bucket.len();
            self.ht0.used -= delta;
            removed += delta;
        }
        if let Some(ht1) = self.ht1.as_mut() {
            for bucket in &mut ht1.buckets {
                let before = bucket.len();
                bucket.retain_mut(|(k, v)| pred(k, v));
                let delta = before - bucket.len();
                ht1.used -= delta;
                removed += delta;
            }
        }
        removed
    }

    /// Drop everything, resetting to the initial size.
    pub fn clear(&mut self) {
        *self = Dict::new();
    }

    /// One step of a guaranteed-coverage incremental scan, after Redis's
    /// `dictScan` (Pieter Noordhuis's reverse-binary-iteration algorithm).
    ///
    /// Call with `cursor = 0` to start; feed the returned cursor back in;
    /// the scan is complete when it returns 0. Elements present for the
    /// whole duration of the scan are emitted at least once, even across
    /// incremental rehashes; elements may occasionally be emitted twice.
    pub fn scan(&self, cursor: u64, mut emit: impl FnMut(&[u8], &V)) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let mut v = cursor;
        match &self.ht1 {
            None => {
                let t0 = &self.ht0;
                let m0 = (t0.buckets.len() - 1) as u64;
                for (k, val) in &t0.buckets[(v & m0) as usize] {
                    emit(k, val);
                }
                v |= !m0;
                v = reverse_increment(v);
            }
            Some(ht1) => {
                // Scan both tables; iterate the smaller mask's bucket and
                // all its expansions in the larger table.
                let (small, large) = if self.ht0.buckets.len() <= ht1.buckets.len() {
                    (&self.ht0, ht1)
                } else {
                    (ht1, &self.ht0)
                };
                let m_small = (small.buckets.len() - 1) as u64;
                let m_large = (large.buckets.len() - 1) as u64;
                for (k, val) in &small.buckets[(v & m_small) as usize] {
                    emit(k, val);
                }
                loop {
                    for (k, val) in &large.buckets[(v & m_large) as usize] {
                        emit(k, val);
                    }
                    // Increment the bits not covered by the smaller mask.
                    v |= !m_large;
                    v = reverse_increment(v);
                    if v & (!m_small & m_large) == 0 {
                        break;
                    }
                }
            }
        }
        v
    }
}

/// Increment `v` on its reversed bit pattern (the dictScan cursor step).
fn reverse_increment(v: u64) -> u64 {
    let mut r = v.reverse_bits();
    r = r.wrapping_add(1);
    r.reverse_bits()
}

#[cfg(test)]
// Test-only HashSet: checks *what* iteration yields, never its order.
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut d: Dict<u32> = Dict::new();
        assert_eq!(d.insert(b"a", 1), None);
        assert_eq!(d.insert(b"b", 2), None);
        assert_eq!(d.insert(b"a", 10), Some(1));
        assert_eq!(d.get(b"a"), Some(&10));
        assert_eq!(d.get(b"b"), Some(&2));
        assert_eq!(d.get(b"c"), None);
        assert_eq!(d.len(), 2);
        assert_eq!(d.remove(b"a"), Some(10));
        assert_eq!(d.remove(b"a"), None);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn grows_through_incremental_rehash() {
        let mut d: Dict<usize> = Dict::new();
        for i in 0..1000 {
            d.insert(format!("key:{i}").as_bytes(), i);
        }
        assert_eq!(d.len(), 1000);
        // Everything must be reachable regardless of rehash state.
        for i in 0..1000 {
            assert_eq!(d.get(format!("key:{i}").as_bytes()), Some(&i), "key {i}");
        }
    }

    #[test]
    fn rehash_eventually_completes() {
        let mut d: Dict<usize> = Dict::new();
        for i in 0..100 {
            d.insert(format!("k{i}").as_bytes(), i);
        }
        // Drive any in-progress rehash to completion.
        for _ in 0..1000 {
            d.rehash_step(16);
        }
        assert!(!d.is_rehashing());
        assert_eq!(d.len(), 100);
        assert_eq!(d.iter().count(), 100);
    }

    #[test]
    fn shrinks_after_mass_delete() {
        let mut d: Dict<usize> = Dict::new();
        for i in 0..1000 {
            d.insert(format!("k{i}").as_bytes(), i);
        }
        for i in 0..995 {
            d.remove(format!("k{i}").as_bytes());
        }
        for _ in 0..1000 {
            d.rehash_step(16);
        }
        // A shrink may have been deferred while an earlier rehash was in
        // flight (as in Redis); the next mutation re-evaluates the ratio.
        d.remove(format!("k{}", 995).as_bytes());
        for _ in 0..1000 {
            d.rehash_step(16);
        }
        assert_eq!(d.len(), 4);
        assert!(
            d.capacity() <= 64,
            "table should shrink, capacity {}",
            d.capacity()
        );
    }

    #[test]
    fn get_during_rehash_sees_both_tables() {
        let mut d: Dict<usize> = Dict::new();
        // Force a rehash to be mid-flight.
        for i in 0..5 {
            d.insert(format!("k{i}").as_bytes(), i);
        }
        assert!(d.is_rehashing() || d.len() == 5);
        for i in 0..5 {
            assert!(d.contains(format!("k{i}").as_bytes()));
        }
    }

    #[test]
    fn iter_sees_everything_once() {
        let mut d: Dict<u32> = Dict::new();
        for i in 0..123u32 {
            d.insert(format!("k{i}").as_bytes(), i);
        }
        let mut seen: Vec<u32> = d.iter().map(|(_, v)| *v).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..123).collect::<Vec<_>>());
    }

    #[test]
    fn retain_filters() {
        let mut d: Dict<u32> = Dict::new();
        for i in 0..100u32 {
            d.insert(format!("k{i}").as_bytes(), i);
        }
        let removed = d.retain(|_, v| *v % 2 == 0);
        assert_eq!(removed, 50);
        assert_eq!(d.len(), 50);
        assert!(d.iter().all(|(_, v)| *v % 2 == 0));
    }

    #[test]
    fn random_entry_returns_valid_entries() {
        let mut d: Dict<u32> = Dict::new();
        assert!(d.random_entry(|n| n / 2).is_none());
        for i in 0..50u32 {
            d.insert(format!("k{i}").as_bytes(), i);
        }
        let mut counter = 7u64;
        for _ in 0..100 {
            let (k, v) = d
                .random_entry(|n| {
                    counter = counter.wrapping_mul(6364136223846793005).wrapping_add(1);
                    counter % n.max(1)
                })
                .unwrap();
            assert_eq!(d.get(k), Some(v));
        }
    }

    #[test]
    fn binary_keys() {
        let mut d: Dict<u8> = Dict::new();
        d.insert(&[0, 1, 2], 1);
        d.insert(&[0, 1, 3], 2);
        d.insert(b"", 3);
        assert_eq!(d.get(&[0, 1, 2]), Some(&1));
        assert_eq!(d.get(&[0, 1, 3]), Some(&2));
        assert_eq!(d.get(b""), Some(&3));
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut d: Dict<Vec<u8>> = Dict::new();
        d.insert(b"x", vec![1]);
        d.get_mut(b"x").unwrap().push(2);
        assert_eq!(d.get(b"x"), Some(&vec![1, 2]));
    }

    #[test]
    fn scan_covers_stable_dict() {
        let mut d: Dict<u32> = Dict::new();
        for i in 0..500u32 {
            d.insert(format!("k{i}").as_bytes(), i);
        }
        for _ in 0..100 {
            d.rehash_step(16); // settle
        }
        let mut seen = std::collections::HashSet::new();
        let mut cursor = 0u64;
        let mut rounds = 0;
        loop {
            cursor = d.scan(cursor, |_, v| {
                seen.insert(*v);
            });
            rounds += 1;
            if cursor == 0 {
                break;
            }
            assert!(rounds < 10_000, "scan must terminate");
        }
        assert_eq!(seen.len(), 500, "every element emitted at least once");
    }

    #[test]
    fn scan_covers_during_rehash() {
        // Start a scan, then grow the table mid-scan: elements present the
        // whole time must still all be emitted.
        let mut d: Dict<u32> = Dict::new();
        for i in 0..64u32 {
            d.insert(format!("k{i}").as_bytes(), i);
        }
        let mut seen = std::collections::HashSet::new();
        let mut cursor = 0u64;
        // A few steps before the mutation.
        for _ in 0..2 {
            cursor = d.scan(cursor, |_, v| {
                seen.insert(*v);
            });
        }
        // Trigger growth (new keys may or may not be seen; originals must).
        for i in 64..256u32 {
            d.insert(format!("k{i}").as_bytes(), i);
        }
        let mut rounds = 0;
        while cursor != 0 {
            cursor = d.scan(cursor, |_, v| {
                seen.insert(*v);
            });
            rounds += 1;
            assert!(rounds < 10_000);
        }
        for i in 0..64u32 {
            assert!(seen.contains(&i), "pre-existing element {i} missed");
        }
    }

    #[test]
    fn scan_on_empty_dict() {
        let d: Dict<u32> = Dict::new();
        let mut count = 0;
        assert_eq!(d.scan(0, |_, _| count += 1), 0);
        assert_eq!(count, 0);
    }

    #[test]
    fn clear_resets() {
        let mut d: Dict<u32> = Dict::new();
        for i in 0..100u32 {
            d.insert(format!("k{i}").as_bytes(), i);
        }
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.capacity(), INITIAL_SIZE);
    }
}
