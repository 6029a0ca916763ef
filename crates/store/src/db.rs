//! The keyspace: key→object dictionary plus the expiration machinery.
//!
//! Mirrors Redis's `db.c`: a main dict, a separate expires dict holding
//! absolute millisecond deadlines, lazy expiration on access, and an active
//! expire cycle driven by the server cron (a time event in the paper's
//! Figure 4 workflow).

use crate::dict::Dict;
use crate::object::RObj;

/// A single logical database.
#[derive(Debug, Default)]
pub struct Db {
    dict: Dict<RObj>,
    /// key → absolute expiry in milliseconds.
    expires: Dict<u64>,
    /// Mutation counter (drives replication decisions upstream).
    dirty: u64,
    /// Statistics.
    stat_expired: u64,
    stat_hits: u64,
    stat_misses: u64,
}

impl Db {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live keys (may include not-yet-reaped expired keys,
    /// exactly as `DBSIZE` does in Redis).
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    /// True when no keys exist.
    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }

    /// Total mutations applied (Redis's `server.dirty`).
    pub fn dirty(&self) -> u64 {
        self.dirty
    }

    /// Bump the mutation counter.
    pub fn mark_dirty(&mut self, n: u64) {
        self.dirty += n;
    }

    /// Keys expired so far (lazy + active).
    pub fn stat_expired(&self) -> u64 {
        self.stat_expired
    }

    /// (hits, misses) for read lookups.
    pub fn stats_hit_miss(&self) -> (u64, u64) {
        (self.stat_hits, self.stat_misses)
    }

    /// Is `key` past its deadline at `now_ms`?
    fn is_expired(&self, key: &[u8], now_ms: u64) -> bool {
        self.expires.get(key).is_some_and(|&at| at <= now_ms)
    }

    /// Reap `key` if expired. Returns true if it was removed. With no TTL
    /// anywhere in the keyspace this is a length check, not a probe.
    pub(crate) fn expire_if_needed(&mut self, key: &[u8], now_ms: u64) -> bool {
        if self.is_expired(key, now_ms) {
            self.dict.remove(key);
            self.expires.remove(key);
            self.stat_expired += 1;
            self.dirty += 1;
            true
        } else {
            false
        }
    }

    /// Read-path lookup: reaps lazily, counts hit/miss.
    pub fn lookup_read(&mut self, key: &[u8], now_ms: u64) -> Option<&RObj> {
        self.expire_if_needed(key, now_ms);
        match self.dict.get(key) {
            Some(v) => {
                self.stat_hits += 1;
                Some(v)
            }
            None => {
                self.stat_misses += 1;
                None
            }
        }
    }

    /// Write-path lookup: reaps lazily, no hit/miss accounting.
    pub fn lookup_write(&mut self, key: &[u8], now_ms: u64) -> Option<&mut RObj> {
        self.expire_if_needed(key, now_ms);
        self.dict.get_mut(key)
    }

    /// Does the key exist (and is not expired)?
    pub fn exists(&mut self, key: &[u8], now_ms: u64) -> bool {
        self.expire_if_needed(key, now_ms);
        self.dict.contains(key)
    }

    /// Store the plain string `bytes` at `key` — `SET` and every command
    /// that writes a whole string value — clearing any TTL unless
    /// `keep_ttl`.
    ///
    /// The keyspace takes [`Db::set`]'s steps ([`Dict::upsert`] is
    /// [`Dict::insert`]'s), so bucket layout, `SCAN` order and RDB bytes
    /// are the same; only an existing value is rewritten in place
    /// ([`RObj::assign_string`]), so overwriting a string with one of
    /// similar size allocates nothing.
    pub fn set_string(&mut self, key: &[u8], bytes: &[u8], keep_ttl: bool) {
        let (value, inserted) = self.dict.upsert(key, || RObj::string(bytes));
        if !inserted {
            value.assign_string(bytes);
        }
        if !keep_ttl {
            self.expires.remove(key);
        }
        self.dirty += 1;
    }

    /// Insert or replace a value, clearing any previous TTL (SET semantics).
    pub fn set(&mut self, key: &[u8], value: RObj) {
        self.dict.insert(key, value);
        self.expires.remove(key);
        self.dirty += 1;
    }

    /// Insert or replace, keeping an existing TTL (`SET ... KEEPTTL` /
    /// internal updates that must not clear expiry).
    pub fn set_keep_ttl(&mut self, key: &[u8], value: RObj) {
        self.dict.insert(key, value);
        self.dirty += 1;
    }

    /// Delete a key. Returns true if it existed.
    pub fn delete(&mut self, key: &[u8]) -> bool {
        let existed = self.dict.remove(key).is_some();
        self.expires.remove(key);
        if existed {
            self.dirty += 1;
        }
        existed
    }

    /// Set an absolute expiry (milliseconds). The key must exist.
    pub fn set_expire(&mut self, key: &[u8], at_ms: u64) -> bool {
        if !self.dict.contains(key) {
            return false;
        }
        self.expires.insert(key, at_ms);
        self.dirty += 1;
        true
    }

    /// Remove a TTL (`PERSIST`). Returns true if one existed.
    pub fn persist(&mut self, key: &[u8]) -> bool {
        let had = self.expires.remove(key).is_some();
        if had {
            self.dirty += 1;
        }
        had
    }

    /// Milliseconds until expiry: `None` if no key, `Some(None)` if no TTL,
    /// `Some(Some(ms))` otherwise.
    #[allow(clippy::option_option)]
    pub fn ttl_ms(&mut self, key: &[u8], now_ms: u64) -> Option<Option<u64>> {
        self.expire_if_needed(key, now_ms);
        if !self.dict.contains(key) {
            return None;
        }
        Some(self.expires.get(key).map(|&at| at.saturating_sub(now_ms)))
    }

    /// One round of the active expire cycle: sample up to `samples` keys
    /// from the expires dict and reap the dead ones. Returns reaped count.
    ///
    /// `rand` supplies randomness (`n -> value in [0, n)`).
    pub fn active_expire_cycle(
        &mut self,
        now_ms: u64,
        samples: usize,
        mut rand: impl FnMut(u64) -> u64,
    ) -> usize {
        let mut reaped = 0;
        for _ in 0..samples {
            let Some((key, &at)) = self.expires.random_entry(&mut rand) else {
                break;
            };
            if at <= now_ms {
                let key = key.to_vec();
                self.dict.remove(&key);
                self.expires.remove(&key);
                self.stat_expired += 1;
                self.dirty += 1;
                reaped += 1;
            }
        }
        reaped
    }

    /// Advance incremental rehashing on both dicts (server-cron work).
    pub fn rehash_step(&mut self, buckets: usize) {
        self.dict.rehash_step(buckets);
        self.expires.rehash_step(buckets);
    }

    /// Iterate all `(key, value)` pairs, including expired-but-unreaped.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &RObj)> {
        self.dict.iter()
    }

    /// One cursor step of a guaranteed-coverage keyspace scan (`SCAN`).
    pub fn scan_step(&self, cursor: u64, emit: impl FnMut(&[u8], &RObj)) -> u64 {
        self.dict.scan(cursor, emit)
    }

    /// The TTL entry for a key, if any (for snapshotting).
    pub fn expiry_of(&self, key: &[u8]) -> Option<u64> {
        self.expires.get(key).copied()
    }

    /// A random live key (for `RANDOMKEY`).
    pub fn random_key(&self, rand: impl FnMut(u64) -> u64) -> Option<Vec<u8>> {
        self.dict.random_entry(rand).map(|(k, _)| k.to_vec())
    }

    /// Remove every key.
    pub fn flush(&mut self) {
        let n = self.dict.len() as u64;
        self.dict.clear();
        self.expires.clear();
        self.dirty += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(s: &str) -> RObj {
        RObj::string(s.as_bytes())
    }

    #[test]
    fn set_get_delete() {
        let mut db = Db::new();
        db.set(b"k", obj("v"));
        assert!(db.exists(b"k", 0));
        assert_eq!(db.lookup_read(b"k", 0).unwrap().as_string_bytes(), b"v");
        assert!(db.delete(b"k"));
        assert!(!db.delete(b"k"));
        assert!(db.lookup_read(b"k", 0).is_none());
        assert_eq!(db.stats_hit_miss(), (1, 1));
    }

    #[test]
    fn lazy_expiration_on_read() {
        let mut db = Db::new();
        db.set(b"k", obj("v"));
        assert!(db.set_expire(b"k", 100));
        assert!(db.lookup_read(b"k", 99).is_some());
        assert!(db.lookup_read(b"k", 100).is_none(), "expires at deadline");
        assert_eq!(db.len(), 0, "reaped lazily");
        assert_eq!(db.stat_expired(), 1);
    }

    #[test]
    fn set_clears_ttl_but_keep_ttl_does_not() {
        let mut db = Db::new();
        db.set(b"k", obj("v1"));
        db.set_expire(b"k", 500);
        db.set(b"k", obj("v2"));
        assert_eq!(db.ttl_ms(b"k", 0), Some(None), "SET clears TTL");

        db.set_expire(b"k", 500);
        db.set_keep_ttl(b"k", obj("v3"));
        assert_eq!(db.ttl_ms(b"k", 100), Some(Some(400)));
    }

    #[test]
    fn keyspace_entry_stays_40_bytes() {
        // A boxed key and a 24-byte `RObj`; a bucket's first push reserves
        // four of these.
        assert_eq!(std::mem::size_of::<crate::dict::Entry<RObj>>(), 40);
    }

    #[test]
    fn set_string_clears_ttl_unless_asked_to_keep_it() {
        let mut db = Db::new();
        db.set(b"k", RObj::List(Box::default()));
        db.set_expire(b"k", 500);
        db.set_string(b"k", b"v1", true);
        assert_eq!(db.lookup_read(b"k", 0).unwrap().as_string_bytes(), b"v1");
        assert_eq!(db.ttl_ms(b"k", 100), Some(Some(400)), "KEEPTTL");
        db.set_string(b"k", b"42", false);
        assert!(matches!(db.lookup_read(b"k", 0), Some(RObj::Int(42))));
        assert_eq!(db.ttl_ms(b"k", 0), Some(None), "SET clears TTL");
        db.set_string(b"new", b"v", false);
        assert_eq!(db.len(), 2);
        assert_eq!(db.dirty(), 5);
    }

    #[test]
    fn ttl_reporting() {
        let mut db = Db::new();
        assert_eq!(db.ttl_ms(b"missing", 0), None);
        db.set(b"k", obj("v"));
        assert_eq!(db.ttl_ms(b"k", 0), Some(None));
        db.set_expire(b"k", 1500);
        assert_eq!(db.ttl_ms(b"k", 1000), Some(Some(500)));
        // After expiry the key is gone entirely.
        assert_eq!(db.ttl_ms(b"k", 2000), None);
    }

    #[test]
    fn persist_removes_ttl() {
        let mut db = Db::new();
        db.set(b"k", obj("v"));
        assert!(!db.persist(b"k"), "no TTL to remove");
        db.set_expire(b"k", 100);
        assert!(db.persist(b"k"));
        assert!(db.lookup_read(b"k", 1000).is_some(), "survives deadline");
    }

    #[test]
    fn expire_on_missing_key_fails() {
        let mut db = Db::new();
        assert!(!db.set_expire(b"nope", 100));
    }

    #[test]
    fn active_cycle_reaps_dead_keys() {
        let mut db = Db::new();
        for i in 0..100 {
            let k = format!("k{i}");
            db.set(k.as_bytes(), obj("v"));
            db.set_expire(k.as_bytes(), if i < 50 { 10 } else { 10_000 });
        }
        let mut state = 99u64;
        let mut rand = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Use high bits: an LCG's low bits cycle too regularly to sample with.
            (state >> 16) % n.max(1)
        };
        let mut total = 0;
        for _ in 0..100 {
            total += db.active_expire_cycle(1000, 20, &mut rand);
        }
        assert_eq!(total, 50, "all dead keys eventually reaped");
        assert_eq!(db.len(), 50);
    }

    #[test]
    fn flush_empties() {
        let mut db = Db::new();
        for i in 0..10 {
            db.set(format!("k{i}").as_bytes(), obj("v"));
        }
        db.flush();
        assert!(db.is_empty());
    }

    #[test]
    fn dirty_counts_mutations() {
        let mut db = Db::new();
        let d0 = db.dirty();
        db.set(b"a", obj("1"));
        db.set(b"b", obj("2"));
        db.delete(b"a");
        assert_eq!(db.dirty() - d0, 3);
        db.delete(b"missing"); // no-op: not dirty
        assert_eq!(db.dirty() - d0, 3);
    }
}
