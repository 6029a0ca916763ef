//! SoC-resident hot-key GET cache (mechanism) behind a pluggable
//! admission/eviction policy plane.
//!
//! The paper's Figure 13 only shows Nic-KV GET *parity* with the host
//! path: every GET still crosses from the SoC to the host core and back.
//! This module is the mechanism half of beating that — the Nic-KV keeps
//! the hottest keys' encoded GET replies in SoC memory (refcounted
//! [`Frame`]s, so serving a hit is a refcount bump) under a hard byte
//! budget, and answers hits without ever waking the host.
//!
//! Design (ported from the kernel-boundary hot-key caches in the related
//! repos — CMS hotness tracking, admission policies, version-based
//! invalidation, hard memory budgets):
//!
//! * **Hotness** — a Count-Min-Sketch ([`CountMinSketch`]) with periodic
//!   count-halving decay approximates per-key GET frequency in O(width ×
//!   depth) bytes, no matter how large the keyspace. The NIC records
//!   every GET it proxies; the sketch is what lets TinyLFU-style
//!   admission compare a candidate against a victim without per-key
//!   state.
//! * **Policy** — [`CachePolicy`] decides *admission* (should this
//!   freshly-fetched reply displace the eviction victim?). [`LruPolicy`]
//!   always admits (classic LRU cache); [`TinyLfuPolicy`] admits only
//!   when the sketch says the candidate is hotter than the victim, which
//!   protects the working set from scan pollution. Eviction order is
//!   recency for both (the policy plane sweeps admission — the paper's
//!   ablation axis — while the mechanism keeps one intrusive LRU list).
//! * **Versioning** — every entry records the master's replication
//!   offset (`version`) current when the reply was produced. The
//!   invalidation seam ([`HotCache::apply_write`]) sees every
//!   replicated write *before* fan-out and drops/refreshes the entries
//!   of its keys — which arguments those are comes from the command
//!   table, not from this module — so a hit can never be older than the
//!   last write the NIC has seen on the stream.
//! * **No TTL'd entries** — expiry is *not* replicated (slaves expire
//!   independently), so a cached value under a TTL could silently die on
//!   the host with no stream traffic. The host owns expiry, so the host
//!   vetoes: a forwarded read of a key that carries one comes back with
//!   [`FWD_NO_ADMIT`] set and is never offered to [`HotCache::admit`];
//!   every command that *sets or moves* a TTL is a replicated write and
//!   has already invalidated its keys. The cache keeps no record of
//!   which keys or commands involve TTLs, so nothing is lost when the
//!   SoC restarts.
//!
//! Counters are exported as `cache.{hits,misses,admits,evicts,
//! invalidations,bytes}` (see `metrics::catalog::CACHE_COUNTERS`).

use skv_netsim::DetMap;
use skv_simcore::Frame;
use skv_store::cmd::{CommandSpec, Route};
use skv_store::resp;

/// Byte overhead charged per cache entry on top of the stored reply
/// frame: key copy, slot bookkeeping, LRU links. Keeps the budget honest
/// for small values without modelling the allocator.
pub const ENTRY_OVERHEAD: usize = 64;

// ===========================================================================
// Count-Min-Sketch hotness tracker
// ===========================================================================

/// Width (counters per row) of the sketch. 1024 four-row 8-bit counters
/// track a 10k-key Zipf working set with collision error well under the
/// hot/cold frequency gap the admission decision cares about.
const CMS_WIDTH: usize = 1024;
/// Rows (independent hash functions).
const CMS_DEPTH: usize = 4;
/// Decay (halve every counter) after this many recorded touches — the
/// "decaying window" that lets a shifted hot set displace the old one.
const CMS_DECAY_EVERY: u64 = 16 * CMS_WIDTH as u64;

/// A Count-Min-Sketch over key bytes with count-halving decay.
///
/// Deterministic by construction: row hashes are FNV-1a variants seeded
/// with fixed odd constants, and decay triggers on touch *counts*, not
/// time — the same key stream always produces the same sketch.
pub struct CountMinSketch {
    rows: Vec<Vec<u8>>,
    touches: u64,
    decays: u64,
}

impl CountMinSketch {
    /// An empty sketch at the fixed width/depth.
    pub fn new() -> Self {
        CountMinSketch {
            rows: vec![vec![0u8; CMS_WIDTH]; CMS_DEPTH],
            touches: 0,
            decays: 0,
        }
    }

    #[allow(clippy::cast_possible_truncation)] // reduced mod CMS_WIDTH first
    fn bucket(row: usize, key: &[u8]) -> usize {
        // FNV-1a with a per-row seed; rows stay independent because the
        // seed lands before any key byte is folded in.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(row as u64 + 1));
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % CMS_WIDTH as u64) as usize
    }

    /// Record one touch of `key`, decaying the whole sketch when the
    /// window fills.
    pub fn touch(&mut self, key: &[u8]) {
        for row in 0..CMS_DEPTH {
            let b = Self::bucket(row, key);
            let c = &mut self.rows[row][b];
            *c = c.saturating_add(1);
        }
        self.touches += 1;
        if self.touches.is_multiple_of(CMS_DECAY_EVERY) {
            for row in &mut self.rows {
                for c in row.iter_mut() {
                    *c >>= 1;
                }
            }
            self.decays += 1;
        }
    }

    /// Estimated touch count of `key` (upper bound; min over rows).
    pub fn estimate(&self, key: &[u8]) -> u32 {
        let mut min = u8::MAX;
        for row in 0..CMS_DEPTH {
            let c = self.rows[row][Self::bucket(row, key)];
            min = min.min(c);
        }
        u32::from(min)
    }

    /// How many count-halving decays have run (test observability).
    pub fn decays(&self) -> u64 {
        self.decays
    }

    /// Forget everything (SoC crash → cold sketch).
    pub fn clear(&mut self) {
        for row in &mut self.rows {
            row.iter_mut().for_each(|c| *c = 0);
        }
        self.touches = 0;
        self.decays = 0;
    }
}

impl Default for CountMinSketch {
    fn default() -> Self {
        Self::new()
    }
}

// ===========================================================================
// Policy plane
// ===========================================================================

/// Which admission policy a cluster runs — the ablation axis. Parsed
/// from `ClusterConfig::hot_cache_policy` (see
/// [`CachePolicyKind::parse`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicyKind {
    /// Admit everything; evict by recency (classic LRU).
    Lru,
    /// TinyLFU-style: admit only when the sketch says the candidate is
    /// hotter than the eviction victim.
    TinyLfu,
}

impl CachePolicyKind {
    /// Every policy, for sweeps.
    pub const ALL: [CachePolicyKind; 2] = [CachePolicyKind::Lru, CachePolicyKind::TinyLfu];

    /// Parse a policy name from the config knob. `None` for unknown
    /// names — `ClusterConfig::validate` turns that into a typed error.
    pub fn parse(name: &str) -> Option<CachePolicyKind> {
        match name {
            "lru" => Some(CachePolicyKind::Lru),
            "tinylfu" => Some(CachePolicyKind::TinyLfu),
            _ => None,
        }
    }

    /// The knob spelling of this policy.
    pub fn label(self) -> &'static str {
        match self {
            CachePolicyKind::Lru => "lru",
            CachePolicyKind::TinyLfu => "tinylfu",
        }
    }
}

/// Admission decision plane. The mechanism (store, LRU order, budget,
/// invalidation) is fixed; the policy decides only whether a miss that
/// just completed earns a slot at the victim's expense.
pub trait CachePolicy {
    /// Should `candidate` be admitted when making room would evict
    /// `victim`? `victim` is `None` when the budget has free space.
    fn admit(&self, sketch: &CountMinSketch, candidate: &[u8], victim: Option<&[u8]>) -> bool;

    /// The kind this policy was built from (reporting).
    fn kind(&self) -> CachePolicyKind;
}

/// Always admit; pure recency cache.
pub struct LruPolicy;

impl CachePolicy for LruPolicy {
    fn admit(&self, _sketch: &CountMinSketch, _candidate: &[u8], _victim: Option<&[u8]>) -> bool {
        true
    }

    fn kind(&self) -> CachePolicyKind {
        CachePolicyKind::Lru
    }
}

/// TinyLFU-style admission: a candidate must out-score the victim in the
/// frequency sketch to displace it. With free space it always admits.
pub struct TinyLfuPolicy;

impl CachePolicy for TinyLfuPolicy {
    fn admit(&self, sketch: &CountMinSketch, candidate: &[u8], victim: Option<&[u8]>) -> bool {
        match victim {
            None => true,
            Some(v) => sketch.estimate(candidate) > sketch.estimate(v),
        }
    }

    fn kind(&self) -> CachePolicyKind {
        CachePolicyKind::TinyLfu
    }
}

/// Build the policy object for a parsed kind.
pub fn policy_for(kind: CachePolicyKind) -> Box<dyn CachePolicy> {
    match kind {
        CachePolicyKind::Lru => Box::new(LruPolicy),
        CachePolicyKind::TinyLfu => Box::new(TinyLfuPolicy),
    }
}

// ===========================================================================
// Counters
// ===========================================================================

/// Cache observability, exported as `cache.*` counters (catalogued in
/// `metrics::catalog::CACHE_COUNTERS`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// GETs answered straight from SoC memory.
    pub hits: u64,
    /// GETs that fell through to the host path.
    pub misses: u64,
    /// Replies admitted into the cache.
    pub admits: u64,
    /// Entries evicted to make room under the byte budget.
    pub evicts: u64,
    /// Entries dropped or refreshed by stream-driven invalidation.
    pub invalidations: u64,
}

// ===========================================================================
// Hot cache store
// ===========================================================================

/// Slot index sentinel for "no link".
const NIL: usize = usize::MAX;

struct Entry {
    key: Vec<u8>,
    /// Encoded RESP reply (`$N\r\n...\r\n`), refcounted — a hit clones
    /// the view, not the bytes.
    value: Frame,
    /// Master replication offset current when this reply was produced.
    version: u64,
    /// Bytes charged against the budget (value + overhead).
    charged: usize,
    prev: usize,
    next: usize,
}

/// The NIC-resident hot-key cache: keyed frame store under a hard byte
/// budget with an intrusive LRU list and a hotness sketch. All
/// operations are O(1) plus the map lookup.
pub struct HotCache {
    /// Hard byte budget (`ClusterConfig::hot_cache_bytes`).
    budget: usize,
    policy: Box<dyn CachePolicy>,
    sketch: CountMinSketch,
    map: DetMap<Vec<u8>, usize>,
    slots: Vec<Entry>,
    free: Vec<usize>,
    /// Most-recently-used slot.
    head: usize,
    /// Least-recently-used slot (eviction victim).
    tail: usize,
    /// Bytes currently charged.
    bytes: usize,
    /// Counter set.
    pub stats: CacheStats,
}

impl HotCache {
    /// An empty cache with `budget` bytes and the given policy.
    pub fn new(budget: usize, kind: CachePolicyKind) -> Self {
        HotCache {
            budget,
            policy: policy_for(kind),
            sketch: CountMinSketch::new(),
            map: DetMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            stats: CacheStats::default(),
        }
    }

    /// Bytes currently charged against the budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Record a GET touch in the hotness sketch (hit or miss — the
    /// sketch tracks demand, not residency).
    pub fn touch(&mut self, key: &[u8]) {
        self.sketch.touch(key);
    }

    /// Look up `key`, counting a hit or miss and refreshing recency on a
    /// hit. Returns the cached reply frame (cheap refcount clone).
    pub fn get(&mut self, key: &[u8]) -> Option<Frame> {
        match self.map.get(key).copied() {
            Some(slot) => {
                self.unlink(slot);
                self.link_front(slot);
                self.stats.hits += 1;
                Some(self.slots[slot].value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peek at a cached entry's version without touching recency or
    /// counters (tests, invariant checks).
    pub fn version_of(&self, key: &[u8]) -> Option<u64> {
        self.map.get(key).map(|&slot| self.slots[slot].version)
    }

    /// Offer a completed GET reply for admission. `version` is the
    /// master replication offset the NIC had processed when the reply
    /// was produced. Oversized values and policy-rejected candidates are
    /// not stored.
    pub fn admit(&mut self, key: &[u8], value: Frame, version: u64) -> bool {
        let charged = value.len() + ENTRY_OVERHEAD;
        if self.budget == 0 || charged > self.budget {
            return false;
        }
        if let Some(&slot) = self.map.get(key) {
            // Refresh in place (newer reply for a key already resident).
            self.bytes -= self.slots[slot].charged;
            self.bytes += charged;
            let e = &mut self.slots[slot];
            e.value = value;
            e.version = version;
            e.charged = charged;
            self.unlink(slot);
            self.link_front(slot);
            self.evict_to_fit();
            return true;
        }
        // Policy gate: compare against the current victim once; if
        // admitted, evict as many victims as the budget demands.
        if self.bytes + charged > self.budget {
            let victim = (self.tail != NIL).then(|| self.slots[self.tail].key.as_slice());
            if !self.policy.admit(&self.sketch, key, victim) {
                return false;
            }
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Entry {
                    key: key.to_vec(),
                    value,
                    version,
                    charged,
                    prev: NIL,
                    next: NIL,
                };
                s
            }
            None => {
                self.slots.push(Entry {
                    key: key.to_vec(),
                    value,
                    version,
                    charged,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key.to_vec(), slot);
        self.bytes += charged;
        self.link_front(slot);
        self.stats.admits += 1;
        self.evict_to_fit();
        true
    }

    /// Drop `key` (invalidation). Returns true when an entry died.
    pub fn invalidate(&mut self, key: &[u8]) -> bool {
        if let Some(slot) = self.map.remove(key) {
            self.unlink(slot);
            self.bytes -= self.slots[slot].charged;
            self.slots[slot].value = Frame::new();
            self.slots[slot].key.clear();
            self.free.push(slot);
            self.stats.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Refresh a resident entry in place from a replicated plain SET:
    /// the new value and the stream offset that carried it. A key that
    /// is not resident is left alone (no admission on writes — the
    /// sketch tracks GET demand only). Returns true when refreshed.
    pub fn refresh(&mut self, key: &[u8], value: Frame, version: u64) -> bool {
        let Some(&slot) = self.map.get(key) else {
            return false;
        };
        let charged = value.len() + ENTRY_OVERHEAD;
        if charged > self.budget {
            // Grown past the whole budget: drop instead.
            self.invalidate(key);
            return false;
        }
        self.bytes -= self.slots[slot].charged;
        self.bytes += charged;
        let e = &mut self.slots[slot];
        e.value = value;
        e.version = version;
        e.charged = charged;
        self.stats.invalidations += 1;
        self.evict_to_fit();
        true
    }

    /// The invalidation seam: one replicated write, as the command table
    /// describes it, whose stream frame ends at offset `version`. A
    /// keyspace-wide write empties the cache; the plain overwrite form
    /// (`SET k v`, `MSET`) refreshes each *resident* key in place with the
    /// value behind it — only then is the value copied into a reply frame
    /// of the cache's own; any other write invalidates exactly its keys.
    pub fn apply_write(&mut self, spec: &CommandSpec, args: &[&[u8]], version: u64) {
        if spec.route == Route::EveryShard {
            self.clear();
        } else if spec.overwrites(args.len()) {
            for at in spec.key_positions(args.len()) {
                let (key, value) = (args[at], args[at + 1]);
                if self.version_of(key).is_some() {
                    let mut reply = Vec::with_capacity(value.len() + 16);
                    resp::write_bulk(&mut reply, value);
                    self.refresh(key, reply.into(), version);
                }
            }
        } else {
            for key in spec.keys(args) {
                self.invalidate(key);
            }
        }
    }

    /// Drop every entry and the sketch — the cold-cache state after an
    /// SoC crash, a lost master channel or a keyspace flush. Counters
    /// survive (they describe the run, not the cache).
    pub fn clear(&mut self) {
        self.map = DetMap::new();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.bytes = 0;
        self.sketch.clear();
    }

    fn evict_to_fit(&mut self) {
        while self.bytes > self.budget && self.tail != NIL {
            let victim = self.tail;
            let key = std::mem::take(&mut self.slots[victim].key);
            self.unlink(victim);
            self.map.remove(&key);
            self.bytes -= self.slots[victim].charged;
            self.slots[victim].value = Frame::new();
            self.free.push(victim);
            self.stats.evicts += 1;
        }
    }

    fn link_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    /// Keys in recency order, hottest first (test observability).
    pub fn keys_mru(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut at = self.head;
        while at != NIL {
            out.push(self.slots[at].key.clone());
            at = self.slots[at].next;
        }
        out
    }
}

// ---------------------------------------------------------------------------
// FWD_CMD cookie framing
// ---------------------------------------------------------------------------

/// Bits of a forward cookie carrying the per-boot epoch. A FWD_REPLY is
/// only answerable by the front-end *incarnation* that issued its
/// cookie: the SoC bumps the epoch on every cold rejoin, so a reply to a
/// cookie minted before a crash can never resolve a pending forward
/// issued after it — without the epoch, a rejoined front end restarting
/// its sequence at 1 would hand stale host replies to fresh clients.
pub const FWD_EPOCH_BITS: u32 = 16;

/// The cookie bit just below the epoch belongs to the *host*: the SoC
/// always sends it clear, and the master sets it in the cookie it echoes
/// when the reply must not be admitted into the hot cache (the key carries
/// a TTL, whose expiry the replication stream will never announce).
pub const FWD_NO_ADMIT: u64 = 1 << (63 - FWD_EPOCH_BITS);

/// Pack a forward cookie from the front end's boot epoch and its
/// per-epoch sequence number. The sequence occupies the low 47 bits —
/// at millions of forwards per second that is years of headroom.
pub fn fwd_cookie(epoch: u64, seq: u64) -> u64 {
    (epoch << (64 - FWD_EPOCH_BITS)) | (seq & (FWD_NO_ADMIT - 1))
}

/// The epoch a cookie was minted under.
pub fn fwd_cookie_epoch(cookie: u64) -> u64 {
    cookie >> (64 - FWD_EPOCH_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> Frame {
        Frame::from_vec(vec![b'v'; n])
    }

    #[test]
    fn fwd_cookies_carry_the_boot_epoch() {
        for epoch in [0u64, 1, 7, (1 << FWD_EPOCH_BITS) - 1] {
            for seq in [0u64, 1, 42, FWD_NO_ADMIT - 1] {
                let c = fwd_cookie(epoch, seq);
                assert_eq!(fwd_cookie_epoch(c), epoch);
                assert_eq!(c & (FWD_NO_ADMIT - 1), seq);
                // The host's veto bit is never set by the SoC, and setting
                // it disturbs neither field.
                assert_eq!(c & FWD_NO_ADMIT, 0);
                assert_eq!(fwd_cookie_epoch(c | FWD_NO_ADMIT), epoch);
            }
        }
        // Equal sequence numbers from different boots never collide —
        // the property that makes stale FWD_REPLYs detectable.
        assert_ne!(fwd_cookie(0, 1), fwd_cookie(1, 1));
        // Epoch 0 cookies are the bare sequence: the pre-epoch framing
        // is a strict subset, so old traces still parse.
        assert_eq!(fwd_cookie(0, 99), 99);
    }

    #[test]
    fn policy_names_parse() {
        assert_eq!(CachePolicyKind::parse("lru"), Some(CachePolicyKind::Lru));
        assert_eq!(
            CachePolicyKind::parse("tinylfu"),
            Some(CachePolicyKind::TinyLfu)
        );
        assert_eq!(CachePolicyKind::parse("arc"), None);
        for k in CachePolicyKind::ALL {
            assert_eq!(CachePolicyKind::parse(k.label()), Some(k));
        }
    }

    #[test]
    fn sketch_estimates_and_decays() {
        let mut s = CountMinSketch::new();
        for _ in 0..10 {
            s.touch(b"hot");
        }
        s.touch(b"cold");
        assert!(s.estimate(b"hot") >= 10);
        assert!(s.estimate(b"cold") >= 1);
        assert!(s.estimate(b"hot") > s.estimate(b"cold"));
        // Never-seen keys may collide but four rows keep them far below
        // the hot key's count.
        assert!(s.estimate(b"absent") < s.estimate(b"hot"));
        // Drive one decay window with a single filler key (its buckets
        // saturate; "hot"'s stay untouched modulo rare collisions) and
        // check "hot" roughly halved.
        let before = s.estimate(b"hot");
        for _ in 0..CMS_DECAY_EVERY {
            s.touch(b"filler");
        }
        assert!(s.decays() >= 1);
        assert!(s.estimate(b"hot") < before, "decay must shrink hot");
    }

    #[test]
    fn sketch_is_deterministic() {
        let mut a = CountMinSketch::new();
        let mut b = CountMinSketch::new();
        for i in 0..1000u32 {
            let k = format!("k{}", i % 37);
            a.touch(k.as_bytes());
            b.touch(k.as_bytes());
        }
        for i in 0..37u32 {
            let k = format!("k{i}");
            assert_eq!(a.estimate(k.as_bytes()), b.estimate(k.as_bytes()));
        }
    }

    #[test]
    fn hit_miss_and_recency() {
        let mut c = HotCache::new(10_000, CachePolicyKind::Lru);
        assert!(c.get(b"a").is_none());
        assert!(c.admit(b"a", frame(10), 1));
        assert!(c.admit(b"b", frame(10), 2));
        assert_eq!(c.get(b"a").map(|f| f.len()), Some(10));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        // `a` was touched last → MRU order is [a, b].
        assert_eq!(c.keys_mru(), vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn budget_evicts_lru_first() {
        // Budget fits exactly two 36-byte entries (100 B value charge).
        let budget = 2 * (36 + ENTRY_OVERHEAD);
        let mut c = HotCache::new(budget, CachePolicyKind::Lru);
        assert!(c.admit(b"a", frame(36), 1));
        assert!(c.admit(b"b", frame(36), 2));
        assert_eq!(c.bytes(), budget);
        // Touch `a` so `b` is the LRU victim.
        assert!(c.get(b"a").is_some());
        assert!(c.admit(b"c", frame(36), 3));
        assert_eq!(c.stats.evicts, 1);
        assert!(c.get(b"b").is_none(), "LRU victim must be b");
        assert!(c.get(b"a").is_some());
        assert!(c.get(b"c").is_some());
        assert!(c.bytes() <= budget);
    }

    #[test]
    fn oversized_and_zero_budget_never_admit() {
        let mut c = HotCache::new(100, CachePolicyKind::Lru);
        assert!(!c.admit(b"big", frame(200), 1));
        let mut z = HotCache::new(0, CachePolicyKind::Lru);
        assert!(!z.admit(b"any", frame(1), 1));
        assert_eq!(z.stats.admits, 0);
    }

    #[test]
    fn tinylfu_rejects_cold_candidates() {
        let budget = 36 + ENTRY_OVERHEAD; // exactly one entry
        let mut c = HotCache::new(budget, CachePolicyKind::TinyLfu);
        for _ in 0..8 {
            c.touch(b"hot");
        }
        c.touch(b"cold");
        assert!(c.admit(b"hot", frame(36), 1));
        // Cold candidate cannot displace the hot resident…
        assert!(!c.admit(b"cold", frame(36), 2));
        assert!(c.get(b"hot").is_some());
        // …but a hotter one can.
        for _ in 0..16 {
            c.touch(b"hotter");
        }
        assert!(c.admit(b"hotter", frame(36), 3));
        assert!(c.get(b"hot").is_none());
        assert!(c.get(b"hotter").is_some());
    }

    #[test]
    fn invalidate_and_refresh() {
        let mut c = HotCache::new(10_000, CachePolicyKind::Lru);
        assert!(c.admit(b"k", frame(8), 5));
        assert_eq!(c.version_of(b"k"), Some(5));
        // Refresh bumps version and swaps bytes in place.
        assert!(c.refresh(b"k", frame(12), 9));
        assert_eq!(c.version_of(b"k"), Some(9));
        assert_eq!(c.get(b"k").map(|f| f.len()), Some(12));
        // Refreshing a non-resident key is a no-op, not an admission.
        assert!(!c.refresh(b"other", frame(4), 10));
        assert!(c.version_of(b"other").is_none());
        // Invalidate kills the entry.
        assert!(c.invalidate(b"k"));
        assert!(!c.invalidate(b"k"));
        assert!(c.get(b"k").is_none());
        assert_eq!(c.bytes(), 0);
        assert!(c.stats.invalidations >= 2);
    }

    /// A cache holding `keys` (8-byte replies, version 1), and the seam
    /// fed one replicated write the way `NicKv` feeds it.
    fn holding(keys: &[&str]) -> HotCache {
        let mut c = HotCache::new(10_000, CachePolicyKind::Lru);
        for k in keys {
            assert!(c.admit(k.as_bytes(), frame(8), 1));
        }
        c
    }

    fn write(c: &mut HotCache, parts: &[&str], version: u64) {
        let args: Vec<&[u8]> = parts.iter().map(|p| p.as_bytes()).collect();
        let spec = skv_store::cmd::lookup(args[0]).expect("command in the table");
        c.apply_write(spec, &args, version);
    }

    fn resident(c: &HotCache) -> Vec<Vec<u8>> {
        let mut keys = c.keys_mru();
        keys.sort();
        keys
    }

    #[test]
    fn writes_invalidate_exactly_their_keys() {
        // Both keys of a two-key command: the destination inherits the
        // source's value *and TTL* on the host.
        for name in ["RENAME", "RENAMENX", "COPY"] {
            let mut c = holding(&["a", "b", "bystander"]);
            write(&mut c, &[name, "a", "b"], 9);
            assert_eq!(resident(&c), vec![b"bystander".to_vec()], "{name}");
        }
        // Keys only — never a value or an operator that happens to spell
        // a resident key.
        let mut c = holding(&["k", "v", "AND", "d", "a", "b"]);
        write(&mut c, &["APPEND", "k", "v"], 9);
        assert_eq!(c.version_of(b"k"), None);
        assert_eq!(c.version_of(b"v"), Some(1), "APPEND's value is no key");
        write(&mut c, &["BITOP", "AND", "d", "a", "b"], 10);
        assert_eq!(resident(&c), vec![b"AND".to_vec(), b"v".to_vec()]);
        assert_eq!(c.stats.invalidations, 4);
    }

    #[test]
    fn only_the_plain_overwrite_form_refreshes() {
        let mut c = holding(&["k", "m1", "m2"]);
        // Plain SET / MSET: resident entries take the new value at the
        // frame's end offset; absent keys are not admitted by a write.
        write(&mut c, &["SET", "k", "fresh"], 20);
        assert_eq!(c.version_of(b"k"), Some(20));
        assert_eq!(c.get(b"k").as_deref(), Some(b"$5\r\nfresh\r\n".as_slice()));
        write(&mut c, &["MSET", "m1", "x", "absent", "y", "m2", "zz"], 30);
        assert_eq!(c.version_of(b"m1"), Some(30));
        assert_eq!(c.get(b"m2").as_deref(), Some(b"$2\r\nzz\r\n".as_slice()));
        assert_eq!(c.version_of(b"absent"), None);
        write(&mut c, &["SET", "absent", "v"], 31);
        assert_eq!(c.version_of(b"absent"), None);
        // Any option makes the outcome the host's business (conditional,
        // or TTL-bearing): drop, never refresh.
        for tail in [&["EX", "5"][..], &["NX"], &["KEEPTTL"]] {
            let mut c = holding(&["k"]);
            let cmd = [&["SET", "k", "v"][..], tail].concat();
            write(&mut c, &cmd, 40);
            assert_eq!(c.version_of(b"k"), None, "{cmd:?}");
        }
        let mut c = holding(&["k"]);
        write(&mut c, &["SETEX", "k", "5", "v"], 41);
        assert_eq!(c.version_of(b"k"), None);
    }

    #[test]
    fn keyspace_wide_writes_clear() {
        for name in ["FLUSHALL", "FLUSHDB"] {
            let mut c = holding(&["a", "b"]);
            write(&mut c, &[name], 9);
            assert!(c.is_empty(), "{name}");
            assert_eq!(c.bytes(), 0);
        }
    }

    #[test]
    fn clear_goes_cold_but_keeps_counters() {
        let mut c = HotCache::new(10_000, CachePolicyKind::TinyLfu);
        c.touch(b"a");
        assert!(c.admit(b"a", frame(8), 1));
        let admits = c.stats.admits;
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.stats.admits, admits, "counters describe the run");
        assert!(c.get(b"a").is_none());
    }

    #[test]
    fn slot_reuse_after_invalidation() {
        let mut c = HotCache::new(10_000, CachePolicyKind::Lru);
        for i in 0..50u32 {
            let k = format!("k{i}");
            assert!(c.admit(k.as_bytes(), frame(8), u64::from(i)));
        }
        for i in 0..50u32 {
            let k = format!("k{i}");
            assert!(c.invalidate(k.as_bytes()));
        }
        for i in 50..100u32 {
            let k = format!("k{i}");
            assert!(c.admit(k.as_bytes(), frame(8), u64::from(i)));
        }
        // Slab never grew past the live population.
        assert!(c.slots.len() <= 50, "slots {} not reused", c.slots.len());
        assert_eq!(c.len(), 50);
    }
}
