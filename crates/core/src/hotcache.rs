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
//! * **Policy** — [`CachePolicyKind::admits`] decides *admission* (should
//!   this freshly-fetched reply displace the eviction victim?). `Lru`
//!   always admits (classic LRU cache); `TinyLfu` admits only
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
//!
//! [`SocFrontEnd`] is the SoC's command front end around the cache: it
//! answers a client command from the cache or turns it into a
//! cookie-framed forward, matches the host's replies back to their
//! clients, and keeps the cache coherent with the stream. Like
//! [`crate::replmode::Tracker`] it does no IO and charges no CPU — every
//! decision is a value the actor ([`crate::nickv::NicKv`]) carries out
//! (DESIGN.md §28).

use skv_netsim::DetMap;
use skv_simcore::{Frame, FramePool};
use skv_store::cmd::{CommandSpec, Route};
use skv_store::resp::{self, ParsedCommand};

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

    /// The admission decision. The mechanism (store, LRU order, budget,
    /// invalidation) is fixed; the policy decides only whether a miss that
    /// just completed earns a slot at `victim`'s expense (`None` when the
    /// budget has free space). LRU always admits; TinyLFU needs the
    /// candidate to out-score the victim in the frequency sketch.
    pub fn admits(self, sketch: &CountMinSketch, candidate: &[u8], victim: Option<&[u8]>) -> bool {
        match (self, victim) {
            (CachePolicyKind::TinyLfu, Some(v)) => sketch.estimate(candidate) > sketch.estimate(v),
            _ => true,
        }
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
    policy: CachePolicyKind,
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
    pub fn new(budget: usize, policy: CachePolicyKind) -> Self {
        HotCache {
            budget,
            policy,
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
            if !self.policy.admits(&self.sketch, key, victim) {
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

// ---------------------------------------------------------------------------
// The SoC command front end
// ---------------------------------------------------------------------------

/// One outstanding forwarded client command: where its reply goes, and —
/// when the command was a single-key GET — the key whose bulk reply is a
/// cache admission candidate.
struct FwdCtx {
    conn: usize,
    key: Option<Vec<u8>>,
}

/// What the front end does with one client command.
#[derive(Debug, PartialEq, Eq)]
pub enum Dispatch {
    /// A cached GET: this reply goes straight back to the client.
    Hit(Frame),
    /// Everything else: `frame` (the cookie, then the command) goes to the
    /// master as a `FWD_CMD`.
    Forward {
        /// Names the forward until its reply, or [`SocFrontEnd::unforward`].
        cookie: u64,
        /// The cookie-framed command, built in the front end's send ring.
        frame: Frame,
    },
}

/// The SoC's command front end: the hot cache (if the cluster runs one),
/// the cookies of the commands forwarded to the host, and who waits for
/// each. Connections are the caller's indices, carried and handed back.
pub struct SocFrontEnd {
    cache: Option<HotCache>,
    /// Cookie source for forwarded commands (low bits; back to 0 on every
    /// restart).
    seq: u64,
    /// SoC boot counter carried in every cookie's high bits, modulo
    /// `1 << FWD_EPOCH_BITS` — the one piece of state that survives a
    /// crash. A `FWD_REPLY` minted under another epoch never resolves a
    /// forward, so a cookie is fenced against the previous 65 535
    /// incarnations (and no host holds a reply through that many).
    epoch: u64,
    /// Outstanding forwarded commands by cookie.
    pending: DetMap<u64, FwdCtx>,
    /// Send-ring pool the cookie-framed `FWD_CMD`s are built in.
    pool: FramePool,
    /// Replies for forwarded commands dropped because their cookie carried
    /// a stale (pre-restart) epoch.
    pub stat_fwd_stale_drops: u64,
}

impl SocFrontEnd {
    /// A front end at boot epoch 0, with `cache` or without one.
    pub fn new(cache: Option<HotCache>) -> Self {
        SocFrontEnd {
            cache,
            seq: 0,
            epoch: 0,
            pending: DetMap::new(),
            // Same sizing as the host's send ring: a 4 KiB value + headers.
            pool: FramePool::new(4096 + 64, 256),
            stat_fwd_stale_drops: 0,
        }
    }

    /// The hot cache, when the cluster runs one.
    pub fn cache(&self) -> Option<&HotCache> {
        self.cache.as_ref()
    }

    /// One client command from `conn`. A single-key GET probes the hot
    /// cache, and a hit is answered from SoC memory — the host is never
    /// involved. Everything else (miss, write, multi-key) becomes a
    /// pending forward under a fresh cookie.
    pub fn on_client_cmd(&mut self, conn: usize, payload: &Frame) -> Dispatch {
        let get_key = match resp::parse_command(payload) {
            ParsedCommand::Command(args, _)
                // skv-lint: allow(cmd-drift) -- the cache's own contract (it stores GET's bulk reply), not an argument fact the table holds
                if args.len() == 2 && args[0].eq_ignore_ascii_case(b"GET") =>
            {
                Some(args[1])
            }
            _ => None,
        };
        if let (Some(key), Some(cache)) = (get_key, self.cache.as_mut()) {
            // The sketch tracks GET demand whether or not the key is
            // resident — admission needs hotness for misses too.
            cache.touch(key);
            if let Some(reply) = cache.get(key) {
                return Dispatch::Hit(reply);
            }
        }
        self.seq += 1;
        let cookie = fwd_cookie(self.epoch, self.seq);
        // The forward outlives this frame, so it keeps its own copy of the
        // key — the one allocation of the miss path.
        let key = get_key.map(<[u8]>::to_vec);
        self.pending.insert(cookie, FwdCtx { conn, key });
        let frame = self.pool.build(|fwd| {
            fwd.extend_from_slice(&cookie.to_le_bytes());
            fwd.extend_from_slice(payload);
        });
        Dispatch::Forward { cookie, frame }
    }

    /// A cookie-framed reply came back from the host: pop the pending
    /// forward, offer a successful bulk GET reply the host did not veto
    /// for admission, and return the waiting client's connection with the
    /// inner RESP reply. `None` for a reply nobody waits for: a stale
    /// epoch (counted), a duplicate, a forward already answered by error.
    /// `version` is the replication high-water the SoC has applied — every
    /// write the master acked before producing this reply travelled the
    /// same FIFO link ahead of it, so the entry is current as of it.
    pub fn on_fwd_reply(&mut self, payload: &Frame, version: u64) -> Option<(usize, Frame)> {
        let (header, _) = payload.split_first_chunk::<8>()?;
        // The host echoes the cookie with its veto bit set when the reply
        // must not be cached (the key carries a TTL).
        let echoed = u64::from_le_bytes(*header);
        let (cookie, admissible) = (echoed & !FWD_NO_ADMIT, echoed & FWD_NO_ADMIT == 0);
        if fwd_cookie_epoch(cookie) != self.epoch {
            // Minted by a previous incarnation. Without the epoch a
            // post-restart sequence restarting at 1 would collide with
            // pre-crash cookies still in flight on the host, handing some
            // new client another command's reply.
            self.stat_fwd_stale_drops += 1;
            return None;
        }
        let fwd = self.pending.remove(&cookie)?;
        // The client gets a view of the delivery frame; the cache, when it
        // takes the value, gets a copy of its own (SoC memory, and it must
        // not pin the host's send ring for as long as the entry lives).
        let body = payload.slice(8..);
        if let (Some(key), Some(cache)) = (fwd.key.as_deref(), self.cache.as_mut()) {
            // Only a present bulk value the host did not veto is a
            // candidate; errors and null bulks (missing key) are not worth
            // a slot.
            if admissible && body.first() == Some(&b'$') && !body.starts_with(b"$-1") {
                cache.admit(key, Frame::copy_from_slice(&body), version);
            }
        }
        Some((fwd.conn, body))
    }

    /// One replicated write seen on the stream, its frame ending at
    /// `end_offset`: the cache drops or refreshes the write's keys
    /// ([`HotCache::apply_write`]) *before* the master's ack for that write
    /// can reach any client — stream frames precede cookie replies on the
    /// FIFO master link.
    pub fn on_stream_write(&mut self, spec: &CommandSpec, args: &[&[u8]], end_offset: u64) {
        if let Some(cache) = self.cache.as_mut() {
            cache.apply_write(spec, args, end_offset);
        }
    }

    /// The forward under `cookie` could not be sent: forget it and name
    /// the connection owed an error (`None`: already answered).
    pub fn unforward(&mut self, cookie: u64) -> Option<usize> {
        self.pending.remove(&cookie).map(|fwd| fwd.conn)
    }

    /// The link to the master died. Cached entries can no longer be kept
    /// coherent — a failover master may lag the stream they were versioned
    /// against — so the cache goes cold. No pending forward will see its
    /// cookie reply: each connection returned is owed an error, so
    /// closed-loop clients keep running.
    pub fn master_lost(&mut self) -> Vec<usize> {
        if let Some(cache) = self.cache.as_mut() {
            cache.clear();
        }
        let owed = self.pending.values().map(|fwd| fwd.conn).collect();
        self.pending.clear();
        owed
    }

    /// The SoC restarted: a new process has no cookies to answer and
    /// rejoins with a *cold* cache. Only the boot counter carries over,
    /// and it fences every cookie minted before.
    pub fn restart(&mut self) {
        if let Some(cache) = self.cache.as_mut() {
            cache.clear();
        }
        self.seq = 0;
        self.epoch = (self.epoch + 1) % (1 << FWD_EPOCH_BITS);
        self.pending = DetMap::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

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

    // -- SocFrontEnd: one test per row of its decision table (DESIGN.md §28) --

    fn front_end() -> SocFrontEnd {
        SocFrontEnd::new(Some(HotCache::new(10_000, CachePolicyKind::Lru)))
    }

    fn command(parts: &[&str]) -> Frame {
        resp::Resp::command(parts.iter().map(|p| p.as_bytes()))
            .encode()
            .into()
    }

    /// `conn` sends `parts`; the forward it must become, as `(cookie, frame)`.
    fn forward(fe: &mut SocFrontEnd, conn: usize, parts: &[&str]) -> (u64, Frame) {
        let payload = command(parts);
        match fe.on_client_cmd(conn, &payload) {
            Dispatch::Forward { cookie, frame } => {
                assert_eq!(frame[..8], cookie.to_le_bytes());
                assert_eq!(frame[8..], payload[..], "the command rides unchanged");
                (cookie, frame)
            }
            Dispatch::Hit(reply) => panic!("{parts:?} hit {reply:?}"),
        }
    }

    /// The host's `FWD_REPLY` to the forward under `echoed`.
    fn fwd_reply(echoed: u64, body: &[u8]) -> Frame {
        [&echoed.to_le_bytes(), body].concat().into()
    }

    const BULK: &[u8] = b"$1\r\nv\r\n";

    #[test]
    fn a_resident_get_is_a_hit_and_leaves_nothing_pending() {
        let mut fe = front_end();
        let (cookie, _) = forward(&mut fe, 3, &["GET", "k"]);
        assert!(fe.on_fwd_reply(&fwd_reply(cookie, BULK), 7).is_some());
        let hit = fe.on_client_cmd(4, &command(&["get", "k"]));
        assert_eq!(hit, Dispatch::Hit(BULK.into()));
        assert!(fe.master_lost().is_empty(), "a hit forwards nothing");
        let stats = fe.cache().expect("cache on").stats;
        assert_eq!((stats.hits, stats.misses, stats.admits), (1, 1, 1));
    }

    #[test]
    fn a_missed_get_is_forwarded_under_a_fresh_cookie() {
        let mut fe = front_end();
        let (first, _) = forward(&mut fe, 3, &["GET", "k"]);
        let (second, _) = forward(&mut fe, 3, &["GET", "k"]);
        assert_eq!((first, second), (fwd_cookie(0, 1), fwd_cookie(0, 2)));
        assert_eq!(fe.cache().expect("cache on").stats.misses, 2);
        // Cache off, every command is a forward and nothing is counted.
        let mut off = SocFrontEnd::new(None);
        let (cookie, _) = forward(&mut off, 3, &["GET", "k"]);
        assert_eq!(
            off.on_fwd_reply(&fwd_reply(cookie, BULK), 7),
            Some((3, BULK.into()))
        );
        forward(&mut off, 3, &["GET", "k"]);
    }

    #[test]
    fn anything_but_a_single_key_get_is_forwarded_unprobed() {
        let mut fe = front_end();
        let (cookie, _) = forward(&mut fe, 3, &["GET", "k"]);
        fe.on_fwd_reply(&fwd_reply(cookie, BULK), 7);
        for parts in [
            &["SET", "k", "v"][..],
            &["MGET", "k"],
            &["GET", "k", "x"],
            &["GET"],
        ] {
            let (cookie, _) = forward(&mut fe, 3, parts);
            // Its reply is relayed, and no key of it is an admission candidate.
            assert_eq!(
                fe.on_fwd_reply(&fwd_reply(cookie, BULK), 8),
                Some((3, BULK.into()))
            );
        }
        // Not a command at all: the host's parser answers it.
        forward(&mut fe, 3, &[]);
        let stats = fe.cache().expect("cache on").stats;
        assert_eq!((stats.hits, stats.misses, stats.admits), (0, 1, 1));
    }

    #[test]
    fn a_bulk_reply_is_admitted_at_the_version_it_came_with() {
        let mut fe = front_end();
        let (cookie, _) = forward(&mut fe, 3, &["GET", "k"]);
        assert_eq!(
            fe.on_fwd_reply(&fwd_reply(cookie, BULK), 41),
            Some((3, BULK.into()))
        );
        assert_eq!(fe.cache().expect("cache on").version_of(b"k"), Some(41));
    }

    #[test]
    fn a_vetoed_null_or_error_reply_is_relayed_but_not_admitted() {
        let mut fe = front_end();
        let rows: [(u64, &[u8]); 3] = [
            (FWD_NO_ADMIT, BULK),
            (0, b"$-1\r\n"),
            (0, b"-WRONGTYPE not a string\r\n"),
        ];
        for (veto, body) in rows {
            let (cookie, _) = forward(&mut fe, 3, &["GET", "k"]);
            let relayed = fe.on_fwd_reply(&fwd_reply(cookie | veto, body), 7);
            assert_eq!(relayed, Some((3, body.into())));
            assert!(fe.cache().expect("cache on").is_empty(), "{body:?}");
        }
    }

    #[test]
    fn a_duplicate_or_malformed_reply_answers_nobody() {
        let mut fe = front_end();
        let (cookie, _) = forward(&mut fe, 3, &["GET", "k"]);
        let reply = fwd_reply(cookie, BULK);
        assert!(fe.on_fwd_reply(&reply, 7).is_some());
        assert_eq!(fe.on_fwd_reply(&reply, 7), None, "duplicate");
        assert_eq!(
            fe.on_fwd_reply(&fwd_reply(fwd_cookie(0, 99), BULK), 7),
            None,
            "never issued"
        );
        assert_eq!(
            fe.on_fwd_reply(&Frame::from_vec(vec![1, 2, 3]), 7),
            None,
            "no cookie"
        );
        assert_eq!(fe.stat_fwd_stale_drops, 0);
    }

    #[test]
    fn a_reply_from_before_a_restart_is_dropped_and_counted() {
        let mut fe = front_end();
        let (old, _) = forward(&mut fe, 3, &["GET", "k"]);
        fe.restart();
        // The new incarnation's first cookie has the old one's sequence
        // number; only the epoch tells them apart.
        let (new, _) = forward(&mut fe, 5, &["GET", "other"]);
        assert_eq!((old, new), (fwd_cookie(0, 1), fwd_cookie(1, 1)));
        assert_eq!(
            fe.on_fwd_reply(&fwd_reply(old | FWD_NO_ADMIT, BULK), 7),
            None
        );
        assert_eq!(fe.on_fwd_reply(&fwd_reply(old, BULK), 7), None);
        assert_eq!(fe.stat_fwd_stale_drops, 2);
        assert_eq!(
            fe.on_fwd_reply(&fwd_reply(new, BULK), 7),
            Some((5, BULK.into()))
        );
    }

    #[test]
    fn an_unsent_forward_is_forgotten_once() {
        let mut fe = front_end();
        let (cookie, _) = forward(&mut fe, 3, &["GET", "k"]);
        assert_eq!(fe.unforward(cookie), Some(3));
        assert_eq!(fe.unforward(cookie), None);
        assert_eq!(fe.on_fwd_reply(&fwd_reply(cookie, BULK), 7), None);
        assert!(fe.cache().expect("cache on").is_empty());
    }

    #[test]
    fn a_lost_master_owes_each_pending_conn_one_error_and_a_cold_cache() {
        let mut fe = front_end();
        let (cookie, _) = forward(&mut fe, 3, &["GET", "k"]);
        fe.on_fwd_reply(&fwd_reply(cookie, BULK), 7);
        let (answered, _) = forward(&mut fe, 4, &["GET", "other"]);
        let pending = [
            forward(&mut fe, 5, &["SET", "a", "b"]),
            forward(&mut fe, 6, &["GET", "z"]),
        ];
        fe.on_fwd_reply(&fwd_reply(answered, BULK), 7);
        assert_eq!(fe.master_lost(), vec![5, 6]);
        assert_eq!(fe.master_lost(), Vec::<usize>::new(), "once");
        assert!(fe.cache().expect("cache on").is_empty());
        for (cookie, _) in pending {
            assert_eq!(
                fe.on_fwd_reply(&fwd_reply(cookie, BULK), 9),
                None,
                "answered by error"
            );
        }
        // Cold, not off: the next reply is admitted again.
        let (cookie, _) = forward(&mut fe, 3, &["GET", "k"]);
        fe.on_fwd_reply(&fwd_reply(cookie, BULK), 9);
        assert_eq!(
            fe.on_client_cmd(3, &command(&["GET", "k"])),
            Dispatch::Hit(BULK.into())
        );
    }

    #[test]
    fn a_stream_write_reaches_the_cache_before_the_next_probe() {
        let mut fe = front_end();
        let (cookie, _) = forward(&mut fe, 3, &["GET", "k"]);
        fe.on_fwd_reply(&fwd_reply(cookie, BULK), 7);
        let write = |fe: &mut SocFrontEnd, parts: &[&str], end| {
            let args: Vec<&[u8]> = parts.iter().map(|p| p.as_bytes()).collect();
            let spec = skv_store::cmd::lookup(args[0]).expect("command in the table");
            fe.on_stream_write(spec, &args, end);
        };
        write(&mut fe, &["SET", "k", "fresh"], 20);
        let fresh = Dispatch::Hit(b"$5\r\nfresh\r\n".into());
        assert_eq!(fe.on_client_cmd(3, &command(&["GET", "k"])), fresh);
        write(&mut fe, &["DEL", "k"], 30);
        forward(&mut fe, 3, &["GET", "k"]);
        // Cache off there is nothing to keep coherent.
        write(&mut SocFrontEnd::new(None), &["SET", "k", "v"], 20);
    }

    #[test]
    fn the_boot_epoch_wraps_inside_its_cookie_bits() {
        let mut fe = SocFrontEnd::new(None);
        for _ in 0..=(1u32 << FWD_EPOCH_BITS) {
            fe.restart();
        }
        // 65 537 restarts later the epoch is 1 again — and still the one
        // its own cookies carry, so their replies resolve. (Kept as a plain
        // counter it would read 65 537 against the cookie's 1, and every
        // forward would be dropped as stale for ever.)
        let (cookie, _) = forward(&mut fe, 3, &["GET", "k"]);
        assert_eq!(cookie, fwd_cookie(1, 1));
        assert_eq!(
            fe.on_fwd_reply(&fwd_reply(cookie, BULK), 7),
            Some((3, BULK.into()))
        );
        assert_eq!(fe.stat_fwd_stale_drops, 0);
    }

    /// What is in flight from the host to the SoC, in link order.
    enum Wire {
        /// A replicated write to `key`: `value` is its global write number
        /// (`None` = a DEL), the frame ends at `end_offset`.
        Stream {
            key: usize,
            value: Option<u64>,
            end_offset: u64,
        },
        /// The reply to forward `id`.
        Reply { id: usize, frame: Frame },
    }

    /// The front end between a model host and its clients. The host answers
    /// a forward the moment it is sent; what it sends back waits on `link`,
    /// a FIFO like the master channel (stream frames and replies in one
    /// order), until a step delivers it. Every forward gets a connection of
    /// its own, so the connection names the forward.
    struct World {
        fe: SocFrontEnd,
        /// The host's store: per key, the number of the write that set it.
        store: Vec<Option<u64>>,
        writes: u64,
        link: VecDeque<Wire>,
        /// Replies already delivered, or cut off by a loss: any may turn up
        /// again, late.
        late: Vec<(usize, Frame)>,
        /// Per forward: the incarnation that issued it, and whether the
        /// client has its answer.
        forwards: Vec<(u32, bool)>,
        incarnation: u32,
        /// Per key, the newest stream write the SoC was shown, as
        /// `(write number, it left a value)`.
        shown: Vec<(u64, bool)>,
        high_water: u64,
    }

    const KEYS: usize = 4;
    /// The host vetoes admission of this key (it carries a TTL there).
    const MORTAL: usize = 3;

    impl World {
        fn new() -> World {
            World {
                fe: front_end(),
                store: vec![Some(0); KEYS],
                writes: 0,
                link: VecDeque::new(),
                late: Vec::new(),
                forwards: Vec::new(),
                incarnation: 0,
                shown: vec![(0, true); KEYS],
                high_water: 0,
            }
        }

        /// The client behind forward `id` gets its one answer.
        fn answer(&mut self, id: usize) {
            let (incarnation, answered) = &mut self.forwards[id];
            assert!(!*answered, "forward {id} answered twice");
            assert_eq!(
                *incarnation, self.incarnation,
                "forward {id} outlived a restart"
            );
            *answered = true;
        }

        /// The host executes a write to `key` and streams it.
        fn host_write(&mut self, key: usize, set: bool) {
            self.writes += 1;
            self.store[key] = set.then_some(self.writes);
            let (value, end_offset) = (self.store[key], self.writes * 40);
            self.link.push_back(Wire::Stream {
                key,
                value,
                end_offset,
            });
        }

        /// A client sends `GET key`, or a write to it.
        fn client(&mut self, key: usize, write: Option<bool>, master_up: bool) {
            let name = format!("k{key}");
            let payload = match write {
                None => command(&["GET", &name]),
                Some(true) => command(&["SET", &name, "x"]),
                Some(false) => command(&["DEL", &name]),
            };
            let id = self.forwards.len();
            let cookie = match self.fe.on_client_cmd(id, &payload) {
                Dispatch::Hit(reply) => {
                    assert!(write.is_none(), "only a GET is probed");
                    assert_ne!(key, MORTAL, "a vetoed key was resident");
                    let digits =
                        &reply[reply.iter().position(|b| *b == b'\n').expect("bulk") + 1..];
                    let value: u64 = std::str::from_utf8(&digits[..digits.len() - 2])
                        .expect("digits")
                        .parse()
                        .expect("a write number");
                    let (shown, left_value) = self.shown[key];
                    assert!(
                        value > shown || (value == shown && left_value),
                        "k{key}: hit on write {value}, stream already showed write {shown}"
                    );
                    return;
                }
                Dispatch::Forward { cookie, .. } => cookie,
            };
            self.forwards.push((self.incarnation, false));
            if !master_up {
                assert_eq!(self.fe.unforward(cookie), Some(id));
                return self.answer(id);
            }
            if let Some(set) = write {
                self.host_write(key, set);
            }
            let body = match (write, self.store[key]) {
                (Some(_), _) => b"+OK\r\n".to_vec(),
                (None, None) => b"$-1\r\n".to_vec(),
                (None, Some(n)) => format!("${}\r\n{n}\r\n", n.to_string().len()).into_bytes(),
            };
            let veto = if key == MORTAL { FWD_NO_ADMIT } else { 0 };
            let frame = fwd_reply(cookie | veto, &body);
            self.link.push_back(Wire::Reply { id, frame });
        }

        fn deliver_reply(&mut self, id: usize, frame: &Frame) {
            if let Some((conn, _)) = self.fe.on_fwd_reply(frame, self.high_water) {
                assert_eq!(conn, id, "a reply resolved another command's forward");
                self.answer(id);
            }
        }

        fn deliver_next(&mut self) {
            match self.link.pop_front() {
                Some(Wire::Stream {
                    key,
                    value,
                    end_offset,
                }) => {
                    let name = format!("k{key}");
                    let number = value.map(|n| n.to_string()).unwrap_or_default();
                    let parts: Vec<&[u8]> = match value {
                        Some(_) => vec![b"SET", name.as_bytes(), number.as_bytes()],
                        None => vec![b"DEL", name.as_bytes()],
                    };
                    let spec = skv_store::cmd::lookup(parts[0]).expect("in the table");
                    self.fe.on_stream_write(spec, &parts, end_offset);
                    self.shown[key] = (end_offset / 40, value.is_some());
                    self.high_water = end_offset;
                }
                Some(Wire::Reply { id, frame }) => {
                    self.deliver_reply(id, &frame);
                    self.late.push((id, frame));
                }
                None => {}
            }
        }

        /// The link is cut, and the cache with it went cold: replies on it
        /// may still surface from some queue, late; its stream frames are
        /// gone, and nothing older than them may be served afterwards.
        fn cut_link(&mut self) {
            for wire in std::mem::take(&mut self.link) {
                match wire {
                    Wire::Reply { id, frame } => self.late.push((id, frame)),
                    Wire::Stream {
                        key,
                        value,
                        end_offset,
                    } => {
                        self.shown[key] = (end_offset / 40, value.is_some());
                    }
                }
            }
        }

        fn step(&mut self, (kind, a, b): (u8, u8, u8)) {
            let (key, at) = (a as usize % KEYS, a as usize);
            match kind {
                0..=4 => self.client(key, None, b % 8 != 0),
                5 => self.client(key, Some(b % 3 != 0), b % 8 != 0),
                // A write from a client that dialled the host directly.
                6 => self.host_write(key, b % 3 != 0),
                7..=10 => self.deliver_next(),
                // Two neighbouring replies change places (never a reply and
                // a stream frame: the channel is FIFO, and §15.2 leans on it).
                11 if self.link.len() >= 2 => {
                    let i = at % (self.link.len() - 1);
                    if let (Wire::Reply { .. }, Wire::Reply { .. }) =
                        (&self.link[i], &self.link[i + 1])
                    {
                        self.link.swap(i, i + 1);
                    }
                }
                // A reply is lost.
                12 if !self.link.is_empty() => {
                    let i = at % self.link.len();
                    if matches!(self.link[i], Wire::Reply { .. }) {
                        self.link.remove(i);
                    }
                }
                // A reply seen before, or cut off, arrives (again).
                13 if !self.late.is_empty() => {
                    let (id, frame) = self.late[at % self.late.len()].clone();
                    self.deliver_reply(id, &frame);
                }
                14 => {
                    for conn in self.fe.master_lost() {
                        self.answer(conn);
                    }
                    self.cut_link();
                }
                15 => {
                    self.fe.restart();
                    self.incarnation += 1;
                    self.high_water = 0;
                    self.cut_link();
                }
                _ => {}
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Client commands, stream writes, replies (reordered among
        /// themselves, duplicated, dropped), master losses and restarts in
        /// any interleaving: (i) every forward is answered at most once,
        /// (ii) no reply minted before a restart resolves a forward issued
        /// after it — both in `World::answer` — and (iii) a hit never
        /// returns a value older than the last stream write shown for its
        /// key (`World::client`).
        #[test]
        fn any_interleaving_keeps_the_front_end_contract(
            steps in prop::collection::vec((0u8..16, any::<u8>(), any::<u8>()), 1..400),
        ) {
            let mut world = World::new();
            for step in steps {
                world.step(step);
            }
        }
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
