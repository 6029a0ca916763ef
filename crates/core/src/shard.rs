//! Keyspace sharding: hash-slot routing, the shard set a command executes
//! against, and the slave apply pipeline.
//!
//! The master's command path partitions the keyspace Redis-Cluster style
//! (CRC16 of the key → 16384 slots → contiguous slot ranges per shard,
//! see [`crate::protocol::key_hash_slot`]). [`ShardRouter`] turns a
//! parsed command into a [`RoutePlan`]: which shard executes it, or how a
//! multi-key command splits across shards — derived from the command
//! table's key spec and [`Route`] column, never from the command's name.
//! [`ShardSet`] is the host's command front end: it owns the per-shard
//! engines and carries a plan out — execute, split, merge — and is both
//! ends of a full sync (`save` / `load`). It does no IO and charges no
//! CPU: time comes in as `now_ms`, the primary shard and the hop count go
//! back to the actor ([`crate::server::KvServer`]), which charges them;
//! the same split as [`crate::replsink::ReplSink`] (DESIGN.md §28).
//! [`ApplyRing`] models the bounded SPSC ring between a sharded slave's
//! parse core and apply core — the backpressure that keeps the pipeline
//! honest.
//!
//! Everything here is pure bookkeeping over simulated time; with one
//! shard every plan degenerates to `Single(0)` and no caller behavior
//! changes.

use skv_simcore::{SimDuration, SimTime};
use std::collections::VecDeque;

use skv_store::cmd::{self, CommandSpec, Route};
use skv_store::db::Db;
use skv_store::engine::{Engine, ExecResult};
use skv_store::rdb::{self, RdbError};
use skv_store::resp::{Args, Resp};

use crate::protocol::{key_hash_slot, slot_shard};

/// CPU cost of handing a command fragment to another shard's queue
/// (deterministic inter-shard message passing: enqueue + wakeup). Charged
/// once per extra shard a cross-shard command touches; never drawn at one
/// shard, so the single-shard schedule is untouched. Fixed rather than a
/// config knob — it models a cache-line handoff, not a tunable.
pub const CROSS_SHARD_HOP: SimDuration = SimDuration::from_nanos(400);

/// Capacity of the slave apply pipeline's parse→apply ring.
pub const APPLY_RING_CAP: usize = 64;

/// How a command routes across the shard set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutePlan {
    /// The whole command executes on one shard (single-key commands,
    /// keyless commands, and multi-key commands whose keys all land on
    /// one shard).
    Single(usize),
    /// Execute on every shard and merge replies (FLUSHDB/FLUSHALL,
    /// DBSIZE, KEYS).
    Broadcast,
    /// MSET/MSETNX-style `key value` pairs: split the pair list by shard.
    SplitPairs,
    /// Per-key commands with integer replies summed across shards
    /// (DEL/UNLINK/EXISTS).
    SplitSum,
    /// MGET: per-key split, replies gathered back in original key order.
    SplitGather,
    /// A multi-key command this engine cannot split (RENAME, SMOVE,
    /// SINTERSTORE, …) whose keys span shards: rejected with the same
    /// error class Redis Cluster uses.
    CrossSlot,
}

/// Maps parsed commands to shards. Holds only the shard count; slots are
/// computed per key.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    num_shards: usize,
}

impl ShardRouter {
    /// A router over `num_shards` shards (0 is treated as 1).
    pub fn new(num_shards: usize) -> Self {
        ShardRouter {
            num_shards: num_shards.max(1),
        }
    }

    /// The shard count this router was built for.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard owning `key`.
    pub fn shard_of_key(&self, key: &[u8]) -> usize {
        slot_shard(key_hash_slot(key), self.num_shards)
    }

    /// Route one parsed command (borrowed `&[&[u8]]` arguments or an owned
    /// list): look its name up, then plan from its table entry. With one
    /// shard, always `Single(0)`.
    pub fn plan<A: AsRef<[u8]>>(&self, args: &[A]) -> RoutePlan {
        if self.num_shards <= 1 {
            return RoutePlan::Single(0);
        }
        let spec = args.first().and_then(|name| cmd::lookup(name.as_ref()));
        self.plan_spec(spec, args)
    }

    /// Route a command already resolved to its table entry (`None` = an
    /// unknown name, whose error reply shard 0 produces). The keys decide:
    /// none ⇒ shard 0, cohabiting ⇒ their shard, spanning ⇒ the split the
    /// entry's [`Route`] allows, `CrossSlot` if it allows none.
    pub(crate) fn plan_spec<A: AsRef<[u8]>>(
        &self,
        spec: Option<&CommandSpec>,
        args: &[A],
    ) -> RoutePlan {
        let Some(spec) = spec else {
            return RoutePlan::Single(0);
        };
        if spec.route == Route::EveryShard {
            return RoutePlan::Broadcast;
        }
        let mut shards = spec.keys(args).map(|key| self.shard_of_key(key));
        let Some(first) = shards.next() else {
            return RoutePlan::Single(0);
        };
        // A dangling key group (`MSET a 1 b`) must not split: no shard
        // would see the malformed whole. One shard gets it all, and the
        // handler's own error answers.
        let dangling = !(args.len() - spec.first_key).is_multiple_of(spec.key_step);
        if dangling || shards.all(|shard| shard == first) {
            return RoutePlan::Single(first);
        }
        match spec.route {
            Route::SplitPairs => RoutePlan::SplitPairs,
            Route::SplitSum => RoutePlan::SplitSum,
            Route::SplitGather => RoutePlan::SplitGather,
            Route::OneShard | Route::EveryShard => RoutePlan::CrossSlot,
        }
    }
}

/// The shard set: one [`Engine`] per shard behind one [`ShardRouter`], and
/// the two `shard.*` counters execution keeps. `engines[0]` is the whole
/// store at one shard and holds shard 0's slot range otherwise.
#[derive(Debug)]
pub struct ShardSet {
    engines: Vec<Engine>,
    router: ShardRouter,
    /// Commands executed per shard (`shard.ops`).
    ops: Vec<u64>,
    /// Cross-shard fragment handoffs (`shard.cross_msgs`).
    cross_msgs: u64,
}

/// A reply no engine produced.
fn answer(reply: Resp, is_write: bool) -> ExecResult {
    ExecResult {
        reply,
        dirty_delta: 0,
        is_write,
        bytes_touched: 0,
    }
}

impl ShardSet {
    /// `num_shards` empty shards (0 is treated as 1). Shard 0 keeps `seed`
    /// byte-for-byte; the others derive theirs from it, so no shared RNG
    /// draw order depends on the shard count.
    pub fn new(num_shards: usize, seed: u64) -> Self {
        let router = ShardRouter::new(num_shards);
        let engines = (0..router.num_shards())
            .map(|s| match s {
                0 => Engine::new(seed),
                _ => Engine::new(seed ^ (0x51AD_0000 + s as u64)),
            })
            .collect();
        ShardSet {
            engines,
            ops: vec![0; router.num_shards()],
            router,
            cross_msgs: 0,
        }
    }

    /// The shard count.
    pub fn num_shards(&self) -> usize {
        self.engines.len()
    }

    /// All shard engines, shard 0 first.
    pub fn engines(&self) -> &[Engine] {
        &self.engines
    }

    /// Commands executed per shard (the `shard.ops` counters).
    pub fn ops(&self) -> &[u64] {
        &self.ops
    }

    /// Cross-shard fragment handoffs performed (`shard.cross_msgs`).
    pub fn cross_msgs(&self) -> u64 {
        self.cross_msgs
    }

    /// Stable fingerprint of the full logical keyspace, merged across
    /// shards (equal to the single engine's digest at one shard).
    pub fn digest(&self) -> u64 {
        let engines: Vec<&Engine> = self.engines.iter().collect();
        Engine::keyspace_digest_merged(&engines)
    }

    /// One cron tick on every shard (expire cycle, rehash step).
    pub fn cron(&mut self, now_ms: u64) {
        for engine in &mut self.engines {
            engine.cron(now_ms);
        }
    }

    /// Execute a command at simulated time zero — for preloading data in
    /// tests, examples and benches *before* replication starts: nothing
    /// executed this way enters a backlog.
    pub fn preload(&mut self, parts: &[&str]) -> ExecResult {
        let args: Args<'_> = parts.iter().collect();
        let spec = args.first().and_then(|name| cmd::lookup(name));
        self.execute(0, spec, &args).0
    }

    /// Must the reply to this command stay out of the SoC's hot cache? It
    /// must when the command only read and a key of it carries an expiry.
    /// Expiry is not replicated and leaves no stream traffic, so the cache
    /// could never learn that an entry died on the host; the host owns
    /// expiry, so the host says so, and no TTL-bearing key is ever
    /// resident — set before the SoC booted, moved by `RENAME`, or met
    /// after a restart. `shard` executed the command, so it holds the key
    /// of any reply the SoC could admit (those answer single-key commands).
    pub fn vetoes_admission(
        &self,
        spec: Option<&CommandSpec>,
        args: &[&[u8]],
        shard: usize,
    ) -> bool {
        let db = self.engines[shard].db();
        spec.is_some_and(|spec| {
            !spec.is_write() && spec.keys(args).any(|k| db.expiry_of(k).is_some())
        })
    }

    /// The sending end of a full sync: the union of every shard as one
    /// canonical snapshot, and how many keys it holds.
    pub fn save(&self) -> (Vec<u8>, u64) {
        let dbs: Vec<&Db> = self.engines.iter().map(Engine::db).collect();
        let keys = dbs.iter().map(|db| db.len() as u64).sum();
        (rdb::save_union(&dbs), keys)
    }

    /// The receiving end: replace every shard's contents with `snapshot`,
    /// each key routed to its owning shard (a sharded replica's stores
    /// mirror the master's slot map), and return how many keys it held.
    /// A snapshot that fails validation leaves the contents as they were;
    /// either way the set stays usable, so the caller can rejoin.
    pub fn load(&mut self, snapshot: &[u8], seed: u64) -> Result<usize, RdbError> {
        let take = |e: &mut Engine| std::mem::take(e.db_mut());
        let mut dbs: Vec<Db> = self.engines.iter_mut().map(take).collect();
        let router = &self.router;
        let loaded = rdb::load_routed(&mut dbs, snapshot, seed, &|key| router.shard_of_key(key));
        for (e, db) in self.engines.iter_mut().zip(dbs) {
            *e.db_mut() = db;
        }
        loaded
    }

    /// Execute one command: route it to the owning shard, or split /
    /// broadcast a cross-shard command and merge the replies. `spec` is the
    /// caller's `cmd::lookup` of the name, shared with the planner and the
    /// engine. Returns the merged result, the primary shard (whose core
    /// pays the command cost) and the inter-shard hops taken (each costs
    /// [`CROSS_SHARD_HOP`]; zero unless the command actually crossed
    /// shards). With one shard this is exactly the single-engine call.
    pub fn execute(
        &mut self,
        now_ms: u64,
        spec: Option<&CommandSpec>,
        args: &[&[u8]],
    ) -> (ExecResult, usize, u64) {
        let plan = if self.engines.len() == 1 {
            RoutePlan::Single(0)
        } else {
            self.router.plan_spec(spec, args)
        };
        match (plan, spec) {
            (RoutePlan::Single(shard), _) => {
                self.ops[shard] += 1;
                let result = self.engines[shard].execute_resolved(now_ms, spec, args);
                (result, shard, 0)
            }
            (RoutePlan::Broadcast, _) => {
                // Replies merge by type: counts (DBSIZE) add up, listings
                // (KEYS) concatenate in shard order, anything else
                // (FLUSH*'s OK) is shard 0's.
                let mut merged: Option<ExecResult> = None;
                for shard in 0..self.engines.len() {
                    self.ops[shard] += 1;
                    let r = self.engines[shard].execute_resolved(now_ms, spec, args);
                    merged = Some(match merged {
                        None => r,
                        Some(mut acc) => {
                            acc.dirty_delta += r.dirty_delta;
                            acc.bytes_touched += r.bytes_touched;
                            match (&mut acc.reply, r.reply) {
                                (Resp::Int(sum), Resp::Int(n)) => *sum += n,
                                (Resp::Array(all), Resp::Array(more)) => all.extend(more),
                                _ => {}
                            }
                            acc
                        }
                    });
                }
                let hops = self.engines.len() as u64 - 1;
                self.cross_msgs += hops;
                let result = merged.unwrap_or_else(|| answer(Resp::ok(), true));
                (result, 0, hops)
            }
            // (Only a table entry's `Route` yields a split, so the `None`
            // half cannot happen; it answers like a refused span.)
            (RoutePlan::CrossSlot, _) | (_, None) => {
                let reply =
                    Resp::Error("CROSSSLOT Keys in request don't hash to the same slot".into());
                let first_key = spec.and_then(|spec| spec.keys(args).next());
                let shard = first_key.map_or(0, |k| self.router.shard_of_key(k));
                (answer(reply, false), shard, 0)
            }
            (split, Some(spec)) => self.execute_split(now_ms, spec, args, &split),
        }
    }

    /// A multi-key command whose keys span shards: each shard that owns a
    /// key runs the command name plus its own key groups (`key`, or `key
    /// value` for a pair command), in ascending shard order so the schedule
    /// is a pure function of the key set. The replies merge as `split`
    /// says: `OK`, an integer sum, or the per-key array gathered back in
    /// argument order.
    fn execute_split(
        &mut self,
        now_ms: u64,
        spec: &CommandSpec,
        args: &[&[u8]],
        split: &RoutePlan,
    ) -> (ExecResult, usize, u64) {
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.engines.len()];
        for at in spec.key_positions(args.len()) {
            per_shard[self.router.shard_of_key(args[at])].push(at);
        }
        let primary = spec.keys(args).next();
        let mut merged = answer(Resp::ok(), false);
        let mut sum = 0i64;
        let gather = *split == RoutePlan::SplitGather;
        let keys = spec.key_positions(args.len());
        let mut gathered = vec![Resp::NullBulk; if gather { keys.count() } else { 0 }];
        let mut touched = 0u64;
        let mut sub_args: Vec<&[u8]> = Vec::with_capacity(args.len());
        for (shard, owned) in per_shard.iter().enumerate() {
            if owned.is_empty() {
                continue;
            }
            touched += 1;
            self.ops[shard] += 1;
            sub_args.clear();
            sub_args.push(args[0]);
            for &at in owned {
                sub_args.extend_from_slice(&args[at..at + spec.key_step]);
            }
            let r = self.engines[shard].execute_resolved(now_ms, Some(spec), &sub_args);
            merged.dirty_delta += r.dirty_delta;
            merged.bytes_touched += r.bytes_touched;
            merged.is_write |= r.is_write;
            match r.reply {
                Resp::Int(n) => sum += n,
                Resp::Array(items) if gather => {
                    for (at, item) in owned.iter().zip(items) {
                        gathered[(at - spec.first_key) / spec.key_step] = item;
                    }
                }
                _ => {}
            }
        }
        if gather {
            merged.reply = Resp::Array(gathered);
        } else if *split == RoutePlan::SplitSum {
            merged.reply = Resp::Int(sum);
        }
        let hops = touched.saturating_sub(1);
        self.cross_msgs += hops;
        let shard = primary.map_or(0, |k| self.router.shard_of_key(k));
        (merged, shard, hops)
    }
}

/// Bounded SPSC ring between a sharded slave's parse stage (core 0) and
/// apply stage (core 1), in simulated time. The producer may not start
/// parsing a command until the ring has a free slot; a slot frees when
/// its apply finishes. `max_depth` records the deepest occupancy seen —
/// exported as the `shard.queue_depth` counter.
#[derive(Debug)]
pub struct ApplyRing {
    /// Finish times of in-flight applies, oldest first.
    in_flight: VecDeque<SimTime>,
    cap: usize,
    /// Deepest simultaneous occupancy observed.
    pub max_depth: usize,
}

impl ApplyRing {
    /// A ring holding at most `cap` parsed-but-unapplied commands.
    pub fn new(cap: usize) -> Self {
        ApplyRing {
            in_flight: VecDeque::with_capacity(cap.max(1)),
            cap: cap.max(1),
            max_depth: 0,
        }
    }

    /// Earliest time a new command may start parsing, given slots free as
    /// their applies finish. Returns `now` when a slot is already free;
    /// otherwise the oldest in-flight apply's finish time (backpressure).
    pub fn admit(&mut self, now: SimTime) -> SimTime {
        while self.in_flight.front().is_some_and(|&f| f <= now) {
            self.in_flight.pop_front();
        }
        if self.in_flight.len() < self.cap {
            now
        } else {
            // Full: the producer stalls until the head apply retires.
            self.in_flight.pop_front().unwrap_or(now).max(now)
        }
    }

    /// Record a newly admitted command's apply finish time.
    pub fn complete(&mut self, finish: SimTime) {
        self.in_flight.push_back(finish);
        self.max_depth = self.max_depth.max(self.in_flight.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<Vec<u8>> {
        parts.iter().map(|p| p.as_bytes().to_vec()).collect()
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(1);
        for cmd in [
            vec!["SET", "a", "1"],
            vec!["MSET", "a", "1", "b", "2"],
            vec!["FLUSHDB"],
            vec!["RENAME", "a", "b"],
            vec!["PING"],
        ] {
            assert_eq!(r.plan(&argv(&cmd)), RoutePlan::Single(0), "{cmd:?}");
        }
    }

    #[test]
    fn multi_shard_plans() {
        let r = ShardRouter::new(4);
        // Find two keys on different shards and two on the same shard.
        let a = b"key-a".to_vec();
        let mut other = None;
        let mut same = None;
        for i in 0..200u32 {
            let k = format!("key-{i}").into_bytes();
            if r.shard_of_key(&k) != r.shard_of_key(&a) {
                other.get_or_insert(k);
            } else if k != a {
                same.get_or_insert(k);
            }
        }
        let (other, same) = (other.unwrap(), same.unwrap());
        let s = |b: &[u8]| String::from_utf8_lossy(b).into_owned();

        assert_eq!(
            r.plan(&argv(&["SET", &s(&a), "1"])),
            RoutePlan::Single(r.shard_of_key(&a))
        );
        assert_eq!(r.plan(&argv(&["FLUSHALL"])), RoutePlan::Broadcast);
        assert_eq!(r.plan(&argv(&["dbsize"])), RoutePlan::Broadcast);
        assert_eq!(r.plan(&argv(&["KEYS", "*"])), RoutePlan::Broadcast);
        assert_eq!(r.plan(&argv(&["SCAN", "0"])), RoutePlan::Single(0));
        assert_eq!(
            r.plan(&argv(&["MSET", &s(&a), "1", &s(&other), "2"])),
            RoutePlan::SplitPairs
        );
        assert_eq!(
            r.plan(&argv(&["MSET", &s(&a), "1", &s(&same), "2"])),
            RoutePlan::Single(r.shard_of_key(&a)),
            "co-located MSET stays single-shard"
        );
        assert_eq!(
            r.plan(&argv(&["MGET", &s(&a), &s(&other)])),
            RoutePlan::SplitGather
        );
        assert_eq!(
            r.plan(&argv(&["DEL", &s(&a), &s(&other)])),
            RoutePlan::SplitSum
        );
        assert_eq!(
            r.plan(&argv(&["RENAME", &s(&a), &s(&other)])),
            RoutePlan::CrossSlot
        );
        assert_eq!(
            r.plan(&argv(&["RENAME", &s(&a), &s(&same)])),
            RoutePlan::Single(r.shard_of_key(&a))
        );
        // Hash tags pin a would-be span onto one shard.
        let tagged = [format!("{{t}}:{}", s(&a)), format!("{{t}}:{}", s(&other))];
        assert_eq!(
            r.plan(&argv(&["RENAME", &tagged[0], &tagged[1]])),
            RoutePlan::Single(r.shard_of_key(b"t"))
        );
    }

    #[test]
    fn forwarded_reads_of_ttl_bearing_keys_come_back_vetoed() {
        /// Would a forwarded `parts` be answered "do not admit", run the
        /// way `KvServer::run_command` runs it?
        fn vetoed(s: &mut ShardSet, parts: &[&str]) -> bool {
            let args: Vec<&[u8]> = parts.iter().map(|p| p.as_bytes()).collect();
            let spec = cmd::lookup(args[0]);
            let (_, shard, _) = s.execute(0, spec, &args);
            s.vetoes_admission(spec, &args, shard)
        }
        for shards in [1, 4] {
            let mut s = ShardSet::new(shards, 7);
            s.preload(&["SET", "plain", "v"]);
            s.preload(&["SET", "mortal", "v", "PX", "300"]);
            assert!(!vetoed(&mut s, &["GET", "plain"]));
            assert!(vetoed(&mut s, &["GET", "mortal"]));
            assert!(vetoed(&mut s, &["STRLEN", "mortal"]));
            // Keyless, unknown and absent: nothing to veto.
            assert!(!vetoed(&mut s, &["PING"]));
            assert!(!vetoed(&mut s, &["NOSUCHCMD", "mortal"]));
            assert!(!vetoed(&mut s, &["GET", "absent"]));
            // A write's keys are invalidated off its stream frame instead.
            assert!(!vetoed(&mut s, &["APPEND", "mortal", "x"]));
            // The TTL travels with RENAME on the host, and so does the veto;
            // PERSIST ends both.
            s.preload(&["RENAME", "mortal", "{mortal}2"]);
            assert!(vetoed(&mut s, &["GET", "{mortal}2"]));
            s.preload(&["PERSIST", "{mortal}2"]);
            assert!(!vetoed(&mut s, &["GET", "{mortal}2"]));
        }
    }

    /// A store holding every data family, TTLs included, on `shards` shards.
    fn populated(shards: usize) -> ShardSet {
        let mut s = ShardSet::new(shards, 7);
        for i in 0..40 {
            let k = |family: &str| format!("{family}:{i}");
            s.preload(&["SET", &k("str"), "value"]);
            s.preload(&["SET", &k("int"), &i.to_string()]);
            s.preload(&["RPUSH", &k("list"), "a", "b", &i.to_string()]);
            s.preload(&["SADD", &k("set"), "m", &i.to_string()]);
            s.preload(&["SADD", &k("intset"), "1", &i.to_string()]);
            s.preload(&["HSET", &k("hash"), "f", &i.to_string()]);
            s.preload(&["ZADD", &k("zset"), "1.5", "m", &i.to_string(), "n"]);
            s.preload(&["SET", &k("ttl"), "v", "PX", "900000"]);
        }
        s
    }

    #[test]
    fn save_then_load_round_trips_every_family_across_shard_counts() {
        for from in [1, 2, 4] {
            let source = populated(from);
            let (snapshot, keys) = source.save();
            assert_eq!(keys, 320);
            // The wire snapshot does not depend on the sender's shard count.
            assert_eq!(snapshot, populated(1).save().0, "{from} shards");
            for to in [1, 2, 4] {
                let mut sink = ShardSet::new(to, 99);
                sink.preload(&["SET", "stale", "gone after the load"]);
                assert_eq!(sink.load(&snapshot, 5), Ok(320), "{from} → {to}");
                assert_eq!(sink.digest(), source.digest(), "{from} → {to}");
                assert_eq!(sink.save(), (snapshot.clone(), 320));
                // Every key sits on the shard the router reads it from.
                assert_eq!(
                    sink.preload(&["GET", "str:7"]).reply,
                    Resp::Bulk(b"value".to_vec())
                );
                assert_eq!(sink.preload(&["DBSIZE"]).reply, Resp::Int(320));
                let spread = sink.engines().iter().filter(|e| !e.db().is_empty());
                assert_eq!(spread.count(), to, "{from} → {to}");
            }
        }
    }

    #[test]
    fn a_corrupt_snapshot_leaves_the_set_able_to_rejoin() {
        for shards in [1, 4] {
            let (snapshot, _) = populated(2).save();
            let mut sink = ShardSet::new(shards, 3);
            sink.preload(&["SET", "kept", "v"]);
            let before = sink.digest();
            // Torn transfer: a flipped byte, a short read, nothing at all.
            let mut flipped = snapshot.clone();
            flipped[snapshot.len() / 2] ^= 0x40;
            assert_eq!(sink.load(&flipped, 5), Err(RdbError::BadChecksum));
            assert!(sink.load(&snapshot[..snapshot.len() - 9], 5).is_err());
            assert_eq!(sink.load(&[], 5), Err(RdbError::Truncated));
            // Refused before anything was touched, and still a working store:
            // it executes, and the retried sync lands.
            assert_eq!(sink.digest(), before);
            assert_eq!(sink.num_shards(), shards);
            assert_eq!(
                sink.preload(&["GET", "kept"]).reply,
                Resp::Bulk(b"v".to_vec())
            );
            assert_eq!(sink.load(&snapshot, 5), Ok(320));
            assert_eq!(sink.digest(), populated(1).digest());
        }
    }

    #[test]
    fn execute_counts_ops_per_shard_and_hops_per_crossing() {
        let mut one = ShardSet::new(1, 7);
        assert_eq!(
            one.preload(&["MSET", "a", "1", "b", "2", "c", "3"]).reply,
            Resp::ok()
        );
        assert_eq!((one.ops(), one.cross_msgs()), (&[1][..], 0));

        let mut four = ShardSet::new(4, 7);
        let keys: Vec<String> = (0..16).map(|i| format!("key-{i}")).collect();
        let args: Vec<&[u8]> = std::iter::once(&b"DEL"[..])
            .chain(keys.iter().map(String::as_bytes))
            .collect();
        let (result, _, hops) = four.execute(0, cmd::lookup(b"DEL"), &args);
        assert_eq!(result.reply, Resp::Int(0));
        // Sixteen uniform keys reach every shard: one fragment each, and a
        // hop for every shard after the first.
        assert_eq!(
            (four.ops(), hops, four.cross_msgs()),
            (&[1, 1, 1, 1][..], 3, 3)
        );
        let (_, shard, hops) = four.execute(0, cmd::lookup(b"DBSIZE"), &[b"DBSIZE"]);
        assert_eq!((shard, hops, four.cross_msgs()), (0, 3, 6));
        // A cron tick reaps what expired, on whichever shard holds it.
        four.preload(&["SET", "mortal", "v", "PX", "5"]);
        four.cron(10);
        let expired = four.engines().iter().map(|e| e.db().stat_expired());
        assert_eq!(expired.sum::<u64>(), 1);
    }

    #[test]
    fn apply_ring_backpressures_when_full() {
        let mut ring = ApplyRing::new(2);
        let t = SimTime::from_millis;
        assert_eq!(ring.admit(t(0)), t(0));
        ring.complete(t(10));
        assert_eq!(ring.admit(t(0)), t(0));
        ring.complete(t(20));
        // Ring full with applies finishing at 10 and 20: the next admit
        // at t=5 stalls until the head (t=10) retires.
        assert_eq!(ring.admit(t(5)), t(10));
        ring.complete(t(30));
        // By t=25 the t=20 apply retired too, so admission is immediate.
        assert_eq!(ring.admit(t(25)), t(25));
        ring.complete(t(40));
        assert_eq!(ring.max_depth, 2);
    }
}
