//! Keyspace sharding: hash-slot routing and the slave apply pipeline.
//!
//! The master's command path partitions the keyspace Redis-Cluster style
//! (CRC16 of the key → 16384 slots → contiguous slot ranges per shard,
//! see [`crate::protocol::key_hash_slot`]). [`ShardRouter`] turns a
//! parsed command into a [`RoutePlan`]: which shard executes it, or how a
//! multi-key command splits across shards — derived from the command
//! table's key spec and [`Route`] column, never from the command's name.
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
