//! The six workloads: cluster shape, client mix, measurement window, fault
//! schedule, and the counters that prove each one exercised the layers it
//! was chosen for (and bypassed the ones it was chosen to bypass).
//!
//! All are closed loop, as in the paper's `redis-benchmark`: N simulated
//! connections × pipeline depth, the next request only after a reply.

use skv_core::cluster::{Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::replmode::ReplModeKind;
use skv_simcore::SimDuration;

use crate::rep::SimStats;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Why it is in the benchmark: which layers do the work, which do none.
    pub why: &'static str,
    /// Simulated measurement window.
    pub measure_ms: u64,
    /// Simulated time run after the window so in-flight work lands before
    /// the replicas are compared.
    pub drain_ms: u64,
    /// Keys loaded into the master before any slave attaches.
    pub preload_keys: u64,
    /// True when the fault schedule below is installed.
    pub faults: bool,
    spec: fn() -> RunSpec,
    mechanism: fn(&SimStats) -> Vec<Check>,
}

/// One named pass/fail observation; `detail` carries the offending counter.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// `counter >= min` on the cumulative end-of-rep counters.
fn at_least(stats: &SimStats, counter: &str, min: u64) -> Check {
    let v = stats.total(counter);
    Check::new(counter, v >= min, format!("{counter} = {v}, need >= {min}"))
}

/// `counter == 0` on the cumulative end-of-rep counters.
fn zero(stats: &SimStats, counter: &str) -> Check {
    let v = stats.total(counter);
    Check::new(counter, v == 0, format!("{counter} = {v}, need 0"))
}

/// The counter grew inside the measurement window, i.e. beyond the
/// initial attach of every slave (which set-up already paid for).
fn resynced(stats: &SimStats, counter: &str) -> Check {
    let v = stats.delta(counter);
    Check::new(
        counter,
        v >= 1,
        format!("{counter} grew by {v} in the window, need >= 1"),
    )
}

fn base(cfg: ClusterConfig) -> RunSpec {
    RunSpec {
        cfg,
        num_clients: 8,
        pipeline: 1,
        set_ratio: 1.0,
        mset_keys: 0,
        value_size: 64,
        key_space: 10_000,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
        warmup: SimDuration::from_millis(20),
        // Overwritten by `Workload::spec`.
        measure: SimDuration::ZERO,
        seed: 0,
    }
}

fn skv(num_slaves: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = num_slaves;
    cfg
}

/// The spec of `set-fanout`, also the operating point of the Figure 11
/// drift gauge.
pub fn set_fanout_spec(mode: Mode) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(mode);
    cfg.num_slaves = 3;
    base(cfg)
}

pub const ALL: &[Workload] = &[
    Workload {
        name: "set-fanout",
        why: "Fig. 11 point, closed loop 8x1, 100% SET 64 B, 3 slaves: master write path, NicKv fan-out, RDMA post/poll and slave apply do the work; cache, shards and GET path do none",
        measure_ms: 250,
        drain_ms: 200,
        preload_keys: 0,
        faults: false,
        spec: || set_fanout_spec(Mode::Skv),
        mechanism: |s| {
            vec![
                at_least(s, "nic.stat_fanout_sends", 1),
                zero(s, "cache.hits"),
                zero(s, "shard.cross_msgs"),
            ]
        },
    },
    Workload {
        name: "get-zipf-cache",
        why: "Closed loop 8x4, Zipf 0.99, 5% SET, 64 KiB lru SoC cache: hotcache and NIC front end answer ~60% of ops, FWD_CMD/FWD_REPLY carry the rest to the master; writes drive invalidation and a lagging fan-out",
        measure_ms: 500,
        // The offered 31 k SET/s outrun the SoC's fan-out (~22 k msgs/s with
        // one ARM core given to the cache front end), so the slaves end the
        // window ~200 ms of stream behind; drain five times that.
        drain_ms: 1000,
        preload_keys: 0,
        faults: false,
        spec: || {
            let mut cfg = skv(2);
            cfg.hot_cache_bytes = 64 << 10;
            cfg.hot_cache_policy = "lru".into();
            RunSpec {
                pipeline: 4,
                set_ratio: 0.05,
                zipf_theta: 0.99,
                ..base(cfg)
            }
        },
        mechanism: |s| {
            vec![
                at_least(s, "cache.hits", 1),
                at_least(s, "cache.invalidations", 1),
                zero(s, "shard.cross_msgs"),
            ]
        },
    },
    Workload {
        name: "mixed-shards4",
        why: "Closed loop 8x8, 4 shards, 50% SET: ShardRouter::plan, per-shard CQs, serialized replication egress and the slave ApplyRing; the costliest arm per simulated ms",
        measure_ms: 100,
        drain_ms: 200,
        preload_keys: 0,
        faults: false,
        spec: || {
            let mut cfg = skv(2);
            cfg.num_shards = 4;
            RunSpec {
                pipeline: 8,
                set_ratio: 0.5,
                ..base(cfg)
            }
        },
        mechanism: |s| {
            let spread = s.master_shard_ops.len() == 4
                && s.master_shard_ops.iter().all(|&n| n > 0);
            vec![
                Check::new(
                    "shard.ops spread",
                    spread,
                    format!("master shard.ops = {:?}, need 4 non-zero", s.master_shard_ops),
                ),
                at_least(s, "shard.nic_ingress", 1),
                zero(s, "cache.hits"),
            ]
        },
    },
    Workload {
        name: "tcp-baseline",
        why: "Fig. 10 baseline and bypass control, closed loop 8x1, TcpRedis, 50% SET, 3 slaves: only netsim::tcp, Channel reassembly and host emit_frames run; no RDMA, NicKv, cache or shards",
        measure_ms: 3000,
        drain_ms: 200,
        preload_keys: 0,
        faults: false,
        spec: || {
            let mut cfg = ClusterConfig::for_mode(Mode::TcpRedis);
            cfg.num_slaves = 3;
            RunSpec {
                set_ratio: 0.5,
                ..base(cfg)
            }
        },
        mechanism: |s| {
            vec![
                at_least(s, "tcp.messages", 1),
                zero(s, "rdma.wrs_posted"),
                zero(s, "nic.stat_fanout_sends"),
                Check::new("no NIC", !s.has_nic, format!("has_nic = {}", s.has_nic)),
                zero(s, "cache.hits"),
                zero(s, "shard.cross_msgs"),
            ]
        },
    },
    Workload {
        name: "quorum-4k",
        why: "Closed loop 4x4, quorum replication, 100% SET 4 KiB, 3 slaves: the fan-out layer used byte-bound, with ack maps, commit window and deferred/released replies",
        measure_ms: 200,
        drain_ms: 200,
        preload_keys: 0,
        faults: false,
        spec: || {
            let mut cfg = skv(3);
            cfg.repl_mode = ReplModeKind::Quorum;
            RunSpec {
                num_clients: 4,
                pipeline: 4,
                value_size: 4096,
                ..base(cfg)
            }
        },
        mechanism: |s| {
            vec![
                at_least(s, "nic.stat_commits", 1),
                at_least(s, "server.stat_deferred_replies", 1),
                zero(s, "cache.hits"),
                zero(s, "shard.cross_msgs"),
            ]
        },
    },
    Workload {
        name: "recover-resync",
        why: "Closed loop 2x1, 90% SET 256 B, 20k-key preload of every data family, slave then SoC crash/recover: sync state machine, rdb save/load, backlog partial sync, degrade to host fan-out, re-offload",
        measure_ms: 400,
        drain_ms: 2000,
        preload_keys: 20_000,
        faults: true,
        spec: || {
            let mut cfg = skv(3);
            // Compressed timers, so detection, degradation and resync all
            // happen inside the 400 ms window.
            cfg.probe_interval = SimDuration::from_millis(35);
            cfg.waiting_time = SimDuration::from_millis(50);
            cfg.upstream_silence = SimDuration::from_millis(100);
            cfg.reconnect_base = SimDuration::from_millis(2);
            cfg.client_retry_timeout = SimDuration::from_millis(35);
            RunSpec {
                num_clients: 2,
                set_ratio: 0.9,
                value_size: 256,
                key_space: 20_000,
                ..base(cfg)
            }
        },
        mechanism: |s| {
            vec![
                resynced(s, "server.stat_full_syncs"),
                resynced(s, "server.stat_partial_syncs"),
                at_least(s, "server.stat_degradations", 1),
                zero(s, "cache.hits"),
            ]
        },
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        ALL.iter().find(|w| w.name == name)
    }

    /// The run spec for one rep. `--smoke` divides the window by
    /// `window_div` — except under a fault schedule, which is tied to the
    /// protocol timers and already short.
    pub fn spec(&self, seed: u64, window_div: u64) -> RunSpec {
        let div = if self.faults { 1 } else { window_div };
        RunSpec {
            measure: SimDuration::from_millis(self.measure_ms / div),
            seed,
            ..(self.spec)()
        }
    }

    /// The preload set: string, list, hash and sorted-set keys round robin,
    /// so a full sync carries every RDB object family. String keys share
    /// the clients' `key:` namespace (their GETs hit); the others live
    /// apart, so no client command meets a key of the wrong type.
    pub fn preload_commands(&self, value_size: usize) -> Vec<Vec<String>> {
        let value = "p".repeat(value_size);
        (0..self.preload_keys)
            .map(|i| {
                let n = i / 4;
                match i % 4 {
                    0 => vec!["SET".into(), format!("key:{n:012}"), value.clone()],
                    1 => vec![
                        "RPUSH".into(),
                        format!("list:{n:012}"),
                        value.clone(),
                        "tail".into(),
                    ],
                    2 => vec![
                        "HSET".into(),
                        format!("hash:{n:012}"),
                        "field".into(),
                        value.clone(),
                    ],
                    _ => vec![
                        "ZADD".into(),
                        format!("zset:{n:012}"),
                        n.to_string(),
                        value.clone(),
                    ],
                }
            })
            .collect()
    }

    /// Load the preload set into the master, before any slave attaches.
    pub fn preload(&self, cluster: &mut Cluster) {
        for cmd in self.preload_commands(cluster.spec.value_size) {
            let parts: Vec<&str> = cmd.iter().map(String::as_str).collect();
            cluster.preload_master(&[&parts]);
        }
    }

    /// Install the fault schedule (offsets from `measure_from`): slave 1
    /// crashes and recovers, then the SoC does. The SoC stays down longer
    /// than `upstream_silence`, so the master degrades to host fan-out and
    /// re-offloads afterwards.
    pub fn schedule_faults(&self, cluster: &mut Cluster) {
        if !self.faults {
            return;
        }
        let at = |ms: u64| cluster.measure_from + SimDuration::from_millis(ms);
        let (slave_down, slave_up, nic_down, nic_up) = (at(30), at(130), at(220), at(360));
        cluster.schedule_slave_crash(1, slave_down);
        cluster.schedule_slave_recover(1, slave_up);
        cluster.schedule_nic_crash(nic_down);
        cluster.schedule_nic_recover(nic_up);
    }

    /// Did the workload's mechanism engage, and did the bypassed ones not?
    pub fn mechanism_checks(&self, stats: &SimStats) -> Vec<Check> {
        (self.mechanism)(stats)
    }
}
