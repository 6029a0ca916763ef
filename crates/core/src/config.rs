//! Cluster and server configuration.

use std::ops::Range;

use crate::replmode::ReplModeKind;
use skv_netsim::{MachineParams, NetParams};
use skv_simcore::SimDuration;

/// Which system variant a cluster runs — the paper's three contenders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Original Redis: kernel TCP transport, replication fan-out on the
    /// master host (Figure 10 baseline).
    TcpRedis,
    /// Redis with the network layer replaced by RDMA; replication still
    /// posts one Work Request per slave from the master host, serially
    /// (Figures 7, 10–13 baseline).
    RdmaRedis,
    /// SKV: RDMA transport plus replication and failure detection offloaded
    /// to the SmartNIC's Nic-KV (the paper's contribution).
    Skv,
}

impl Mode {
    /// Human-readable name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Mode::TcpRedis => "Redis",
            Mode::RdmaRedis => "RDMA-Redis",
            Mode::Skv => "SKV",
        }
    }

    /// Does this mode use the RDMA transport?
    pub fn uses_rdma(self) -> bool {
        !matches!(self, Mode::TcpRedis)
    }
}

/// CPU cost model for server-side command processing, in reference-core
/// time. Calibrated so RDMA-Redis SET saturates near the paper's
/// ~330 kops/s and original Redis near ~130 kops/s (Figure 10).
#[derive(Debug, Clone)]
pub struct CostParams {
    /// Fixed cost to read/parse/dispatch one command and build its reply.
    pub cmd_base: SimDuration,
    /// Additional cost per KiB of payload touched (memcpy, hashing).
    pub cmd_per_kib: SimDuration,
    /// Cost for a slave to apply one replicated command.
    pub apply_base: SimDuration,
    /// RDB persist cost per key (master side, initial sync).
    pub persist_per_key: SimDuration,
    /// RDB load cost per key (slave side, initial sync).
    pub load_per_key: SimDuration,
    /// Nic-KV cost to parse one replication request (reference-core time;
    /// the SmartNIC's core pool scales it by the ARM speed factor).
    pub nic_fanout_base: SimDuration,
    /// Nic-KV cost per slave per replicated message (ring write + WR post).
    pub nic_per_slave: SimDuration,
    /// Relative jitter applied to service times (gives realistic p99s).
    pub jitter: f64,
    /// Probability that any single *doorbell* stalls (doorbell/CQ
    /// contention). The stall is a property of the MMIO doorbell write,
    /// so it is drawn once per `post_send` call — a linked-WR post list
    /// rings one doorbell and risks one stall no matter how many WRs it
    /// chains. More doorbells per operation ⇒ more frequent stalls ⇒
    /// heavier tails — the mechanism behind Figure 7's ">25%"
    /// tail-latency growth.
    pub post_spike_prob: f64,
    /// Duration of one such stall.
    pub post_spike_cost: SimDuration,
    /// Client-side per-op overhead (request build + reply parse).
    pub client_op: SimDuration,
    /// Nic-KV cost to answer a GET from the SoC hot-key cache (hash
    /// lookup + refcount bump + reply post, reference-core time; the
    /// SmartNIC pool scales it by the ARM speed factor). Only charged
    /// when `hot_cache_bytes > 0`.
    pub nic_cache_hit: SimDuration,
    /// Nic-KV cost to proxy one command between a client and the host
    /// master (cookie bookkeeping + re-post each way). Charged on the
    /// forward and on the reply relay. Only on the cache-on path.
    pub nic_fwd: SimDuration,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            cmd_base: SimDuration::from_nanos(2_500),
            cmd_per_kib: SimDuration::from_nanos(220),
            apply_base: SimDuration::from_nanos(1_100),
            persist_per_key: SimDuration::from_nanos(800),
            load_per_key: SimDuration::from_nanos(700),
            nic_fanout_base: SimDuration::from_nanos(120),
            nic_per_slave: SimDuration::from_nanos(100),
            jitter: 0.12,
            post_spike_prob: 0.006,
            post_spike_cost: SimDuration::from_micros(6),
            client_op: SimDuration::from_nanos(2_000),
            nic_cache_hit: SimDuration::from_nanos(600),
            nic_fwd: SimDuration::from_nanos(250),
        }
    }
}

/// Full configuration for one SKV/baseline cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// System variant.
    pub mode: Mode,
    /// Number of slave servers.
    pub num_slaves: usize,
    /// Replication threads on the SmartNIC (paper §III-C `thread-num`).
    /// Clamped to `min(nic cores, slaves)`; 1 disables multi-threading
    /// (the paper's default).
    pub thread_num: usize,
    /// Minimum available slaves before writes are rejected (`min-slaves`).
    pub min_slaves: usize,
    /// Probe timeout before a node is declared failed (`waiting-time`).
    pub waiting_time: SimDuration,
    /// Interval between Nic-KV probe rounds (paper: 1 second).
    pub probe_interval: SimDuration,
    /// Replication backlog capacity in bytes, sized so a partial resync
    /// always finds its range in the window.
    pub backlog_size: usize,
    /// Base delay for reconnect backoff after a failed dial; doubles per
    /// attempt up to [`ClusterConfig::reconnect_max_delay`].
    pub reconnect_base: SimDuration,
    /// Cap on the doubled reconnect delay. Under a long partition the
    /// schedule is `base, 2·base, 4·base, …` clamped here, so redial
    /// pressure stays bounded without the doubling running away. See
    /// [`ClusterConfig::reconnect_delay`].
    pub reconnect_max_delay: SimDuration,
    /// Attempts before a single connect intent is abandoned (periodic
    /// re-seeding from the cron loop takes over from there).
    pub reconnect_max_attempts: u32,
    /// Silence from the coordination upstream (Nic-KV probes, in SKV mode)
    /// before a node declares the channel dead: the master falls back to
    /// host-driven fan-out, a slave tears down and re-syncs. Tied to
    /// `probe_interval`: the default is 2.5 probe periods.
    pub upstream_silence: SimDuration,
    /// A client abandons a connection when no reply arrives for this long,
    /// tears it down, reconnects, and refills its pipeline.
    pub client_retry_timeout: SimDuration,
    /// Which replication protocol the cluster runs (see
    /// [`crate::replmode`]). `Async` reproduces the paper's stream
    /// bit-for-bit; `Quorum` (SKV mode only — the tracking runs on the
    /// Nic-KV) defers client replies until the NIC commits the covering
    /// offset, and stalls rather than weakening its guarantee while a
    /// write quorum is unreachable.
    pub repl_mode: ReplModeKind,
    /// Number of keyspace shards per server (Redis-Cluster-style hash
    /// slots, CRC16 → 16384 slots → `num_shards` contiguous ranges).
    /// Each shard owns a slice of the store, a dedicated simulated core,
    /// and its own CQ; cross-shard commands (MSET/MGET/DEL spanning
    /// slots) pay an inter-shard hop. 1 (the default) reproduces the
    /// historical single-loop schedule bit-for-bit.
    pub num_shards: usize,
    /// Byte budget for the SoC-resident hot-key GET cache on the
    /// Nic-KV (see [`crate::hotcache`]). 0 (the default) disables the
    /// cache entirely: clients dial the host master directly and every
    /// schedule stays bit-identical to the cache-less baseline. Nonzero
    /// (SKV mode only) routes clients through the NIC, which answers
    /// hot GETs from SoC memory and proxies everything else to the
    /// host, invalidating cached entries off the replication stream.
    pub hot_cache_bytes: usize,
    /// Admission policy for the hot-key cache: `"lru"` (admit always,
    /// evict by recency) or `"tinylfu"` (Count-Min-Sketch frequency
    /// gate against the eviction victim). Validated by
    /// [`ClusterConfig::validate`]; ignored when `hot_cache_bytes` is 0.
    pub hot_cache_policy: String,
    /// CPU cost model.
    pub costs: CostParams,
    /// Fabric calibration.
    pub net: NetParams,
    /// Machine shapes (cores, speeds).
    pub machines: MachineParams,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            mode: Mode::Skv,
            num_slaves: 3,
            thread_num: 1,
            min_slaves: 0,
            waiting_time: SimDuration::from_millis(1500),
            probe_interval: SimDuration::from_secs(1),
            backlog_size: 1 << 20,
            reconnect_base: SimDuration::from_millis(10),
            reconnect_max_delay: SimDuration::from_millis(640),
            reconnect_max_attempts: 8,
            upstream_silence: SimDuration::from_millis(2_500),
            client_retry_timeout: SimDuration::from_millis(250),
            repl_mode: ReplModeKind::Async,
            num_shards: 1,
            hot_cache_bytes: 0,
            hot_cache_policy: "lru".into(),
            costs: CostParams::default(),
            net: NetParams::default(),
            machines: MachineParams::default(),
        }
    }
}

impl ClusterConfig {
    /// A config for the given mode with everything else default.
    pub fn for_mode(mode: Mode) -> Self {
        ClusterConfig {
            mode,
            ..Default::default()
        }
    }

    /// Effective number of NIC replication threads (paper §III-C: "the
    /// actual number of threads used for replication cannot be greater
    /// than the minimum value of the number of SmartNIC cores and slave
    /// nodes").
    pub fn effective_nic_threads(&self) -> usize {
        self.thread_num
            .max(1)
            .min(self.machines.nic_cores)
            .min(self.num_slaves.max(1))
    }

    /// The SmartNIC cores that run the cache front end (DESIGN.md §16.1):
    /// every core the fan-out threads leave free, each polling its own CQ
    /// and its share of the client connections. When the threads take
    /// every core, the front end shares the last one.
    pub fn nic_front_end_cores(&self) -> Range<usize> {
        let cores = self.machines.nic_cores.max(1);
        let threads = self.effective_nic_threads();
        if threads < cores {
            threads..cores
        } else {
            cores - 1..cores
        }
    }

    /// Server-side reconnect backoff for the `attempts`-th consecutive
    /// failure (1-based): `reconnect_base · 2^(attempts−1)` clamped to
    /// [`ClusterConfig::reconnect_max_delay`]. The cap never drops below
    /// the base, so a misconfigured `reconnect_max_delay <
    /// reconnect_base` degrades to constant-`base` retries instead of a
    /// zero-delay dial storm.
    pub fn reconnect_delay(&self, attempts: u32) -> SimDuration {
        let shift = attempts.saturating_sub(1).min(20);
        let delay = self.reconnect_base.mul_f64((1u64 << shift) as f64);
        let cap = self.reconnect_max_delay.max(self.reconnect_base);
        delay.min(cap)
    }

    /// Validate the shard/core/thread interplay before building a
    /// cluster. The NIC-thread clamp in
    /// [`ClusterConfig::effective_nic_threads`] silently shrinks an
    /// oversized `thread_num` — fine for the paper's single-loop host,
    /// but once the host engine is itself sharded a silently-clamped NIC
    /// pool hides a real misconfiguration: the operator sized the NIC
    /// for a host parallelism the machine cannot deliver. Sharded
    /// configs therefore reject instead of clamping.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_shards == 0 {
            return Err("num_shards must be at least 1".into());
        }
        if self.num_shards > crate::protocol::NUM_SLOTS {
            return Err(format!(
                "num_shards {} exceeds the {} hash slots",
                self.num_shards,
                crate::protocol::NUM_SLOTS
            ));
        }
        // A master refuses writes below `min-slaves` valid slaves, and no
        // census or Nic-KV verdict counts more slaves than there are: such
        // a master would refuse every write of the run.
        if self.min_slaves > self.num_slaves {
            return Err(format!(
                "min_slaves {} exceeds num_slaves {}: every write would be \
                 refused",
                self.min_slaves, self.num_slaves
            ));
        }
        // Each re-arms its own timer with this delay: at zero it fires at
        // the same instant forever and simulated time stops.
        for (name, period) in [
            ("client_retry_timeout", self.client_retry_timeout),
            ("probe_interval", self.probe_interval),
        ] {
            if period.is_zero() {
                return Err(format!("{name} must be positive"));
            }
        }
        // Each shard pins a dedicated host core and the background
        // persist/load core rides alongside them.
        if self.num_shards + 1 > self.machines.host_cores {
            return Err(format!(
                "num_shards {} needs {} host cores (one per shard plus the \
                 persist core) but the machine has {}",
                self.num_shards,
                self.num_shards + 1,
                self.machines.host_cores
            ));
        }
        // Single-shard configs keep the historical silent clamp (the
        // threadnum ablation sweeps past the core count on purpose);
        // sharded configs must be explicit about the NIC pool.
        if self.num_shards > 1 && self.thread_num > self.machines.nic_cores {
            return Err(format!(
                "thread_num {} exceeds the {} SmartNIC cores; sharded \
                 configs (num_shards {}) must size the NIC pool explicitly \
                 instead of relying on the clamp",
                self.thread_num, self.machines.nic_cores, self.num_shards
            ));
        }
        // Replication knobs. Quorum is tracked on the Nic-KV;
        // a baseline master would hold every reply for a commit nobody
        // reports.
        if self.repl_mode != ReplModeKind::Async && self.mode != Mode::Skv {
            return Err(format!(
                "repl_mode {} requires SKV mode (writes are tracked on the \
                 Nic-KV); mode is {}",
                self.repl_mode,
                self.mode.label()
            ));
        }
        // Hot-cache knobs. The policy name is checked even with the
        // cache off so a typo'd sweep config fails at build time, not
        // silently on the first cache-on arm.
        if crate::hotcache::CachePolicyKind::parse(&self.hot_cache_policy).is_none() {
            return Err(format!(
                "unknown hot_cache_policy {:?}; expected one of: lru, tinylfu",
                self.hot_cache_policy
            ));
        }
        if self.hot_cache_bytes > 0 {
            if self.mode != Mode::Skv {
                return Err(format!(
                    "hot_cache_bytes {} requires SKV mode (the cache lives on \
                     the Nic-KV); mode is {}",
                    self.hot_cache_bytes,
                    self.mode.label()
                ));
            }
            // The cache front end serves GETs and proxies on the NIC cores
            // the replication pool leaves free; a sharded config (already
            // in the explicit-sizing regime above) must leave it at least
            // one.
            if self.num_shards > 1 && self.thread_num + 1 > self.machines.nic_cores {
                return Err(format!(
                    "hot cache with num_shards {} needs a SmartNIC core for \
                     the cache front-end next to the {} replication threads, \
                     but the NIC has only {} cores",
                    self.num_shards, self.thread_num, self.machines.nic_cores
                ));
            }
        }
        Ok(())
    }

    /// Is the SoC hot-key cache active in this config?
    pub fn hot_cache_enabled(&self) -> bool {
        self.hot_cache_bytes > 0 && self.mode == Mode::Skv
    }

    /// The parsed cache admission policy; an unknown name reads as LRU.
    /// [`ClusterConfig::validate`] (run by the cluster builder) rejects
    /// unknown names, so the fallback is only seen by a caller that
    /// skipped it.
    pub fn hot_cache_policy_kind(&self) -> crate::hotcache::CachePolicyKind {
        crate::hotcache::CachePolicyKind::parse(&self.hot_cache_policy)
            .unwrap_or(crate::hotcache::CachePolicyKind::Lru)
    }

    /// Client-side dial backoff: the same capped doubling, additionally
    /// clamped to `client_retry_timeout`. The client's watchdog abandons
    /// a silent connection after `client_retry_timeout`, so letting the
    /// dial backoff exceed it would leave the client idle longer than it
    /// is ever willing to wait on a live connection — this makes the
    /// interaction between the two knobs explicit.
    pub fn client_dial_delay(&self, attempts: u32) -> SimDuration {
        self.reconnect_delay(attempts)
            .min(self.client_retry_timeout)
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // test values are tiny literals
mod tests {
    use super::*;

    #[test]
    fn mode_labels() {
        assert_eq!(Mode::TcpRedis.label(), "Redis");
        assert_eq!(Mode::RdmaRedis.label(), "RDMA-Redis");
        assert_eq!(Mode::Skv.label(), "SKV");
        assert!(!Mode::TcpRedis.uses_rdma());
        assert!(Mode::Skv.uses_rdma());
    }

    #[test]
    fn reconnect_backoff_doubles_then_caps() {
        let cfg = ClusterConfig::default();
        // 10, 20, 40, 80, 160, 320, 640, then pinned at the 640ms cap.
        let expect = [10u64, 20, 40, 80, 160, 320, 640, 640, 640, 640];
        for (i, &ms) in expect.iter().enumerate() {
            assert_eq!(
                cfg.reconnect_delay(i as u32 + 1),
                SimDuration::from_millis(ms),
                "attempt {}",
                i + 1
            );
        }
        // Huge attempt counts must not overflow the shift.
        assert_eq!(cfg.reconnect_delay(1_000), cfg.reconnect_max_delay);
        // attempts = 0 is treated like the first attempt.
        assert_eq!(cfg.reconnect_delay(0), cfg.reconnect_base);
    }

    #[test]
    fn reconnect_cap_never_below_base() {
        let cfg = ClusterConfig {
            reconnect_base: SimDuration::from_millis(50),
            reconnect_max_delay: SimDuration::from_millis(10),
            ..Default::default()
        };
        for attempts in 1..10 {
            assert_eq!(cfg.reconnect_delay(attempts), cfg.reconnect_base);
        }
    }

    #[test]
    fn client_dial_delay_clamped_to_retry_timeout() {
        let cfg = ClusterConfig {
            reconnect_base: SimDuration::from_millis(10),
            reconnect_max_delay: SimDuration::from_millis(640),
            client_retry_timeout: SimDuration::from_millis(100),
            ..Default::default()
        };
        assert_eq!(cfg.client_dial_delay(1), SimDuration::from_millis(10));
        assert_eq!(cfg.client_dial_delay(4), SimDuration::from_millis(80));
        // From the 5th failure on, the dial backoff is pinned to the
        // client's own abandon timeout, not the server cap.
        for attempts in 5..12 {
            assert_eq!(
                cfg.client_dial_delay(attempts),
                cfg.client_retry_timeout,
                "attempt {attempts}"
            );
        }
    }

    #[test]
    fn validate_accepts_defaults_and_sane_shard_counts() {
        assert!(ClusterConfig::default().validate().is_ok());
        for shards in [1usize, 2, 4, 8] {
            let cfg = ClusterConfig {
                num_shards: shards,
                ..Default::default()
            };
            assert!(cfg.validate().is_ok(), "num_shards {shards} rejected");
        }
    }

    #[test]
    fn validate_rejects_more_min_slaves_than_slaves() {
        let cfg = ClusterConfig {
            num_slaves: 2,
            min_slaves: 3,
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("min_slaves 3 exceeds num_slaves 2"), "{err}");
        for min_slaves in [0, 1, 2] {
            let cfg = ClusterConfig {
                num_slaves: 2,
                min_slaves,
                ..Default::default()
            };
            assert!(cfg.validate().is_ok(), "min_slaves {min_slaves} of 2");
        }
    }

    #[test]
    fn validate_rejects_zero_timer_periods() {
        let retry = ClusterConfig {
            client_retry_timeout: SimDuration::ZERO,
            ..Default::default()
        };
        let err = retry.validate().unwrap_err();
        assert!(
            err.contains("client_retry_timeout must be positive"),
            "{err}"
        );
        let probe = ClusterConfig {
            probe_interval: SimDuration::ZERO,
            ..Default::default()
        };
        let err = probe.validate().unwrap_err();
        assert!(err.contains("probe_interval must be positive"), "{err}");
        // The smallest periods any run uses stay valid.
        let smallest = ClusterConfig {
            client_retry_timeout: SimDuration::from_millis(35),
            probe_interval: SimDuration::from_millis(40),
            ..Default::default()
        };
        assert!(smallest.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_and_oversized_shard_counts() {
        let cfg = ClusterConfig {
            num_shards: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "zero shards must be rejected");
        let cfg = ClusterConfig {
            num_shards: crate::protocol::NUM_SLOTS + 1,
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "more shards than slots");
    }

    #[test]
    fn validate_requires_a_core_per_shard_plus_persist() {
        // 32 host cores by default: 31 shards + persist core fits,
        // 32 shards would leave no room for the background core.
        let ok = ClusterConfig {
            num_shards: 31,
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
        let bad = ClusterConfig {
            num_shards: 32,
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("host cores"), "unexpected error: {err}");
    }

    #[test]
    fn validate_rejects_overclamped_nic_threads_when_sharded() {
        // The legacy single-shard path still clamps silently (the
        // threadnum ablation sweeps thread_num past the core count),
        // but a sharded config with the same oversize must error.
        let legacy = ClusterConfig {
            thread_num: 16,
            num_shards: 1,
            ..Default::default()
        };
        assert!(legacy.validate().is_ok(), "legacy clamp must survive");
        assert_eq!(legacy.effective_nic_threads(), 3, "clamped to slaves");

        let sharded = ClusterConfig {
            thread_num: 16,
            num_shards: 4,
            ..Default::default()
        };
        let err = sharded.validate().unwrap_err();
        assert!(err.contains("SmartNIC cores"), "unexpected error: {err}");

        // An explicit, in-range NIC pool is fine alongside shards.
        let sized = ClusterConfig {
            thread_num: 8,
            num_shards: 4,
            ..Default::default()
        };
        assert!(sized.validate().is_ok());
    }

    #[test]
    fn validate_rejects_unknown_cache_policy() {
        let cfg = ClusterConfig {
            hot_cache_policy: "arc".into(),
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("hot_cache_policy"), "unexpected error: {err}");
        for policy in ["lru", "tinylfu"] {
            let cfg = ClusterConfig {
                hot_cache_policy: policy.into(),
                hot_cache_bytes: 1 << 20,
                ..Default::default()
            };
            assert!(cfg.validate().is_ok(), "policy {policy} rejected");
        }
    }

    #[test]
    fn validate_rejects_cache_outside_skv_mode() {
        for mode in [Mode::TcpRedis, Mode::RdmaRedis] {
            let cfg = ClusterConfig {
                mode,
                hot_cache_bytes: 1 << 20,
                ..Default::default()
            };
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("SKV mode"), "unexpected error: {err}");
        }
        let cfg = ClusterConfig {
            hot_cache_bytes: 1 << 20,
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());
        assert!(cfg.hot_cache_enabled());
        assert!(!ClusterConfig::default().hot_cache_enabled());
    }

    #[test]
    fn validate_cache_shard_interplay_reserves_a_nic_core() {
        // 8 NIC cores: a sharded cache-on config may use at most 7
        // replication threads so the cache front-end gets a core.
        let full = ClusterConfig {
            hot_cache_bytes: 1 << 20,
            num_shards: 4,
            thread_num: 8,
            ..Default::default()
        };
        let err = full.validate().unwrap_err();
        assert!(err.contains("cache front-end"), "unexpected error: {err}");
        let sized = ClusterConfig {
            hot_cache_bytes: 1 << 20,
            num_shards: 4,
            thread_num: 7,
            ..Default::default()
        };
        assert!(sized.validate().is_ok());
        // Cache-off sharded configs keep the historical bound.
        let off = ClusterConfig {
            num_shards: 4,
            thread_num: 8,
            ..Default::default()
        };
        assert!(off.validate().is_ok());
    }

    #[test]
    fn validate_rejects_deferred_modes_outside_skv_mode() {
        let repl_mode = ReplModeKind::Quorum;
        for mode in [Mode::TcpRedis, Mode::RdmaRedis] {
            let cfg = ClusterConfig {
                mode,
                repl_mode,
                ..Default::default()
            };
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("repl_mode"), "unexpected error: {err}");
        }
        let skv = ClusterConfig {
            repl_mode,
            ..Default::default()
        };
        assert!(skv.validate().is_ok(), "quorum on SKV rejected");
        // The async stream is every mode's default.
        for mode in [Mode::TcpRedis, Mode::RdmaRedis, Mode::Skv] {
            assert!(ClusterConfig::for_mode(mode).validate().is_ok());
        }
    }

    #[test]
    fn nic_threads_clamped() {
        let mut cfg = ClusterConfig {
            thread_num: 16,
            num_slaves: 3,
            ..Default::default()
        };
        assert_eq!(cfg.effective_nic_threads(), 3, "min(cores=8, slaves=3)");
        cfg.num_slaves = 20;
        assert_eq!(cfg.effective_nic_threads(), 8, "min(cores=8, slaves=20)");
        cfg.thread_num = 0;
        assert_eq!(cfg.effective_nic_threads(), 1, "at least one");
    }

    #[test]
    fn the_front_end_runs_on_every_core_the_fanout_leaves_free() {
        // The default: one fan-out thread on core 0, seven front-end cores.
        let mut cfg = ClusterConfig::default();
        assert_eq!(cfg.nic_front_end_cores(), 1..8);
        // Threads are counted after the clamp: 5 asked, 3 slaves, so 3.
        cfg.thread_num = 5;
        assert_eq!(cfg.nic_front_end_cores(), 3..8);
        cfg.num_slaves = 7;
        cfg.thread_num = 7;
        assert_eq!(cfg.nic_front_end_cores(), 7..8, "the last core alone");
        // Threads on every core: the front end shares the last one.
        cfg.thread_num = 8;
        assert_eq!(cfg.nic_front_end_cores(), 7..8);
        cfg.thread_num = 16;
        cfg.num_slaves = 20;
        assert_eq!(cfg.nic_front_end_cores(), 7..8);
        // A one-core SoC runs everything on core 0.
        cfg.machines.nic_cores = 1;
        assert_eq!(cfg.nic_front_end_cores(), 0..1);
    }
}
