//! Run-wide measurement: latency histograms, completion time series, and
//! the report type every experiment prints. The report is the clients'
//! summary only; counters leave a run through one export,
//! [`Cluster::counters_snapshot`](crate::cluster::Cluster::counters_snapshot),
//! under the names the [`catalog`] families declare.

use std::cell::RefCell;
use std::rc::Rc;

use skv_simcore::stats::{Histogram, SeriesPoint, TimeSeries};
use skv_simcore::{SimDuration, SimTime};

/// Canonical counter catalog: every core counter family, each name
/// written once, in its [`counter_slots!`](skv_simcore::counter_slots)
/// declaration.
///
/// An owner holds a [`CounterSet`](skv_simcore::stats::CounterSet) of its
/// family and counts into it by slot; families read at snapshot time
/// (`store.*`, `shard.*`, `hist.*`) are sets the snapshot fills in.
/// [`Cluster::counters_snapshot`](crate::cluster::Cluster::counters_snapshot)
/// exports every name of every family, zero when never hit, plus the
/// fabric's `rdma.*` ([`skv_netsim::FabricStat`]) and whichever `faults.*`
/// / `tcp.*` the fabric wrote. The names are frozen: the benchmark, the
/// ablations and the pinned determinism digests read them.
pub mod catalog {
    skv_simcore::counter_slots! {
        /// Host-KV server counters (`server.rs`), summed over master +
        /// slaves.
        pub enum ServerStat {
            /// Commands executed.
            Commands => "server.stat_commands",
            /// Write commands rejected due to `min-slaves` or lag.
            Rejected => "server.stat_rejected",
            /// Stream bytes applied (slave side).
            AppliedBytes => "server.stat_applied_bytes",
            /// Full syncs, counted at both ends: a master adds one per
            /// snapshot it sends, a replica one per snapshot it loads, so
            /// summed over a cluster every completed full sync reads two.
            FullSyncs => "server.stat_full_syncs",
            /// Partial syncs, counted at both ends like `FullSyncs`: one per
            /// range a master sends, one per `PartialSyncBegin` a replica
            /// receives.
            PartialSyncs => "server.stat_partial_syncs",
            /// Dial retries issued after connect failures.
            Reconnects => "server.stat_reconnects",
            /// Connections torn down after transport errors.
            ConnErrors => "server.stat_conn_errors",
            /// Times the master fell back to host-driven fan-out (SKV mode).
            Degradations => "server.stat_degradations",
            /// Doorbells the command path was charged for: one per reply,
            /// one per replication fan-out however many slaves it reaches.
            Doorbells => "server.stat_doorbells",
            /// WRs the command path was charged for — batching amortizes
            /// doorbells, never work requests.
            WrsPosted => "server.stat_wrs_posted",
            /// Client replies deferred behind replication commit (quorum).
            DeferredReplies => "server.stat_deferred_replies",
            /// Deferred replies released after a commit or census advance.
            ReleasedReplies => "server.stat_released_replies",
        }

        /// Nic-KV counters. Each part of the SoC counts its own slots in
        /// a set of its own — the actor (fan-out, probes, failover,
        /// retransmits), its connection table (doorbells and WRs), the
        /// [`Tracker`](crate::replmode::Tracker) (commits) and the
        /// [`SocFrontEnd`](crate::hotcache::SocFrontEnd) (stale forwards)
        /// — and [`NicKv::stats`](crate::nickv::NicKv::stats) sums them.
        pub enum NicStat {
            /// Replicated writes fanned out.
            FanoutMsgs => "nic.stat_fanout_msgs",
            /// Per-slave sends performed.
            FanoutSends => "nic.stat_fanout_sends",
            /// Doorbells rung by the replication fan-out: one per
            /// replicated write, however many slaves it went to (plus one
            /// per staged frame a handshake flush posted on its own).
            Doorbells => "nic.stat_doorbells",
            /// WRs posted by the replication fan-out (batching amortizes
            /// doorbells, not work requests).
            WrsPosted => "nic.stat_wrs_posted",
            /// Probes sent.
            Probes => "nic.stat_probes",
            /// Master failovers performed.
            Failovers => "nic.stat_failovers",
            /// Tracked writes committed (quorum).
            Commits => "nic.stat_commits",
            /// Quorum-mode retransmissions to re-registering slaves.
            Retransmits => "nic.stat_retransmits",
            /// Replies for forwarded commands dropped because their cookie
            /// carried a stale (pre-restart) epoch.
            FwdStaleDrops => "nic.stat_fwd_stale_drops",
        }

        /// Bench-client counters (`client.rs`), summed over all clients.
        pub enum ClientStat {
            /// Operations issued.
            Issued => "client.stat_issued",
            /// Replies received.
            Replies => "client.stat_replies",
            /// Connections abandoned and re-established after reply
            /// timeouts.
            Reconnects => "client.stat_reconnects",
            /// Failed dial attempts (each one schedules a backed-off
            /// redial).
            DialFailures => "client.stat_dial_failures",
        }

        /// Storage-engine counters (`skv-store`'s `Db`), summed over
        /// engines; read at snapshot time.
        pub enum StoreStat {
            /// Keys expired (lazy + active).
            Expired => "store.stat_expired",
            /// Read lookups that found their key.
            Hits => "store.stat_hits",
            /// Read lookups that did not.
            Misses => "store.stat_misses",
        }

        /// Sharded-engine counters (`shard.rs` + the sharded `server.rs`
        /// paths), read at snapshot time. `Ops` counts at any shard count;
        /// the rest stay zero when `num_shards = 1`.
        pub enum ShardStat {
            /// Fragment handoffs between shards.
            CrossMsgs => "shard.cross_msgs",
            /// The NIC's per-shard replication ingress, summed.
            NicIngress => "shard.nic_ingress",
            /// Commands executed per shard, summed.
            Ops => "shard.ops",
            /// The deepest slave parse→apply ring occupancy of any server.
            QueueDepth => "shard.queue_depth",
        }

        /// NIC-resident hot-key GET cache counters (`hotcache.rs`). All
        /// stay zero when `hot_cache_bytes = 0`.
        pub enum CacheStat {
            /// Replies admitted into the cache.
            Admits => "cache.admits",
            /// Resident bytes at snapshot time (read, not counted).
            Bytes => "cache.bytes",
            /// Entries evicted to make room under the byte budget.
            Evicts => "cache.evicts",
            /// GETs answered straight from SoC memory.
            Hits => "cache.hits",
            /// Entries dropped or refreshed by stream-driven invalidation.
            Invalidations => "cache.invalidations",
            /// GETs that fell through to the host path.
            Misses => "cache.misses",
        }

        /// History-recorder counters (`histcheck.rs` event logs produced
        /// by the bench clients once `Cluster::record_history` is called),
        /// read at snapshot time. All stay zero when recording is off.
        pub enum HistStat {
            /// Reads abandoned by a dial-away (excluded from the
            /// linearizability search).
            Aborts => "hist.aborts",
            /// Recorded ops.
            Ops => "hist.ops",
            /// Recorded reads.
            Reads => "hist.reads",
            /// Recorded writes.
            Writes => "hist.writes",
        }
    }
}

/// Shared measurement sink written by client actors.
pub struct MetricsHub {
    /// Latency of SET (and other write) operations.
    pub set_latency: Histogram,
    /// Latency of GET (and other read) operations.
    pub get_latency: Histogram,
    /// All operations together.
    pub all_latency: Histogram,
    /// Completions bucketed over time (for throughput-vs-time plots).
    pub completions: TimeSeries,
    /// Operations that completed inside the measurement window.
    pub ops: u64,
    /// Error replies observed (e.g. `min-slaves` rejections).
    pub errors: u64,
    /// Start of the measurement window.
    pub measure_from: SimTime,
    /// End of the measurement window.
    pub measure_until: SimTime,
}

/// Cheaply cloneable handle to a [`MetricsHub`].
pub type SharedMetrics = Rc<RefCell<MetricsHub>>;

impl MetricsHub {
    /// Create a hub measuring `[from, until]`, with 500 ms series buckets.
    pub fn new(from: SimTime, until: SimTime) -> SharedMetrics {
        Rc::new(RefCell::new(MetricsHub {
            set_latency: Histogram::new(),
            get_latency: Histogram::new(),
            all_latency: Histogram::new(),
            completions: TimeSeries::new(SimDuration::from_millis(500)),
            ops: 0,
            errors: 0,
            measure_from: from,
            measure_until: until,
        }))
    }

    /// Record one completed operation.
    pub fn record(&mut self, at: SimTime, latency: SimDuration, is_write: bool, is_error: bool) {
        // The time series covers the whole run (Figure 14 needs it).
        self.completions.record(at);
        if at < self.measure_from || at > self.measure_until {
            return;
        }
        self.ops += 1;
        if is_error {
            self.errors += 1;
            return;
        }
        self.all_latency.record_duration(latency);
        if is_write {
            self.set_latency.record_duration(latency);
        } else {
            self.get_latency.record_duration(latency);
        }
    }
}

/// Summary of one experiment run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which system produced it ("SKV", "RDMA-Redis", "Redis").
    pub label: String,
    /// Operations completed inside the measurement window.
    pub ops: u64,
    /// Error replies inside the window.
    pub errors: u64,
    /// Throughput in kops/s over the window.
    pub throughput_kops: f64,
    /// Mean latency, microseconds.
    pub avg_latency_us: f64,
    /// Median latency, microseconds.
    pub p50_latency_us: f64,
    /// 95th percentile latency, microseconds.
    pub p95_latency_us: f64,
    /// 99th percentile ("tail") latency, microseconds.
    pub p99_latency_us: f64,
    /// Throughput over time (500 ms buckets) across the whole run.
    pub series: Vec<SeriesPoint>,
}

impl RunReport {
    /// Build a report from a hub after the simulation finished.
    pub fn from_hub(label: impl Into<String>, hub: &MetricsHub) -> RunReport {
        let window = hub.measure_until - hub.measure_from;
        let secs = window.as_secs_f64().max(f64::MIN_POSITIVE);
        let h = &hub.all_latency;
        RunReport {
            label: label.into(),
            ops: hub.ops,
            errors: hub.errors,
            throughput_kops: hub.ops as f64 / secs / 1000.0,
            avg_latency_us: h.mean() / 1000.0,
            p50_latency_us: h.p50() as f64 / 1000.0,
            p95_latency_us: h.p95() as f64 / 1000.0,
            p99_latency_us: h.p99() as f64 / 1000.0,
            series: hub.completions.points(),
        }
    }

    /// One fixed-width table row (pairs with [`RunReport::header`]).
    pub fn row(&self) -> String {
        format!(
            "{:<12} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10} {:>8}",
            self.label,
            self.throughput_kops,
            self.avg_latency_us,
            self.p50_latency_us,
            self.p99_latency_us,
            self.ops,
            self.errors
        )
    }

    /// Table header matching [`RunReport::row`].
    pub fn header() -> String {
        format!(
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
            "system", "kops/s", "avg(us)", "p50(us)", "p99(us)", "ops", "errors"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_filter_by_window() {
        let hub = MetricsHub::new(SimTime::from_secs(1), SimTime::from_secs(2));
        let mut h = hub.borrow_mut();
        h.record(
            SimTime::from_millis(500),
            SimDuration::from_micros(10),
            true,
            false,
        ); // before window
        h.record(
            SimTime::from_millis(1500),
            SimDuration::from_micros(20),
            true,
            false,
        ); // inside
        h.record(
            SimTime::from_millis(2500),
            SimDuration::from_micros(30),
            false,
            false,
        ); // after
        assert_eq!(h.ops, 1);
        assert_eq!(h.all_latency.count(), 1);
        assert_eq!(h.set_latency.count(), 1);
        assert_eq!(h.get_latency.count(), 0);
        // But the series saw all three.
        assert_eq!(h.completions.total(), 3);
    }

    #[test]
    fn errors_counted_not_timed() {
        let hub = MetricsHub::new(SimTime::ZERO, SimTime::from_secs(10));
        let mut h = hub.borrow_mut();
        h.record(
            SimTime::from_secs(1),
            SimDuration::from_micros(5),
            true,
            true,
        );
        assert_eq!(h.errors, 1);
        assert_eq!(h.ops, 1);
        assert_eq!(h.all_latency.count(), 0);
    }

    #[test]
    fn report_computes_throughput() {
        let hub = MetricsHub::new(SimTime::ZERO, SimTime::from_secs(2));
        {
            let mut h = hub.borrow_mut();
            for i in 0..1000 {
                h.record(
                    SimTime::from_millis(i),
                    SimDuration::from_micros(50),
                    i % 2 == 0,
                    false,
                );
            }
        }
        let r = RunReport::from_hub("SKV", &hub.borrow());
        assert_eq!(r.ops, 1000);
        assert!((r.throughput_kops - 0.5).abs() < 1e-9);
        assert!((r.avg_latency_us - 50.0).abs() < 0.5);
        assert!(!r.row().is_empty());
        assert!(RunReport::header().contains("p99"));
    }
}
