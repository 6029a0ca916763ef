//! Cluster builder and experiment harness.
//!
//! Assembles the paper's testbed in the simulator: a master host (with a
//! SmartNIC SoC in SKV mode), N slave hosts, a client host, and the 100 Gb
//! fabric between them; wires up the replication topology; runs a measured
//! workload; and produces a [`RunReport`] — the clients' summary — plus
//! [`Cluster::counters_snapshot`], the one export of every counter.

use skv_netsim::{FabricStat, FaultPlan, Net, NodeId, Partition, SocketAddr, TimeWindow, Topology};
use skv_simcore::stats::{CounterSet, CounterSlot, Counters};
use skv_simcore::{ActorId, SimDuration, SimTime, Simulation};

use crate::client::{BenchClient, Workload};
use crate::config::{ClusterConfig, Mode};
use crate::histcheck::{self, SharedHistory};
use crate::hotcache::{HotCache, ENTRY_OVERHEAD};
use crate::metrics::catalog::{ClientStat, HistStat, ShardStat, StoreStat};
use crate::metrics::{MetricsHub, RunReport, SharedMetrics};
use crate::nickv::{NicControl, NicKv};
use crate::probes::{self, HistReader, HistWriter, ReadAnchor};
use crate::replmode::quorum_slave_acks;
use crate::server::{Control, KvServer};

/// Well-known ports.
pub const KV_PORT: u16 = 6379;
/// Nic-KV's RDMA listen port on the SmartNIC SoC.
pub const NIC_PORT: u16 = 7000;
/// Nic-KV's cache front end on the SmartNIC SoC (cache-on runs): the port
/// clients and history probes dial instead of the master's.
pub const NIC_FE_PORT: u16 = 7001;

/// Workload + measurement parameters for one run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Cluster shape and calibration.
    pub cfg: ClusterConfig,
    /// Number of concurrent closed-loop client connections.
    pub num_clients: usize,
    /// Commands in flight per connection (1 = the paper's setting).
    pub pipeline: usize,
    /// Fraction of SET operations (1.0 = pure SET, 0.0 = pure GET).
    pub set_ratio: f64,
    /// Keys per write batch: 0 or 1 issues plain SETs (the default);
    /// `n >= 2` turns every write into an `MSET` of `n` uniform random
    /// keys, which spans shards with high probability on a sharded
    /// cluster — the cross-shard stressor.
    pub mset_keys: usize,
    /// SET value size in bytes.
    pub value_size: usize,
    /// Number of distinct keys.
    pub key_space: u64,
    /// Zipf skew exponent θ for client key draws; 0 (the default) keeps
    /// the historical uniform workload bit-identical. See
    /// [`crate::client::Workload::zipf_theta`].
    pub zipf_theta: f64,
    /// Rotate the Zipf hot set every this many key draws (0 = static).
    pub zipf_shift_every: u64,
    /// Warm-up time before measurement starts (after sync grace).
    pub warmup: SimDuration,
    /// Measurement window length.
    pub measure: SimDuration,
    /// Root seed.
    pub seed: u64,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            cfg: ClusterConfig::default(),
            num_clients: 8,
            pipeline: 1,
            set_ratio: 1.0,
            mset_keys: 0,
            value_size: 64,
            key_space: 10_000,
            zipf_theta: 0.0,
            zipf_shift_every: 0,
            warmup: SimDuration::from_millis(500),
            measure: SimDuration::from_secs(4),
            seed: 42,
        }
    }
}

impl RunSpec {
    /// [`ClusterConfig::validate`], plus what only the workload can say: a
    /// hot cache too small for one of this run's values would admit
    /// nothing — a misconfiguration, not a cache.
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.cfg.validate()?;
        // A GET reply is the bulk frame `$<len>\r\n<value>\r\n`.
        let reply = 1 + self.value_size.to_string().len() + 2 + self.value_size + 2;
        let entry = reply + ENTRY_OVERHEAD;
        if self.cfg.hot_cache_bytes > 0 && self.cfg.hot_cache_bytes < entry {
            return Err(format!(
                "hot_cache_bytes {} cannot fit one entry: a {}-byte value's \
                 GET reply is {reply} bytes + {ENTRY_OVERHEAD} overhead = {entry}",
                self.cfg.hot_cache_bytes, self.value_size,
            ));
        }
        Ok(())
    }
}

/// A fault schedule for one run — plain data, composable with any
/// [`RunSpec`]. Installed via [`Cluster::apply_chaos`].
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Probability that any RDMA message is lost (→ retry-exhaustion
    /// completion error) or any TCP segment costs a retransmission timeout.
    pub loss_prob: f64,
    /// Probability of a latency spike on any message.
    pub delay_prob: f64,
    /// Size of one latency spike.
    pub delay: SimDuration,
    /// Link flaps: `(slave_idx, from, until)` — the slave's node is fully
    /// partitioned from everyone inside the window.
    pub flaps: Vec<(usize, SimTime, SimTime)>,
    /// One bidirectional partition: `(slave_idxs, from, until)` — the
    /// listed slaves vs. the rest of the cluster.
    pub partition: Option<(Vec<usize>, SimTime, SimTime)>,
    /// SmartNIC SoC crash window `(crash_at, recover_at)` — independent of
    /// the host (the degradation scenario). Ignored outside SKV mode.
    pub nic_crash: Option<(SimTime, SimTime)>,
    /// Seed for the fault-side RNG (independent of the workload seed).
    pub seed: u64,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            loss_prob: 0.0,
            delay_prob: 0.0,
            delay: SimDuration::from_micros(500),
            flaps: Vec::new(),
            partition: None,
            nic_crash: None,
            seed: 7,
        }
    }
}

/// A built cluster ready to run.
pub struct Cluster {
    /// The simulation (exposed for tests that drive time manually).
    pub sim: Simulation,
    /// The fabric handle.
    pub net: Net,
    /// Master Host-KV actor.
    pub master: ActorId,
    /// Nic-KV actor (SKV mode only).
    pub nic: Option<ActorId>,
    /// Slave Host-KV actors.
    pub slaves: Vec<ActorId>,
    /// Nodes the slaves run on (for failure injection).
    pub slave_nodes: Vec<NodeId>,
    /// Node the master runs on.
    pub master_node: NodeId,
    /// Node the clients run on.
    pub client_node: NodeId,
    /// Node the SmartNIC SoC runs on (SKV mode only).
    pub nic_node: Option<NodeId>,
    /// Client actors.
    pub clients: Vec<ActorId>,
    /// Op history recorded by the bench clients themselves, when
    /// `ClusterConfig::record_history` is set — the linearizability
    /// checker's input. `None` otherwise (recording off is the default
    /// and leaves the client schedule bit-identical).
    pub bench_history: Option<SharedHistory>,
    /// Shared metrics sink.
    pub metrics: SharedMetrics,
    /// The spec this cluster was built from.
    pub spec: RunSpec,
    /// When clients start issuing.
    pub clients_start: SimTime,
    /// Start of the measurement window.
    pub measure_from: SimTime,
    /// End of the measurement window (clients stop issuing).
    pub measure_until: SimTime,
}

impl Cluster {
    /// Build the full testbed for `spec`.
    pub fn build(spec: RunSpec) -> Cluster {
        let mut sim = Simulation::new(spec.seed);
        if let Err(e) = spec.validate() {
            panic!("invalid RunSpec: {e}");
        }
        let cfg = &spec.cfg;

        // --- topology: master + slaves + one client machine + SmartNIC ---
        let mut topo = Topology::new();
        let master_node = topo.add_host();
        let slave_nodes: Vec<NodeId> = (0..cfg.num_slaves).map(|_| topo.add_host()).collect();
        let client_node = topo.add_host();
        let nic_node = if cfg.mode == Mode::Skv {
            Some(topo.add_smartnic(master_node))
        } else {
            None
        };
        let net = Net::install(&mut sim, topo, cfg.net.clone());

        // --- timeline ---
        let sync_grace = SimDuration::from_millis(100);
        let clients_start = SimTime::ZERO + sync_grace;
        let measure_from = clients_start + spec.warmup;
        let measure_until = measure_from + spec.measure;
        let metrics = MetricsHub::new(measure_from, measure_until);

        // --- servers ---
        let master_addr = SocketAddr::new(master_node, KV_PORT);
        let master = sim.add_actor(Box::new(KvServer::new(
            net.clone(),
            cfg.clone(),
            master_node,
            master_addr,
            spec.seed ^ 0x11,
        )));

        let nic_addr = nic_node.map(|n| SocketAddr::new(n, NIC_PORT));
        let nic = nic_node.map(|n| {
            sim.add_actor(Box::new(NicKv::new(
                net.clone(),
                cfg.clone(),
                n,
                SocketAddr::new(n, NIC_PORT),
            )))
        });

        let mut slaves = Vec::with_capacity(cfg.num_slaves);
        for (i, &node) in slave_nodes.iter().enumerate() {
            let addr = SocketAddr::new(node, KV_PORT);
            let id = sim.add_actor(Box::new(KvServer::new(
                net.clone(),
                cfg.clone(),
                node,
                addr,
                spec.seed ^ (0x100 + i as u64),
            )));
            slaves.push(id);
        }

        // --- wiring: master → NIC, then slaves → SLAVEOF ---
        if let (Some(nic_addr), Some(_)) = (nic_addr, nic) {
            sim.schedule(
                SimTime::from_millis(1),
                master,
                Control::ConnectNic { nic: nic_addr },
            );
        }
        for (i, &slave) in slaves.iter().enumerate() {
            sim.schedule(
                SimTime::from_millis(5 + 2 * i as u64),
                slave,
                Control::Slaveof {
                    master: master_addr,
                    nic: nic_addr,
                },
            );
        }

        // --- clients ---
        let workload = Workload {
            pipeline: spec.pipeline,
            set_ratio: spec.set_ratio,
            mset_keys: spec.mset_keys,
            key_space: spec.key_space,
            value_size: spec.value_size,
            zipf_theta: spec.zipf_theta,
            zipf_shift_every: spec.zipf_shift_every,
            start_at: clients_start,
            stop_at: measure_until,
        };
        let client_target = front_addr(cfg, nic_node, master_addr);
        let bench_history = cfg.record_history.then(histcheck::new_history);
        let clients: Vec<ActorId> = (0..spec.num_clients)
            .map(|i| {
                let mut client = BenchClient::new(
                    net.clone(),
                    cfg.clone(),
                    client_node,
                    client_target,
                    workload.clone(),
                    metrics.clone(),
                );
                if let Some(history) = &bench_history {
                    client.record_into(i, history.clone());
                }
                sim.add_actor(Box::new(client))
            })
            .collect();

        Cluster {
            sim,
            net,
            master,
            nic,
            slaves,
            slave_nodes,
            master_node,
            client_node,
            nic_node,
            clients,
            bench_history,
            metrics,
            spec,
            clients_start,
            measure_from,
            measure_until,
        }
    }

    /// Every node in the testbed (master, slaves, client machine, SoC).
    fn all_nodes(&self) -> Vec<NodeId> {
        let mut nodes = vec![self.master_node, self.client_node];
        nodes.extend(&self.slave_nodes);
        nodes.extend(self.nic_node);
        nodes
    }

    /// Install a fault schedule: builds the fabric's [`FaultPlan`] and
    /// schedules any SoC crash/recovery events.
    pub fn apply_chaos(&mut self, chaos: &ChaosSpec) {
        let mut plan = FaultPlan::new(chaos.seed);
        plan.default_loss = chaos.loss_prob;
        plan.default_delay_prob = chaos.delay_prob;
        plan.default_delay = chaos.delay;
        for &(idx, from, until) in &chaos.flaps {
            let node = self.slave_nodes[idx];
            let others: Vec<NodeId> = self
                .all_nodes()
                .into_iter()
                .filter(|&n| n != node)
                .collect();
            plan.partitions.push(Partition {
                a: vec![node],
                b: others,
                window: TimeWindow::new(from, until),
            });
        }
        if let Some((idxs, from, until)) = &chaos.partition {
            let a: Vec<NodeId> = idxs.iter().map(|&i| self.slave_nodes[i]).collect();
            let b: Vec<NodeId> = self
                .all_nodes()
                .into_iter()
                .filter(|n| !a.contains(n))
                .collect();
            plan.partitions.push(Partition {
                a,
                b,
                window: TimeWindow::new(*from, *until),
            });
        }
        self.net.set_fault_plan(plan);
        if let Some((crash_at, recover_at)) = chaos.nic_crash {
            self.schedule_nic_crash(crash_at);
            self.schedule_nic_recover(recover_at);
        }
    }

    /// Deploy the history probe actors (see [`crate::probes`]) on the
    /// client machine: [`probes::WRITERS`] single-writer actors against
    /// the master and [`probes::READERS`] readers against `anchor`. Call
    /// after [`Cluster::build`], before running. The returned handle holds
    /// the recorded history for [`histcheck::check_linearizable`].
    pub fn add_history(&mut self, anchor: ReadAnchor) -> SharedHistory {
        let history = histcheck::new_history();
        let cfg = self.spec.cfg.clone();
        // With the hot-key cache on, the history probes exercise the NIC
        // front end exactly like the bench clients: writers and
        // master-anchored readers dial the Nic-KV, so stale cache hits
        // surface as non-monotone reads.
        let master_addr = SocketAddr::new(self.master_node, KV_PORT);
        let front_addr = front_addr(&cfg, self.nic_node, master_addr);
        let slave_addrs: Vec<SocketAddr> = self
            .slave_nodes
            .iter()
            .map(|&n| SocketAddr::new(n, KV_PORT))
            .collect();
        let (targets, read_quorum) = match anchor {
            ReadAnchor::Master => (vec![front_addr], 1),
            ReadAnchor::Slave(i) => (vec![slave_addrs[i]], 1),
            ReadAnchor::MasterQuorum => {
                let mut t = vec![front_addr];
                t.extend(slave_addrs.iter().copied());
                (t, quorum_slave_acks(cfg.num_slaves) + 1)
            }
        };
        let start = self.clients_start;
        let stop = self.measure_until;
        for w in 0..probes::WRITERS {
            self.sim.add_actor(Box::new(HistWriter::new(
                self.net.clone(),
                cfg.clone(),
                self.client_node,
                front_addr,
                history.clone(),
                w,
                start,
                stop,
            )));
        }
        for _ in 0..probes::READERS {
            self.sim.add_actor(Box::new(HistReader::new(
                self.net.clone(),
                cfg.clone(),
                self.client_node,
                targets.clone(),
                read_quorum,
                history.clone(),
                start,
                stop,
            )));
        }
        history
    }

    /// Schedule a SmartNIC SoC crash at `at` (SKV mode; no-op otherwise).
    pub fn schedule_nic_crash(&mut self, at: SimTime) {
        if let Some(nic) = self.nic {
            self.sim.schedule(at, nic, NicControl::Crash);
        }
    }

    /// Schedule the SoC's recovery.
    pub fn schedule_nic_recover(&mut self, at: SimTime) {
        if let Some(nic) = self.nic {
            self.sim.schedule(at, nic, NicControl::Recover);
        }
    }

    /// Schedule a slave crash at `at` (relative to simulation start).
    pub fn schedule_slave_crash(&mut self, slave_idx: usize, at: SimTime) {
        self.sim
            .schedule(at, self.slaves[slave_idx], Control::Crash);
    }

    /// Schedule a slave recovery at `at`.
    pub fn schedule_slave_recover(&mut self, slave_idx: usize, at: SimTime) {
        self.sim
            .schedule(at, self.slaves[slave_idx], Control::Recover);
    }

    /// Schedule a master crash / recovery (for failover experiments).
    pub fn schedule_master_crash(&mut self, at: SimTime) {
        self.sim.schedule(at, self.master, Control::Crash);
    }

    /// Schedule the master's recovery.
    pub fn schedule_master_recover(&mut self, at: SimTime) {
        self.sim.schedule(at, self.master, Control::Recover);
    }

    /// Run to just past the measurement window and summarize.
    pub fn run(&mut self) -> RunReport {
        let deadline = self.measure_until + SimDuration::from_millis(200);
        self.sim.run_until(deadline);
        self.report()
    }

    /// Run until `deadline` (for experiments with their own schedules).
    pub fn run_until(&mut self, deadline: SimTime) -> RunReport {
        self.sim.run_until(deadline);
        self.report()
    }

    /// Summarize the clients' view of the run so far: throughput,
    /// latency percentiles and the completion series. Counters leave a run
    /// through [`Cluster::counters_snapshot`] alone.
    pub fn report(&self) -> RunReport {
        RunReport::from_hub(self.spec.cfg.mode.label(), &self.metrics.borrow())
    }

    /// Dump every counter in the testbed, keyed by subsystem: every name
    /// of every [`crate::metrics::catalog`] family — `server.*` (master +
    /// slaves summed), `nic.*`, `client.*` (all clients summed), `store.*`
    /// (all engines summed), `shard.*`, `cache.*`, `hist.*` — zero when
    /// never hit or when the part is absent, so ablation tables get a
    /// stable schema; plus the fabric's `rdma.*` (always) and the
    /// `faults.*` / `tcp.*` it wrote. This is the one way counters leave a
    /// run: the benchmark, the ablations, the tests and the determinism
    /// digest all read it.
    pub fn counters_snapshot(&self) -> Counters {
        let mut out = Counters::new();
        let mut servers = vec![self.master_server()];
        servers.extend((0..self.slaves.len()).map(|i| self.slave_server(i)));
        let mut store = CounterSet::default();
        let mut shard = CounterSet::default();
        for s in &servers {
            s.stats().export(&mut out);
            shard.add(ShardStat::Ops, s.shard_ops().iter().sum::<u64>());
            shard.add(ShardStat::CrossMsgs, s.shards().cross_msgs());
            for engine in s.shards().engines() {
                let db = engine.db();
                let (hits, misses) = db.stats_hit_miss();
                store.add(StoreStat::Hits, hits);
                store.add(StoreStat::Misses, misses);
                store.add(StoreStat::Expired, db.stat_expired());
            }
        }
        let depth = servers.iter().map(|s| s.apply_queue_depth()).max();
        shard.add(ShardStat::QueueDepth, depth.unwrap_or(0));
        let nic = self.nic_kv();
        let ingress = nic.map_or(0, |n| n.shard_ingress().iter().sum::<u64>());
        shard.add(ShardStat::NicIngress, ingress);
        store.export(&mut out);
        shard.export(&mut out);
        nic.map(NicKv::stats).unwrap_or_default().export(&mut out);
        let cache = nic.and_then(|n| n.front_end().cache()).map(HotCache::stats);
        cache.unwrap_or_default().export(&mut out);
        let mut clients = CounterSet::<ClientStat>::default();
        let bench = self.clients.iter();
        for c in bench.filter_map(|&id| self.sim.actor_ref::<BenchClient>(id)) {
            clients.merge(c.stats());
        }
        clients.export(&mut out);
        let mut hist = CounterSet::default();
        if let Some(history) = &self.bench_history {
            for op in &history.borrow().ops {
                hist.inc(match op.kind {
                    histcheck::OpKind::Read => HistStat::Reads,
                    histcheck::OpKind::Write => HistStat::Writes,
                });
                hist.inc(HistStat::Ops);
                hist.add(HistStat::Aborts, u64::from(op.aborted));
            }
        }
        hist.export(&mut out);
        // The fabric exports what it wrote; its `rdma.*` read zero from
        // the start, so every mode has the same RDMA schema.
        for &name in FabricStat::NAMES.iter().filter(|n| n.starts_with("rdma.")) {
            out.add(name, 0);
        }
        out.merge(&self.net.counters());
        out
    }

    /// Execute commands directly on the master's engine — for preloading a
    /// dataset before slaves attach (it bypasses the replication stream and
    /// reaches slaves only via the initial full sync).
    pub fn preload_master(&mut self, commands: &[&[&str]]) {
        let server = self
            .sim
            .actor_mut::<KvServer>(self.master)
            .expect("master is a KvServer");
        for parts in commands {
            let r = server.shards_mut().preload(parts);
            assert!(!r.reply.is_error(), "preload failed: {parts:?}");
        }
    }

    /// Borrow the master server for inspection.
    pub fn master_server(&self) -> &KvServer {
        self.sim
            .actor_ref::<KvServer>(self.master)
            .expect("master is a KvServer")
    }

    /// Borrow a slave server for inspection.
    pub fn slave_server(&self, idx: usize) -> &KvServer {
        self.sim
            .actor_ref::<KvServer>(self.slaves[idx])
            .expect("slave is a KvServer")
    }

    /// Borrow the Nic-KV for inspection (SKV mode).
    pub fn nic_kv(&self) -> Option<&NicKv> {
        self.nic.and_then(|id| self.sim.actor_ref::<NicKv>(id))
    }

    /// How far the slowest slave's replication offset trails the
    /// master's, in bytes (0 without slaves).
    pub fn max_replication_lag(&self) -> u64 {
        let master = self.master_server().repl_offset();
        (0..self.slaves.len())
            .map(|i| master.saturating_sub(self.slave_server(i).repl_offset()))
            .max()
            .unwrap_or(0)
    }

    /// All keyspace digests (master first), for convergence checks.
    pub fn keyspace_digests(&self) -> Vec<u64> {
        let mut out = vec![self.master_server().shards().digest()];
        for i in 0..self.slaves.len() {
            out.push(self.slave_server(i).shards().digest());
        }
        out
    }
}

/// Where clients send commands. With the SoC hot-key cache on, that is the
/// Nic-KV front end instead of the host master: hot GETs are answered from
/// SoC memory, everything else is proxied through (see `crate::hotcache`).
/// Cache off keeps the historical direct path.
fn front_addr(cfg: &ClusterConfig, nic_node: Option<NodeId>, master: SocketAddr) -> SocketAddr {
    match nic_node {
        Some(n) if cfg.hot_cache_enabled() => SocketAddr::new(n, NIC_FE_PORT),
        _ => master,
    }
}

/// Convenience: build and run one spec, returning the report.
pub fn run_spec(spec: RunSpec) -> RunReport {
    Cluster::build(spec).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::catalog::{CacheStat, NicStat, ServerStat};

    fn small_spec(mode: Mode) -> RunSpec {
        let mut cfg = ClusterConfig::for_mode(mode);
        cfg.num_slaves = if mode == Mode::TcpRedis { 0 } else { 2 };
        RunSpec {
            cfg,
            num_clients: 2,
            warmup: SimDuration::from_millis(100),
            measure: SimDuration::from_millis(400),
            ..Default::default()
        }
    }

    #[test]
    fn validate_rejects_budget_below_one_entry() {
        // A 64-byte value's GET reply is `$64\r\n` + 64 + `\r\n` = 71 bytes.
        let floor = 71 + ENTRY_OVERHEAD;
        let mut spec = small_spec(Mode::Skv);
        spec.cfg.hot_cache_bytes = floor - 1;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("cannot fit one entry"), "{err}");
        // Exactly one entry is the floor, and the floor moves with the
        // workload's values, not with a knob.
        spec.cfg.hot_cache_bytes = floor;
        assert!(spec.validate().is_ok());
        spec.value_size = 4096;
        assert!(spec.validate().is_err());
        // Cache off: nothing to fit.
        spec.cfg.hot_cache_bytes = 0;
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn skv_cluster_smoke() {
        let mut cluster = Cluster::build(small_spec(Mode::Skv));
        let report = cluster.run();
        assert!(report.ops > 100, "ops {}", report.ops);
        assert_eq!(report.errors, 0);
        assert!(report.throughput_kops > 1.0);
        // All slaves synced.
        for i in 0..cluster.slaves.len() {
            assert!(cluster.slave_server(i).is_synced_slave(), "slave {i}");
        }
        // NIC actually fanned out.
        let nic = cluster.nic_kv().expect("SKV has a NIC");
        assert!(nic.stats().get(NicStat::FanoutMsgs) > 0);
        assert_eq!(nic.nodes().available_slaves(), 2);
    }

    #[test]
    fn rdma_redis_cluster_smoke() {
        let mut cluster = Cluster::build(small_spec(Mode::RdmaRedis));
        let report = cluster.run();
        assert!(report.ops > 100);
        assert!(cluster.nic_kv().is_none());
    }

    #[test]
    fn tcp_redis_cluster_smoke() {
        let mut cluster = Cluster::build(small_spec(Mode::TcpRedis));
        let report = cluster.run();
        assert!(report.ops > 50, "ops {}", report.ops);
    }

    /// SKV with the hot cache and two shards — the spec that turns every
    /// family on.
    fn cached_sharded_spec() -> RunSpec {
        let mut spec = small_spec(Mode::Skv);
        spec.cfg.hot_cache_bytes = 64 << 10;
        spec.cfg.num_shards = 2;
        spec.set_ratio = 0.5;
        spec
    }

    #[test]
    fn counters_snapshot_covers_catalog() {
        use std::collections::BTreeSet;

        fn names<S: CounterSlot>() -> impl Iterator<Item = &'static str> {
            S::NAMES.iter().copied()
        }
        let arms = [
            ("skv+cache+2 shards", cached_sharded_spec()),
            ("skv", small_spec(Mode::Skv)),
            ("rdma-redis", small_spec(Mode::RdmaRedis)),
            ("tcp-redis", small_spec(Mode::TcpRedis)),
        ];
        for (arm, spec) in arms {
            let mut cluster = Cluster::build(spec);
            cluster.run();
            let snap = cluster.counters_snapshot();
            let got: BTreeSet<&str> = snap.iter().map(|(k, _)| k).collect();
            // Every declared family, each name once; the fabric's `rdma.*`
            // always and its `faults.*` / `tcp.*` as written.
            let fabric = cluster.net.counters();
            let expected: BTreeSet<&str> = names::<ServerStat>()
                .chain(names::<NicStat>())
                .chain(names::<ClientStat>())
                .chain(names::<StoreStat>())
                .chain(names::<ShardStat>())
                .chain(names::<CacheStat>())
                .chain(names::<HistStat>())
                .chain(names::<FabricStat>().filter(|n| n.starts_with("rdma.")))
                .chain(fabric.iter().map(|(k, _)| k))
                .collect();
            assert_eq!(got, expected, "{arm}");
            for (name, value) in fabric.iter() {
                assert_eq!(snap.get(name), value, "{arm}: {name}");
            }
            // And the busy ones really counted.
            assert!(snap.get("server.stat_commands") > 0, "{arm}");
            assert!(snap.get("client.stat_replies") > 0, "{arm}");
            let nic = snap.get("nic.stat_fanout_msgs");
            let cache = snap.get("cache.hits");
            match arm {
                "tcp-redis" => assert!(snap.get("tcp.messages") > 0),
                _ => assert!(snap.get("rdma.wrs_posted") > 0, "{arm}"),
            }
            match arm {
                "skv+cache+2 shards" => assert!(nic > 0 && cache > 0),
                "skv" => assert!(nic > 0 && cache == 0),
                // No NIC: its parts zero-fill.
                _ => {
                    let zero = |prefix| snap.iter().all(|(k, v)| !k.starts_with(prefix) || v == 0);
                    assert!(zero("nic.") && zero("cache.") && zero("hist."), "{arm}");
                }
            }
        }
    }

    #[test]
    fn shard_queue_depth_is_the_deepest_ring() {
        let mut cluster = Cluster::build(cached_sharded_spec());
        cluster.run();
        let depths: Vec<u64> = std::iter::once(cluster.master_server())
            .chain((0..cluster.slaves.len()).map(|i| cluster.slave_server(i)))
            .map(KvServer::apply_queue_depth)
            .collect();
        let deepest = depths.iter().copied().max().unwrap_or(0);
        assert!(deepest > 0, "a slave applied a sharded stream: {depths:?}");
        // Both slaves reach that depth, so a sum over servers would read
        // double.
        assert!(depths.iter().sum::<u64>() > deepest, "{depths:?}");
        assert_eq!(
            cluster.counters_snapshot().get("shard.queue_depth"),
            deepest
        );
    }

    #[test]
    fn deterministic_runs() {
        let r1 = run_spec(small_spec(Mode::Skv));
        let r2 = run_spec(small_spec(Mode::Skv));
        assert_eq!(r1.ops, r2.ops);
        assert_eq!(r1.p99_latency_us, r2.p99_latency_us);
    }
}
