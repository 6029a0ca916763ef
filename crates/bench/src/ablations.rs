//! Ablation studies for the design choices the paper argues for.
//!
//! * `thread-num` (§III-C): multi-threaded NIC replication shrinks
//!   replication lag but cannot improve client latency/throughput.
//! * NIC-side data store (§IV-A): the rejected design — serving requests
//!   from the off-path SoC is strictly worse.
//! * WR post cost (§V-C): SKV's gain is proportional to slaves × post cost.
//! * Slave count: the offload's benefit grows with the fan-out degree.
//! * `min-slaves` / `waiting-time` (§III-D): detection-latency trade-off.

use skv_core::cluster::{Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::histcheck;
use skv_core::metrics::RunReport;
use skv_core::replmode::ReplModeKind;
use skv_netsim::{FaultPlan, LinkFault, TimeWindow};
use skv_simcore::{SimDuration, SimTime};

use crate::experiments::{MEASURE, WARMUP};

fn spec(mode: Mode, slaves: usize, clients: usize, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(mode);
    cfg.num_slaves = slaves;
    RunSpec {
        cfg,
        num_clients: clients,
        pipeline: 1,
        set_ratio: 1.0,
        mset_keys: 0,
        value_size: 64,
        key_space: 100_000,
        warmup: WARMUP,
        measure: MEASURE,
        seed,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

// ===========================================================================
// thread-num
// ===========================================================================

/// One `thread-num` setting.
#[derive(Debug, Clone)]
pub struct ThreadNumRow {
    /// Configured `thread-num`.
    pub thread_num: usize,
    /// Effective threads after the min(cores, slaves) clamp.
    pub effective: usize,
    /// Client-visible summary (expected ~flat across rows).
    pub report: RunReport,
    /// Maximum replication lag across slaves at measure end, in bytes
    /// (expected to shrink as threads increase).
    pub max_lag_bytes: u64,
    /// Mean ARM-core utilization.
    pub nic_utilization: f64,
}

/// Sweep `thread-num` with a fan-out wide enough (12 slaves) that a single
/// ARM core cannot keep up.
pub fn ablation_threadnum() -> Vec<ThreadNumRow> {
    [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&tn| {
            let mut s = spec(Mode::Skv, 12, 8, 21_000 + tn as u64);
            s.cfg.thread_num = tn;
            // A single ARM core cannot keep up with this fan-out; bound the
            // overload window so the undrained-queue memory stays modest.
            s.measure = SimDuration::from_millis(1_000);
            let effective = s.cfg.effective_nic_threads();
            let mut cluster = Cluster::build(s);
            let report = cluster.run();
            let now = cluster.sim.now();
            let master_offset = cluster.master_server().repl_offset();
            let max_lag_bytes = (0..cluster.slaves.len())
                .map(|i| master_offset.saturating_sub(cluster.slave_server(i).repl_offset()))
                .max()
                .unwrap_or(0);
            let nic_utilization = cluster
                .nic_kv()
                .map(|n| n.mean_utilization(now))
                .unwrap_or(0.0);
            ThreadNumRow {
                thread_num: tn,
                effective,
                report,
                max_lag_bytes,
                nic_utilization,
            }
        })
        .collect()
}

/// Print the thread-num ablation.
pub fn print_threadnum(rows: &[ThreadNumRow]) {
    println!("Ablation — thread-num (SKV, 12 slaves, 8 clients)");
    println!(
        "{:>10} {:>10} {:>12} {:>10} {:>14} {:>10}",
        "thread", "effective", "kops/s", "p99(us)", "max lag (B)", "nic util"
    );
    for r in rows {
        println!(
            "{:>10} {:>10} {:>12.1} {:>10.1} {:>14} {:>10.2}",
            r.thread_num,
            r.effective,
            r.report.throughput_kops,
            r.report.p99_latency_us,
            r.max_lag_bytes,
            r.nic_utilization
        );
    }
}

// ===========================================================================
// NIC-side data store (the rejected design of §IV-A)
// ===========================================================================

/// Comparison of serving GETs from the host vs from the SmartNIC SoC.
#[derive(Debug, Clone)]
pub struct NicStoreResult {
    /// GETs served by Host-KV on the host (SKV's actual design).
    pub host_store: RunReport,
    /// GETs served by a KV store running on the SmartNIC SoC cores.
    pub nic_store: RunReport,
}

/// Run the rejected design: the whole store on the SoC (weak cores, and the
/// client's RDMA path to the SoC costs nearly a full host-to-host hop).
pub fn ablation_nic_datastore() -> NicStoreResult {
    // Host store: plain RDMA-Redis GETs, no slaves.
    let mut host_spec = spec(Mode::RdmaRedis, 0, 8, 22_000);
    host_spec.set_ratio = 0.0;
    let host_store = skv_core::cluster::run_spec(host_spec);

    // NIC store: same server logic, but its event-loop cores are the
    // BlueField's ARM cores. (The cluster builder places servers on hosts;
    // slowing the host cores to the ARM factor models the §IV-A variant —
    // the network path difference is second-order next to the ~3x core
    // speed gap, as the paper's Figure 3 argument implies.)
    let mut nic_spec = spec(Mode::RdmaRedis, 0, 8, 22_001);
    nic_spec.set_ratio = 0.0;
    nic_spec.cfg.machines.host_core_speed = nic_spec.cfg.machines.nic_core_speed;
    let mut nic_store = skv_core::cluster::run_spec(nic_spec);
    nic_store.label = "NIC-store".into();

    NicStoreResult {
        host_store,
        nic_store,
    }
}

/// Print the NIC-datastore ablation.
pub fn print_nic_datastore(r: &NicStoreResult) {
    println!("Ablation — data store placement for GETs (§IV-A rejected design)");
    println!("{:<12} {}", "placement", RunReport::header());
    println!("{:<12} {}", "host", r.host_store.row());
    println!("{:<12} {}", "SmartNIC", r.nic_store.row());
}

// ===========================================================================
// WR post cost
// ===========================================================================

/// One WR-post-cost setting.
#[derive(Debug, Clone)]
pub struct WrCostRow {
    /// `ibv_post_send` CPU cost, nanoseconds.
    pub wr_post_ns: u64,
    /// RDMA-Redis throughput (kops/s).
    pub baseline_kops: f64,
    /// SKV throughput (kops/s).
    pub skv_kops: f64,
    /// SKV gain, percent.
    pub gain_pct: f64,
}

/// Sweep the per-WR host CPU cost: the offload's benefit must scale with it
/// (§V-C's causal claim).
pub fn ablation_wr_cost() -> Vec<WrCostRow> {
    [50u64, 100, 200, 400, 800]
        .iter()
        .map(|&ns| {
            let mut b = spec(Mode::RdmaRedis, 3, 8, 23_000 + ns);
            b.cfg.net.wr_post_cpu = SimDuration::from_nanos(ns);
            let mut s = spec(Mode::Skv, 3, 8, 23_500 + ns);
            s.cfg.net.wr_post_cpu = SimDuration::from_nanos(ns);
            let baseline = skv_core::cluster::run_spec(b);
            let skv = skv_core::cluster::run_spec(s);
            WrCostRow {
                wr_post_ns: ns,
                baseline_kops: baseline.throughput_kops,
                skv_kops: skv.throughput_kops,
                gain_pct: (skv.throughput_kops / baseline.throughput_kops - 1.0) * 100.0,
            }
        })
        .collect()
}

/// Print the WR-cost ablation.
pub fn print_wr_cost(rows: &[WrCostRow]) {
    println!("Ablation — WR post cost vs offload gain (SET, 3 slaves, 8 clients)");
    println!(
        "{:>12} {:>14} {:>12} {:>8}",
        "post(ns)", "RDMA kops", "SKV kops", "gain%"
    );
    for r in rows {
        println!(
            "{:>12} {:>14.1} {:>12.1} {:>+8.1}",
            r.wr_post_ns, r.baseline_kops, r.skv_kops, r.gain_pct
        );
    }
}

// ===========================================================================
// doorbell batching (linked-WR post lists)
// ===========================================================================

/// One slave-count setting of the doorbell-batching ablation.
#[derive(Debug, Clone)]
pub struct WrBatchRow {
    /// Number of slaves (= WRs per replicated write).
    pub slaves: usize,
    /// Client throughput (kops/s).
    pub kops: f64,
    /// Doorbells per replicated write (expected ≈ 1 at every width).
    pub doorbells_per_write: f64,
    /// WRs per replicated write (expected ≈ N — batching amortizes
    /// doorbells, not work requests).
    pub wrs_per_write: f64,
}

/// Sweep the fan-out width. The Nic-KV's own counters show the
/// mechanism: a replicated write posts N WRs as one linked list, so it
/// rings exactly one doorbell however wide the fan-out. (The serial
/// one-doorbell-per-slave arm this table used to carry is recorded in
/// EXPERIMENTS.md; it went with the knob that selected it.)
pub fn ablation_wr_batching() -> Vec<WrBatchRow> {
    [1usize, 2, 3, 5, 8]
        .iter()
        .map(|&n| {
            let mut cluster = Cluster::build(spec(Mode::Skv, n, 8, 29_000 + n as u64));
            let report = cluster.run();
            let (writes, doorbells, wrs) = cluster
                .nic_kv()
                .map(|nic| {
                    (
                        nic.stat_fanout_msgs,
                        nic.stat_doorbells(),
                        nic.stat_wrs_posted(),
                    )
                })
                .unwrap_or((0, 0, 0));
            let per_write = |v: u64| {
                if writes == 0 {
                    0.0
                } else {
                    v as f64 / writes as f64
                }
            };
            WrBatchRow {
                slaves: n,
                kops: report.throughput_kops,
                doorbells_per_write: per_write(doorbells),
                wrs_per_write: per_write(wrs),
            }
        })
        .collect()
}

/// Print the doorbell-batching ablation.
pub fn print_wr_batching(rows: &[WrBatchRow]) {
    println!("Ablation — doorbell batching on the Nic-KV fan-out (SET, 8 clients)");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "slaves", "kops", "db/write", "wr/write"
    );
    for r in rows {
        println!(
            "{:>8} {:>12.1} {:>12.2} {:>12.2}",
            r.slaves, r.kops, r.doorbells_per_write, r.wrs_per_write
        );
    }
}

// ===========================================================================
// CQ interrupt moderation
// ===========================================================================

/// One CQ-moderation threshold setting.
#[derive(Debug, Clone)]
pub struct CqModRow {
    /// `cq_notify_threshold` (1 = moderation off).
    pub threshold: usize,
    /// Coalescing deadline, µs.
    pub timer_us: u64,
    /// Client throughput (kops/s).
    pub kops: f64,
    /// p99 latency (µs).
    pub p99_us: f64,
    /// Completion notifies the whole testbed saw.
    pub cq_notifies: u64,
    /// Work completions polled.
    pub wcs_polled: u64,
    /// Notifies per polled WC — collapses toward 1/threshold under load.
    pub notify_ratio: f64,
}

/// Sweep the notify threshold at a fixed 10 µs coalescing deadline,
/// mirroring ConnectX interrupt-moderation profiles. The event count
/// (the simulator's stand-in for interrupt rate) must fall as the
/// threshold grows while the served workload stays intact; past the point
/// where bursts rarely reach the threshold the coalescing timer flushes
/// sub-threshold batches and the ratio flattens out.
pub fn ablation_cq_moderation() -> Vec<CqModRow> {
    const TIMER_US: u64 = 10;
    [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&threshold| {
            let mut s = spec(Mode::Skv, 3, 8, 30_000 + threshold as u64);
            s.pipeline = 4; // keep completions bursty enough to coalesce
            s.cfg.net.cq_notify_threshold = threshold;
            s.cfg.net.cq_notify_timer = SimDuration::from_micros(TIMER_US);
            let mut cluster = Cluster::build(s);
            let report = cluster.run();
            let c = cluster.net.counters();
            let cq_notifies = c.get("rdma.cq_notifies");
            let wcs_polled = c.get("rdma.wcs_polled");
            CqModRow {
                threshold,
                timer_us: TIMER_US,
                kops: report.throughput_kops,
                p99_us: report.p99_latency_us,
                cq_notifies,
                wcs_polled,
                notify_ratio: if wcs_polled == 0 {
                    0.0
                } else {
                    cq_notifies as f64 / wcs_polled as f64
                },
            }
        })
        .collect()
}

/// Print the CQ-moderation ablation.
pub fn print_cq_moderation(rows: &[CqModRow]) {
    println!("Ablation — CQ interrupt moderation (SKV, 3 slaves, 8 clients, P=4)");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "threshold", "timer(us)", "kops/s", "p99(us)", "notifies", "wcs polled", "notify/wc"
    );
    for r in rows {
        println!(
            "{:>10} {:>10} {:>10.1} {:>10.1} {:>12} {:>12} {:>12.3}",
            r.threshold, r.timer_us, r.kops, r.p99_us, r.cq_notifies, r.wcs_polled, r.notify_ratio
        );
    }
}

// ===========================================================================
// replication mode (async stream vs quorum vs chain)
// ===========================================================================

/// One replication-mode setting.
#[derive(Debug, Clone)]
pub struct ReplModeRow {
    /// The replication protocol the arm ran.
    pub mode: ReplModeKind,
    /// Client-visible summary.
    pub report: RunReport,
    /// Writes the NIC committed through ack tracking (0 for async — the
    /// stream mode has no commit point).
    pub commits: u64,
    /// Quorum retransmits to re-registered slaves.
    pub retransmits: u64,
    /// Chain-repair events (hops spliced out of in-flight writes).
    pub chain_repairs: u64,
    /// Replies the master deferred until the NIC's commit frontier (and
    /// the slave census) caught up.
    pub deferred_replies: u64,
    /// Ops in the history the bench clients recorded of themselves
    /// (`record_history`): the linearizability checker's input size.
    pub hist_ops: u64,
    /// Violations `histcheck::check_linearizable` found in that history
    /// (0 is the expected verdict for every fault-free arm).
    pub violations: usize,
}

/// Sweep the replication protocol at a fixed fan-out: the async stream is
/// the latency/throughput ceiling (replies return as soon as the host
/// write lands), quorum pays one NIC→slave RTT before release, and chain
/// pays the full hop-by-hop pipeline — the paper's offload numbers are
/// the async arm, the other two price its durability upgrade.
pub fn ablation_replmode() -> Vec<ReplModeRow> {
    ReplModeKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &mode)| {
            let mut s = spec(Mode::Skv, 3, 8, 31_000 + i as u64);
            s.cfg.repl_mode = mode;
            // Every arm records its own client traffic and runs the
            // linearizability checker over it: the verdict column proves
            // the protocol (not just prices it). Mixed GET/SET so reads
            // actually constrain the order.
            s.cfg.record_history = true;
            s.set_ratio = 0.5;
            // The quorum arm carries the cross-mode failover knob too;
            // with no faults injected the mode never moves, so the knob's
            // steady-state cost shows up here as exactly zero transitions.
            if mode == ReplModeKind::Quorum {
                s.cfg.mode_failover = true;
            }
            let mut cluster = Cluster::build(s);
            let report = cluster.run();
            let (commits, retransmits, chain_repairs) = cluster
                .nic_kv()
                .map(|n| {
                    let t = n.tracker();
                    (t.stat_commits, n.stat_retransmits, t.stat_chain_repairs)
                })
                .unwrap_or((0, 0, 0));
            let deferred_replies = cluster.master_server().stat_deferred_replies;
            let (hist_ops, violations) = cluster
                .bench_history
                .as_ref()
                .map(|h| {
                    let hb = h.borrow();
                    (hb.ops.len() as u64, histcheck::check_linearizable(&hb).len())
                })
                .unwrap_or((0, 0));
            ReplModeRow {
                mode,
                report,
                commits,
                retransmits,
                chain_repairs,
                deferred_replies,
                hist_ops,
                violations,
            }
        })
        .collect()
}

/// Print the replication-mode ablation.
pub fn print_replmode(rows: &[ReplModeRow]) {
    println!("Ablation — replication protocol (SKV, 3 slaves, 8 clients, GET/SET)");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "mode", "kops/s", "p99(us)", "commits", "deferred", "rexmit", "repairs", "hist ops", "lin"
    );
    for r in rows {
        println!(
            "{:>8} {:>10.1} {:>10.1} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
            r.mode.label(),
            r.report.throughput_kops,
            r.report.p99_latency_us,
            r.commits,
            r.deferred_replies,
            r.retransmits,
            r.chain_repairs,
            r.hist_ops,
            if r.violations == 0 { "ok" } else { "FAIL" }
        );
    }
}

// ===========================================================================
// slave count
// ===========================================================================

/// One slave-count setting.
#[derive(Debug, Clone)]
pub struct SlaveCountRow {
    /// Number of slaves.
    pub slaves: usize,
    /// RDMA-Redis throughput.
    pub baseline_kops: f64,
    /// SKV throughput.
    pub skv_kops: f64,
    /// SKV gain, percent.
    pub gain_pct: f64,
}

/// Sweep the number of slaves: the host saves (N−1) WR posts per write, so
/// the gain must grow with N.
pub fn ablation_slave_count() -> Vec<SlaveCountRow> {
    [0usize, 1, 2, 3, 5, 8]
        .iter()
        .map(|&n| {
            let baseline =
                skv_core::cluster::run_spec(spec(Mode::RdmaRedis, n, 8, 24_000 + n as u64));
            let skv = skv_core::cluster::run_spec(spec(Mode::Skv, n, 8, 24_500 + n as u64));
            SlaveCountRow {
                slaves: n,
                baseline_kops: baseline.throughput_kops,
                skv_kops: skv.throughput_kops,
                gain_pct: (skv.throughput_kops / baseline.throughput_kops - 1.0) * 100.0,
            }
        })
        .collect()
}

/// Print the slave-count ablation.
pub fn print_slave_count(rows: &[SlaveCountRow]) {
    println!("Ablation — offload gain vs number of slaves (SET, 8 clients)");
    println!(
        "{:>8} {:>14} {:>12} {:>8}",
        "slaves", "RDMA kops", "SKV kops", "gain%"
    );
    for r in rows {
        println!(
            "{:>8} {:>14.1} {:>12.1} {:>+8.1}",
            r.slaves, r.baseline_kops, r.skv_kops, r.gain_pct
        );
    }
}

// ===========================================================================
// failure-detection parameters
// ===========================================================================

/// One `waiting-time` setting.
#[derive(Debug, Clone)]
pub struct FailureParamRow {
    /// Configured waiting-time (ms).
    pub waiting_ms: u64,
    /// Measured detection delay after the crash (ms).
    pub detection_delay_ms: f64,
    /// Write errors clients saw (min-slaves = 3 with one slave down).
    pub errors: u64,
    /// Client ops completed.
    pub ops: u64,
}

/// Sweep `waiting-time` with `min-slaves = 3`: shorter timeouts detect the
/// crash sooner, so clients see `NOREPLICAS` errors earlier (more of them).
pub fn ablation_failure_params() -> Vec<FailureParamRow> {
    [500u64, 1500, 3000]
        .iter()
        .map(|&wt| {
            let mut s = spec(Mode::Skv, 3, 4, 25_000 + wt);
            s.cfg.waiting_time = SimDuration::from_millis(wt);
            s.cfg.min_slaves = 3;
            s.measure = SimDuration::from_millis(7_000);
            let crash_at = SimTime::from_secs(3);
            let mut cluster = Cluster::build(s);
            cluster.schedule_slave_crash(0, crash_at);
            let report = cluster.run();
            let detection = cluster
                .nic_kv()
                .and_then(|n| n.detections.iter().find(|(t, _)| *t >= crash_at).copied())
                .map(|(t, _)| t.saturating_since(crash_at).as_secs_f64() * 1000.0)
                .unwrap_or(f64::NAN);
            FailureParamRow {
                waiting_ms: wt,
                detection_delay_ms: detection,
                errors: report.errors,
                ops: report.ops,
            }
        })
        .collect()
}

/// Print the failure-parameter ablation.
pub fn print_failure_params(rows: &[FailureParamRow]) {
    println!("Ablation — waiting-time vs detection delay (min-slaves=3, crash at 3s)");
    println!(
        "{:>12} {:>16} {:>10} {:>10}",
        "waiting(ms)", "detect delay(ms)", "errors", "ops"
    );
    for r in rows {
        println!(
            "{:>12} {:>16.0} {:>10} {:>10}",
            r.waiting_ms, r.detection_delay_ms, r.errors, r.ops
        );
    }
}

// ===========================================================================
// probe loss — detection false positives vs waiting-time
// ===========================================================================

/// One (outage duration, waiting-time) cell.
#[derive(Debug, Clone)]
pub struct ProbeLossRow {
    /// Duration of the NIC↔slave link outage (ms).
    pub blip_ms: u64,
    /// Configured `waiting-time` (ms).
    pub waiting_ms: u64,
    /// Nodes declared failed. The slave never crashes and keeps serving
    /// through its other links, so every detection is a false positive.
    pub false_positives: u64,
    /// Failed nodes later seen alive again (the false alarm clearing).
    pub recoveries: u64,
    /// Client ops completed.
    pub ops: u64,
    /// Error replies clients saw.
    pub errors: u64,
}

/// The cost of aggressive detection (§III-D): cut one slave's link to the
/// NIC — probes, replies and re-registration — for a bounded blip while
/// the slave itself stays alive, and sweep `waiting-time`. A timeout
/// shorter than the blip flags the live slave as failed; a longer one
/// rides it out (but would detect a real crash correspondingly later —
/// the other half of the trade-off, in `ablation_failure_params`).
///
/// Independent per-message probe loss is deliberately *not* the x-axis:
/// a dropped probe errors the sender's QP, the slave redials within
/// milliseconds and registration resets the probe clock, so uniform loss
/// up to 5% produces zero false positives at any `waiting-time`. Only
/// sustained silence — an outage the retry machinery cannot route around
/// — can outlive the timeout.
pub fn ablation_probe_loss() -> Vec<ProbeLossRow> {
    let mut rows = Vec::new();
    for &blip_ms in &[250u64, 1_000, 2_500, 5_000] {
        for &wt in &[500u64, 1_500, 3_000] {
            let mut s = spec(Mode::Skv, 2, 1, 27_000 + wt + blip_ms);
            s.cfg.waiting_time = SimDuration::from_millis(wt);
            s.measure = SimDuration::from_millis(8_000);
            let mut cluster = Cluster::build(s);

            // Black out slave 0's link to the NIC, both directions, from
            // t=2s. Clients and the master↔NIC path stay clean, and the
            // slave still reaches the master directly — the write path is
            // undisturbed except through the detector's own mistakes.
            let window = Some(TimeWindow::new(
                SimTime::from_secs(2),
                SimTime::from_secs(2) + SimDuration::from_millis(blip_ms),
            ));
            let mut plan = FaultPlan::new(28_000 + wt + blip_ms);
            if let Some(nic) = cluster.nic_node {
                let node = cluster.slave_nodes[0];
                for (src, dst) in [(nic, node), (node, nic)] {
                    plan.links.push(LinkFault {
                        src,
                        dst,
                        drop_prob: 1.0,
                        delay_prob: 0.0,
                        delay: SimDuration::ZERO,
                        window,
                    });
                }
            }
            cluster.net.set_fault_plan(plan);

            let report = cluster.run();
            let (false_positives, recoveries) = cluster.nic_kv().map_or((0, 0), |n| {
                (n.detections.len() as u64, n.recoveries.len() as u64)
            });
            rows.push(ProbeLossRow {
                blip_ms,
                waiting_ms: wt,
                false_positives,
                recoveries,
                ops: report.ops,
                errors: report.errors,
            });
        }
    }
    rows
}

/// Print the probe-outage ablation.
pub fn print_probe_loss(rows: &[ProbeLossRow]) {
    println!("Ablation — probe-path outage vs false detections (slave stays alive)");
    println!(
        "{:>9} {:>12} {:>10} {:>11} {:>9} {:>8}",
        "blip(ms)", "waiting(ms)", "false-pos", "recoveries", "ops", "errors"
    );
    for r in rows {
        println!(
            "{:>9} {:>12} {:>10} {:>11} {:>9} {:>8}",
            r.blip_ms, r.waiting_ms, r.false_positives, r.recoveries, r.ops, r.errors
        );
    }
}

// ===========================================================================
// client pipelining (extension: redis-benchmark -P)
// ===========================================================================

/// One pipeline-depth setting.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Commands in flight per connection.
    pub depth: usize,
    /// Throughput with a single client connection.
    pub kops_1_client: f64,
    /// p99 latency with a single client (µs).
    pub p99_us: f64,
}

/// Sweep pipeline depth with ONE client: depth substitutes for connection
/// concurrency until the server core saturates (an extension beyond the
/// paper, which benchmarks unpipelined clients only).
pub fn ablation_pipeline() -> Vec<PipelineRow> {
    [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&depth| {
            let mut s = spec(Mode::RdmaRedis, 0, 1, 26_000 + depth as u64);
            s.pipeline = depth;
            let report = skv_core::cluster::run_spec(s);
            PipelineRow {
                depth,
                kops_1_client: report.throughput_kops,
                p99_us: report.p99_latency_us,
            }
        })
        .collect()
}

/// Print the pipelining ablation.
pub fn print_pipeline(rows: &[PipelineRow]) {
    println!("Ablation — client pipelining (RDMA-Redis, 1 client, no slaves)");
    println!("{:>8} {:>12} {:>10}", "depth", "kops/s", "p99(us)");
    for r in rows {
        println!(
            "{:>8} {:>12.1} {:>10.1}",
            r.depth, r.kops_1_client, r.p99_us
        );
    }
}

// ===========================================================================
// fabric-calibration sensitivity
// ===========================================================================

/// One calibration-sensitivity arm: a single fabric/CPU knob perturbed.
#[derive(Debug, Clone)]
pub struct NetCalRow {
    /// The knob and how it was moved.
    pub knob: &'static str,
    /// Which system variant the knob matters for.
    pub mode: Mode,
    /// Throughput at the default calibration (kops/s).
    pub base_kops: f64,
    /// Throughput with the knob perturbed (kops/s).
    pub kops: f64,
    /// Throughput delta, percent.
    pub delta_pct: f64,
    /// p99 latency delta, percent.
    pub p99_delta_pct: f64,
}

/// Perturb each [`skv_netsim::NetParams`] calibration knob (and the host
/// command-CPU cost) in isolation — latencies and CPU costs doubled,
/// bandwidth halved — and measure how the client-visible numbers move
/// against the default calibration. This is the robustness check behind
/// quoting absolute numbers from a calibrated simulator: the knobs the
/// paper's claims lean on (WR post cost, SoC path factors) must matter,
/// and the ones it abstracts away (connect latency) must not.
pub fn ablation_netcal() -> Vec<NetCalRow> {
    fn x2(d: SimDuration) -> SimDuration {
        d.mul_f64(2.0)
    }
    type Apply = fn(&mut ClusterConfig);
    let arms: &[(&'static str, Mode, Apply)] = &[
        ("bandwidth_bps /2", Mode::Skv, |c: &mut ClusterConfig| {
            c.net.bandwidth_bps /= 2.0;
        }),
        (
            "host_host_latency x2",
            Mode::Skv,
            |c: &mut ClusterConfig| {
                c.net.host_host_latency = x2(c.net.host_host_latency);
            },
        ),
        ("local_soc_factor x2", Mode::Skv, |c: &mut ClusterConfig| {
            c.net.local_soc_factor *= 2.0;
        }),
        (
            "remote_soc_factor x2",
            Mode::Skv,
            |c: &mut ClusterConfig| {
                c.net.remote_soc_factor *= 2.0;
            },
        ),
        ("nic_tx_delay x2", Mode::Skv, |c: &mut ClusterConfig| {
            c.net.nic_tx_delay = x2(c.net.nic_tx_delay);
        }),
        ("dma_delay x2", Mode::Skv, |c: &mut ClusterConfig| {
            c.net.dma_delay = x2(c.net.dma_delay);
        }),
        ("wr_post_linked x2", Mode::Skv, |c: &mut ClusterConfig| {
            c.net.wr_post_linked = x2(c.net.wr_post_linked);
        }),
        ("cq_poll_cpu x2", Mode::Skv, |c: &mut ClusterConfig| {
            c.net.cq_poll_cpu = x2(c.net.cq_poll_cpu);
        }),
        ("wc_handle_cpu x2", Mode::Skv, |c: &mut ClusterConfig| {
            c.net.wc_handle_cpu = x2(c.net.wc_handle_cpu);
        }),
        ("connect_latency x2", Mode::Skv, |c: &mut ClusterConfig| {
            c.net.connect_latency = x2(c.net.connect_latency);
        }),
        ("costs.cmd cpu x2", Mode::Skv, |c: &mut ClusterConfig| {
            c.costs.cmd_base = x2(c.costs.cmd_base);
            c.costs.cmd_per_kib = x2(c.costs.cmd_per_kib);
        }),
        (
            "tcp_stack_latency x2",
            Mode::TcpRedis,
            |c: &mut ClusterConfig| {
                c.net.tcp_stack_latency = x2(c.net.tcp_stack_latency);
            },
        ),
        (
            "tcp_send_cpu x2",
            Mode::TcpRedis,
            |c: &mut ClusterConfig| {
                c.net.tcp_send_cpu = x2(c.net.tcp_send_cpu);
            },
        ),
        (
            "tcp_recv_cpu x2",
            Mode::TcpRedis,
            |c: &mut ClusterConfig| {
                c.net.tcp_recv_cpu = x2(c.net.tcp_recv_cpu);
            },
        ),
        (
            "tcp_copy_cpu_per_kib x2",
            Mode::TcpRedis,
            |c: &mut ClusterConfig| {
                c.net.tcp_copy_cpu_per_kib = x2(c.net.tcp_copy_cpu_per_kib);
            },
        ),
        (
            "tcp_base_latency x2",
            Mode::TcpRedis,
            |c: &mut ClusterConfig| {
                c.net.tcp_base_latency = x2(c.net.tcp_base_latency);
            },
        ),
    ];
    let run = |mode: Mode, apply: Option<Apply>| {
        // Same seed per mode in every arm: each knob faces the identical
        // workload, so rows differ only by the perturbation.
        let (slaves, seed) = match mode {
            Mode::TcpRedis => (0, 31_500),
            _ => (2, 31_000),
        };
        let mut s = spec(mode, slaves, 4, seed);
        if let Some(f) = apply {
            f(&mut s.cfg);
        }
        skv_core::cluster::run_spec(s)
    };
    let base_skv = run(Mode::Skv, None);
    let base_tcp = run(Mode::TcpRedis, None);
    arms.iter()
        .map(|&(knob, mode, apply)| {
            let base = if mode == Mode::TcpRedis {
                &base_tcp
            } else {
                &base_skv
            };
            let r = run(mode, Some(apply));
            NetCalRow {
                knob,
                mode,
                base_kops: base.throughput_kops,
                kops: r.throughput_kops,
                delta_pct: (r.throughput_kops / base.throughput_kops - 1.0) * 100.0,
                p99_delta_pct: (r.p99_latency_us / base.p99_latency_us - 1.0) * 100.0,
            }
        })
        .collect()
}

/// Print the calibration-sensitivity ablation.
pub fn print_netcal(rows: &[NetCalRow]) {
    println!("Ablation — fabric-calibration sensitivity (one knob per row, 4 clients)");
    println!(
        "{:<24} {:<10} {:>10} {:>10} {:>8} {:>9}",
        "knob", "mode", "base kops", "kops", "d kops%", "d p99%"
    );
    for r in rows {
        println!(
            "{:<24} {:<10} {:>10.1} {:>10.1} {:>+8.1} {:>+9.1}",
            r.knob,
            r.mode.label(),
            r.base_kops,
            r.kops,
            r.delta_pct,
            r.p99_delta_pct
        );
    }
}

// ===========================================================================
// reconnect backoff / client retry
// ===========================================================================

/// One reconnect-backoff profile under a master outage.
#[derive(Debug, Clone)]
pub struct BackoffRow {
    /// Profile name.
    pub label: &'static str,
    /// `reconnect_base`, milliseconds.
    pub base_ms: u64,
    /// `reconnect_max_delay`, milliseconds.
    pub max_delay_ms: u64,
    /// `reconnect_max_attempts`.
    pub max_attempts: u32,
    /// `client_retry_timeout`, milliseconds.
    pub client_retry_ms: u64,
    /// Throughput over the window containing the outage (kops/s).
    pub kops: f64,
    /// Error replies observed by clients.
    pub errors: u64,
    /// Server-side reconnect attempts (master + slaves).
    pub server_reconnects: u64,
    /// Client connection teardowns + redials.
    pub client_reconnects: u64,
    /// Client dials that failed outright (master still down).
    pub client_dial_failures: u64,
}

/// Crash the master for 300 ms mid-measurement and compare reconnect
/// profiles: an aggressive schedule redials often (dial-failure storm,
/// fastest recovery), a lazy one stays quiet but gives up throughput.
/// The numbers come from [`Cluster::counters_snapshot`] — the run report
/// itself stays byte-identical to a chaos-free run's shape.
pub fn ablation_backoff() -> Vec<BackoffRow> {
    let profiles: &[(&'static str, u64, u64, u32, u64)] = &[
        ("aggressive", 2, 40, 16, 50),
        ("default", 10, 640, 8, 250),
        ("lazy", 100, 2_000, 3, 800),
    ];
    profiles
        .iter()
        .enumerate()
        .map(
            |(i, &(label, base_ms, max_delay_ms, max_attempts, client_retry_ms))| {
                let mut s = spec(Mode::Skv, 2, 4, 33_000 + i as u64);
                s.cfg.reconnect_base = SimDuration::from_millis(base_ms);
                s.cfg.reconnect_max_delay = SimDuration::from_millis(max_delay_ms);
                s.cfg.reconnect_max_attempts = max_attempts;
                s.cfg.client_retry_timeout = SimDuration::from_millis(client_retry_ms);
                let mut cluster = Cluster::build(s);
                cluster.schedule_master_crash(SimTime::from_millis(800));
                cluster.schedule_master_recover(SimTime::from_millis(1_100));
                let report = cluster.run();
                let snap = cluster.counters_snapshot();
                BackoffRow {
                    label,
                    base_ms,
                    max_delay_ms,
                    max_attempts,
                    client_retry_ms,
                    kops: report.throughput_kops,
                    errors: report.errors,
                    server_reconnects: snap.get("server.stat_reconnects"),
                    client_reconnects: snap.get("client.stat_reconnects"),
                    client_dial_failures: snap.get("client.stat_dial_failures"),
                }
            },
        )
        .collect()
}

/// Print the reconnect-backoff ablation.
pub fn print_backoff(rows: &[BackoffRow]) {
    println!("Ablation — reconnect backoff under a 300 ms master outage (SKV, 2 slaves)");
    println!(
        "{:<12} {:>8} {:>8} {:>9} {:>9} {:>8} {:>7} {:>8} {:>8} {:>8}",
        "profile",
        "base",
        "cap",
        "attempts",
        "retry",
        "kops/s",
        "errors",
        "srv rc",
        "cli rc",
        "dialfail"
    );
    for r in rows {
        println!(
            "{:<12} {:>7}m {:>7}m {:>9} {:>8}m {:>8.1} {:>7} {:>8} {:>8} {:>8}",
            r.label,
            r.base_ms,
            r.max_delay_ms,
            r.max_attempts,
            r.client_retry_ms,
            r.kops,
            r.errors,
            r.server_reconnects,
            r.client_reconnects,
            r.client_dial_failures
        );
    }
}

// ===========================================================================
// CQ poll budget
// ===========================================================================

/// One `cq_poll_budget` setting.
#[derive(Debug, Clone)]
pub struct CqBudgetRow {
    /// Maximum WCs drained per `CqNotify` (see `skv_core::cqdrain`).
    pub budget: usize,
    /// Client throughput (kops/s).
    pub kops: f64,
    /// p99 latency (µs).
    pub p99_us: f64,
    /// Work completions polled across the testbed.
    pub wcs_polled: u64,
}

/// Sweep the budgeted-drain size with pipelined clients: tiny budgets pay
/// a `cq_poll_cpu` call per few completions (throughput sags), huge ones
/// approach the old unbounded drain. The default (64) sits on the flat
/// part of the curve.
pub fn ablation_cq_budget() -> Vec<CqBudgetRow> {
    [2usize, 8, 32, 64, 256]
        .iter()
        .map(|&budget| {
            let mut s = spec(Mode::Skv, 3, 8, 32_000 + budget as u64);
            s.pipeline = 4;
            s.cfg.cq_poll_budget = budget;
            let mut cluster = Cluster::build(s);
            let report = cluster.run();
            CqBudgetRow {
                budget,
                kops: report.throughput_kops,
                p99_us: report.p99_latency_us,
                wcs_polled: cluster.net.counters().get("rdma.wcs_polled"),
            }
        })
        .collect()
}

/// Print the CQ-poll-budget ablation.
pub fn print_cq_budget(rows: &[CqBudgetRow]) {
    println!("Ablation — CQ drain budget (SKV, 3 slaves, 8 clients, P=4)");
    println!(
        "{:>8} {:>10} {:>10} {:>12}",
        "budget", "kops/s", "p99(us)", "wcs polled"
    );
    for r in rows {
        println!(
            "{:>8} {:>10.1} {:>10.1} {:>12}",
            r.budget, r.kops, r.p99_us, r.wcs_polled
        );
    }
}

// ===========================================================================
// keyspace sharding (extension: hash-slot multi-core master engine)
// ===========================================================================

/// One shard-count (or MSET batch-width) setting.
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// Master/slave shard count (`ClusterConfig::num_shards`).
    pub shards: usize,
    /// Client pipeline depth used to saturate the shard cores.
    pub pipeline_depth: usize,
    /// Keys per MSET write batch (0 = plain SET workload).
    pub mset_keys: usize,
    /// Client-visible throughput (kops/s).
    pub kops: f64,
    /// Client-visible p99 latency (µs).
    pub p99_us: f64,
    /// Cross-shard fragment handoffs (`shard.cross_msgs`, all servers).
    pub cross_msgs: u64,
    /// Deepest slave parse→apply ring occupancy (`shard.queue_depth`).
    pub queue_depth: u64,
}

/// Sweep the shard count 1→8 under a pipelined GET/SET workload (the
/// scaling curve the tentpole buys), then hold 4 shards and widen the
/// MSET batch (the cross-shard tax those wins are paid from). Pure
/// GET/SET never crosses shards — `cross_msgs` stays 0 on those rows —
/// while every batched row pays hop costs on the split writes.
pub fn ablation_shards() -> Vec<ShardRow> {
    let mut rows = Vec::new();
    let mut arm = |shards: usize, mset_keys: usize, seed: u64| {
        let mut s = spec(Mode::Skv, 2, 8, seed);
        s.cfg.num_shards = shards;
        s.pipeline = 8;
        s.set_ratio = 0.5;
        s.mset_keys = mset_keys;
        s.key_space = 10_000;
        let mut cluster = Cluster::build(s);
        let report = cluster.run();
        let counters = cluster.counters_snapshot();
        rows.push(ShardRow {
            shards,
            pipeline_depth: 8,
            mset_keys,
            kops: report.throughput_kops,
            p99_us: report.p99_latency_us,
            cross_msgs: counters.get("shard.cross_msgs"),
            queue_depth: counters.get("shard.queue_depth"),
        });
    };
    for (i, &shards) in [1usize, 2, 4, 8].iter().enumerate() {
        arm(shards, 0, 34_000 + i as u64);
    }
    for (i, &mset) in [2usize, 4].iter().enumerate() {
        arm(4, mset, 35_000 + i as u64);
    }
    rows
}

/// Print the sharding ablation.
pub fn print_shards(rows: &[ShardRow]) {
    println!("Ablation — keyspace shards (SKV, 2 slaves, 8 clients, P=8, 50% SET)");
    println!(
        "{:>7} {:>9} {:>10} {:>10} {:>10} {:>11} {:>11}",
        "shards", "P", "mset_keys", "kops/s", "p99(us)", "cross_msgs", "queue_depth"
    );
    for r in rows {
        println!(
            "{:>7} {:>9} {:>10} {:>10.1} {:>10.1} {:>11} {:>11}",
            r.shards, r.pipeline_depth, r.mset_keys, r.kops, r.p99_us, r.cross_msgs, r.queue_depth
        );
    }
}

// ===========================================================================
// hot-key cache (extension: SoC-resident GET cache + admission policies)
// ===========================================================================

/// One hot-cache setting under a Zipf-skewed, read-heavy workload.
#[derive(Debug, Clone)]
pub struct HotCacheRow {
    /// Admission policy label (`ClusterConfig::hot_cache_policy`), or
    /// `"off"` for the cache-disabled baseline.
    pub policy: String,
    /// Zipf skew of the client key stream (`RunSpec::zipf_theta`).
    pub theta: f64,
    /// Cache budget in KiB (`ClusterConfig::hot_cache_bytes`); 0 = off.
    pub cache_kib: usize,
    /// Hot-set rotation period in key draws (`RunSpec::zipf_shift_every`).
    pub shift_every: u64,
    /// Client-visible throughput (kops/s).
    pub kops: f64,
    /// Client-visible p99 latency (µs).
    pub p99_us: f64,
    /// GETs served from SoC memory (`cache.hits`).
    pub hits: u64,
    /// GETs forwarded to the host (`cache.misses`).
    pub misses: u64,
    /// Admissions, evictions, stream-driven invalidations.
    pub admits: u64,
    /// Entries evicted under the byte budget.
    pub evicts: u64,
    /// Entries dropped/refreshed off the replication stream.
    pub invalidations: u64,
    /// Resident cache bytes at run end.
    pub bytes: u64,
}

impl HotCacheRow {
    /// Hit fraction over all front-end GET lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Sweep the SoC hot-key cache under a read-heavy (5% SET) Zipf-skewed
/// stream: policy (LRU vs TinyLFU admission) × skew theta × byte budget,
/// against a cache-off baseline on the *same* workload. The headline row
/// pair is `off` vs any cache-on arm at theta 0.99 — the SoC answers the
/// hot head of the distribution without crossing to the host, so the
/// host core stops being the GET bottleneck. The last arm rotates the
/// hot set mid-run (`zipf_shift_every`) to price re-warming: admissions
/// and evictions churn while the steady-state arms sit at a full,
/// quiet cache.
pub fn ablation_hotcache() -> Vec<HotCacheRow> {
    let mut rows = Vec::new();
    let mut arm =
        |policy: &str, theta: f64, cache_kib: usize, shift_every: u64, seed: u64| {
            let mut s = spec(Mode::Skv, 2, 8, seed);
            s.pipeline = 4;
            s.set_ratio = 0.05;
            s.key_space = 10_000;
            s.value_size = 64;
            s.zipf_theta = theta;
            s.zipf_shift_every = shift_every;
            s.cfg.hot_cache_bytes = cache_kib << 10;
            s.cfg.hot_cache_policy = policy.to_string();
            let mut cluster = Cluster::build(s);
            let report = cluster.run();
            let counters = cluster.counters_snapshot();
            rows.push(HotCacheRow {
                policy: if cache_kib == 0 {
                    "off".to_string()
                } else {
                    policy.to_string()
                },
                theta,
                cache_kib,
                shift_every,
                kops: report.throughput_kops,
                p99_us: report.p99_latency_us,
                hits: counters.get("cache.hits"),
                misses: counters.get("cache.misses"),
                admits: counters.get("cache.admits"),
                evicts: counters.get("cache.evicts"),
                invalidations: counters.get("cache.invalidations"),
                bytes: counters.get("cache.bytes"),
            });
        };
    // Cache-off baseline on the exact headline workload.
    arm("lru", 0.99, 0, 0, 36_000);
    // Policy × budget at the headline skew.
    arm("lru", 0.99, 64, 0, 36_001);
    arm("tinylfu", 0.99, 64, 0, 36_002);
    arm("lru", 0.99, 1024, 0, 36_003);
    arm("tinylfu", 0.99, 1024, 0, 36_004);
    // Skew sweep at a fixed budget (0.0 = the uniform legacy stream).
    arm("lru", 0.6, 1024, 0, 36_005);
    arm("lru", 0.0, 1024, 0, 36_006);
    // Shifting hot set: rotate every 50k key draws.
    arm("lru", 0.99, 1024, 50_000, 36_007);
    rows
}

/// Print the hot-key cache ablation.
pub fn print_hotcache(rows: &[HotCacheRow]) {
    println!("Ablation — SoC hot-key GET cache (SKV, 2 slaves, 8 clients, P=4, 5% SET)");
    println!(
        "{:>8} {:>6} {:>7} {:>7} {:>9} {:>8} {:>9} {:>9} {:>6} {:>8} {:>8} {:>7} {:>9}",
        "policy", "theta", "KiB", "shift", "kops/s", "p99(us)", "hits", "misses", "hit%", "admits",
        "evicts", "invals", "bytes"
    );
    for r in rows {
        println!(
            "{:>8} {:>6.2} {:>7} {:>7} {:>9.1} {:>8.1} {:>9} {:>9} {:>6.1} {:>8} {:>8} {:>7} {:>9}",
            r.policy,
            r.theta,
            r.cache_kib,
            r.shift_every,
            r.kops,
            r.p99_us,
            r.hits,
            r.misses,
            r.hit_rate() * 100.0,
            r.admits,
            r.evicts,
            r.invalidations,
            r.bytes
        );
    }
}
