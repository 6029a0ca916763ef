//! One entry point per figure of the paper's evaluation (§V).
//!
//! Each function builds the corresponding testbed, runs the workload, and
//! returns structured rows; `print_*` helpers render them as the tables the
//! paper plots. Absolute numbers come from the calibrated simulator, so the
//! claims to check are the *shapes*: who wins, by what factor, and where
//! curves flatten or cross.

use skv_core::cluster::{Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::cqdrain;
use skv_core::metrics::RunReport;
use skv_netsim::{Net, NetEvent, NetParams, SendOp, SendWr, SocketAddr, Topology};
use skv_simcore::{FnActor, SimDuration, SimTime, Simulation};
use std::cell::RefCell;
use std::rc::Rc;

/// Default measurement window for throughput/latency experiments.
/// (~450k operations per data point at the calibrated throughput —
/// percentiles are stable well below this.)
pub const MEASURE: SimDuration = SimDuration::from_millis(1_500);
/// Default warmup.
pub const WARMUP: SimDuration = SimDuration::from_millis(300);

fn base_spec(mode: Mode, slaves: usize, clients: usize, seed: u64) -> RunSpec {
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
// Figure 3 — RDMA WRITE latency: host↔host vs remote↔SoC vs local-host↔SoC
// ===========================================================================

/// One row of Figure 3.
#[derive(Debug, Clone)]
pub struct Fig03Row {
    /// Payload size in bytes.
    pub size: usize,
    /// Host → host WRITE latency (µs, receiver-observed).
    pub host_host_us: f64,
    /// Remote host → SmartNIC SoC latency (µs).
    pub remote_soc_us: f64,
    /// Local host → its own SmartNIC SoC latency (µs).
    pub local_soc_us: f64,
}

/// Measure one-way RDMA WRITE delivery latency over a path.
fn write_latency(size: usize, to_local_soc: bool, from_remote: bool) -> f64 {
    let mut sim = Simulation::new(99);
    let mut topo = Topology::new();
    let master = topo.add_host();
    let remote = topo.add_host();
    let soc = topo.add_smartnic(master);
    let net = Net::install(&mut sim, topo, NetParams::default());

    let (src, dst) = match (to_local_soc, from_remote) {
        (true, false) => (master, soc),
        (true, true) => (remote, soc),
        _ => (master, remote),
    };

    let recv_at: Rc<RefCell<Option<SimTime>>> = Rc::default();
    let r2 = recv_at.clone();
    let net2 = net.clone();
    let dst_addr = SocketAddr::new(dst, 9000);
    let server = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
        if let Ok(ev) = msg.downcast::<NetEvent>() {
            match *ev {
                NetEvent::CmConnectRequest { req, .. } => {
                    let cq = net2.create_cq(ctx.id());
                    let qp = net2.rdma_accept(ctx, req, cq).expect("fresh CM request");
                    for i in 0..8 {
                        net2.post_recv(qp, i).unwrap();
                    }
                    net2.req_notify_cq(ctx, cq);
                }
                NetEvent::CqNotify { cq } => {
                    let out =
                        cqdrain::drain_budgeted(&net2, ctx, cq, 8, &mut Vec::new(), |ctx, wc| {
                            if wc.opcode == skv_netsim::WcOpcode::RecvRdmaWithImm {
                                *r2.borrow_mut() = Some(ctx.now());
                            }
                        });
                    if out.more {
                        // This probe measures the fabric, not the host CPU,
                        // so the continuation is scheduled after the drain
                        // cost without charging a core pool.
                        ctx.timer(out.cpu_cost, NetEvent::CqNotify { cq });
                    }
                }
                _ => {}
            }
        }
    })));
    net.rdma_listen(dst_addr, server);

    let dst_mr = net.register_mr(dst, size.max(64));
    let sent_at: Rc<RefCell<Option<SimTime>>> = Rc::default();
    let s2 = sent_at.clone();
    let net2 = net.clone();
    let client = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
        if let Ok(ev) = msg.downcast::<NetEvent>() {
            if let NetEvent::CmEstablished { qp, .. } = *ev {
                *s2.borrow_mut() = Some(ctx.now());
                net2.post_send(
                    ctx,
                    qp,
                    SendWr {
                        wr_id: 1,
                        op: SendOp::WriteImm {
                            remote_mr: dst_mr,
                            remote_offset: 0,
                            imm: 0,
                        },
                        data: vec![0xAB; size].into(),
                    },
                )
                .unwrap();
            }
        }
    })));
    let net2 = net.clone();
    let starter = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, _| {
        let cq = net2.create_cq(client);
        net2.rdma_connect(ctx, src, client, cq, dst_addr);
    })));
    sim.schedule(SimTime::ZERO, starter, ());
    sim.run_to_completion();

    let t0 = sent_at.borrow().expect("sent");
    let t1 = recv_at.borrow().expect("received");
    t1.saturating_since(t0).as_micros_f64()
}

/// Reproduce Figure 3.
pub fn fig03_rdma_write_latency() -> Vec<Fig03Row> {
    [16usize, 64, 256, 1024, 4096]
        .iter()
        .map(|&size| Fig03Row {
            size,
            host_host_us: write_latency(size, false, false),
            remote_soc_us: write_latency(size, true, true),
            local_soc_us: write_latency(size, true, false),
        })
        .collect()
}

/// Print Figure 3 rows.
pub fn print_fig03(rows: &[Fig03Row]) {
    println!("Figure 3 — RDMA WRITE latency (us, one-way)");
    println!(
        "{:>8} {:>12} {:>14} {:>14}",
        "size(B)", "host-host", "remote-SoC", "local-SoC"
    );
    for r in rows {
        println!(
            "{:>8} {:>12.2} {:>14.2} {:>14.2}",
            r.size, r.host_host_us, r.remote_soc_us, r.local_soc_us
        );
    }
}

// ===========================================================================
// Figure 7 — RDMA-Redis degradation with slaves
// ===========================================================================

/// One configuration of Figure 7.
#[derive(Debug, Clone)]
pub struct Fig07Row {
    /// Number of slaves.
    pub slaves: usize,
    /// The run summary.
    pub report: RunReport,
}

/// Reproduce Figure 7: RDMA-Redis SET with 0 vs 3 slaves, 8 clients.
pub fn fig07_slave_degradation() -> Vec<Fig07Row> {
    [0usize, 3]
        .iter()
        .map(|&slaves| {
            let spec = base_spec(Mode::RdmaRedis, slaves, 8, 7_000 + slaves as u64);
            Fig07Row {
                slaves,
                report: skv_core::cluster::run_spec(spec),
            }
        })
        .collect()
}

/// Print Figure 7 rows.
pub fn print_fig07(rows: &[Fig07Row]) {
    println!("Figure 7 — RDMA-Redis SET with slaves (8 clients)");
    println!("{:<8} {}", "slaves", RunReport::header());
    for r in rows {
        println!("{:<8} {}", r.slaves, r.report.row());
    }
}

// ===========================================================================
// Figure 10 — original Redis vs RDMA-Redis, throughput & p99 vs #clients
// ===========================================================================

/// One concurrency level of Figure 10.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Concurrent client connections.
    pub clients: usize,
    /// Original Redis (TCP) summary.
    pub tcp: RunReport,
    /// RDMA-Redis summary.
    pub rdma: RunReport,
}

/// Reproduce Figure 10 (SET, no slaves).
pub fn fig10_redis_vs_rdma(client_counts: &[usize]) -> Vec<Fig10Row> {
    client_counts
        .iter()
        .map(|&clients| {
            let tcp = skv_core::cluster::run_spec(base_spec(
                Mode::TcpRedis,
                0,
                clients,
                10_000 + clients as u64,
            ));
            let rdma = skv_core::cluster::run_spec(base_spec(
                Mode::RdmaRedis,
                0,
                clients,
                10_100 + clients as u64,
            ));
            Fig10Row { clients, tcp, rdma }
        })
        .collect()
}

/// Print Figure 10 rows.
pub fn print_fig10(rows: &[Fig10Row]) {
    println!("Figure 10 — original Redis vs RDMA-Redis (SET, no slaves)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "clients", "Redis kops", "Redis p99", "RDMA kops", "RDMA p99"
    );
    for r in rows {
        println!(
            "{:>8} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            r.clients,
            r.tcp.throughput_kops,
            r.tcp.p99_latency_us,
            r.rdma.throughput_kops,
            r.rdma.p99_latency_us
        );
    }
}

// ===========================================================================
// Figures 11 & 13 — SKV vs RDMA-Redis, SET and GET
// ===========================================================================

/// One concurrency level comparing the two systems.
#[derive(Debug, Clone)]
pub struct VsRow {
    /// Concurrent client connections.
    pub clients: usize,
    /// RDMA-Redis summary.
    pub baseline: RunReport,
    /// SKV summary.
    pub skv: RunReport,
}

fn vs_rows(set_ratio: f64, client_counts: &[usize], seed: u64) -> Vec<VsRow> {
    client_counts
        .iter()
        .map(|&clients| {
            let mut b = base_spec(Mode::RdmaRedis, 3, clients, seed + clients as u64);
            b.set_ratio = set_ratio;
            let mut s = base_spec(Mode::Skv, 3, clients, seed + 50 + clients as u64);
            s.set_ratio = set_ratio;
            VsRow {
                clients,
                baseline: skv_core::cluster::run_spec(b),
                skv: skv_core::cluster::run_spec(s),
            }
        })
        .collect()
}

/// Reproduce Figure 11: SET with 1 master + 3 slaves at 4/8/16 clients.
pub fn fig11_set_offload() -> Vec<VsRow> {
    vs_rows(1.0, &[4, 8, 16], 11_000)
}

/// Reproduce Figure 13: GET under the same topology (parity expected).
pub fn fig13_get_parity() -> Vec<VsRow> {
    vs_rows(0.0, &[4, 8, 16], 13_000)
}

/// Print a SKV-vs-baseline table.
pub fn print_vs(title: &str, rows: &[VsRow]) {
    println!("{title}");
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>12} {:>10} {:>10} {:>9} {:>9}",
        "clients",
        "RDMA kops",
        "avg(us)",
        "p99(us)",
        "SKV kops",
        "avg(us)",
        "p99(us)",
        "tput+%",
        "p99-%"
    );
    for r in rows {
        let tput_gain = (r.skv.throughput_kops / r.baseline.throughput_kops - 1.0) * 100.0;
        let p99_cut = (1.0 - r.skv.p99_latency_us / r.baseline.p99_latency_us) * 100.0;
        println!(
            "{:>8} {:>12.1} {:>10.1} {:>10.1} {:>12.1} {:>10.1} {:>10.1} {:>+9.1} {:>+9.1}",
            r.clients,
            r.baseline.throughput_kops,
            r.baseline.avg_latency_us,
            r.baseline.p99_latency_us,
            r.skv.throughput_kops,
            r.skv.avg_latency_us,
            r.skv.p99_latency_us,
            tput_gain,
            p99_cut
        );
    }
}

// ===========================================================================
// Figure 12 — throughput vs value size
// ===========================================================================

/// One value size of Figure 12.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// SET value size in bytes.
    pub value_size: usize,
    /// RDMA-Redis summary.
    pub baseline: RunReport,
    /// SKV summary.
    pub skv: RunReport,
}

/// Reproduce Figure 12: SET throughput across value sizes (8 clients,
/// 3 slaves).
pub fn fig12_value_size(sizes: &[usize]) -> Vec<Fig12Row> {
    sizes
        .iter()
        .map(|&value_size| {
            let mut b = base_spec(Mode::RdmaRedis, 3, 8, 12_000 + value_size as u64);
            b.value_size = value_size;
            let mut s = base_spec(Mode::Skv, 3, 8, 12_500 + value_size as u64);
            s.value_size = value_size;
            Fig12Row {
                value_size,
                baseline: skv_core::cluster::run_spec(b),
                skv: skv_core::cluster::run_spec(s),
            }
        })
        .collect()
}

/// Print Figure 12 rows.
pub fn print_fig12(rows: &[Fig12Row]) {
    println!("Figure 12 — SET throughput vs value size (8 clients, 3 slaves)");
    println!(
        "{:>10} {:>14} {:>12} {:>8}",
        "value(B)", "RDMA kops", "SKV kops", "gain%"
    );
    for r in rows {
        println!(
            "{:>10} {:>14.1} {:>12.1} {:>+8.1}",
            r.value_size,
            r.baseline.throughput_kops,
            r.skv.throughput_kops,
            (r.skv.throughput_kops / r.baseline.throughput_kops - 1.0) * 100.0
        );
    }
}

// ===========================================================================
// Figure 14 — availability under slave failure
// ===========================================================================

/// Result of the availability run.
#[derive(Debug, Clone)]
pub struct Fig14Result {
    /// Throughput per 500 ms bucket over the run.
    pub series: Vec<(f64, f64)>,
    /// When the crash was injected (seconds).
    pub crash_at_s: f64,
    /// When the slave recovered (seconds).
    pub recover_at_s: f64,
    /// Minimum bucket throughput between crash and recovery (kops/s).
    pub min_kops_during_failure: f64,
    /// Error replies observed by clients over the whole run.
    pub client_errors: u64,
    /// Whether keyspaces converged after recovery.
    pub converged: bool,
}

/// Reproduce Figure 14: SET stream; one slave crashes at 4 s and recovers
/// at 9 s; Nic-KV detects both, throughput stays high, clients see no
/// errors.
pub fn fig14_availability() -> Fig14Result {
    let mut spec = base_spec(Mode::Skv, 3, 8, 14_000);
    spec.warmup = SimDuration::from_millis(400);
    spec.measure = SimDuration::from_millis(11_600);
    let mut cluster = Cluster::build(spec);
    let crash_at = SimTime::from_secs(4);
    let recover_at = SimTime::from_secs(9);
    cluster.schedule_slave_crash(1, crash_at);
    cluster.schedule_slave_recover(1, recover_at);
    let report = cluster.run();
    // Let the recovered slave finish resyncing, then compare keyspaces.
    cluster
        .sim
        .run_until(cluster.measure_until + SimDuration::from_secs(2));
    let digests = cluster.keyspace_digests();
    let converged = digests.iter().all(|&d| d == digests[0]);

    let series: Vec<(f64, f64)> = report
        .series
        .iter()
        .map(|p| (p.time.as_secs_f64(), p.rate_per_sec / 1000.0))
        .collect();
    let min_kops_during_failure = series
        .iter()
        .filter(|(t, _)| *t >= crash_at.as_secs_f64() && *t < recover_at.as_secs_f64())
        .map(|(_, k)| *k)
        .fold(f64::INFINITY, f64::min);
    Fig14Result {
        series,
        crash_at_s: crash_at.as_secs_f64(),
        recover_at_s: recover_at.as_secs_f64(),
        min_kops_during_failure,
        client_errors: report.errors,
        converged,
    }
}

/// Print the Figure 14 series.
pub fn print_fig14(r: &Fig14Result) {
    println!(
        "Figure 14 — throughput during slave failure (crash at {:.0}s, recovery at {:.0}s)",
        r.crash_at_s, r.recover_at_s
    );
    println!("{:>8} {:>12}", "t(s)", "kops/s");
    for (t, kops) in &r.series {
        println!("{t:>8.1} {kops:>12.1}");
    }
    println!(
        "min during failure: {:.1} kops/s; client errors: {}; converged after recovery: {}",
        r.min_kops_during_failure, r.client_errors, r.converged
    );
}

// ===========================================================================
// SmartNIC SoC failure — degradation timeline (extension beyond the paper)
// ===========================================================================

/// Result of the SoC-crash degradation run.
#[derive(Debug, Clone)]
pub struct NicCrashResult {
    /// Throughput per 500 ms bucket (seconds, kops/s).
    pub series: Vec<(f64, f64)>,
    /// When the SoC crashed (s).
    pub crash_at_s: f64,
    /// When the SoC came back (s).
    pub recover_at_s: f64,
    /// The degraded window the master recorded: entered at / exited at (s).
    pub degraded_from_s: f64,
    /// End of the degraded window (NaN if it never closed).
    pub degraded_until_s: f64,
    /// Minimum bucket throughput while degraded (kops/s).
    pub min_kops_degraded: f64,
    /// NIC fan-out messages up to the SoC's return vs end of run — the
    /// second exceeding the first proves replication was re-offloaded.
    pub fanout_at_recovery: u64,
    /// Fan-out total at the end of the run.
    pub fanout_at_end: u64,
    /// Error replies clients saw.
    pub client_errors: u64,
    /// Whether keyspaces converged after the run.
    pub converged: bool,
}

/// The failure the paper does not plot: the SmartNIC SoC itself dies at 3 s
/// and returns at 8 s. The master must notice the probe silence
/// (`upstream-silence`), fall back to host-driven serial fan-out — degraded
/// RDMA-Redis-shaped throughput, but *nonzero* — and hand replication back
/// to the SoC once probes resume.
pub fn nic_crash_timeline() -> NicCrashResult {
    let mut spec = base_spec(Mode::Skv, 3, 8, 15_000);
    spec.warmup = SimDuration::from_millis(400);
    spec.measure = SimDuration::from_millis(11_600);
    let crash_at = SimTime::from_secs(3);
    let recover_at = SimTime::from_secs(8);
    let mut cluster = Cluster::build(spec);
    cluster.schedule_nic_crash(crash_at);
    cluster.schedule_nic_recover(recover_at);

    // Step to the SoC's return: its fan-out counter is frozen while it is
    // down, so this snapshot is the pre-crash total.
    cluster.sim.run_until(recover_at);
    let fanout_at_recovery = cluster.nic_kv().map_or(0, |n| n.stat_fanout_msgs);

    let report = cluster.run();
    cluster
        .sim
        .run_until(cluster.measure_until + SimDuration::from_secs(2));
    let fanout_at_end = cluster.nic_kv().map_or(0, |n| n.stat_fanout_msgs);
    let digests = cluster.keyspace_digests();
    let converged = digests.iter().all(|&d| d == digests[0]);

    let (entered, exited) = cluster
        .master_server()
        .degraded_periods
        .last()
        .copied()
        .expect("the SoC crash must degrade the master");
    let degraded_from_s = entered.as_secs_f64();
    let degraded_until_s = exited.map_or(f64::NAN, SimTime::as_secs_f64);

    let series: Vec<(f64, f64)> = report
        .series
        .iter()
        .map(|p| (p.time.as_secs_f64(), p.rate_per_sec / 1000.0))
        .collect();
    let min_kops_degraded = series
        .iter()
        .filter(|(t, _)| *t >= degraded_from_s && *t < recover_at.as_secs_f64())
        .map(|(_, k)| *k)
        .fold(f64::INFINITY, f64::min);
    NicCrashResult {
        series,
        crash_at_s: crash_at.as_secs_f64(),
        recover_at_s: recover_at.as_secs_f64(),
        degraded_from_s,
        degraded_until_s,
        min_kops_degraded,
        fanout_at_recovery,
        fanout_at_end,
        client_errors: report.errors,
        converged,
    }
}

/// Print the SoC-crash timeline.
pub fn print_nic_crash(r: &NicCrashResult) {
    println!(
        "SmartNIC SoC failure — degradation timeline (crash at {:.0}s, return at {:.0}s)",
        r.crash_at_s, r.recover_at_s
    );
    println!("{:>8} {:>12}  phase", "t(s)", "kops/s");
    for &(t, kops) in &r.series {
        let phase = if t < r.degraded_from_s {
            "offloaded"
        } else if r.degraded_until_s.is_nan() || t < r.degraded_until_s {
            "degraded (host fan-out)"
        } else {
            "re-offloaded"
        };
        println!("{t:>8.1} {kops:>12.1}  {phase}");
    }
    println!(
        "degraded {:.2}s → {:.2}s; min while degraded: {:.1} kops/s; \
         NIC fan-out {} → {}; client errors: {}; converged: {}",
        r.degraded_from_s,
        r.degraded_until_s,
        r.min_kops_degraded,
        r.fanout_at_recovery,
        r.fanout_at_end,
        r.client_errors,
        r.converged
    );
}
