//! One entry point per figure of the paper's evaluation (§V).
//!
//! Each function builds the corresponding testbed, runs the workload, and
//! returns the [`Table`] the paper plots. Absolute numbers come from the
//! calibrated simulator, so the claims to check are the *shapes*: who wins,
//! by what factor, and where curves flatten or cross.

use skv_core::cluster::{run_spec, Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::cqdrain;
use skv_core::metrics::catalog::NicStat;
use skv_core::metrics::RunReport;
use skv_netsim::{Net, NetEvent, NetParams, SendWr, SocketAddr, Topology};
use skv_simcore::{FnActor, SimDuration, SimTime, Simulation};
use std::cell::RefCell;
use std::rc::Rc;

use crate::cells;
use crate::table::{Column, Table};

/// Default measurement window for throughput/latency experiments.
/// (~450k operations per data point at the calibrated throughput —
/// percentiles are stable well below this.)
const MEASURE: SimDuration = SimDuration::from_millis(1_500);
/// Default warmup.
const WARMUP: SimDuration = SimDuration::from_millis(300);

/// The paper's default point: unpipelined 64-byte SETs over 100k keys.
pub(crate) fn base_spec(mode: Mode, slaves: usize, clients: usize, seed: u64) -> RunSpec {
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
                    let cq = cqdrain::create_armed(&net2, ctx);
                    let qp = net2.rdma_accept(ctx, req, cq).expect("fresh CM request");
                    for i in 0..8 {
                        net2.post_recv(qp, i).unwrap();
                    }
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
                let wr = SendWr::write_imm(1, dst_mr, 0, 0, vec![0xAB; size]);
                net2.post_send(ctx, qp, wr).unwrap();
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
pub fn fig03_rdma_write_latency() -> Table {
    let mut t = Table::new(
        "Figure 3 — RDMA WRITE latency (us, one-way)",
        vec![
            Column::new("size(B)", 8),
            Column::num("host-host", 12, 2),
            Column::num("remote-SoC", 14, 2),
            Column::num("local-SoC", 14, 2),
        ],
    );
    for size in [16usize, 64, 256, 1024, 4096] {
        t.row(cells![
            size,
            write_latency(size, false, false),
            write_latency(size, true, true),
            write_latency(size, true, false),
        ]);
    }
    t
}

// ===========================================================================
// Figure 7 — RDMA-Redis degradation with slaves
// ===========================================================================

/// Reproduce Figure 7: RDMA-Redis SET with 0 vs 3 slaves, 8 clients.
pub fn fig07_slave_degradation() -> Table {
    let mut t = Table::new(
        "Figure 7 — RDMA-Redis SET with slaves (8 clients)",
        vec![
            Column::left("slaves", 8),
            Column::left(RunReport::header(), 0),
        ],
    );
    for slaves in [0usize, 3] {
        let spec = base_spec(Mode::RdmaRedis, slaves, 8, 7_000 + slaves as u64);
        t.row(cells![slaves, run_spec(spec).row()]);
    }
    t
}

// ===========================================================================
// Figure 10 — original Redis vs RDMA-Redis, throughput & p99 vs #clients
// ===========================================================================

/// Reproduce Figure 10 (SET, no slaves) at 1–32 clients.
pub fn fig10_redis_vs_rdma() -> Table {
    let mut t = Table::new(
        "Figure 10 — original Redis vs RDMA-Redis (SET, no slaves)",
        vec![
            Column::new("clients", 8),
            Column::num("Redis kops", 12, 1),
            Column::num("Redis p99", 12, 1),
            Column::num("RDMA kops", 12, 1),
            Column::num("RDMA p99", 12, 1),
        ],
    );
    for clients in [1usize, 2, 4, 8, 16, 24, 32] {
        let tcp = run_spec(base_spec(
            Mode::TcpRedis,
            0,
            clients,
            10_000 + clients as u64,
        ));
        let rdma = run_spec(base_spec(
            Mode::RdmaRedis,
            0,
            clients,
            10_100 + clients as u64,
        ));
        t.row(cells![
            clients,
            tcp.throughput_kops,
            tcp.p99_latency_us,
            rdma.throughput_kops,
            rdma.p99_latency_us,
        ]);
    }
    t
}

// ===========================================================================
// Figures 11 & 13 — SKV vs RDMA-Redis, SET and GET
// ===========================================================================

/// Relative gain of `new` over `old`, percent.
pub(crate) fn gain_pct(new: f64, old: f64) -> f64 {
    (new / old - 1.0) * 100.0
}

/// SKV against RDMA-Redis (1 master + 3 slaves) at 4/8/16 clients.
fn skv_vs_rdma(title: &str, set_ratio: f64, seed: u64) -> Table {
    let mut t = Table::new(
        title,
        vec![
            Column::new("clients", 8),
            Column::num("RDMA kops", 12, 1),
            Column::num("avg(us)", 10, 1),
            Column::num("p99(us)", 10, 1),
            Column::num("SKV kops", 12, 1),
            Column::num("avg(us)", 10, 1),
            Column::num("p99(us)", 10, 1),
            Column::signed("tput+%", 9, 1),
            Column::signed("p99-%", 9, 1),
        ],
    );
    for clients in [4usize, 8, 16] {
        let mut b = base_spec(Mode::RdmaRedis, 3, clients, seed + clients as u64);
        b.set_ratio = set_ratio;
        let mut s = base_spec(Mode::Skv, 3, clients, seed + 50 + clients as u64);
        s.set_ratio = set_ratio;
        let (baseline, skv) = (run_spec(b), run_spec(s));
        t.row(cells![
            clients,
            baseline.throughput_kops,
            baseline.avg_latency_us,
            baseline.p99_latency_us,
            skv.throughput_kops,
            skv.avg_latency_us,
            skv.p99_latency_us,
            gain_pct(skv.throughput_kops, baseline.throughput_kops),
            (1.0 - skv.p99_latency_us / baseline.p99_latency_us) * 100.0,
        ]);
    }
    t
}

/// Reproduce Figure 11: SET with 1 master + 3 slaves at 4/8/16 clients.
pub fn fig11_set_offload() -> Table {
    skv_vs_rdma(
        "Figure 11 — SET, 1 master + 3 slaves (SKV vs RDMA-Redis)",
        1.0,
        11_000,
    )
}

/// Reproduce Figure 13: GET under the same topology (parity expected).
pub fn fig13_get_parity() -> Table {
    skv_vs_rdma(
        "Figure 13 — GET, 1 master + 3 slaves (SKV vs RDMA-Redis)",
        0.0,
        13_000,
    )
}

// ===========================================================================
// Figure 12 — throughput vs value size
// ===========================================================================

/// Reproduce Figure 12: SET throughput across value sizes (8 clients,
/// 3 slaves).
pub fn fig12_value_size() -> Table {
    let mut t = Table::new(
        "Figure 12 — SET throughput vs value size (8 clients, 3 slaves)",
        vec![
            Column::new("value(B)", 10),
            Column::num("RDMA kops", 14, 1),
            Column::num("SKV kops", 12, 1),
            Column::signed("gain%", 8, 1),
        ],
    );
    for value_size in [64usize, 256, 1024, 4096, 16384] {
        let mut b = base_spec(Mode::RdmaRedis, 3, 8, 12_000 + value_size as u64);
        b.value_size = value_size;
        let mut s = base_spec(Mode::Skv, 3, 8, 12_500 + value_size as u64);
        s.value_size = value_size;
        let (baseline, skv) = (run_spec(b).throughput_kops, run_spec(s).throughput_kops);
        t.row(cells![value_size, baseline, skv, gain_pct(skv, baseline)]);
    }
    t
}

// ===========================================================================
// Figure 14 — availability under slave failure
// ===========================================================================

/// The report's 500 ms throughput buckets as `(seconds, kops/s)`.
fn kops_series(report: &RunReport) -> Vec<(f64, f64)> {
    report
        .series
        .iter()
        .map(|p| (p.time.as_secs_f64(), p.rate_per_sec / 1000.0))
        .collect()
}

/// The lowest bucket of `series` in `[from_s, until_s)`.
fn min_kops(series: &[(f64, f64)], from_s: f64, until_s: f64) -> f64 {
    series
        .iter()
        .filter(|(t, _)| *t >= from_s && *t < until_s)
        .map(|(_, k)| *k)
        .fold(f64::INFINITY, f64::min)
}

/// Let recovery traffic settle for 2 s, then compare every keyspace.
fn replicas_converge(cluster: &mut Cluster) -> bool {
    cluster
        .sim
        .run_until(cluster.measure_until + SimDuration::from_secs(2));
    let digests = cluster.keyspace_digests();
    digests.iter().all(|&d| d == digests[0])
}

/// Reproduce Figure 14: SET stream; one slave crashes at 4 s and recovers
/// at 9 s; Nic-KV detects both, throughput stays high, clients see no
/// errors.
pub fn fig14_availability() -> Table {
    let mut spec = base_spec(Mode::Skv, 3, 8, 14_000);
    spec.warmup = SimDuration::from_millis(400);
    spec.measure = SimDuration::from_millis(11_600);
    let mut cluster = Cluster::build(spec);
    let crash_at = SimTime::from_secs(4);
    let recover_at = SimTime::from_secs(9);
    cluster.schedule_slave_crash(1, crash_at);
    cluster.schedule_slave_recover(1, recover_at);
    let report = cluster.run();
    let converged = replicas_converge(&mut cluster);

    let (crash_s, recover_s) = (crash_at.as_secs_f64(), recover_at.as_secs_f64());
    let series = kops_series(&report);
    let mut t = Table::new(
        format!(
            "Figure 14 — throughput during slave failure \
             (crash at {crash_s:.0}s, recovery at {recover_s:.0}s)"
        ),
        vec![Column::num("t(s)", 8, 1), Column::num("kops/s", 12, 1)],
    );
    for &(at, kops) in &series {
        t.row(cells![at, kops]);
    }
    t.footer(format!(
        "min during failure: {:.1} kops/s; client errors: {}; converged after recovery: {converged}",
        min_kops(&series, crash_s, recover_s),
        report.errors,
    ));
    t
}

// ===========================================================================
// SmartNIC SoC failure — degradation timeline (extension beyond the paper)
// ===========================================================================

/// The failure the paper does not plot: the SmartNIC SoC itself dies at 3 s
/// and returns at 8 s. The master must notice the probe silence
/// (`upstream-silence`), fall back to host-driven serial fan-out — degraded
/// RDMA-Redis-shaped throughput, but *nonzero* — and hand replication back
/// to the SoC once probes resume.
pub fn nic_crash_timeline() -> Table {
    let mut spec = base_spec(Mode::Skv, 3, 8, 15_000);
    spec.warmup = SimDuration::from_millis(400);
    spec.measure = SimDuration::from_millis(11_600);
    let crash_at = SimTime::from_secs(3);
    let recover_at = SimTime::from_secs(8);
    let mut cluster = Cluster::build(spec);
    cluster.schedule_nic_crash(crash_at);
    cluster.schedule_nic_recover(recover_at);

    // Step to the SoC's return: its fan-out counter is frozen while it is
    // down, so this snapshot is the pre-crash total. The later total
    // exceeding it proves replication was re-offloaded.
    cluster.sim.run_until(recover_at);
    let fanout = |c: &Cluster| c.nic_kv().map_or(0, |n| n.stats().get(NicStat::FanoutMsgs));
    let fanout_at_recovery = fanout(&cluster);

    let report = cluster.run();
    let converged = replicas_converge(&mut cluster);
    let fanout_at_end = fanout(&cluster);

    // The degraded window the master recorded (NaN end: it never closed).
    let (entered, exited) = cluster
        .master_server()
        .links()
        .degraded_periods()
        .last()
        .copied()
        .expect("the SoC crash must degrade the master");
    let degraded_from_s = entered.as_secs_f64();
    let degraded_until_s = exited.map_or(f64::NAN, SimTime::as_secs_f64);

    let series = kops_series(&report);
    let mut t = Table::new(
        format!(
            "SmartNIC SoC failure — degradation timeline (crash at {:.0}s, return at {:.0}s)",
            crash_at.as_secs_f64(),
            recover_at.as_secs_f64()
        ),
        vec![
            Column::num("t(s)", 8, 1),
            Column::num("kops/s", 12, 1),
            // Free text after a two-space gutter, as the recorded output has it.
            Column::left(" phase", 0),
        ],
    );
    for &(at, kops) in &series {
        let phase = if at < degraded_from_s {
            " offloaded"
        } else if degraded_until_s.is_nan() || at < degraded_until_s {
            " degraded (host fan-out)"
        } else {
            " re-offloaded"
        };
        t.row(cells![at, kops, phase]);
    }
    t.footer(format!(
        "degraded {degraded_from_s:.2}s → {degraded_until_s:.2}s; min while degraded: {:.1} kops/s; \
         NIC fan-out {fanout_at_recovery} → {fanout_at_end}; client errors: {}; converged: {converged}",
        min_kops(&series, degraded_from_s, recover_at.as_secs_f64()),
        report.errors,
    ));
    t
}
