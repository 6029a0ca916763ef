//! Ablation studies for the design choices the paper argues for.
//!
//! * `thread-num` (§III-C): multi-threaded NIC replication shrinks
//!   replication lag but cannot improve client latency/throughput.
//! * NIC-side data store (§IV-A): the rejected design — serving requests
//!   from the off-path SoC is strictly worse.
//! * WR post cost (§V-C): SKV's gain is proportional to slaves × post cost.
//! * Slave count: the offload's benefit grows with the fan-out degree.
//! * `min-slaves` / `waiting-time` (§III-D): detection-latency trade-off.

use skv_core::cluster::{run_spec, Cluster};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::histcheck;
use skv_core::metrics::catalog::{NicStat, ServerStat};
use skv_core::metrics::RunReport;
use skv_core::nickv::NicKv;
use skv_core::replmode::ReplModeKind;
use skv_netsim::{FaultPlan, LinkFault, TimeWindow};
use skv_simcore::{SimDuration, SimTime};

use crate::cells;
use crate::experiments::{base_spec as spec, gain_pct};
use crate::table::{Column, Table};

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

// ===========================================================================
// thread-num
// ===========================================================================

/// Sweep `thread-num` with a fan-out wide enough (12 slaves) that a single
/// ARM core cannot keep up. The client-visible columns are expected flat;
/// the maximum replication lag across slaves at measure end shrinks as
/// threads (clamped to min(cores, slaves)) increase.
pub fn ablation_threadnum() -> Table {
    let mut t = Table::new(
        "Ablation — thread-num (SKV, 12 slaves, 8 clients)",
        vec![
            Column::new("thread", 10),
            Column::new("effective", 10),
            Column::num("kops/s", 12, 1),
            Column::num("p99(us)", 10, 1),
            Column::new("max lag (B)", 14),
            Column::num("nic util", 10, 2),
        ],
    );
    for tn in [1usize, 2, 4, 8, 16] {
        let mut s = spec(Mode::Skv, 12, 8, 21_000 + tn as u64);
        s.cfg.thread_num = tn;
        // A single ARM core cannot keep up with this fan-out; bound the
        // overload window so the undrained-queue memory stays modest.
        s.measure = SimDuration::from_millis(1_000);
        let effective = s.cfg.effective_nic_threads();
        let mut cluster = Cluster::build(s);
        let report = cluster.run();
        let now = cluster.sim.now();
        let max_lag_bytes = cluster.max_replication_lag();
        let nic_utilization = cluster.nic_kv().map_or(0.0, |n| n.mean_utilization(now));
        t.row(cells![
            tn,
            effective,
            report.throughput_kops,
            report.p99_latency_us,
            max_lag_bytes,
            nic_utilization,
        ]);
    }
    t
}

// ===========================================================================
// NIC-side data store (the rejected design of §IV-A)
// ===========================================================================

/// Run the rejected design: the whole store on the SoC (weak cores, and the
/// client's RDMA path to the SoC costs nearly a full host-to-host hop),
/// against GETs served by Host-KV on the host (SKV's actual design).
pub fn ablation_nic_datastore() -> Table {
    // Host store: plain RDMA-Redis GETs, no slaves.
    let mut host_spec = spec(Mode::RdmaRedis, 0, 8, 22_000);
    host_spec.set_ratio = 0.0;
    let host_store = run_spec(host_spec);

    // NIC store: same server logic, but its event-loop cores are the
    // BlueField's ARM cores. (The cluster builder places servers on hosts;
    // slowing the host cores to the ARM factor models the §IV-A variant —
    // the network path difference is second-order next to the ~3x core
    // speed gap, as the paper's Figure 3 argument implies.)
    let mut nic_spec = spec(Mode::RdmaRedis, 0, 8, 22_001);
    nic_spec.set_ratio = 0.0;
    nic_spec.cfg.machines.host_core_speed = nic_spec.cfg.machines.nic_core_speed;
    let mut nic_store = run_spec(nic_spec);
    nic_store.label = "NIC-store".into();

    let mut t = Table::new(
        "Ablation — data store placement for GETs (§IV-A rejected design)",
        vec![
            Column::left("placement", 12),
            Column::left(RunReport::header(), 0),
        ],
    );
    t.row(cells!["host", host_store.row()]);
    t.row(cells!["SmartNIC", nic_store.row()]);
    t
}

// ===========================================================================
// WR post cost
// ===========================================================================

/// Sweep the per-WR host CPU cost (`ibv_post_send`, ns): the offload's
/// benefit must scale with it (§V-C's causal claim).
pub fn ablation_wr_cost() -> Table {
    let mut t = Table::new(
        "Ablation — WR post cost vs offload gain (SET, 3 slaves, 8 clients)",
        vec![
            Column::new("post(ns)", 12),
            Column::num("RDMA kops", 14, 1),
            Column::num("SKV kops", 12, 1),
            Column::signed("gain%", 8, 1),
        ],
    );
    for ns in [50u64, 100, 200, 400, 800] {
        let mut b = spec(Mode::RdmaRedis, 3, 8, 23_000 + ns);
        b.cfg.net.wr_post_cpu = SimDuration::from_nanos(ns);
        let mut s = spec(Mode::Skv, 3, 8, 23_500 + ns);
        s.cfg.net.wr_post_cpu = SimDuration::from_nanos(ns);
        let (baseline, skv) = (run_spec(b).throughput_kops, run_spec(s).throughput_kops);
        t.row(cells![ns, baseline, skv, gain_pct(skv, baseline)]);
    }
    t
}

// ===========================================================================
// doorbell batching (linked-WR post lists)
// ===========================================================================

/// Sweep the fan-out width. The Nic-KV's own counters show the
/// mechanism: a replicated write posts N WRs as one linked list, so it
/// rings exactly one doorbell however wide the fan-out — doorbells per
/// replicated write ≈ 1, WRs per write ≈ N (batching amortizes doorbells,
/// not work requests). (The serial one-doorbell-per-slave arm this table
/// used to carry is recorded in EXPERIMENTS.md; it went with the knob
/// that selected it.)
pub fn ablation_wr_batching() -> Table {
    let mut t = Table::new(
        "Ablation — doorbell batching on the Nic-KV fan-out (SET, 8 clients)",
        vec![
            Column::new("slaves", 8),
            Column::num("kops", 12, 1),
            Column::num("db/write", 12, 2),
            Column::num("wr/write", 12, 2),
        ],
    );
    for n in [1usize, 2, 3, 5, 8] {
        let mut cluster = Cluster::build(spec(Mode::Skv, n, 8, 29_000 + n as u64));
        let report = cluster.run();
        let nic = cluster.nic_kv().map(NicKv::stats).unwrap_or_default();
        let writes = nic.get(NicStat::FanoutMsgs);
        let doorbells = nic.get(NicStat::Doorbells);
        let wrs = nic.get(NicStat::WrsPosted);
        t.row(cells![
            n,
            report.throughput_kops,
            ratio(doorbells, writes),
            ratio(wrs, writes),
        ]);
    }
    t
}

// ===========================================================================
// replication mode (async stream vs quorum)
// ===========================================================================

/// Sweep the replication protocol at a fixed fan-out: the async stream is
/// the latency/throughput ceiling (replies return as soon as the host
/// write lands) and quorum pays one NIC→slave RTT before release — the
/// paper's offload numbers are the async arm, quorum prices its
/// durability upgrade.
///
/// `commits` are writes the NIC committed through ack tracking (0 for
/// async — the stream mode has no commit point), `deferred` the replies
/// the master held until the NIC's commit frontier (and the slave census)
/// caught up, `rexmit` quorum retransmits to re-registered slaves.
pub fn ablation_replmode() -> Table {
    let mut t = Table::new(
        "Ablation — replication protocol (SKV, 3 slaves, 8 clients, GET/SET)",
        vec![
            Column::new("mode", 8),
            Column::num("kops/s", 10, 1),
            Column::num("p99(us)", 10, 1),
            Column::new("commits", 10),
            Column::new("deferred", 10),
            Column::new("rexmit", 8),
            Column::new("hist ops", 10),
            Column::new("lin", 8),
        ],
    );
    for (i, &mode) in ReplModeKind::ALL.iter().enumerate() {
        let mut s = spec(Mode::Skv, 3, 8, 31_000 + i as u64);
        s.cfg.repl_mode = mode;
        // Every arm records its own client traffic and runs the
        // linearizability checker over it: the verdict column proves
        // the protocol (not just prices it). Mixed GET/SET so reads
        // actually constrain the order.
        s.cfg.record_history = true;
        s.set_ratio = 0.5;
        let mut cluster = Cluster::build(s);
        let report = cluster.run();
        let nic = cluster.nic_kv().map(NicKv::stats).unwrap_or_default();
        let commits = nic.get(NicStat::Commits);
        let retransmits = nic.get(NicStat::Retransmits);
        let master = cluster.master_server().stats();
        // The history the bench clients recorded of themselves
        // (`record_history`) and the violations the checker finds in it
        // (none is the expected verdict for every fault-free arm).
        let (hist_ops, violations) = cluster.bench_history.as_ref().map_or((0, 0), |h| {
            let hb = h.borrow();
            (hb.ops.len(), histcheck::check_linearizable(&hb).len())
        });
        t.row(cells![
            mode.label(),
            report.throughput_kops,
            report.p99_latency_us,
            commits,
            master.get(ServerStat::DeferredReplies),
            retransmits,
            hist_ops,
            if violations == 0 { "ok" } else { "FAIL" },
        ]);
    }
    t
}

// ===========================================================================
// slave count
// ===========================================================================

/// Sweep the number of slaves: the host saves (N−1) WR posts per write, so
/// the gain must grow with N.
pub fn ablation_slave_count() -> Table {
    let mut t = Table::new(
        "Ablation — offload gain vs number of slaves (SET, 8 clients)",
        vec![
            Column::new("slaves", 8),
            Column::num("RDMA kops", 14, 1),
            Column::num("SKV kops", 12, 1),
            Column::signed("gain%", 8, 1),
        ],
    );
    for n in [0usize, 1, 2, 3, 5, 8] {
        let baseline = run_spec(spec(Mode::RdmaRedis, n, 8, 24_000 + n as u64)).throughput_kops;
        let skv = run_spec(spec(Mode::Skv, n, 8, 24_500 + n as u64)).throughput_kops;
        t.row(cells![n, baseline, skv, gain_pct(skv, baseline)]);
    }
    t
}

// ===========================================================================
// failure-detection parameters
// ===========================================================================

/// Sweep `waiting-time` with `min-slaves = 3`: shorter timeouts detect the
/// crash sooner, so clients see `NOREPLICAS` errors earlier (more of them).
pub fn ablation_failure_params() -> Table {
    let mut t = Table::new(
        "Ablation — waiting-time vs detection delay (min-slaves=3, crash at 3s)",
        vec![
            Column::new("waiting(ms)", 12),
            Column::num("detect delay(ms)", 16, 0),
            Column::new("errors", 10),
            Column::new("ops", 10),
        ],
    );
    for wt in [500u64, 1500, 3000] {
        let mut s = spec(Mode::Skv, 3, 4, 25_000 + wt);
        s.cfg.waiting_time = SimDuration::from_millis(wt);
        s.cfg.min_slaves = 3;
        s.measure = SimDuration::from_millis(7_000);
        let crash_at = SimTime::from_secs(3);
        let mut cluster = Cluster::build(s);
        cluster.schedule_slave_crash(0, crash_at);
        let report = cluster.run();
        let detection_delay_ms = cluster
            .nic_kv()
            .and_then(|n| n.nodes().detections.iter().find(|(t, _)| *t >= crash_at))
            .map_or(f64::NAN, |&(t, _)| {
                t.saturating_since(crash_at).as_secs_f64() * 1000.0
            });
        t.row(cells![wt, detection_delay_ms, report.errors, report.ops]);
    }
    t
}

// ===========================================================================
// probe loss — detection false positives vs waiting-time
// ===========================================================================

/// The cost of aggressive detection (§III-D): cut one slave's link to the
/// NIC — probes, replies and re-registration — for a bounded blip while
/// the slave itself stays alive, and sweep `waiting-time`. A timeout
/// shorter than the blip flags the live slave as failed; a longer one
/// rides it out (but would detect a real crash correspondingly later —
/// the other half of the trade-off, in `ablation_failure_params`). The
/// slave never crashes and keeps serving through its other links, so every
/// detection is a false positive, and a recovery is the false alarm
/// clearing.
///
/// Independent per-message probe loss is deliberately *not* the x-axis:
/// a dropped probe errors the sender's QP, the slave redials within
/// milliseconds and registration resets the probe clock, so uniform loss
/// up to 5% produces zero false positives at any `waiting-time`. Only
/// sustained silence — an outage the retry machinery cannot route around
/// — can outlive the timeout.
pub fn ablation_probe_loss() -> Table {
    let mut t = Table::new(
        "Ablation — probe-path outage vs false detections (slave stays alive)",
        vec![
            Column::new("blip(ms)", 9),
            Column::new("waiting(ms)", 12),
            Column::new("false-pos", 10),
            Column::new("recoveries", 11),
            Column::new("ops", 9),
            Column::new("errors", 8),
        ],
    );
    for blip_ms in [250u64, 1_000, 2_500, 5_000] {
        for wt in [500u64, 1_500, 3_000] {
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
                (n.nodes().detections.len(), n.nodes().recoveries.len())
            });
            t.row(cells![
                blip_ms,
                wt,
                false_positives,
                recoveries,
                report.ops,
                report.errors,
            ]);
        }
    }
    t
}

// ===========================================================================
// client pipelining (extension: redis-benchmark -P)
// ===========================================================================

/// Sweep pipeline depth with ONE client: depth substitutes for connection
/// concurrency until the server core saturates (an extension beyond the
/// paper, which benchmarks unpipelined clients only).
pub fn ablation_pipeline() -> Table {
    let mut t = Table::new(
        "Ablation — client pipelining (RDMA-Redis, 1 client, no slaves)",
        vec![
            Column::new("depth", 8),
            Column::num("kops/s", 12, 1),
            Column::num("p99(us)", 10, 1),
        ],
    );
    for depth in [1usize, 2, 4, 8, 16] {
        let mut s = spec(Mode::RdmaRedis, 0, 1, 26_000 + depth as u64);
        s.pipeline = depth;
        let report = run_spec(s);
        t.row(cells![depth, report.throughput_kops, report.p99_latency_us]);
    }
    t
}

// ===========================================================================
// fabric-calibration sensitivity
// ===========================================================================

/// Perturb each [`skv_netsim::NetParams`] calibration knob (and the host
/// command-CPU cost) in isolation — latencies and CPU costs doubled,
/// bandwidth halved — and measure how the client-visible numbers move
/// against the default calibration. This is the robustness check behind
/// quoting absolute numbers from a calibrated simulator: the knobs the
/// paper's claims lean on (WR post cost, SoC path factors) must matter,
/// and the ones it abstracts away (connect latency) must not.
pub fn ablation_netcal() -> Table {
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
        run_spec(s)
    };
    let base_skv = run(Mode::Skv, None);
    let base_tcp = run(Mode::TcpRedis, None);
    let mut t = Table::new(
        "Ablation — fabric-calibration sensitivity (one knob per row, 4 clients)",
        vec![
            Column::left("knob", 24),
            Column::left("mode", 10),
            Column::num("base kops", 10, 1),
            Column::num("kops", 10, 1),
            Column::signed("d kops%", 8, 1),
            Column::signed("d p99%", 9, 1),
        ],
    );
    for &(knob, mode, apply) in arms {
        let base = if mode == Mode::TcpRedis {
            &base_tcp
        } else {
            &base_skv
        };
        let r = run(mode, Some(apply));
        t.row(cells![
            knob,
            mode.label(),
            base.throughput_kops,
            r.throughput_kops,
            gain_pct(r.throughput_kops, base.throughput_kops),
            gain_pct(r.p99_latency_us, base.p99_latency_us),
        ]);
    }
    t
}

// ===========================================================================
// reconnect backoff / client retry
// ===========================================================================

/// Crash the master for 300 ms mid-measurement and compare reconnect
/// profiles (`reconnect_base`, `reconnect_max_delay`,
/// `reconnect_max_attempts`, `client_retry_timeout`): an aggressive
/// schedule redials often (dial-failure storm, fastest recovery), a lazy
/// one stays quiet but gives up throughput. `srv rc` counts server-side
/// reconnect attempts (master + slaves), `cli rc` client teardowns +
/// redials, `dialfail` client dials that found the master still down.
/// The numbers come from [`Cluster::counters_snapshot`] — the run report
/// itself stays byte-identical to a chaos-free run's shape.
pub fn ablation_backoff() -> Table {
    let mut t = Table::new(
        "Ablation — reconnect backoff under a 300 ms master outage (SKV, 2 slaves)",
        vec![
            Column::left("profile", 12),
            Column::new("base", 8),
            Column::new("cap", 8),
            Column::new("attempts", 9),
            Column::new("retry", 9),
            Column::num("kops/s", 8, 1),
            Column::new("errors", 7),
            Column::new("srv rc", 8),
            Column::new("cli rc", 8),
            Column::new("dialfail", 8),
        ],
    );
    let profiles: [(&str, u64, u64, u32, u64); 3] = [
        ("aggressive", 2, 40, 16, 50),
        ("default", 10, 640, 8, 250),
        ("lazy", 100, 2_000, 3, 800),
    ];
    for (i, (label, base_ms, max_delay_ms, max_attempts, client_retry_ms)) in
        profiles.into_iter().enumerate()
    {
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
        t.row(cells![
            label,
            format!("{base_ms}m"),
            format!("{max_delay_ms}m"),
            max_attempts,
            format!("{client_retry_ms}m"),
            report.throughput_kops,
            report.errors,
            snap.get("server.stat_reconnects"),
            snap.get("client.stat_reconnects"),
            snap.get("client.stat_dial_failures"),
        ]);
    }
    t
}

// ===========================================================================
// keyspace sharding (extension: hash-slot multi-core master engine)
// ===========================================================================

/// Sweep the shard count 1→8 under a pipelined GET/SET workload (the
/// scaling curve the tentpole buys), then hold 4 shards and widen the
/// MSET batch (the cross-shard tax those wins are paid from). Pure
/// GET/SET never crosses shards — `cross_msgs` (fragment handoffs, all
/// servers) stays 0 on those rows — while every batched row pays hop
/// costs on the split writes. `queue_depth` is the deepest slave
/// parse→apply ring occupancy.
pub fn ablation_shards() -> Table {
    const PIPELINE: usize = 8;
    let mut t = Table::new(
        "Ablation — keyspace shards (SKV, 2 slaves, 8 clients, P=8, 50% SET)",
        vec![
            Column::new("shards", 7),
            Column::new("P", 9),
            Column::new("mset_keys", 10),
            Column::num("kops/s", 10, 1),
            Column::num("p99(us)", 10, 1),
            Column::new("cross_msgs", 11),
            Column::new("queue_depth", 11),
        ],
    );
    let mut arm = |shards: usize, mset_keys: usize, seed: u64| {
        let mut s = spec(Mode::Skv, 2, 8, seed);
        s.cfg.num_shards = shards;
        s.pipeline = PIPELINE;
        s.set_ratio = 0.5;
        s.mset_keys = mset_keys;
        s.key_space = 10_000;
        let mut cluster = Cluster::build(s);
        let report = cluster.run();
        let counters = cluster.counters_snapshot();
        t.row(cells![
            shards,
            PIPELINE,
            mset_keys,
            report.throughput_kops,
            report.p99_latency_us,
            counters.get("shard.cross_msgs"),
            counters.get("shard.queue_depth"),
        ]);
    };
    for (i, shards) in [1usize, 2, 4, 8].into_iter().enumerate() {
        arm(shards, 0, 34_000 + i as u64);
    }
    for (i, mset) in [2usize, 4].into_iter().enumerate() {
        arm(4, mset, 35_000 + i as u64);
    }
    t
}

// ===========================================================================
// hot-key cache (extension: SoC-resident GET cache + admission policies)
// ===========================================================================

/// Sweep the SoC hot-key cache under a read-heavy (5% SET) Zipf-skewed
/// stream: policy (LRU vs TinyLFU admission) × skew theta × byte budget,
/// against a cache-off baseline on the *same* workload. The headline row
/// pair is `off` vs any cache-on arm at theta 0.99 — the SoC answers the
/// hot head of the distribution without crossing to the host, so the
/// host core stops being the GET bottleneck. The last arm rotates the
/// hot set mid-run (`zipf_shift_every`) to price re-warming: admissions
/// and evictions churn while the steady-state arms sit at a full,
/// quiet cache. `hits` are GETs served from SoC memory, `misses` the ones
/// forwarded to the host, `invals` entries dropped or refreshed off the
/// replication stream, `bytes` what is resident at run end. `ARM%` is the
/// busiest SoC core's accounted busy time over the measurement window:
/// the front end spreads over every core the fan-out thread leaves free,
/// each polling its own clients' CQ, so no core's work may exceed the
/// time it had.
pub fn ablation_hotcache() -> Table {
    let mut t = Table::new(
        "Ablation — SoC hot-key GET cache (SKV, 2 slaves, 8 clients, P=4, 5% SET)",
        vec![
            Column::new("policy", 8),
            Column::num("theta", 6, 2),
            Column::new("KiB", 7),
            Column::new("shift", 7),
            Column::num("kops/s", 9, 1),
            Column::num("p99(us)", 8, 1),
            Column::new("hits", 9),
            Column::new("misses", 9),
            Column::num("hit%", 6, 1),
            Column::new("admits", 8),
            Column::new("evicts", 8),
            Column::new("invals", 7),
            Column::new("bytes", 9),
            Column::num("ARM%", 6, 1),
        ],
    );
    let mut arm = |policy: &str, theta: f64, cache_kib: usize, shift_every: u64, seed: u64| {
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
        let arm_busy = |c: &Cluster| -> Vec<SimDuration> {
            c.nic_kv().expect("SKV has a NIC").core_busy().collect()
        };
        cluster.sim.run_until(cluster.measure_from);
        let before = arm_busy(&cluster);
        cluster.sim.run_until(cluster.measure_until);
        let busiest = arm_busy(&cluster)
            .into_iter()
            .zip(before)
            .map(|(after, before)| after - before)
            .max()
            .unwrap_or(SimDuration::ZERO);
        let window = cluster.measure_until - cluster.measure_from;
        let report = cluster.run();
        let counters = cluster.counters_snapshot();
        let (hits, misses) = (counters.get("cache.hits"), counters.get("cache.misses"));
        t.row(cells![
            if cache_kib == 0 { "off" } else { policy },
            theta,
            cache_kib,
            shift_every,
            report.throughput_kops,
            report.p99_latency_us,
            hits,
            misses,
            ratio(hits, hits + misses) * 100.0,
            counters.get("cache.admits"),
            counters.get("cache.evicts"),
            counters.get("cache.invalidations"),
            counters.get("cache.bytes"),
            busiest.as_secs_f64() / window.as_secs_f64() * 100.0,
        ]);
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
    t
}
