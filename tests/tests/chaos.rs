//! Chaos suite: randomized fault plans over the fault-injection substrate.
//!
//! Where `failure.rs` checks the §III-D detection machinery against clean
//! crash/recover schedules, these tests inject *transport* faults — lost
//! RDMA messages (surfacing as retry-exhaustion completion errors), latency
//! spikes, link flaps, partitions, and SmartNIC SoC crashes — and assert
//! the two system-level properties that matter: every replica converges to
//! the same keyspace once the faults clear, and identical seeds produce
//! identical runs.

use proptest::prelude::*;
use skv_core::cluster::{ChaosSpec, Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::metrics::catalog::{NicStat, ServerStat};
use skv_simcore::{SimDuration, SimTime};

/// Compressed-time SKV spec, same scale trick as `failure.rs`.
fn spec(slaves: usize, clients: usize, measure_ms: u64, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = slaves;
    cfg.probe_interval = SimDuration::from_millis(200);
    cfg.waiting_time = SimDuration::from_millis(300);
    cfg.upstream_silence = SimDuration::from_millis(600);
    cfg.reconnect_base = SimDuration::from_millis(5);
    cfg.client_retry_timeout = SimDuration::from_millis(100);
    RunSpec {
        cfg,
        num_clients: clients,
        pipeline: 1,
        set_ratio: 1.0,
        mset_keys: 0,
        value_size: 64,
        key_space: 1_000,
        warmup: SimDuration::from_millis(100),
        measure: SimDuration::from_millis(measure_ms),
        seed,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

/// Run past the measurement window, then give resyncs time to drain.
fn run_and_quiesce(cluster: &mut Cluster, drain: SimDuration) {
    cluster.run();
    cluster.sim.run_until(cluster.measure_until + drain);
}

fn assert_converged(cluster: &Cluster) {
    let digests = cluster.keyspace_digests();
    assert!(
        digests.iter().all(|&d| d == digests[0]),
        "replicas diverged: {digests:x?}"
    );
}

#[test]
fn partition_heals_and_replicas_converge() {
    // Two of three slaves are cut off mid-run; after the partition heals
    // they must detect the gap, resync, and end byte-identical.
    let mut cluster = Cluster::build(spec(3, 2, 2_000, 21));
    cluster.apply_chaos(&ChaosSpec {
        partition: Some((
            vec![0, 1],
            SimTime::from_millis(800),
            SimTime::from_millis(1_500),
        )),
        ..ChaosSpec::default()
    });
    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));

    let report = cluster.report();
    assert!(
        report.ops > 1_000,
        "writes must keep flowing: {}",
        report.ops
    );
    assert_converged(&cluster);
    // The cut-off slaves had to resync (partial or full) after the heal.
    let resyncs: u64 = (0..2)
        .map(|i| {
            let s = cluster.slave_server(i);
            s.stats().get(ServerStat::FullSyncs) + s.stats().get(ServerStat::PartialSyncs)
        })
        .sum();
    assert!(resyncs >= 3, "expected post-heal resyncs, got {resyncs}");
}

#[test]
fn lossy_link_set_stream_completes() {
    // 2% message loss everywhere: every lost WR surfaces as a completion
    // error + QP error state, so clients and servers must keep tearing
    // down and re-establishing QPs — and the SET stream must still finish.
    let mut cluster = Cluster::build(spec(2, 2, 2_000, 22));
    cluster.apply_chaos(&ChaosSpec {
        loss_prob: 0.02,
        ..ChaosSpec::default()
    });
    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));

    let report = cluster.report();
    let counters = cluster.counters_snapshot();
    assert!(report.ops > 500, "stream stalled: {} ops", report.ops);
    assert!(
        counters.get("faults.rdma_dropped") > 0,
        "plan must actually drop messages"
    );
    assert!(
        counters.get("rdma.qp_errors") > 0,
        "drops must surface as QP errors"
    );
    assert!(
        counters.get("client.stat_reconnects") > 0,
        "clients must recover by reconnecting"
    );
}

#[test]
fn nic_crash_degrades_master_but_writes_continue() {
    // The SoC dies mid-run: the master must fall back to host-driven
    // serial fan-out (RDMA-Redis style) and keep serving writes.
    let crash_at = SimTime::from_millis(1_000);
    let recover_at = SimTime::from_millis(2_500);
    let mut cluster = Cluster::build(spec(2, 2, 3_000, 23));
    cluster.apply_chaos(&ChaosSpec {
        nic_crash: Some((crash_at, recover_at)),
        ..ChaosSpec::default()
    });

    // Step to just before recovery: the master must be degraded by then,
    // and the NIC's fan-out counter frozen.
    cluster.sim.run_until(recover_at);
    assert!(
        cluster.master_server().links().is_degraded(),
        "master must detect SoC death and degrade"
    );
    let fanout_before = cluster
        .nic_kv()
        .expect("nic")
        .stats()
        .get(NicStat::FanoutMsgs);
    let hub = cluster.metrics.borrow();
    let degraded_ops = hub
        .completions
        .count_between(crash_at + SimDuration::from_millis(700), recover_at);
    drop(hub);
    assert!(
        degraded_ops > 500,
        "degraded mode must keep serving writes, got {degraded_ops}"
    );

    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));
    let master = cluster.master_server();
    assert_eq!(master.stats().get(ServerStat::Degradations), 1);
    assert!(
        !master.links().is_degraded(),
        "master must re-offload after recovery"
    );
    let (entered, exited) = *master
        .links()
        .degraded_periods()
        .last()
        .expect("one period");
    assert!(entered >= crash_at && exited.expect("closed") >= recover_at);
    // Fan-out went back to the SoC.
    let fanout_after = cluster
        .nic_kv()
        .expect("nic")
        .stats()
        .get(NicStat::FanoutMsgs);
    assert!(
        fanout_after > fanout_before,
        "NIC must fan out again after recovery ({fanout_before} → {fanout_after})"
    );
    assert_converged(&cluster);
}

#[test]
fn master_crash_during_soc_outage_re_offloads() {
    // The SoC is down from 1.0 s to 3.0 s and the master crashes inside
    // that window. The crash loses the failure and the backoff timer of
    // the Nic-KV dial in flight, so `Recover` must forget that dial too: a
    // remembered one blocks every later redial and the master stays
    // degraded for good. A crash that ends before the old dial's failure
    // or backoff timer comes due hides it: that event lands after
    // `Recover` and restarts the retries.
    for (crash_ms, down_ms) in [(1_050, 600), (1_150, 1_200), (1_300, 600), (1_500, 1_200)] {
        let mut cluster = Cluster::build(spec(2, 2, 3_000, 23));
        cluster.apply_chaos(&ChaosSpec {
            nic_crash: Some((SimTime::from_millis(1_000), SimTime::from_millis(3_000))),
            ..ChaosSpec::default()
        });
        cluster.schedule_master_crash(SimTime::from_millis(crash_ms));
        cluster.schedule_master_recover(SimTime::from_millis(crash_ms + down_ms));
        run_and_quiesce(&mut cluster, SimDuration::from_secs(3));
        let master = cluster.master_server();
        let case = format!("master down {crash_ms} ms → {} ms", crash_ms + down_ms);
        assert!(!master.links().is_degraded(), "{case}: must re-offload");
        let periods = master.links().degraded_periods();
        let (_, exited) = *periods.last().expect("the outage degrades the master");
        assert!(exited.is_some(), "{case}: the last period must close");
    }
}

/// Build, apply chaos, run, quiesce — returns (ops, digests, qp_errors).
fn chaos_run(spec: RunSpec, chaos: &ChaosSpec) -> (u64, Vec<u64>, u64) {
    let mut cluster = Cluster::build(spec);
    cluster.apply_chaos(chaos);
    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));
    (
        cluster.report().ops,
        cluster.keyspace_digests(),
        cluster.counters_snapshot().get("rdma.qp_errors"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized fault plans: loss up to 5%, latency spikes, one link
    /// flap, one partition, an optional SoC crash. Two properties:
    /// replicas converge after the faults clear, and the identical
    /// spec+seed reproduces the identical run.
    #[test]
    fn random_chaos_converges_and_is_deterministic(
        loss in 0.0f64..0.05,
        delay_prob in 0.0f64..0.1,
        flap_start in 600u64..1_000,
        chaos_seed in 0u64..1_000,
        crash_nic in 0u32..2,
    ) {
        let chaos = ChaosSpec {
            loss_prob: loss,
            delay_prob,
            delay: SimDuration::from_micros(500),
            flaps: vec![(
                0,
                SimTime::from_millis(flap_start),
                SimTime::from_millis(flap_start + 400),
            )],
            partition: Some((
                vec![1],
                SimTime::from_millis(1_100),
                SimTime::from_millis(1_500),
            )),
            nic_crash: (crash_nic == 1).then(|| {
                (SimTime::from_millis(900), SimTime::from_millis(1_600))
            }),
            seed: chaos_seed,
        };
        let s = spec(2, 1, 1_800, 1_000 + chaos_seed);

        let (ops_a, digests_a, qp_err_a) = chaos_run(s.clone(), &chaos);
        prop_assert!(ops_a > 50, "cluster made no progress: {} ops", ops_a);
        prop_assert!(
            digests_a.iter().all(|&d| d == digests_a[0]),
            "replicas diverged: {:x?}", digests_a
        );

        // Same seeds → byte-identical outcome, faults and all.
        let (ops_b, digests_b, qp_err_b) = chaos_run(s, &chaos);
        prop_assert_eq!(ops_a, ops_b);
        prop_assert_eq!(digests_a, digests_b);
        prop_assert_eq!(qp_err_a, qp_err_b);
    }
}

// -- per-protocol fault arms (replication modes) ------------------------------

use skv_core::client::ReadAnchor;
use skv_core::histcheck::{check_linearizable, ViolationKind};
use skv_core::replmode::ReplModeKind;
use skv_netsim::{FaultPlan, Partition, TimeWindow};

/// A slave crashes mid-fan-out under a tracked mode: the protocol must
/// keep committing through the survivors and the client-visible history
/// must stay linearizable at its anchor.
fn slave_crash_stays_linearizable(mode: ReplModeKind, anchor: ReadAnchor) {
    let mut s = spec(3, 2, 2_000, 41);
    s.cfg.repl_mode = mode;
    let mut cluster = Cluster::build(s);
    let history = cluster.add_history(anchor);
    // Crash slave 0 (a quorum member) mid-run, recover
    // it before the end so convergence is checkable.
    cluster.schedule_slave_crash(0, SimTime::from_millis(700));
    cluster.schedule_slave_recover(0, SimTime::from_millis(1_400));
    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));

    let nic = cluster.nic_kv().expect("nic");
    assert!(
        nic.stats().get(NicStat::Commits) > 0,
        "{mode}: nothing committed"
    );
    assert_eq!(
        nic.tracker().pending_writes(),
        0,
        "{mode}: stuck in-flight writes"
    );
    let h = history.borrow();
    let done = h.ops.iter().filter(|o| o.completed.is_some()).count();
    assert!(done > 100, "{mode}: only {done} probe ops completed");
    let violations = check_linearizable(&h);
    assert!(
        violations.is_empty(),
        "{mode}: consistency violations under slave crash: {violations:?}"
    );
    drop(h);
    assert_converged(&cluster);
}

#[test]
fn slave_crash_quorum_history_linearizable() {
    slave_crash_stays_linearizable(ReplModeKind::Quorum, ReadAnchor::MasterQuorum);
}

#[test]
fn slave_crash_async_serves_stale_reads_then_converges() {
    // The async contrast arm: cut a slave off from the servers (but not
    // from the probe clients) and the master keeps acking writes the
    // anchor never saw — the checker must catch the stale reads. After
    // the heal the replicas still converge: eventual consistency, and
    // nothing stronger.
    let mut cluster = Cluster::build(spec(2, 2, 2_000, 42));
    let history = cluster.add_history(ReadAnchor::Slave(0));
    let lagging = cluster.slave_nodes[0];
    let servers: Vec<_> = std::iter::once(cluster.master_node)
        .chain(cluster.nic_node)
        .chain(std::iter::once(cluster.slave_nodes[1]))
        .collect();
    let mut plan = FaultPlan::new(3);
    plan.partitions.push(Partition {
        a: vec![lagging],
        b: servers,
        window: TimeWindow::new(SimTime::from_millis(600), SimTime::from_millis(1_500)),
    });
    cluster.net.set_fault_plan(plan);
    run_and_quiesce(&mut cluster, SimDuration::from_secs(3));

    let h = history.borrow();
    let violations = check_linearizable(&h);
    let stale = violations
        .iter()
        .filter(|v| v.kind == ViolationKind::Stale)
        .count();
    assert!(
        stale > 0,
        "async must expose stale reads at the cut-off anchor, found none \
         ({} ops recorded, {} other violations)",
        h.ops.len(),
        violations.len()
    );
    drop(h);
    // ...but once the partition heals, every replica converges.
    assert_converged(&cluster);
}

// -- the completion path ------------------------------------------------------

/// A CQ is never left silent (DESIGN.md §12.3): a busy master leaves a CQ
/// un-armed behind the command work its last poll queued, and only the
/// event that ends that work polls it again. Whatever happens to that
/// event — the master crashes with it pending, the SoC dies under the
/// master's fan-out, four shard CQs park behind four cores — every server
/// CQ must be drained once the cluster is quiet, and the master must keep
/// serving after each recovery. A CQ parked under the wrong key and never
/// polled again would hold its completions to the end.
#[test]
fn no_server_cq_is_left_silent() {
    let mut s = spec(3, 8, 1_500, 45);
    s.cfg.num_shards = 4;
    s.pipeline = 2;
    let mut cluster = Cluster::build(s);
    let at = |ms: u64| cluster.measure_from + SimDuration::from_millis(ms);
    let (master_down, master_up, nic_down, nic_up) = (at(200), at(400), at(700), at(1_000));
    cluster.schedule_master_crash(master_down);
    cluster.schedule_master_recover(master_up);
    cluster.schedule_nic_crash(nic_down);
    cluster.schedule_nic_recover(nic_up);

    let mut served_after = Vec::new();
    for (recovered, until) in [(master_up, nic_down), (nic_up, cluster.measure_until)] {
        cluster.sim.run_until(recovered);
        let before = cluster.master_server().stats().get(ServerStat::Commands);
        cluster.sim.run_until(until);
        served_after.push(cluster.master_server().stats().get(ServerStat::Commands) - before);
    }
    assert!(
        served_after.iter().all(|&n| n > 1_000),
        "master stalled after a recovery: {served_after:?} commands"
    );
    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));

    let servers =
        std::iter::once(cluster.master_server()).chain((0..3).map(|i| cluster.slave_server(i)));
    for (i, server) in servers.enumerate() {
        assert_eq!(server.cqs().len(), 4, "server {i}: one CQ per shard");
        for &cq in server.cqs() {
            assert_eq!(
                cluster.net.cq_depth(cq),
                0,
                "server {i}: {cq:?} holds completions nobody polls"
            );
        }
    }
    assert_converged(&cluster);
}

/// The same for Nic-KV with the hot cache on, whose clients spread over
/// one CQ per front-end ARM core beside thread 0's (DESIGN.md §12.3,
/// §16.1). The SoC crashes under eight pipelined clients and recovers;
/// the clients redial onto the front-end CQs of the restarted process.
/// Once the cluster is quiet every Nic-KV CQ must be empty, and the
/// clients must have been served again after the recovery.
#[test]
fn no_nic_cq_is_left_silent_with_the_cache_on() {
    let mut s = spec(2, 8, 1_000, 46);
    s.cfg.hot_cache_bytes = 64 << 10;
    s.pipeline = 2;
    s.set_ratio = 0.2;
    s.zipf_theta = 0.99;
    let mut cluster = Cluster::build(s);
    let at = |ms: u64| cluster.measure_from + SimDuration::from_millis(ms);
    let (nic_down, nic_up) = (at(300), at(600));
    cluster.schedule_nic_crash(nic_down);
    cluster.schedule_nic_recover(nic_up);

    cluster.sim.run_until(nic_up);
    let replies = |c: &Cluster| c.counters_snapshot().get("client.stat_replies");
    let before = replies(&cluster);
    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));
    let served = replies(&cluster) - before;
    assert!(
        served > 1_000,
        "clients stalled after the SoC recovered: {served} replies"
    );

    let nic = cluster.nic_kv().expect("SKV has a NIC");
    let cqs: Vec<_> = nic.cqs().collect();
    assert_eq!(cqs.len(), 8, "thread 0's CQ and seven front-end CQs");
    for cq in cqs {
        assert_eq!(
            cluster.net.cq_depth(cq),
            0,
            "Nic-KV {cq:?} holds completions nobody polls"
        );
    }
    assert_converged(&cluster);
}

// -- recovery schedules on timer boundaries -----------------------------------

/// ROADMAP recovery lead (b), DESIGN.md §25: slave 1 is down +40…+160 ms
/// and the SoC +280…+400 ms — back exactly `upstream_silence` after it
/// left. The master then re-serves a stale reported position as a full
/// sync nobody asked for, and its snapshot point lies *behind* what the
/// healthy replicas had already applied. A full sync adopts the master's
/// history at the snapshot point whichever side of the replica's own
/// offset it falls on, so the range in between is fetched again; a replica
/// that kept its higher offset over the older keyspace never asked.
#[test]
fn unsolicited_full_sync_behind_the_replica_still_converges() {
    for seed in [42, 1, 2, 3, 4, 5, 6, 7] {
        let mut s = spec(3, 2, 480, seed);
        s.cfg.probe_interval = SimDuration::from_millis(40);
        s.cfg.waiting_time = SimDuration::from_millis(60);
        s.cfg.upstream_silence = SimDuration::from_millis(120);
        s.cfg.reconnect_base = SimDuration::from_millis(2);
        s.cfg.client_retry_timeout = SimDuration::from_millis(40);
        s.set_ratio = 0.9;
        s.value_size = 256;
        s.key_space = 20_000;
        s.warmup = SimDuration::from_millis(20);
        let mut cluster = Cluster::build(s);
        let at = |ms: u64| cluster.measure_from + SimDuration::from_millis(ms);
        let (slave_down, slave_up, nic_down, nic_up) = (at(40), at(160), at(280), at(400));
        cluster.schedule_slave_crash(1, slave_down);
        cluster.schedule_slave_recover(1, slave_up);
        cluster.schedule_nic_crash(nic_down);
        cluster.schedule_nic_recover(nic_up);
        run_and_quiesce(&mut cluster, SimDuration::from_secs(2));

        let digests = cluster.keyspace_digests();
        assert!(
            digests.iter().all(|&d| d == digests[0]),
            "seed {seed}: replicas diverged: {digests:x?}"
        );
        let master = cluster.master_server().repl_offset();
        for i in 0..3 {
            let slave = cluster.slave_server(i).repl_offset();
            assert_eq!(slave, master, "seed {seed}: slave {i} offset");
        }
    }
}
