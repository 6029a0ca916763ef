//! Failure detection, min-slaves gating, failover, and self-healing resync
//! — the §III-D machinery, exercised end to end.

use skv_core::cluster::{Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::metrics::catalog::{ClientStat, NicStat, ServerStat};
use skv_simcore::{SimDuration, SimTime};

fn spec(slaves: usize, clients: usize, measure_ms: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = slaves;
    // Compressed time scales keep these scenarios fast while preserving
    // the probe/waiting-time relationships of the real configuration.
    cfg.probe_interval = SimDuration::from_millis(200);
    cfg.waiting_time = SimDuration::from_millis(400);
    RunSpec {
        cfg,
        num_clients: clients,
        pipeline: 1,
        set_ratio: 1.0,
        mset_keys: 0,
        value_size: 64,
        key_space: 2_000,
        warmup: SimDuration::from_millis(100),
        measure: SimDuration::from_millis(measure_ms),
        seed: 77,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

#[test]
fn nic_detects_slave_crash_within_waiting_time() {
    let mut cluster = Cluster::build(spec(3, 2, 2_000));
    let crash_at = SimTime::from_millis(800);
    cluster.schedule_slave_crash(1, crash_at);
    cluster.run();

    let nic = cluster.nic_kv().expect("SKV has a NIC");
    assert_eq!(nic.nodes().available_slaves(), 2);
    let (detected_at, _) = nic
        .nodes()
        .detections
        .iter()
        .find(|(t, _)| *t >= crash_at)
        .copied()
        .expect("crash must be detected");
    let delay = detected_at.saturating_since(crash_at);
    // Bound: waiting-time plus up to two probe intervals of slack.
    let bound = cluster.spec.cfg.waiting_time
        + cluster.spec.cfg.probe_interval
        + cluster.spec.cfg.probe_interval;
    assert!(delay <= bound, "detection took {delay}, bound {bound}");
}

#[test]
fn crashed_slave_recovery_is_detected_and_resynced() {
    let mut cluster = Cluster::build(spec(3, 4, 3_000));
    cluster.schedule_slave_crash(0, SimTime::from_millis(800));
    cluster.schedule_slave_recover(0, SimTime::from_millis(1_800));
    let report = cluster.run();
    assert_eq!(report.errors, 0, "clients must not see the failure");

    let nic = cluster.nic_kv().expect("nic");
    assert!(nic
        .nodes()
        .recoveries
        .iter()
        .any(|(t, _)| *t >= SimTime::from_millis(1_800)));
    assert_eq!(nic.nodes().available_slaves(), 3);

    // After a drain, every replica matches again (the recovered slave
    // resynchronized from its stale offset).
    cluster
        .sim
        .run_until(cluster.measure_until + SimDuration::from_secs(1));
    let digests = cluster.keyspace_digests();
    assert!(
        digests.iter().all(|&d| d == digests[0]),
        "diverged: {digests:x?}"
    );
    // The recovered slave needed a (full or partial) resync.
    let s0 = cluster.slave_server(0);
    assert!(s0.stats().get(ServerStat::FullSyncs) + s0.stats().get(ServerStat::PartialSyncs) >= 2);
}

#[test]
fn partial_resync_used_when_backlog_covers_gap() {
    // A big backlog and a short outage: the gap stays inside the backlog,
    // so the master must serve a partial resync, not a second RDB.
    let mut s = spec(2, 1, 2_000);
    s.cfg.backlog_size = 256 << 20;
    let mut cluster = Cluster::build(s);
    cluster.schedule_slave_crash(0, SimTime::from_millis(600));
    cluster.schedule_slave_recover(0, SimTime::from_millis(1_200));
    cluster.run();
    cluster
        .sim
        .run_until(cluster.measure_until + SimDuration::from_secs(1));

    let s0 = cluster.slave_server(0);
    assert!(s0.is_synced_slave());
    assert_eq!(
        s0.stats().get(ServerStat::FullSyncs),
        1,
        "only the initial sync is full"
    );
    assert!(
        s0.stats().get(ServerStat::PartialSyncs) >= 1,
        "recovery must resync partially"
    );
    let digests = cluster.keyspace_digests();
    assert!(digests.iter().all(|&d| d == digests[0]));
}

#[test]
fn min_slaves_rejects_writes_after_detection() {
    let mut s = spec(2, 2, 2_500);
    s.cfg.min_slaves = 2;
    let mut cluster = Cluster::build(s);
    cluster.schedule_slave_crash(0, SimTime::from_millis(800));
    let report = cluster.run();
    // Before detection writes flow; afterwards NOREPLICAS errors appear.
    assert!(report.errors > 0, "min-slaves must reject writes");
    assert!(
        cluster.master_server().stats().get(ServerStat::Rejected) > 0,
        "rejections must come from the master's write gate"
    );
    // And plenty of writes succeeded before the crash was detected.
    assert!(report.ops > report.errors);
}

#[test]
fn min_slaves_recovers_after_slave_returns() {
    let mut s = spec(2, 2, 3_000);
    s.cfg.min_slaves = 2;
    let mut cluster = Cluster::build(s);
    cluster.schedule_slave_crash(0, SimTime::from_millis(800));
    cluster.schedule_slave_recover(0, SimTime::from_millis(1_800));
    cluster.run();
    // After recovery the gate must reopen: count successes near the end.
    let hub = cluster.metrics.borrow();
    let late_ops = hub
        .completions
        .count_between(SimTime::from_millis(2_800), SimTime::from_millis(3_300));
    drop(hub);
    assert!(late_ops > 1_000, "writes must flow again, got {late_ops}");
}

#[test]
fn master_failover_promotes_best_slave_and_demotes_on_return() {
    let mut cluster = Cluster::build(spec(2, 1, 3_500));
    cluster.schedule_master_crash(SimTime::from_millis(800));
    cluster.schedule_master_recover(SimTime::from_millis(2_200));
    cluster.sim.run_until(SimTime::from_millis(3_500));

    let nic = cluster.nic_kv().expect("nic");
    assert_eq!(
        nic.stats().get(NicStat::Failovers),
        1,
        "exactly one failover"
    );
    // While the master was away, some slave was master; after its return
    // and demote, nobody but the original is.
    assert!(cluster.master_server().is_master());
    for i in 0..cluster.slaves.len() {
        assert!(
            !cluster.slave_server(i).is_master(),
            "slave {i} must have been demoted"
        );
    }
    // The master is valid again in the node list.
    let master_entry = nic
        .nodes()
        .entries()
        .iter()
        .find(|e| e.is_master)
        .expect("master entry");
    assert!(master_entry.valid);
}

#[test]
fn failure_detection_has_no_false_positives() {
    // A healthy long run: nothing must ever be marked invalid.
    let mut cluster = Cluster::build(spec(3, 4, 2_500));
    cluster.run();
    let nic = cluster.nic_kv().expect("nic");
    assert!(
        nic.nodes().detections.is_empty(),
        "false positives: {:?}",
        nic.nodes().detections
    );
    assert_eq!(nic.nodes().available_slaves(), 3);
    assert_eq!(nic.stats().get(NicStat::Failovers), 0);
}

#[test]
fn waiting_time_scales_detection_delay() {
    let mut delays = Vec::new();
    for wt_ms in [300u64, 1_200] {
        let mut s = spec(2, 1, 3_000);
        s.cfg.waiting_time = SimDuration::from_millis(wt_ms);
        let crash_at = SimTime::from_millis(800);
        let mut cluster = Cluster::build(s);
        cluster.schedule_slave_crash(0, crash_at);
        cluster.run();
        let nic = cluster.nic_kv().expect("nic");
        let (t, _) = nic
            .nodes()
            .detections
            .iter()
            .find(|(t, _)| *t >= crash_at)
            .copied()
            .expect("detected");
        delays.push(t.saturating_since(crash_at));
    }
    assert!(
        delays[0] < delays[1],
        "longer waiting-time must delay detection: {delays:?}"
    );
}

// -- failure detection rides on error completions, signaled or not -----------
//
// Nic-KV and the clients post their message WRs unsignaled (DESIGN.md §23):
// a success produces no send completion. These arms pin the other half of
// the rule — an unsignaled WR that *fails* still completes, and every
// recovery path that hangs off that completion still runs.

/// `(nic.stat_fanout_msgs, nic.stat_fanout_sends)` so far.
fn fanout_counts(cluster: &Cluster) -> (u64, u64) {
    let nic = cluster.nic_kv().expect("nic");
    (
        nic.stats().get(NicStat::FanoutMsgs),
        nic.stats().get(NicStat::FanoutSends),
    )
}

#[test]
fn unsignaled_fanout_error_closes_a_crashed_slaves_connection_before_detection() {
    let mut cluster = Cluster::build(spec(3, 4, 1_000));
    let crash_at = SimTime::from_millis(800);
    cluster.schedule_slave_crash(1, crash_at);

    // Healthy: every replicated write goes to all three slaves.
    cluster.sim.run_until(SimTime::from_millis(790));
    let (msgs0, sends0) = fanout_counts(&cluster);
    cluster.sim.run_until(crash_at);
    let (msgs1, sends1) = fanout_counts(&cluster);
    assert!(msgs1 > msgs0, "load is flowing");
    assert_eq!(sends1 - sends0, 3 * (msgs1 - msgs0));
    let qp_errors = cluster.net.counters().get("rdma.qp_errors");

    // 5 ms after the crash — waiting-time is 400 ms, so the probe machinery
    // has noticed nothing — the first fan-out WR to the dead node has come
    // back as an error completion and Nic-KV has closed that connection:
    // writes fan out to the two slaves that are left.
    cluster
        .sim
        .run_until(crash_at + SimDuration::from_millis(5));
    let (msgs2, sends2) = fanout_counts(&cluster);
    cluster
        .sim
        .run_until(crash_at + SimDuration::from_millis(10));
    let (msgs3, sends3) = fanout_counts(&cluster);
    assert!(msgs3 > msgs2, "load is still flowing");
    assert_eq!(sends3 - sends2, 2 * (msgs3 - msgs2));
    assert!(cluster.net.counters().get("rdma.qp_errors") > qp_errors);
    let nic = cluster.nic_kv().expect("nic");
    assert!(nic.nodes().detections.is_empty(), "no probe timeout yet");
    assert_eq!(nic.nodes().available_slaves(), 3, "still flagged valid");
}

#[test]
fn unsignaled_request_error_makes_clients_reconnect_after_a_master_crash() {
    use skv_core::client::BenchClient;

    let mut s = spec(2, 8, 1_500);
    s.pipeline = 4;
    let pipeline = s.pipeline as u64;
    let mut cluster = Cluster::build(s);
    let crash_at = SimTime::from_millis(600);
    cluster.schedule_master_crash(crash_at);
    cluster.schedule_master_recover(SimTime::from_millis(900));

    let reconnects = |cluster: &Cluster| cluster.counters_snapshot().get("client.stat_reconnects");
    cluster.sim.run_until(crash_at);
    assert_eq!(reconnects(&cluster), 0);

    // 1 ms after the crash no request is older than 1 ms, so the watchdog
    // (`client_retry_timeout`, 250 ms) cannot have fired: whoever has
    // reconnected did so on the error completion of a request that was on
    // the wire when the node went down.
    cluster
        .sim
        .run_until(crash_at + SimDuration::from_millis(1));
    assert!(
        reconnects(&cluster) >= 1,
        "no error completion reached a client"
    );

    // Nothing is lost beyond what was in flight when a connection was
    // abandoned: every op issued was answered, or was one of at most
    // `pipeline` dropped per reconnect (or still in flight at the end).
    let report = cluster.run();
    assert!(report.ops > 10_000, "clients came back: {} ops", report.ops);
    for &id in &cluster.clients {
        let c = cluster.sim.actor_ref::<BenchClient>(id).expect("client");
        assert!(
            c.stats().get(ClientStat::Reconnects) >= 1,
            "every client lost its connection"
        );
        let unanswered = c.stats().get(ClientStat::Issued) - c.stats().get(ClientStat::Replies);
        assert!(
            unanswered <= pipeline * (c.stats().get(ClientStat::Reconnects) + 1),
            "{unanswered} ops unanswered over {} reconnects",
            c.stats().get(ClientStat::Reconnects)
        );
    }
}

#[test]
fn a_slave_down_longer_than_the_backlog_holds_recovers_with_at_most_two_full_syncs() {
    // 100 ms of 256 B SETs is several times the 1 MiB backlog, so the
    // recovered slave is answered with a snapshot; 30 000 preloaded keys
    // make its persist ≈ 25 ms, more writes than the backlog holds too.
    // The transfer must still end with every write made while it
    // persisted, or the slave asks again from the snapshot's offset and
    // is answered with the next snapshot, and the next.
    let mut s = spec(3, 2, 600);
    s.value_size = 256;
    s.key_space = 20_000;
    let mut cluster = Cluster::build(s);
    for i in 0..30_000 {
        let key = format!("pre:{i:06}");
        cluster.preload_master(&[&["SET", &key, "v"]]);
    }
    let (down, up) = (SimTime::from_millis(300), SimTime::from_millis(400));
    cluster.schedule_slave_crash(0, down);
    cluster.schedule_slave_recover(0, up);
    cluster.sim.run_until(up);
    let before = cluster.slave_server(0).stats().get(ServerStat::FullSyncs);

    cluster.sim.run_until(up + SimDuration::from_millis(300));
    let s0 = cluster.slave_server(0);
    let full = s0.stats().get(ServerStat::FullSyncs) - before;
    assert!(s0.is_synced_slave(), "not synced 300 ms after recovery");
    assert!((1..=2).contains(&full), "{full} full syncs to recover");

    cluster
        .sim
        .run_until(cluster.measure_until + SimDuration::from_secs(1));
    let digests = cluster.keyspace_digests();
    assert!(
        digests.iter().all(|&d| d == digests[0]),
        "diverged: {digests:x?}"
    );
}

#[test]
fn a_slave_crashed_between_probe_ticks_is_still_detected() {
    // Under write load the fan-out's error completion closes a crashed
    // slave's channel within a millisecond, so no probe is ever sent to
    // it again: the closed channel has to start its `waiting-time` clock.
    // Only the 800 ms crash lands on a probe tick.
    let mut missed = Vec::new();
    for crash_ms in [800u64, 1_001, 1_100, 1_500] {
        let mut cluster = Cluster::build(spec(3, 2, 2_500));
        let crash_at = SimTime::from_millis(crash_ms);
        cluster.schedule_slave_crash(1, crash_at);
        let cfg = &cluster.spec.cfg;
        let bound = cfg.waiting_time + cfg.probe_interval + cfg.probe_interval;
        cluster.sim.run_until(crash_at + bound);
        let slave = cluster.slave_nodes[1];
        let nic = cluster.nic_kv().expect("nic");
        let detected = nic
            .nodes()
            .detections
            .iter()
            .any(|(t, addr)| *t >= crash_at && addr.node == slave);
        if !detected || nic.nodes().available_slaves() != 2 {
            missed.push((crash_ms, nic.nodes().available_slaves()));
        }
    }
    assert!(
        missed.is_empty(),
        "(crash at ms, available slaves) not detected in time: {missed:?}"
    );
}

#[test]
fn min_slaves_counts_the_masters_own_slaves_through_a_soc_outage() {
    // While the SoC is down the master fans out itself and Nic-KV's
    // last verdict is stale: `min-slaves` counts the master's own slave
    // channels, so writes flow while both slaves are up and are refused
    // once one of them crashes inside the outage.
    let mut s = spec(2, 2, 2_500);
    s.cfg.min_slaves = 2;
    let mut cluster = Cluster::build(s);
    cluster.schedule_nic_crash(SimTime::from_millis(800));
    cluster.schedule_slave_crash(0, SimTime::from_millis(1_500));
    let rejected = |c: &Cluster| c.master_server().stats().get(ServerStat::Rejected);
    cluster.sim.run_until(SimTime::from_millis(1_400));
    let master = cluster.master_server();
    assert!(master.links().is_degraded(), "the master fans out itself");
    assert_eq!(rejected(&cluster), 0, "both slaves up: no NOREPLICAS");
    let report = cluster.run();
    assert!(cluster.master_server().links().is_degraded());
    assert!(rejected(&cluster) > 0, "one slave left: writes are refused");
    assert!(report.errors > 0);
}

#[test]
fn a_recovered_slave_is_not_judged_lagging_on_its_registration_position() {
    // Under async no slave reports progress to Nic-KV. A slave that comes
    // back registers with its old position, and the master runs far past
    // it (16 KiB SETs are ≈ 200 MB of stream per simulated second). Were
    // that position taken for progress, Nic-KV would call the slave
    // lagging for good once the master is `MAX_SLAVE_LAG` past it, and a
    // master with `min-slaves` 0 would refuse every write.
    let mut s = spec(3, 8, 1_200);
    s.value_size = 16 << 10;
    let mut cluster = Cluster::build(s);
    cluster.schedule_slave_crash(0, SimTime::from_millis(500));
    let up = SimTime::from_millis(700);
    cluster.schedule_slave_recover(0, up);
    cluster.sim.run_until(up);
    let at_recovery = cluster.master_server().repl_offset();
    let report = cluster.run();
    let master = cluster.master_server();
    assert_eq!(master.stats().get(ServerStat::Rejected), 0, "NOREPLICAS");
    assert_eq!(report.errors, 0);
    let past = master.repl_offset() - at_recovery;
    assert!(
        past > 2 * skv_core::replsource::MAX_SLAVE_LAG,
        "the master got only {past} B past the recovery"
    );
}
