//! Replication-mode coverage: the quorum protocol's client-visible
//! guarantees (checked via `skv_core::histcheck` operation histories),
//! the quorum-intersection invariant under randomized fault plans, and
//! the capped reconnect backoff regression.

use proptest::prelude::*;
use skv_core::client::BenchClient;
use skv_core::cluster::{ChaosSpec, Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::histcheck::{check_linearizable, OpKind};
use skv_core::metrics::catalog::{ClientStat, NicStat, ServerStat};
use skv_core::probes::ReadAnchor;
use skv_core::replmode::{quorum_slave_acks, ReplModeKind};
use skv_netsim::SocketAddr;
use skv_simcore::{SimDuration, SimTime};

/// Compressed-time SKV spec with the given replication mode.
fn spec(mode: ReplModeKind, slaves: usize, measure_ms: u64, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = slaves;
    cfg.repl_mode = mode;
    cfg.probe_interval = SimDuration::from_millis(200);
    cfg.waiting_time = SimDuration::from_millis(300);
    cfg.upstream_silence = SimDuration::from_millis(600);
    cfg.reconnect_base = SimDuration::from_millis(5);
    cfg.client_retry_timeout = SimDuration::from_millis(100);
    RunSpec {
        cfg,
        num_clients: 2,
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

/// Healthy-run smoke per tracked mode: clients are served, writes commit
/// through the NIC, the master defers and releases every reply, replicas
/// converge.
fn tracked_mode_serves(mode: ReplModeKind) {
    let mut cluster = Cluster::build(spec(mode, 2, 800, 31));
    run_and_quiesce(&mut cluster, SimDuration::from_secs(1));
    let report = cluster.report();
    assert!(report.ops > 500, "{mode}: only {} ops", report.ops);
    assert_eq!(report.errors, 0, "{mode}: {} errors", report.errors);

    let nic = cluster.nic_kv().expect("SKV has a NIC");
    assert!(
        nic.stats().get(NicStat::Commits) > 0,
        "{mode}: no tracked commits"
    );
    assert!(
        nic.tracker().committed_upto() > 0,
        "{mode}: commit frontier at 0"
    );
    assert_eq!(
        nic.tracker().pending_writes(),
        0,
        "{mode}: writes stuck in flight"
    );

    let master = cluster.master_server();
    assert!(
        master.stats().get(ServerStat::DeferredReplies) > 0,
        "{mode}: master never deferred a reply"
    );
    assert_eq!(
        master.stats().get(ServerStat::DeferredReplies),
        master.stats().get(ServerStat::ReleasedReplies),
        "{mode}: deferred replies were not all released"
    );
    for i in 0..cluster.slaves.len() {
        assert!(cluster.slave_server(i).is_synced_slave(), "slave {i}");
    }
    assert_converged(&cluster);
}

#[test]
fn quorum_mode_serves_and_commits() {
    tracked_mode_serves(ReplModeKind::Quorum);
}

#[test]
fn quorum_history_linearizable_on_quorum_reads() {
    // Majority-quorum writes + master-anchored quorum reads: the probe
    // history must carry zero violations.
    let mut cluster = Cluster::build(spec(ReplModeKind::Quorum, 2, 600, 33));
    let history = cluster.add_history(ReadAnchor::MasterQuorum);
    run_and_quiesce(&mut cluster, SimDuration::from_secs(1));

    let h = history.borrow();
    let reads = h
        .ops
        .iter()
        .filter(|o| o.completed.is_some() && o.read_set.len() >= 2)
        .count();
    assert!(reads > 50, "not enough quorum reads completed: {reads}");
    let violations = check_linearizable(&h);
    assert!(violations.is_empty(), "quorum violations: {violations:?}");
}

#[test]
fn backoff_stays_capped_under_long_partition() {
    // Satellite regression: the redial backoff doubles toward its cap
    // instead of hammering at a fixed short interval. Cut the clients
    // off from the master (and its SoC) for 1.5 s: every dial fails
    // with CmConnectFailed, so with capped-exponential delays each
    // client fits only a handful of attempts into the window — the old
    // fixed 5 ms retry would have made ~300.
    let mut cluster = Cluster::build(spec(ReplModeKind::Async, 2, 2_500, 35));
    let mut plan = skv_netsim::FaultPlan::new(1);
    let mut servers = vec![cluster.master_node];
    servers.extend(cluster.nic_node);
    plan.partitions.push(skv_netsim::Partition {
        a: vec![cluster.client_node],
        b: servers,
        window: skv_netsim::TimeWindow::new(SimTime::from_millis(500), SimTime::from_millis(2_000)),
    });
    cluster.net.set_fault_plan(plan);
    run_and_quiesce(&mut cluster, SimDuration::from_secs(1));

    let mut total_failures = 0;
    for &id in &cluster.clients {
        let c = cluster
            .sim
            .actor_ref::<BenchClient>(id)
            .expect("bench client");
        total_failures += c.stats().get(ClientStat::DialFailures);
        assert!(
            c.stats().get(ClientStat::DialFailures) <= 40,
            "backoff not capped: {} dial failures in a 1.5s partition",
            c.stats().get(ClientStat::DialFailures)
        );
    }
    assert!(
        total_failures > 0,
        "partition never forced a failed dial — test is vacuous"
    );
    // After the heal the clients must reconnect and finish the run.
    let report = cluster.report();
    assert!(
        report.ops > 500,
        "clients never recovered: {} ops",
        report.ops
    );
}

// -- multi-writer linearizability on live bench traffic -----------------------

/// Distinct writers (bench clients) that stamped at least one write into
/// the recorded history. Stamps embed `client_id + 1` in the top bits.
fn distinct_writers(h: &skv_core::histcheck::History) -> usize {
    let mut writers: Vec<u64> = h
        .ops
        .iter()
        .filter(|o| o.kind == OpKind::Write)
        .map(|o| o.seq >> 40)
        .collect();
    writers.sort_unstable();
    writers.dedup();
    writers.len()
}

/// Tentpole acceptance arm: ≥2 writers, 2 shards, hot cache on, history
/// recorded straight off the bench clients (cache-served GETs and
/// FWD_CMD replies included) — the multi-writer checker must find the
/// whole history linearizable.
fn bench_history_linearizable(mode: ReplModeKind, seed: u64) {
    let mut s = spec(mode, 2, 1_000, seed);
    s.cfg.record_history = true;
    s.cfg.num_shards = 2;
    s.cfg.hot_cache_bytes = 64 * 1024;
    s.set_ratio = 0.5; // the checker needs reads, not a pure SET stream
    let mut cluster = Cluster::build(s);
    run_and_quiesce(&mut cluster, SimDuration::from_secs(1));

    let report = cluster.report();
    assert!(report.ops > 500, "{mode}: only {} ops", report.ops);
    assert!(
        cluster.counters_snapshot().get("cache.hits") > 0,
        "{mode}: no cache-served GETs in the recorded traffic"
    );
    let history = cluster.bench_history.clone().expect("recording on");
    let h = history.borrow();
    assert!(
        distinct_writers(&h) >= 2,
        "{mode}: need a multi-writer history"
    );
    let reads = h.ops.iter().filter(|o| o.kind == OpKind::Read).count();
    assert!(reads > 100, "{mode}: only {reads} reads recorded");
    let violations = check_linearizable(&h);
    assert!(
        violations.is_empty(),
        "{mode}: bench history not linearizable: {violations:?}"
    );
}

#[test]
fn quorum_bench_history_multi_writer_linearizable() {
    bench_history_linearizable(ReplModeKind::Quorum, 36);
}

/// Distinctness helper: no slave counted twice in an ack set.
fn all_distinct(addrs: &[SocketAddr]) -> bool {
    let mut seen: Vec<SocketAddr> = Vec::with_capacity(addrs.len());
    for a in addrs {
        if seen.contains(a) {
            return false;
        }
        seen.push(*a);
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Quorum-intersection invariant under arbitrary fault plans and
    /// slave counts: every committed write's ack set is a distinct-slave
    /// set of at least ⌈(N+1)/2⌉ members (so master + acks is a majority
    /// of the replica set), which makes any two write/read majorities
    /// intersect — checked directly pairwise below.
    #[test]
    fn quorum_commit_sets_always_majorities(
        slaves in 1usize..5,
        loss in 0.0f64..0.03,
        flap_start in 400u64..800,
        chaos_seed in 0u64..1_000,
    ) {
        let mut s = spec(ReplModeKind::Quorum, slaves, 1_200, 2_000 + chaos_seed);
        s.cfg.record_history = true;
        let mut cluster = Cluster::build(s);
        cluster.apply_chaos(&ChaosSpec {
            loss_prob: loss,
            flaps: vec![(
                0,
                SimTime::from_millis(flap_start),
                SimTime::from_millis(flap_start + 300),
            )],
            seed: chaos_seed,
            ..ChaosSpec::default()
        });
        run_and_quiesce(&mut cluster, SimDuration::from_secs(2));

        let needed = quorum_slave_acks(slaves);
        let nic = cluster.nic_kv().expect("nic");
        prop_assert!(
            !nic.tracker().committed_acks.is_empty(),
            "no commits recorded — invariant untested"
        );
        for (off, acks) in &nic.tracker().committed_acks {
            prop_assert!(all_distinct(acks), "duplicate ack at offset {off}: {acks:?}");
            prop_assert!(
                acks.len() >= needed,
                "offset {off} committed with {} acks, quorum needs {needed}",
                acks.len()
            );
        }
        // Pairwise: any two commit quorums (master ∪ acks) intersect —
        // trivially via the master, and on slave sets whenever both
        // majorities exceed half the slaves.
        for (i, (_, a)) in nic.tracker().committed_acks.iter().enumerate() {
            for (_, b) in &nic.tracker().committed_acks[i + 1..] {
                let joint = 2 * (1 + needed);
                prop_assert!(joint > slaves + 1, "quorums of {a:?}/{b:?} may miss");
            }
        }
    }

    /// seed × mode × shards × cache: every healthy run's recorded bench
    /// history — all writers, all shards, cache hits included — must
    /// pass the multi-writer checker under both replication modes.
    #[test]
    fn recorded_bench_histories_linearizable(
        seed in 0u64..1_000,
        mode_ix in 0usize..2,
        shards in 1usize..3,
        cache_on in any::<bool>(),
    ) {
        let mode = ReplModeKind::ALL[mode_ix];
        let mut s = spec(mode, 2, 600, 4_000 + seed);
        s.cfg.record_history = true;
        s.cfg.num_shards = shards;
        s.cfg.hot_cache_bytes = if cache_on { 64 * 1024 } else { 0 };
        s.set_ratio = 0.5;
        let mut cluster = Cluster::build(s);
        run_and_quiesce(&mut cluster, SimDuration::from_secs(1));

        let history = cluster.bench_history.clone().expect("recording on");
        let h = history.borrow();
        prop_assert!(h.ops.len() > 200, "{mode}: only {} ops recorded", h.ops.len());
        prop_assert!(distinct_writers(&h) >= 2, "{mode}: single-writer history");
        let violations = check_linearizable(&h);
        prop_assert!(
            violations.is_empty(),
            "{mode} shards={shards} cache={cache_on}: {violations:?}"
        );
    }
}
