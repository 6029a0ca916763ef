//! Performance-shape invariants: the orderings the paper's evaluation
//! reports must hold in the reproduction for any reasonable seed. These are
//! the cheap, always-on versions of the figure benches.

use skv_core::cluster::{run_spec, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::metrics::catalog::NicStat;
use skv_simcore::SimDuration;

fn spec(mode: Mode, slaves: usize, clients: usize, set_ratio: f64, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(mode);
    cfg.num_slaves = slaves;
    RunSpec {
        cfg,
        num_clients: clients,
        pipeline: 1,
        set_ratio,
        mset_keys: 0,
        value_size: 64,
        key_space: 50_000,
        warmup: SimDuration::from_millis(200),
        measure: SimDuration::from_millis(500),
        seed,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

#[test]
fn rdma_beats_tcp_by_a_wide_margin() {
    // Figure 10's premise.
    let tcp = run_spec(spec(Mode::TcpRedis, 0, 8, 1.0, 1));
    let rdma = run_spec(spec(Mode::RdmaRedis, 0, 8, 1.0, 2));
    assert!(
        rdma.throughput_kops > 2.0 * tcp.throughput_kops,
        "RDMA {:.0} kops vs TCP {:.0} kops",
        rdma.throughput_kops,
        tcp.throughput_kops
    );
    assert!(
        tcp.p99_latency_us > 1.5 * rdma.p99_latency_us,
        "TCP p99 {:.0}us vs RDMA p99 {:.0}us",
        tcp.p99_latency_us,
        rdma.p99_latency_us
    );
}

#[test]
fn slaves_degrade_rdma_redis() {
    // Figure 7: with three slaves the master loses throughput and tail.
    let without = run_spec(spec(Mode::RdmaRedis, 0, 8, 1.0, 3));
    let with = run_spec(spec(Mode::RdmaRedis, 3, 8, 1.0, 4));
    assert!(with.throughput_kops < 0.95 * without.throughput_kops);
    assert!(with.p99_latency_us > 1.10 * without.p99_latency_us);
    assert!(with.avg_latency_us > without.avg_latency_us);
}

#[test]
fn skv_beats_rdma_redis_on_set_with_slaves() {
    // Figure 11's headline: ~+14% throughput, lower latency at 8 clients.
    let baseline = run_spec(spec(Mode::RdmaRedis, 3, 8, 1.0, 5));
    let skv = run_spec(spec(Mode::Skv, 3, 8, 1.0, 6));
    let gain = skv.throughput_kops / baseline.throughput_kops - 1.0;
    assert!(
        (0.05..0.30).contains(&gain),
        "gain should be paper-sized (5-30%), got {:.1}%",
        gain * 100.0
    );
    assert!(skv.avg_latency_us < baseline.avg_latency_us);
    assert!(skv.p99_latency_us < baseline.p99_latency_us);
}

#[test]
fn skv_matches_rdma_redis_on_get() {
    // Figure 13: reads don't replicate; no offload advantage.
    let baseline = run_spec(spec(Mode::RdmaRedis, 3, 8, 0.0, 7));
    let skv = run_spec(spec(Mode::Skv, 3, 8, 0.0, 8));
    let ratio = skv.throughput_kops / baseline.throughput_kops;
    assert!(
        (0.97..1.03).contains(&ratio),
        "GET throughput should match, ratio {ratio:.3}"
    );
}

#[test]
fn skv_wins_across_value_sizes() {
    // Figure 12.
    for (i, &size) in [64usize, 1024, 8192].iter().enumerate() {
        let mut b = spec(Mode::RdmaRedis, 3, 8, 1.0, 20 + i as u64);
        b.value_size = size;
        let mut s = spec(Mode::Skv, 3, 8, 1.0, 30 + i as u64);
        s.value_size = size;
        let baseline = run_spec(b);
        let skv = run_spec(s);
        assert!(
            skv.throughput_kops > baseline.throughput_kops,
            "size {size}: SKV {:.0} <= baseline {:.0}",
            skv.throughput_kops,
            baseline.throughput_kops
        );
    }
}

#[test]
fn larger_values_are_slower() {
    let small = run_spec({
        let mut s = spec(Mode::Skv, 3, 8, 1.0, 40);
        s.value_size = 64;
        s
    });
    let large = run_spec({
        let mut s = spec(Mode::Skv, 3, 8, 1.0, 41);
        s.value_size = 16 * 1024;
        s
    });
    assert!(large.throughput_kops < small.throughput_kops);
}

#[test]
fn throughput_saturates_with_concurrency() {
    // Closed-loop behaviour: throughput grows with clients, then flattens;
    // latency keeps growing.
    let one = run_spec(spec(Mode::RdmaRedis, 0, 1, 1.0, 50));
    // (closed loop: more clients, more overlap)
    let eight = run_spec(spec(Mode::RdmaRedis, 0, 8, 1.0, 51));
    let thirty_two = run_spec(spec(Mode::RdmaRedis, 0, 32, 1.0, 52));
    assert!(eight.throughput_kops > 2.0 * one.throughput_kops);
    let sat_ratio = thirty_two.throughput_kops / eight.throughput_kops;
    assert!(
        (0.9..1.25).contains(&sat_ratio),
        "saturated region should be flat, got {sat_ratio:.2}"
    );
    assert!(thirty_two.p99_latency_us > 2.0 * eight.p99_latency_us);
}

#[test]
fn whole_experiments_are_deterministic() {
    let a = run_spec(spec(Mode::Skv, 3, 8, 0.9, 60));
    let b = run_spec(spec(Mode::Skv, 3, 8, 0.9, 60));
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.errors, b.errors);
    assert_eq!(a.avg_latency_us, b.avg_latency_us);
    assert_eq!(a.p99_latency_us, b.p99_latency_us);
    // And a different seed gives a (slightly) different run.
    let c = run_spec(spec(Mode::Skv, 3, 8, 0.9, 61));
    assert_ne!(a.ops, c.ops);
}

#[test]
fn master_core_is_the_bottleneck_at_saturation() {
    let mut cluster = skv_core::cluster::Cluster::build(spec(Mode::RdmaRedis, 3, 16, 1.0, 70));
    cluster.run();
    let util = cluster.master_server().core0_utilization(cluster.sim.now());
    // Utilization is measured over the whole run including startup and
    // drain, so full saturation in the window reads as ~0.7-0.9 overall.
    assert!(
        util > 0.6,
        "event-loop core should saturate under 16 clients, got {util:.2}"
    );
}

#[test]
fn nic_offload_actually_uses_the_nic() {
    let mut cluster = skv_core::cluster::Cluster::build(spec(Mode::Skv, 3, 8, 1.0, 71));
    cluster.run();
    let now = cluster.sim.now();
    let nic = cluster.nic_kv().expect("nic");
    assert!(nic.stats().get(NicStat::FanoutSends) >= 3 * nic.stats().get(NicStat::FanoutMsgs) / 2);
    let util = nic.mean_utilization(now);
    assert!(
        util > 0.01 && util < 0.9,
        "ARM cores busy but not overloaded, got {util:.3}"
    );
}

// -- the SoC fan-out keeps up: held as counts -------------------------------
//
// Nic-KV posts its fan-out unsignaled (DESIGN.md §23), so thread 0 no
// longer polls three success completions per SET and the fan-out runs at
// the offered rate instead of ≈ 10 % under it. These arms hold that as
// queue depths and offsets, which a slower host cannot blur.

#[test]
fn fanout_keeps_up_at_the_fig11_point() {
    let mut cluster = skv_core::cluster::Cluster::build(spec(Mode::Skv, 3, 8, 1.0, 72));
    cluster.sim.run_until(cluster.measure_from);
    let nic = cluster.nic_kv().expect("nic");
    let (msgs0, wrs0) = (
        nic.stats().get(NicStat::FanoutMsgs),
        nic.stats().get(NicStat::WrsPosted),
    );

    // A fan-out thread that falls behind parks one `NicMsg::Fanout` timer
    // per write it has not reached yet — ≈ 2 200 of them at this point
    // before. Keeping up, the whole cluster has a few dozen events queued.
    let mut deepest = 0;
    let mut t = cluster.measure_from;
    while t < cluster.measure_until {
        t = (t + SimDuration::from_millis(1)).min(cluster.measure_until);
        cluster.sim.run_until(t);
        deepest = deepest.max(cluster.sim.pending_events());
    }
    assert!(deepest <= 100, "{deepest} events pending inside the window");

    // ... and the slaves are where the master is when the window closes
    // (a 64-byte SET is ≈ 107 stream bytes: 64 KiB is ≈ 2.3 ms of load).
    let lag = cluster.max_replication_lag();
    assert!(
        lag <= 64 << 10,
        "a slave is {lag} bytes behind at window close"
    );

    // Every replicated write of the window posted its three WRs: a
    // millisecond after the clients stop nothing is left to post.
    cluster
        .sim
        .run_until(cluster.measure_until + SimDuration::from_millis(1));
    let nic = cluster.nic_kv().expect("nic");
    let (msgs, wrs) = (
        nic.stats().get(NicStat::FanoutMsgs) - msgs0,
        nic.stats().get(NicStat::WrsPosted) - wrs0,
    );
    assert!(msgs > 100_000, "load was flowing: {msgs} writes");
    // (Plus the WRs of at most one write per client that reached the NIC
    // just before the window opened and posted just inside it.)
    assert!(
        (3 * msgs..=3 * (msgs + 8)).contains(&wrs),
        "{wrs} WRs posted for {msgs} replicated writes"
    );
    assert_eq!(cluster.max_replication_lag(), 0);
}

/// The census of DESIGN.md §24 at the same point: a SET is 16 dispatches —
/// 8 wire records reaching the fabric, the 5 `CqNotify`s they cause, 3 CPU
/// timers — and the notifies run inside the arrival events, so 11 of them
/// are queue entries. The 3 notifies that are not there any more are the
/// master's (DESIGN.md §12.3): a busy master leaves its CQ un-armed behind
/// the command it queued and polls it again when that work ends, so the
/// completions that landed meanwhile share one notify and one poll.
#[test]
fn a_set_is_eleven_events_and_sixteen_dispatches() {
    let mut cluster = skv_core::cluster::Cluster::build(spec(Mode::Skv, 3, 8, 1.0, 72));
    cluster.sim.run_until(cluster.measure_from);
    let (events0, handoffs0) = (cluster.sim.events_processed(), cluster.sim.handoffs());
    let fabric0 = cluster.net.counters();
    cluster.sim.run_until(cluster.measure_until);
    let ops = cluster.metrics.borrow().ops as f64;
    assert!(ops > 100_000.0, "load was flowing: {ops} SETs");
    let events = (cluster.sim.events_processed() - events0) as f64 / ops;
    let handoffs = (cluster.sim.handoffs() - handoffs0) as f64 / ops;
    assert!(events <= 11.1, "{events:.2} events per SET");
    assert!(
        (15.9..=16.1).contains(&(events + handoffs)),
        "{events:.2} events + {handoffs:.2} handoffs per SET"
    );
    // The same 8 completions per SET as before the re-poll, on 5 notifies
    // instead of 8 — 1.60 fabric-wide (the slaves' and the NIC's drains
    // still find one each). 1.00 here means the master drains at its
    // notify's instant again, whether or not its core is free.
    let fabric = cluster.net.counters();
    let in_window = |name: &str| (fabric.get(name) - fabric0.get(name)) as f64;
    let per_notify = in_window("rdma.wcs_polled") / in_window("rdma.cq_notifies");
    assert!(
        (1.59..=1.61).contains(&per_notify),
        "{per_notify:.4} completions polled per notify"
    );
}

/// The idle control for the re-poll: at one client the completions the
/// master's core could batch never overlap its work — the poll that ends
/// a command always comes back empty and costs nothing — so Fig. 10's
/// one-client RDMA row (its spec and seed) reads what it read before
/// the master polled again before re-arming, and one notify still finds
/// one completion.
#[test]
fn one_client_reads_the_same_with_the_re_poll() {
    let mut cluster = skv_core::cluster::Cluster::build(RunSpec {
        key_space: 100_000,
        warmup: SimDuration::from_millis(300),
        measure: SimDuration::from_millis(1_500),
        ..spec(Mode::RdmaRedis, 0, 1, 1.0, 10_101)
    });
    let report = cluster.run();
    assert_eq!(
        (
            format!("{:.1}", report.throughput_kops),
            format!("{:.1}", report.p99_latency_us)
        ),
        ("102.2".to_string(), "9.4".to_string()),
        "Fig. 10's one-client RDMA row moved"
    );
    let fabric = cluster.net.counters();
    assert_eq!(
        fabric.get("rdma.wcs_polled"),
        fabric.get("rdma.cq_notifies"),
        "an idle master's notify finds exactly one completion"
    );
}

#[test]
fn two_fanout_threads_carry_twelve_slaves_without_lag() {
    // The `threadnum` ablation's shape: one ARM thread cannot write twelve
    // rings per SET at this rate and its slaves trail by megabytes; from
    // two threads up the fan-out keeps pace — a few writes in flight when
    // the window closes, nothing once they land.
    let lag_with = |thread_num: usize| {
        let mut s = spec(Mode::Skv, 12, 8, 1.0, 73);
        s.cfg.thread_num = thread_num;
        s.measure = SimDuration::from_millis(200);
        let mut cluster = skv_core::cluster::Cluster::build(s);
        cluster.sim.run_until(cluster.measure_until);
        let at_close = cluster.max_replication_lag();
        cluster.run();
        (at_close, cluster.max_replication_lag())
    };
    let (overloaded, _) = lag_with(1);
    assert!(
        overloaded > 1 << 20,
        "one thread lags only {overloaded} bytes"
    );
    // (Two is the tight case: more threads only share the same work.)
    let (at_close, drained) = lag_with(2);
    assert!(at_close <= 64 << 10, "two threads lag {at_close} bytes");
    assert_eq!(drained, 0);
}
