//! SoC hot-key GET cache coverage: the NIC front end serves hot GETs
//! from SoC memory, the replication stream invalidates/refreshes entries
//! before the covering write is acked (checked via `skv_core::histcheck`
//! operation histories), the win is real under Zipf skew, and a crashed
//! SoC rejoins with a cold cache without ever serving a stale read.

use proptest::prelude::*;
use skv_core::cluster::{ChaosSpec, Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::histcheck::check_linearizable;
use skv_core::probes::ReadAnchor;
use skv_simcore::{SimDuration, SimTime};

/// Compressed-time SKV spec with the SoC cache configured: read-heavy
/// (5% SET), Zipf 0.99, small keyspace — the cache's home turf.
fn spec(cache_bytes: usize, policy: &str, measure_ms: u64, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = 2;
    cfg.hot_cache_bytes = cache_bytes;
    cfg.hot_cache_policy = policy.to_string();
    cfg.probe_interval = SimDuration::from_millis(200);
    // Silence detection on the same compressed clock as the probes (as in
    // `chaos.rs`): with the 2.5 s default a master notices a dead SoC only
    // through an error completion, i.e. only if a WR was in flight at the
    // crash instant.
    cfg.upstream_silence = SimDuration::from_millis(600);
    cfg.reconnect_base = SimDuration::from_millis(5);
    cfg.client_retry_timeout = SimDuration::from_millis(100);
    RunSpec {
        cfg,
        num_clients: 4,
        pipeline: 2,
        set_ratio: 0.05,
        mset_keys: 0,
        value_size: 64,
        key_space: 2_000,
        warmup: SimDuration::from_millis(100),
        measure: SimDuration::from_millis(measure_ms),
        seed,
        zipf_theta: 0.99,
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

fn cache_counter(cluster: &Cluster, name: &str) -> u64 {
    cluster.counters_snapshot().get(name)
}

/// Healthy-run smoke: clients are served through the NIC front end, hot
/// GETs hit in SoC memory, the stream feeds invalidations, and the
/// replicas still converge (the cache is read-only state — it must not
/// perturb replication).
#[test]
fn hot_gets_hit_in_soc_cache() {
    let mut cluster = Cluster::build(spec(1 << 20, "lru", 800, 51));
    run_and_quiesce(&mut cluster, SimDuration::from_secs(1));
    let report = cluster.report();
    assert!(report.ops > 500, "only {} ops", report.ops);
    assert_eq!(report.errors, 0, "{} error replies", report.errors);

    let hits = cache_counter(&cluster, "cache.hits");
    let misses = cache_counter(&cluster, "cache.misses");
    assert!(hits > 0, "no GET ever hit the SoC cache");
    assert!(misses > 0, "every GET hit — cold misses must exist");
    assert!(
        hits > misses,
        "Zipf 0.99 on a cache-sized keyspace should be hit-dominated: \
         {hits} hits vs {misses} misses"
    );
    assert!(cache_counter(&cluster, "cache.admits") > 0, "no admissions");
    assert!(
        cache_counter(&cluster, "cache.invalidations") > 0,
        "writes on hot keys never touched the cache"
    );
    assert!(cache_counter(&cluster, "cache.bytes") > 0, "cache is empty");
    assert_converged(&cluster);
}

/// The acceptance bar: at Zipf 0.99 read-heavy, turning the cache on
/// must lift client-visible throughput by ≥ 1.3× over the cache-off
/// path on the *same* workload and seed (the ablation's headline pair,
/// shrunk to tier-1 size).
#[test]
fn cache_lifts_read_heavy_throughput() {
    let base = |cache_bytes: usize| {
        let mut s = spec(cache_bytes, "lru", 600, 52);
        s.num_clients = 8;
        s.pipeline = 4;
        s.key_space = 10_000;
        let mut cluster = Cluster::build(s);
        let report = cluster.run();
        assert_eq!(report.errors, 0, "{} error replies", report.errors);
        report.throughput_kops
    };
    let off = base(0);
    let on = base(1 << 20);
    assert!(
        on >= off * 1.3,
        "cache-on {on:.1} kops vs cache-off {off:.1} kops — below the 1.3x bar"
    );
}

/// The front end runs on every ARM core the fan-out thread leaves free
/// (DESIGN.md §16.1): eight clients are accepted round-robin onto seven
/// front-end CQs, and each core polls its own CQ and runs its own clients'
/// hits, forwards and relays. A front end pinned to one core, an accept
/// that fills one CQ, or thread 0 polling every CQ each leaves a core idle
/// or past the window. At 1 MiB the SoC answers most GETs itself, so the
/// front-end cores run near saturation.
#[test]
fn every_free_arm_core_serves_its_own_clients() {
    let mut s = spec(1 << 20, "lru", 300, 55);
    s.num_clients = 8;
    s.pipeline = 4;
    s.key_space = 10_000;
    let front = s.cfg.nic_front_end_cores();
    assert_eq!(front, 1..8, "one fan-out thread, eight ARM cores");
    let mut cluster = Cluster::build(s);
    let arm_busy = |c: &Cluster| -> Vec<SimDuration> {
        c.nic_kv().expect("SKV has a NIC").core_busy().collect()
    };
    cluster.sim.run_until(cluster.measure_from);
    let before = arm_busy(&cluster);
    cluster.sim.run_until(cluster.measure_until);
    let busy: Vec<SimDuration> = arm_busy(&cluster)
        .into_iter()
        .zip(before)
        .map(|(after, before)| after - before)
        .collect();
    let report = cluster.run();
    assert_eq!(report.errors, 0, "{} error replies", report.errors);

    let nic = cluster.nic_kv().expect("SKV has a NIC");
    assert_eq!(
        nic.cqs().count(),
        1 + front.len(),
        "thread 0's CQ + one per core"
    );
    let busiest = front.clone().map(|core| busy[core]).max().unwrap();
    for core in front {
        assert!(
            busy[core] * 4 > busiest,
            "front-end core {core} barely worked: {:?} of the busiest {busiest:?}",
            busy[core]
        );
    }
    let window = cluster.measure_until - cluster.measure_from;
    for (core, &b) in busy.iter().enumerate() {
        assert!(
            b <= window,
            "ARM core {core} busy {b:?} in a {window:?} window"
        );
    }
}

/// The stale-read regression the invalidation seam exists for: history
/// probes (single-writer SETs, anchored GETs) flow through the NIC
/// front end, so every probe GET is eligible for a cached reply — and
/// the checker rejects any read older than the last acked write. The
/// seam under test: dirty commands piggyback invalidation on the
/// replication stream, and the master orders the forwarded ack *after*
/// the stream frame on the shared NIC channel, so by the time a write
/// is acked the SoC has already dropped or refreshed the entry.
#[test]
fn cached_reads_never_return_stale_values() {
    let mut cluster = Cluster::build(spec(1 << 20, "lru", 800, 53));
    let history = cluster.add_history(ReadAnchor::Master);
    run_and_quiesce(&mut cluster, SimDuration::from_secs(1));

    assert!(
        cache_counter(&cluster, "cache.hits") > 0,
        "no cached replies — the regression is vacuous"
    );
    assert!(
        cache_counter(&cluster, "cache.invalidations") > 0,
        "no stream-driven invalidations — the regression is vacuous"
    );
    let h = history.borrow();
    let reads = h.ops.iter().filter(|o| o.completed.is_some()).count();
    assert!(reads > 50, "not enough probe ops completed: {reads}");
    let violations = check_linearizable(&h);
    assert!(violations.is_empty(), "stale cached reads: {violations:?}");
}

/// The master's egress rule on a sharded, cache-on, async master: a batch
/// that carries a forwarded ack (`FWD_REPLY`) leaves whole through the
/// replication egress point, so the ack trails its own stream frame to the
/// SoC even when another shard's stream frame holds that point. Let the
/// ack go ahead and the SoC relays a write before it has invalidated the
/// key, and a cached read returns the overwritten value. Async replies are
/// never held, so the ack and its stream frame share a batch on every
/// forwarded write; the bench clients' own history is the witness. A
/// 256-key space keeps each key's history small enough for the checker
/// (at 16 keys the hottest one alone is ~89 k ops).
#[test]
fn sharded_forwarded_acks_trail_their_stream_frames() {
    for seed in [61, 62, 63] {
        let mut s = spec(64 << 10, "lru", 200, seed);
        s.cfg.num_shards = 4;
        s.cfg.record_history = true;
        s.key_space = 256;
        s.num_clients = 8;
        s.pipeline = 1;
        s.set_ratio = 0.5;
        let mut cluster = Cluster::build(s);
        run_and_quiesce(&mut cluster, SimDuration::from_secs(1));

        assert!(
            cache_counter(&cluster, "cache.hits") > 0,
            "seed {seed}: no cached replies — vacuous"
        );
        let history = cluster.bench_history.as_ref().expect("recording on");
        let violations = check_linearizable(&history.borrow());
        assert!(
            violations.is_empty(),
            "seed {seed}: stale or unordered reads: {violations:?}"
        );
    }
}

/// The hole the deleted taint set could not close: a TTL that predates
/// the SoC's view of the key (here it predates the SoC — preloaded, so
/// it never crossed the replication stream) leaves nothing on the NIC to
/// say "do not cache". The host knows, and vetoes the admission; were the
/// key ever resident, the SoC would keep serving it after the host has
/// expired it.
#[test]
fn ttl_bearing_keys_are_never_resident() {
    let mut s = spec(1 << 20, "lru", 600, 55);
    s.set_ratio = 0.0;
    s.key_space = 8;
    let mut cluster = Cluster::build(s);
    let key = |i: u64| format!("key:{i:012}");
    let mortal = key(3);
    for i in 0..8 {
        cluster.preload_master(&[&["SET", &key(i), "v"]]);
    }
    // Preload runs at simulated time zero: dead at 300 ms.
    cluster.preload_master(&[&["SET", &mortal, "v", "PX", "300"]]);

    let resident = |cluster: &Cluster, k: &str| {
        let cache = cluster.nic_kv().and_then(|nic| nic.front_end().cache());
        cache.expect("cache on").version_of(k.as_bytes())
    };
    // Mid-run, the key still alive on the host: clients have been reading
    // all eight keys for 150 ms, and only the TTL'd one stays out.
    cluster.run_until(SimTime::from_millis(250));
    assert!(
        cache_counter(&cluster, "cache.hits") > 0,
        "no hits — vacuous"
    );
    assert_eq!(resident(&cluster, &mortal), None, "TTL'd key was admitted");
    for i in (0..8).filter(|&i| i != 3) {
        assert!(
            resident(&cluster, &key(i)).is_some(),
            "{} not cached",
            key(i)
        );
    }
    // Past the expiry: still never resident, and the GETs that reached
    // the host found the key gone (they were never answered by the SoC).
    let report = cluster.run();
    assert_eq!(report.errors, 0, "{} error replies", report.errors);
    assert_eq!(resident(&cluster, &mortal), None);
    let master = cluster.master_server();
    let expired: u64 = master
        .shards()
        .engines()
        .iter()
        .map(|e| e.db().stat_expired())
        .sum();
    assert_eq!(expired, 1, "the host expired exactly the one TTL'd key");
}

/// Chaos arm: the SoC dies mid-run and rejoins with a cold cache. The
/// cold rejoin must be invisible to correctness — probes that resume
/// against the recovered front end still never observe a stale value,
/// clients recover, and the replicas converge. Swept over crash instants
/// a few µs apart, so whether the master has a WR in flight when the SoC
/// dies — which decides how it learns of the death — cannot decide the
/// verdict.
#[test]
fn soc_crash_rejoins_with_cold_cache_and_stays_coherent() {
    for offset_us in [0, 17, 35, 53] {
        let crash_at = SimTime::from_millis(800) + SimDuration::from_micros(offset_us);
        let mut cluster = Cluster::build(spec(1 << 20, "lru", 2_500, 54));
        let history = cluster.add_history(ReadAnchor::Master);
        cluster.apply_chaos(&ChaosSpec {
            nic_crash: Some((crash_at, SimTime::from_millis(1_500))),
            seed: 54,
            ..ChaosSpec::default()
        });
        run_and_quiesce(&mut cluster, SimDuration::from_secs(2));

        let report = cluster.report();
        assert!(
            report.ops > 500,
            "crash +{offset_us} µs: clients never recovered from the SoC crash: {} ops",
            report.ops
        );
        // The cache re-warmed after the cold rejoin...
        assert!(
            cache_counter(&cluster, "cache.bytes") > 0,
            "crash +{offset_us} µs: cache still empty after recovery — rejoin never re-admitted"
        );
        assert!(
            cache_counter(&cluster, "cache.hits") > 0,
            "crash +{offset_us} µs: no hits at all"
        );
        // ...and coherence held across the crash boundary.
        let h = history.borrow();
        let violations = check_linearizable(&h);
        assert!(
            violations.is_empty(),
            "crash +{offset_us} µs: stale reads across the SoC crash: {violations:?}"
        );
        drop(h);
        assert_converged(&cluster);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Invalidation-vs-replication ordering under randomized seed ×
    /// shard count × policy: whatever the engine layout and admission
    /// policy, a NIC cache hit must never return a value older than the
    /// last acked write — the checker over a probe
    /// history routed through the NIC front end.
    #[test]
    fn cache_coherent_across_shards_and_policies(
        seed in 0u64..1_000,
        shards in 1usize..5,
        policy_idx in 0usize..2,
        cache_kib in prop::sample::select(vec![64usize, 1_024]),
    ) {
        let policy = ["lru", "tinylfu"][policy_idx];
        let mut s = spec(cache_kib << 10, policy, 600, 3_000 + seed);
        s.cfg.num_shards = shards;
        let mut cluster = Cluster::build(s);
        let history = cluster.add_history(ReadAnchor::Master);
        run_and_quiesce(&mut cluster, SimDuration::from_secs(1));

        prop_assert!(
            cache_counter(&cluster, "cache.hits") > 0,
            "no cached replies — nothing exercised"
        );
        let h = history.borrow();
        let violations = check_linearizable(&h);
        prop_assert!(
            violations.is_empty(),
            "stale cached reads (shards={shards}, policy={policy}): {violations:?}"
        );
        let digests = cluster.keyspace_digests();
        prop_assert!(
            digests.iter().all(|&d| d == digests[0]),
            "replicas diverged: {digests:x?}"
        );
    }
}
