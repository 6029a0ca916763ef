//! Cross-run determinism regression: the property every figure in the
//! paper reproduction rests on. One arm executed twice with the same seed
//! must produce *bit-for-bit* identical output — same op counts, same
//! latency percentiles, same per-bucket throughput series, the same full
//! counter snapshot, same final keyspace digests. A single stray `HashMap`
//! iteration or wall-clock read anywhere in the stack breaks this test
//! (and `skv-lint` / `clippy.toml` exist to catch those statically; this
//! is the dynamic backstop).

use skv_core::cluster::{ChaosSpec, Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::metrics::RunReport;
use skv_simcore::stats::Counters;
use skv_simcore::SimDuration;

/// FNV-1a over every observable byte of a run. Hand-rolled so the test
/// depends on nothing but the run's own outputs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        // Bit-exact: determinism means the same bits, not "close enough".
        self.u64(v.to_bits());
    }
}

/// Fold a full run (report + every counter + replica keyspaces) into one
/// digest.
fn run_digest(report: &RunReport, counters: &Counters, keyspaces: &[u64]) -> u64 {
    let mut h = Fnv::new();
    h.u64(report.ops);
    h.u64(report.errors);
    h.f64(report.throughput_kops);
    h.f64(report.avg_latency_us);
    h.f64(report.p50_latency_us);
    h.f64(report.p95_latency_us);
    h.f64(report.p99_latency_us);
    for p in &report.series {
        h.u64(p.time.as_nanos());
        h.u64(p.count);
        h.f64(p.rate_per_sec);
    }
    for (name, value) in counters.iter() {
        h.bytes(name.as_bytes());
        h.u64(value);
    }
    for &d in keyspaces {
        h.u64(d);
    }
    h.0
}

/// Compressed-time arm, sized to stay inside the tier-1 budget.
fn arm(mode: Mode, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(mode);
    cfg.num_slaves = 2;
    cfg.probe_interval = SimDuration::from_millis(200);
    cfg.reconnect_base = SimDuration::from_millis(5);
    cfg.client_retry_timeout = SimDuration::from_millis(100);
    RunSpec {
        cfg,
        num_clients: 2,
        pipeline: 1,
        set_ratio: 0.5,
        mset_keys: 0,
        value_size: 64,
        key_space: 500,
        warmup: SimDuration::from_millis(50),
        measure: SimDuration::from_millis(150),
        seed,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

/// One run's digest, and its counter snapshot in name order (so a
/// diverging pair names the first counter that moved).
struct Run {
    digest: u64,
    counters: Vec<(&'static str, u64)>,
}

fn execute(spec: RunSpec, chaos: Option<&ChaosSpec>) -> Run {
    let mut cluster = Cluster::build(spec);
    if let Some(chaos) = chaos {
        cluster.apply_chaos(chaos);
    }
    let report = cluster.run();
    let snapshot = cluster.counters_snapshot();
    let digest = run_digest(&report, &snapshot, &cluster.keyspace_digests());
    Run {
        digest,
        counters: snapshot.iter().collect(),
    }
}

/// Run `spec` twice and require the two full snapshots, then the two
/// digests, to be identical.
fn assert_same_bits(what: &str, spec: RunSpec, chaos: Option<&ChaosSpec>) {
    let a = execute(spec.clone(), chaos);
    let b = execute(spec, chaos);
    assert_eq!(
        a.counters, b.counters,
        "identical {what} runs' counters diverged"
    );
    let (a, b) = (a.digest, b.digest);
    assert_eq!(
        a, b,
        "identical {what} runs diverged: {a:#018x} vs {b:#018x}"
    );
}

#[test]
fn same_seed_same_bits_skv() {
    assert_same_bits("SKV", arm(Mode::Skv, 0xD00D), None);
}

#[test]
fn same_seed_same_bits_tcp_baseline() {
    assert_same_bits("TCP", arm(Mode::TcpRedis, 0xBEEF), None);
}

#[test]
fn same_seed_same_bits_under_chaos() {
    let chaos = ChaosSpec {
        loss_prob: 0.02,
        delay_prob: 0.05,
        delay: SimDuration::from_micros(300),
        seed: 7,
        ..Default::default()
    };
    assert_same_bits("chaos", arm(Mode::Skv, 0xFACE), Some(&chaos));
}

#[test]
fn single_shard_digest_matches_pre_shard_baseline() {
    // The sharding refactor's contract: at `num_shards = 1` (the default)
    // every routed path degenerates to the historical single-engine code,
    // leaving the event schedule — and therefore these digests — bit-
    // identical. The SKV digest was re-pinned when a busy master began
    // polling its CQ again before re-arming it (DESIGN.md §12.3). Both
    // were re-pinned once more when the digest moved from a mode-gated
    // counter subset to the full `counters_snapshot()`: the hashed input
    // changed, not the schedule — the old subset, rebuilt from the same
    // runs, still reproduced the old pins. Both moved again when chain
    // replication and the cross-mode failover left with their four
    // counters (`nic.stat_chain_repairs`, `nic.stat_chain_rejoins`,
    // `nic.stat_mode_changes`, `server.stat_mode_changes`, all 0 on these
    // arms): the commit before, hashing its snapshot without those four
    // names, reproduces the new pins.
    let skv = execute(arm(Mode::Skv, 0xD00D), None).digest;
    assert_eq!(
        skv, 0x1df8_b5bc_7038_b780,
        "single-shard SKV schedule drifted from its pinned digest: {skv:#018x}"
    );
    let tcp = execute(arm(Mode::TcpRedis, 0xBEEF), None).digest;
    assert_eq!(
        tcp, 0x790f_e12b_5ea3_2650,
        "single-shard TCP schedule drifted from its pinned digest: {tcp:#018x}"
    );
}

#[test]
fn same_seed_same_bits_sharded() {
    // Four shard cores, per-shard CQs, split MSETs, the pipelined slave
    // apply ring and the serialized replication egress all engaged, plus
    // pipelined clients to keep every shard busy. Still bit-for-bit.
    let mut spec = arm(Mode::Skv, 0x5A4D);
    spec.cfg.num_shards = 4;
    spec.pipeline = 4;
    assert_same_bits("sharded", spec, None);
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against the digest degenerating into a constant.
    let a = execute(arm(Mode::Skv, 1), None).digest;
    let b = execute(arm(Mode::Skv, 2), None).digest;
    assert_ne!(a, b, "digest ignores the seed (constant hash?)");
}

#[test]
fn same_seed_same_bits_quorum_mode() {
    // The tracked quorum path adds WR-ack maps, commit windows and
    // deferred-reply queues — all of which must stay pure functions of
    // the seed (their counters are in the snapshot).
    let mut spec = arm(Mode::Skv, 0xAB0D);
    spec.cfg.repl_mode = skv_core::replmode::ReplModeKind::Quorum;
    assert_same_bits("quorum", spec, None);
}

#[test]
fn same_seed_same_bits_with_hot_cache() {
    // The SoC cache adds a whole front-end plane — forwarded commands,
    // cookie maps, admission sketches, stream-driven invalidation — all
    // of which must stay pure functions of the seed. Zipf draws engage
    // the split key stream; the cache counters are in the snapshot, so
    // any nondeterminism in the cache itself also breaks the digest.
    let mut spec = arm(Mode::Skv, 0xCACE);
    spec.cfg.hot_cache_bytes = 1 << 20;
    spec.cfg.hot_cache_policy = "tinylfu".into();
    spec.set_ratio = 0.1;
    spec.zipf_theta = 0.99;
    assert_same_bits("hot-cache", spec, None);
}
