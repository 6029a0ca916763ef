//! Fixtures for the wall-clock benchmark suite (`benches/wallclock_*.rs`).
//!
//! Everything else in this crate measures *simulated* time — the numbers
//! the paper's figures are made of. The wall-clock suite instead measures
//! how much host CPU the reproduction itself burns, so perf PRs land with
//! before/after numbers (`scripts/bench.sh` → `BENCH_results.json`).
//! Keeping the specs here (rather than inline in each bench) guarantees
//! the before/after runs execute the exact same workloads.

use skv_core::cluster::RunSpec;
use skv_core::config::{ClusterConfig, Mode};
use skv_simcore::SimDuration;

/// True when `SKV_BENCH_SMOKE` is set (non-empty): benches shrink their
/// sweeps and windows so CI can smoke-test the suite in seconds.
pub fn smoke() -> bool {
    std::env::var("SKV_BENCH_SMOKE").is_ok_and(|v| !v.is_empty())
}

/// Replication fan-out workload: pure SET with a fat value so per-replica
/// payload handling dominates, swept over the slave count.
pub fn fanout_spec(mode: Mode, slaves: usize, seed: u64) -> RunSpec {
    fanout_spec_sized(mode, slaves, 4096, seed)
}

/// [`fanout_spec`] with the value size exposed: the value-size sweep of
/// `wallclock_fanout` must differ from the slave-count arms in *only*
/// this parameter.
pub fn fanout_spec_sized(mode: Mode, slaves: usize, value_size: usize, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(mode);
    cfg.num_slaves = slaves;
    RunSpec {
        cfg,
        num_clients: 4,
        pipeline: 4,
        set_ratio: 1.0,
        mset_keys: 0,
        value_size,
        key_space: 1_000,
        warmup: SimDuration::from_millis(20),
        measure: if smoke() {
            SimDuration::from_millis(30)
        } else {
            SimDuration::from_millis(100)
        },
        seed,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

/// Replication-mode workload: pure SET at a 3-slave fan-out with the
/// protocol knob exposed. The tracked modes (quorum, chain) run the ack
/// bookkeeping — WR-ack maps, commit windows, deferred-reply queues — that
/// the async stream skips, so the sweep prices that machinery in host CPU.
pub fn replmode_spec(mode: skv_core::replmode::ReplModeKind, seed: u64) -> RunSpec {
    let mut spec = fanout_spec_sized(Mode::Skv, 3, 1024, seed);
    spec.cfg.repl_mode = mode;
    spec
}

/// A Figure-10-style point: mixed GET/SET, small values, closed loop,
/// 8 clients against 1 master + 3 slaves.
pub fn fig10_style_spec(mode: Mode, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(mode);
    cfg.num_slaves = 3;
    RunSpec {
        cfg,
        num_clients: 8,
        pipeline: 1,
        set_ratio: 0.5,
        mset_keys: 0,
        value_size: 64,
        key_space: 10_000,
        warmup: SimDuration::from_millis(20),
        measure: if smoke() {
            SimDuration::from_millis(30)
        } else {
            SimDuration::from_millis(100)
        },
        seed,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

/// Hot-key cache workload: read-heavy (5% SET) Zipf-skewed stream against
/// a 2-slave SKV cluster with the SoC GET cache's budget and policy
/// exposed. The cache-off arm prices the legacy client→master path; the
/// cache-on arms add the NIC front end (forwarding, admission, the
/// invalidation scan on every stream frame), so the sweep measures what
/// the cache layer costs in host CPU per simulated run.
pub fn hotcache_spec(cache_bytes: usize, policy: &str, theta: f64, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = 2;
    cfg.hot_cache_bytes = cache_bytes;
    cfg.hot_cache_policy = policy.to_string();
    RunSpec {
        cfg,
        num_clients: 8,
        pipeline: 4,
        set_ratio: 0.05,
        mset_keys: 0,
        value_size: 64,
        key_space: 10_000,
        warmup: SimDuration::from_millis(20),
        measure: if smoke() {
            SimDuration::from_millis(30)
        } else {
            SimDuration::from_millis(100)
        },
        seed,
        zipf_theta: theta,
        zipf_shift_every: 0,
    }
}

/// Sharded-engine workload: mixed GET/SET at pipeline depth 8 against a
/// 2-slave SKV cluster, swept over `num_shards`. The pipelined clients
/// keep every shard core busy, so the sweep prices both the scaling win
/// (more simulated work per simulated second means more host work per
/// simulated run) and the routing overhead the shard layer adds.
pub fn shards_spec(num_shards: usize, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = 2;
    cfg.num_shards = num_shards;
    RunSpec {
        cfg,
        num_clients: 8,
        pipeline: 8,
        set_ratio: 0.5,
        mset_keys: 0,
        value_size: 64,
        key_space: 10_000,
        warmup: SimDuration::from_millis(20),
        measure: if smoke() {
            SimDuration::from_millis(30)
        } else {
            SimDuration::from_millis(100)
        },
        seed,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}
