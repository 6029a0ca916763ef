//! Metric definitions (name, unit, direction, bound) and how each value is
//! computed from the reps, the replays and the drift gauge.
//!
//! This table is the source of truth: `describe` prints `BENCHMARK.json`
//! from it, and every run refuses to start if the committed file differs.

use std::collections::BTreeMap;

use crate::model::Fig11;
use crate::rep::{Rep, SimStats};
use crate::replay::Replays;

pub const HIGHER: &str = "higher";
pub const LOWER: &str = "lower";
/// Microseconds on the simulated clock — what the modelled hardware would
/// take — as opposed to `s`/`ns`, which are always host time here.
const SIM_US: &str = "sim_us";

pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end only: share of the parent's median by which the metric
    /// may get worse.
    pub bound: Option<f64>,
    /// A function of the seed alone: repeats bit-for-bit on one commit.
    pub exact: bool,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name: name.to_string(),
        unit,
        better,
        bound: None,
        exact: true,
    }
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
///
/// `sim_*`, `events_per_op` and the three heap metrics are exact for a
/// fixed seed; their bounds only have to cover the spread between seeds
/// (each is at least three times the widest spread seen over ten seeds on
/// any workload; see "Steadiness" in the README).
/// `sim_op_*` covers all operations, so it is defined (and non-zero) on the
/// SET-only workloads too; per-type GET latency is a per-layer metric.
pub fn end_to_end() -> Vec<Def> {
    [
        ("sim_kops", "kops/s", HIGHER, 0.03),
        ("sim_set_p50_us", SIM_US, LOWER, 0.03),
        ("sim_set_p99_us", SIM_US, LOWER, 0.15),
        ("sim_op_p50_us", SIM_US, LOWER, 0.03),
        ("sim_op_p99_us", SIM_US, LOWER, 0.15),
        ("events_per_op", "count", LOWER, 0.02),
        ("allocs_per_op", "count", LOWER, 0.02),
        ("alloc_bytes_per_op", "B", LOWER, 0.02),
        ("peak_live_mib", "MiB", LOWER, 0.05),
        ("host_cal_per_kop", "cal/kop", LOWER, 0.25),
        ("setup_s", "s", LOWER, 0.25),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| Def {
        bound: Some(bound),
        exact: !matches!(name, "host_cal_per_kop" | "setup_s"),
        ..def(name, unit, better)
    })
    .collect()
}

/// Replay stems; `{}` becomes `ns` (raw) and `ucal` (calibration-normalised).
pub const REPLAYS: &[&str] = &[
    "simcore.engine.loop_{}_per_event",
    "netsim.rdma.post_poll_{}",
    "core.channel.build_wr_{}",
    "netsim.tcp.send_{}",
    "core.channel.tcp_reassembly_{}",
    "store.resp.decode_{}",
    "store.resp.encode_{}",
    "store.engine.exec_set_{}",
    "store.engine.exec_get_{}",
    "store.rdb.save_{}_per_key",
    "store.rdb.load_{}_per_key",
    "store.backlog.feed_{}",
    "store.backlog.range_from_{}",
    "core.protocol.nodemsg_codec_{}",
    "core.protocol.key_hash_slot_{}",
    "core.shard.plan_{}",
    "core.hotcache.admit_{}",
    "core.hotcache.get_{}",
    "core.hotcache.invalidate_{}",
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
/// Layers are crates and modules: `<crate>.<module>.<metric>`.
pub fn per_layer() -> Vec<Def> {
    let mut defs: Vec<Def> = [
        ("simcore.engine.events", "count", LOWER),
        ("simcore.engine.host_ns_per_event", "ns", LOWER),
        ("netsim.rdma.wrs_per_op", "count", LOWER),
        ("netsim.rdma.doorbells_per_op", "count", LOWER),
        ("netsim.rdma.wcs_polled_per_op", "count", LOWER),
        ("netsim.rdma.cq_notifies_per_op", "count", LOWER),
        ("netsim.rdma.bytes_per_op", "B", LOWER),
        ("netsim.rdma.qp_errors", "count", LOWER),
        ("netsim.tcp.messages_per_op", "count", LOWER),
        ("netsim.tcp.bytes_per_op", "B", LOWER),
        ("netsim.faults.rdma_dropped", "count", LOWER),
        ("netsim.faults.tcp_retrans", "count", LOWER),
        ("store.db.hit_ratio", "ratio", HIGHER),
        ("store.db.expired", "count", LOWER),
        ("core.shard.cross_msgs_per_op", "count", LOWER),
        ("core.shard.queue_depth", "count", LOWER),
        ("core.shard.nic_ingress_per_op", "count", LOWER),
        ("core.hotcache.hit_ratio", "ratio", HIGHER),
        ("core.hotcache.admits", "count", LOWER),
        ("core.hotcache.evicts", "count", LOWER),
        ("core.hotcache.invalidations_per_set", "count", LOWER),
        ("core.hotcache.bytes", "B", LOWER),
        ("core.server.commands_per_op", "count", LOWER),
        ("core.server.core0_busy", "ratio", LOWER),
        ("core.server.doorbells_per_op", "count", LOWER),
        ("core.server.wrs_per_op", "count", LOWER),
        ("core.server.full_syncs", "count", LOWER),
        ("core.server.partial_syncs", "count", LOWER),
        ("core.server.reconnects", "count", LOWER),
        ("core.server.degradations", "count", LOWER),
        ("core.server.deferred_replies", "count", LOWER),
        ("core.server.released_replies", "count", LOWER),
        ("core.nickv.arm_busy", "ratio", LOWER),
        ("core.nickv.fanout_sends_per_set", "count", LOWER),
        ("core.nickv.doorbells_per_set", "count", LOWER),
        ("core.nickv.commits", "count", LOWER),
        ("core.nickv.retransmits", "count", LOWER),
        ("core.nickv.failovers", "count", LOWER),
        ("core.nickv.mode_changes", "count", LOWER),
        ("core.client.issued", "count", HIGHER),
        ("core.client.replies", "count", HIGHER),
        ("core.client.reconnects", "count", LOWER),
        ("core.client.err_share", "ratio", LOWER),
        ("core.client.set_samples", "count", HIGHER),
        ("core.client.get_samples", "count", HIGHER),
        ("core.client.sim_get_p50_us", SIM_US, LOWER),
        ("core.client.sim_get_p99_us", SIM_US, LOWER),
        ("core.client.sim_all_p999_us", SIM_US, LOWER),
        ("bench.reps", "count", HIGHER),
        ("bench.build_s", "s", LOWER),
        ("bench.preload_s", "s", LOWER),
        ("bench.sync_warmup_s", "s", LOWER),
        ("bench.measure_s", "s", LOWER),
        ("bench.drain_s", "s", LOWER),
        ("bench.verify_s", "s", LOWER),
        ("bench.calibration_pass_s", "s", LOWER),
        ("bench.sim_ops_per_host_s", "1/s", HIGHER),
        ("bench.replay_share", "ratio", HIGHER),
        ("bench.trace_overhead", "ratio", LOWER),
        ("bench.phase_gap_share", "ratio", LOWER),
        ("model.fig11_tput_gain", "ratio", HIGHER),
        ("model.fig11_p99_cut", "ratio", HIGHER),
    ]
    .into_iter()
    .map(|(name, unit, better)| def(name, unit, better))
    .collect();
    for stem in REPLAYS {
        defs.push(def(&stem.replace("{}", "ns"), "ns", LOWER));
        defs.push(def(&stem.replace("{}", "ucal"), "ucal", LOWER));
    }
    defs
}

pub type Values = BTreeMap<String, f64>;

/// Quantile `p` of `values`, interpolated linearly between order
/// statistics (0 for no values).
pub fn quantile(values: impl IntoIterator<Item = f64>, p: f64) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = (v.len() - 1) as f64 * p;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    v[lo] + frac * (v[(lo + 1).min(v.len() - 1)] - v[lo])
}

pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(values, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// End-to-end values: exact ones from the (identical) simulated statistics,
/// host ones folded over the timed reps.
pub fn end_to_end_values(reps: &[Rep]) -> Values {
    let s = &reps[0].sim;
    let ops = s.ops as f64;
    let mut v = Values::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    put("sim_kops", ops / s.window_s / 1000.0);
    put("sim_set_p50_us", s.set.p50_us);
    put("sim_set_p99_us", s.set.p99_us);
    put("sim_op_p50_us", s.all.p50_us);
    put("sim_op_p99_us", s.all.p99_us);
    put("events_per_op", ratio(s.events as f64, ops));
    put("allocs_per_op", ratio(s.allocs as f64, ops));
    put("alloc_bytes_per_op", ratio(s.alloc_bytes as f64, ops));
    put(
        "peak_live_mib",
        s.peak_live_bytes as f64 / (1u64 << 20) as f64,
    );
    // Slice i does identical simulated work in every rep, and interference
    // from the shared host only ever adds time to it. So the reps are
    // folded slice by slice, and at their lower quartile rather than their
    // median: the less disturbed executions of the same work (a quartile,
    // not the minimum, so the estimate holds up with three reps and does
    // not drift with how many fit in the budget). On ten-run studies this
    // spread about a quarter less than the median did.
    let slices = reps[0].host.slice_cal.len();
    let window_cal: f64 = (0..slices)
        .map(|i| quantile(reps.iter().map(|r| r.host.slice_cal[i]), 0.25))
        .sum();
    put("host_cal_per_kop", ratio(window_cal, ops / 1000.0));
    put("setup_s", median(reps.iter().map(|r| r.host.setup_s())));
    v
}

/// An estimate of the measured window's host time that the replayed layer
/// functions account for: counter deltas × replayed cost per call. The
/// fabric replays run engine events of their own, so the event-loop floor
/// is taken out of them before it is added once for every event.
fn replayed_ns(s: &SimStats, rp: &Replays) -> f64 {
    let ns = |stem: &str| rp.ns(stem);
    let d = |counter: &str| s.delta(counter) as f64;
    let loop_ns = ns("simcore.engine.loop_{}_per_event");
    let above_loop = |stem: &str, events: f64| (ns(stem) - events * loop_ns).max(0.0);
    let commands = d("server.stat_commands");
    // Reads execute where they are served; everything else a server
    // executed was a write (on the master and again on every slave).
    let get_execs = d("store.stat_hits") + d("store.stat_misses");
    let set_execs = (commands - get_execs).max(0.0);
    let sharded = if s.master_shard_ops.len() > 1 {
        1.0
    } else {
        0.0
    };
    s.events as f64 * loop_ns
        + d("rdma.wrs_posted")
            * (above_loop("netsim.rdma.post_poll_{}", rp.events_per_post_poll)
                + ns("core.channel.build_wr_{}"))
        + d("tcp.messages")
            * (above_loop("netsim.tcp.send_{}", rp.events_per_tcp_send)
                + ns("core.channel.tcp_reassembly_{}"))
        + commands * (ns("store.resp.decode_{}") + ns("store.resp.encode_{}"))
        + set_execs * ns("store.engine.exec_set_{}")
        + get_execs * ns("store.engine.exec_get_{}")
        + s.set.count as f64 * ns("store.backlog.feed_{}")
        + commands * sharded * (ns("core.shard.plan_{}") + ns("core.protocol.key_hash_slot_{}"))
        + (d("cache.hits") + d("cache.misses")) * ns("core.hotcache.get_{}")
        + d("cache.admits") * ns("core.hotcache.admit_{}")
        + d("cache.invalidations") * ns("core.hotcache.invalidate_{}")
}

/// Per-layer values. `timed` are the untraced reps, `traced` the one rep
/// run with spans on; `gap_share` is its worst untiled share.
pub fn per_layer_values(
    timed: &[Rep],
    traced: &Rep,
    gap_share: f64,
    rp: &Replays,
    fig11: &Fig11,
) -> Values {
    let s = &traced.sim;
    let ops = s.ops as f64;
    let sets = s.set.count as f64;
    let d = |counter: &str| s.delta(counter) as f64;
    let host = |f: fn(&Rep) -> f64| median(timed.iter().map(f));
    let measure_s = host(|r| r.host.measure_s);
    let mut v = Values::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };

    put("simcore.engine.events", s.events as f64);
    put(
        "simcore.engine.host_ns_per_event",
        ratio(measure_s * 1e9, s.events as f64),
    );

    put("netsim.rdma.wrs_per_op", ratio(d("rdma.wrs_posted"), ops));
    put(
        "netsim.rdma.doorbells_per_op",
        ratio(d("rdma.doorbells"), ops),
    );
    put(
        "netsim.rdma.wcs_polled_per_op",
        ratio(d("rdma.wcs_polled"), ops),
    );
    put(
        "netsim.rdma.cq_notifies_per_op",
        ratio(d("rdma.cq_notifies"), ops),
    );
    put("netsim.rdma.bytes_per_op", ratio(d("rdma.bytes"), ops));
    put("netsim.rdma.qp_errors", d("rdma.qp_errors"));
    put("netsim.tcp.messages_per_op", ratio(d("tcp.messages"), ops));
    put("netsim.tcp.bytes_per_op", ratio(d("tcp.bytes"), ops));
    put("netsim.faults.rdma_dropped", d("faults.rdma_dropped"));
    put("netsim.faults.tcp_retrans", d("faults.tcp_retrans"));

    let (hits, misses) = (d("store.stat_hits"), d("store.stat_misses"));
    put("store.db.hit_ratio", ratio(hits, hits + misses));
    put("store.db.expired", d("store.stat_expired"));

    put(
        "core.shard.cross_msgs_per_op",
        ratio(d("shard.cross_msgs"), ops),
    );
    put(
        "core.shard.queue_depth",
        s.total("shard.queue_depth") as f64,
    );
    put(
        "core.shard.nic_ingress_per_op",
        ratio(d("shard.nic_ingress"), ops),
    );

    let (hits, misses) = (d("cache.hits"), d("cache.misses"));
    put("core.hotcache.hit_ratio", ratio(hits, hits + misses));
    put("core.hotcache.admits", d("cache.admits"));
    put("core.hotcache.evicts", d("cache.evicts"));
    put(
        "core.hotcache.invalidations_per_set",
        ratio(d("cache.invalidations"), sets),
    );
    put("core.hotcache.bytes", s.total("cache.bytes") as f64);

    put(
        "core.server.commands_per_op",
        ratio(d("server.stat_commands"), ops),
    );
    put("core.server.core0_busy", s.core0_busy);
    put(
        "core.server.doorbells_per_op",
        ratio(d("server.stat_doorbells"), ops),
    );
    put(
        "core.server.wrs_per_op",
        ratio(d("server.stat_wrs_posted"), ops),
    );
    put("core.server.full_syncs", d("server.stat_full_syncs"));
    put("core.server.partial_syncs", d("server.stat_partial_syncs"));
    put("core.server.reconnects", d("server.stat_reconnects"));
    put("core.server.degradations", d("server.stat_degradations"));
    put(
        "core.server.deferred_replies",
        d("server.stat_deferred_replies"),
    );
    put(
        "core.server.released_replies",
        d("server.stat_released_replies"),
    );

    put("core.nickv.arm_busy", s.arm_busy);
    put(
        "core.nickv.fanout_sends_per_set",
        ratio(d("nic.stat_fanout_sends"), sets),
    );
    put(
        "core.nickv.doorbells_per_set",
        ratio(d("nic.stat_doorbells"), sets),
    );
    put("core.nickv.commits", d("nic.stat_commits"));
    put("core.nickv.retransmits", d("nic.stat_retransmits"));
    put("core.nickv.failovers", d("nic.stat_failovers"));
    put("core.nickv.mode_changes", d("nic.stat_mode_changes"));

    put("core.client.issued", s.issued as f64);
    put("core.client.replies", s.replies as f64);
    put(
        "core.client.reconnects",
        s.total("client.stat_reconnects") as f64,
    );
    put(
        "core.client.err_share",
        ratio(s.failed() as f64, s.issued as f64),
    );
    put("core.client.set_samples", s.set.count as f64);
    put("core.client.get_samples", s.get.count as f64);
    put("core.client.sim_get_p50_us", s.get.p50_us);
    put("core.client.sim_get_p99_us", s.get.p99_us);
    put("core.client.sim_all_p999_us", s.all.p999_us);

    put("bench.reps", timed.len() as f64);
    put("bench.build_s", host(|r| r.host.build_s));
    put("bench.preload_s", host(|r| r.host.preload_s));
    put("bench.sync_warmup_s", host(|r| r.host.sync_warmup_s));
    put("bench.measure_s", measure_s);
    put("bench.drain_s", host(|r| r.host.drain_s));
    put("bench.verify_s", host(|r| r.host.verify_s));
    put(
        "bench.calibration_pass_s",
        host(|r| r.host.calibration_pass_s),
    );
    put("bench.sim_ops_per_host_s", ratio(ops, measure_s));
    put(
        "bench.replay_share",
        ratio(replayed_ns(s, rp), measure_s * 1e9),
    );
    put(
        "bench.trace_overhead",
        ratio(traced.host.measure_s, measure_s),
    );
    put("bench.phase_gap_share", gap_share);

    put("model.fig11_tput_gain", fig11.tput_gain);
    put("model.fig11_p99_cut", fig11.p99_cut);

    for r in &rp.all {
        put(&r.name.replace("{}", "ns"), r.ns);
        put(&r.name.replace("{}", "ucal"), r.ucal);
    }
    v
}
