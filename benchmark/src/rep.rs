//! One repetition of a workload: build → preload → run to `measure_from`
//! (together: set-up) → the measurement window in [`SLICES`] equal
//! simulated-time slices, a calibration pass before each and after the
//! last → drain → verify.
//!
//! Everything in [`SimStats`] is a function of the seed alone and must
//! repeat bit-for-bit from rep to rep; only [`HostStats`] varies.

use std::collections::BTreeMap;
use std::time::Duration;

use skv_core::cluster::Cluster;
use skv_simcore::stats::{Counters, Histogram};
use skv_simcore::SimDuration;

use crate::json::Json;
use crate::trace::Tracer;
use crate::workloads::{Check, Workload};
use crate::{alloc, cal};

/// Measurement slices per window; host time is normalised slice by slice
/// against the calibration passes on either side.
pub const SLICES: u64 = 20;

/// One latency histogram, summarised. Percentiles are interpolated inside
/// the histogram's bucket (see [`quantile_us`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    pub count: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
}

impl Latency {
    fn of(h: &Histogram) -> Latency {
        Latency {
            count: h.count(),
            p50_us: quantile_us(h, 0.50),
            p99_us: quantile_us(h, 0.99),
            p999_us: quantile_us(h, 0.999),
        }
    }
}

/// Quantile `q` of `h` in microseconds, interpolated linearly by rank
/// inside the log-linear bucket the public `Histogram::quantile` lands in.
///
/// `Histogram` only exposes bucket midpoints (256 ns steps at 30 µs), which
/// would quantise a p50 into jumps of ~1 % between seeds. The bucket's rank
/// range is recovered through the same public call by binary search, so no
/// simulator code changes. Returns 0 for an empty histogram.
pub fn quantile_us(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // `quantile((k - 0.5) / n)` is the bucket value of the k-th smallest
    // sample: ceil((k - 0.5) / n * n) = k with room for rounding.
    let at_rank = |k: u64| h.quantile((k as f64 - 0.5) / n as f64);
    let target = ((q * n as f64).ceil() as u64).clamp(1, n);
    let value = at_rank(target);
    // First and last rank that land in the same bucket as `target`.
    let (mut lo, mut hi) = (1, target);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if at_rank(mid) == value {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (target, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if at_rank(mid) == value {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let last = lo;
    // Bucket bounds, mirroring the histogram's layout: exact below 128,
    // then 64 linear sub-buckets per power of two.
    let (floor, width) = if value < 128 {
        (value, 1)
    } else {
        let shift = (63 - value.leading_zeros()) - 6;
        ((value >> shift) << shift, 1u64 << shift)
    };
    let floor = floor.max(h.min());
    let ceil = (floor + width).min(h.max() + 1);
    let share = (target - first) as f64 + 0.5;
    let ns = floor as f64 + (ceil - floor) as f64 * share / (last - first + 1) as f64;
    ns / 1000.0
}

/// Simulated statistics of one rep — exact for a fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Operations completed inside the window.
    pub ops: u64,
    /// Error replies inside the window.
    pub errors: u64,
    /// Requests the clients issued over the whole rep / replies they got
    /// back by the end of the drain.
    pub issued: u64,
    pub replies: u64,
    pub set: Latency,
    pub get: Latency,
    pub all: Latency,
    /// Simulated length of the window in seconds.
    pub window_s: f64,
    /// Events the engine processed inside the window.
    pub events: u64,
    /// Counter deltas over the window.
    window: BTreeMap<&'static str, u64>,
    /// Counter values at the end of the rep (after the drain).
    totals: BTreeMap<&'static str, u64>,
    /// Simulated busy share of the master's core 0 / mean over the SoC's
    /// ARM cores, over the window.
    pub core0_busy: f64,
    pub arm_busy: f64,
    /// Commands per master shard inside the window.
    pub master_shard_ops: Vec<u64>,
    pub has_nic: bool,
    /// Keyspace digests after the drain, master first.
    pub digests: Vec<u64>,
    /// Allocation calls and bytes inside the window (all slices).
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Peak live heap bytes over the rep, above what was live at its start.
    pub peak_live_bytes: u64,
}

impl SimStats {
    /// A counter's growth over the measurement window.
    pub fn delta(&self, name: &str) -> u64 {
        self.window.get(name).copied().unwrap_or(0)
    }

    /// A counter's value at the end of the rep.
    pub fn total(&self, name: &str) -> u64 {
        self.totals.get(name).copied().unwrap_or(0)
    }

    /// Requests that never got a good reply: error replies plus requests
    /// still unanswered after the drain.
    pub fn failed(&self) -> u64 {
        self.errors + self.issued.saturating_sub(self.replies)
    }
}

/// Host-side measurements of one rep.
#[derive(Debug, Clone)]
pub struct HostStats {
    pub build_s: f64,
    pub preload_s: f64,
    pub sync_warmup_s: f64,
    /// Sum of the slices' host time (calibration passes excluded).
    pub measure_s: f64,
    pub drain_s: f64,
    pub verify_s: f64,
    /// Mean calibration pass.
    pub calibration_pass_s: f64,
    /// Per slice: host time ÷ mean of the two adjacent calibration passes,
    /// i.e. the slice's host cost in calibration passes. Slice `i` does the
    /// same simulated work in every rep.
    pub slice_cal: Vec<f64>,
}

impl HostStats {
    /// Set-up time in reference seconds: host seconds scaled by how much
    /// faster or slower than the reference machine the calibration passes
    /// of this rep ran, so a frequency step or a noisy neighbour between
    /// two runs does not read as a set-up regression.
    /// The window's host cost in calibration passes.
    pub fn measure_cal(&self) -> f64 {
        self.slice_cal.iter().sum()
    }

    pub fn setup_s(&self) -> f64 {
        (self.build_s + self.preload_s + self.sync_warmup_s)
            * (cal::REFERENCE_PASS_S / self.calibration_pass_s)
    }
}

pub struct Rep {
    pub sim: SimStats,
    pub host: HostStats,
    pub checks: Vec<Check>,
}

impl Rep {
    /// This rep's own `host_cal_per_kop`.
    pub fn cal_per_kop(&self) -> f64 {
        self.host.measure_cal() / (self.sim.ops as f64 / 1000.0)
    }
}

/// Readings taken at a window boundary.
struct Boundary {
    counters: Counters,
    events: u64,
    core0_busy_ns: f64,
    arm_busy_ns: f64,
    shard_ops: Vec<u64>,
}

impl Boundary {
    fn take(cluster: &Cluster) -> Boundary {
        let now = cluster.sim.now();
        let now_ns = now.as_nanos() as f64;
        let master = cluster.master_server();
        Boundary {
            counters: cluster.counters_snapshot(),
            events: cluster.sim.events_processed(),
            core0_busy_ns: master.core0_utilization(now) * now_ns,
            arm_busy_ns: cluster
                .nic_kv()
                .map_or(0.0, |nic| nic.mean_utilization(now) * now_ns),
            shard_ops: master.shard_ops().to_vec(),
        }
    }
}

fn counters_json(c: &Counters) -> Json {
    Json::obj(c.iter().map(|(k, v)| (k, Json::from(v))))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run one rep of `wl`. `window_div` shrinks the simulated windows
/// (`--smoke`); spans and boundary counters land in `tr` when it is on.
pub fn run(wl: &Workload, seed: u64, window_div: u64, tr: &mut Tracer) -> Rep {
    let live_at_start = alloc::reset_peak();
    let rep = tr.open(|| "rep".into());

    let t = tr.open(|| "build".into());
    let mut cluster = Cluster::build(wl.spec(seed, window_div));
    wl.schedule_faults(&mut cluster);
    let build = tr.close(t);

    let t = tr.open(|| "preload".into());
    wl.preload(&mut cluster);
    let preload = tr.close(t);

    let t = tr.open(|| "sync_warmup".into());
    cluster.sim.run_until(cluster.measure_from);
    let sync_warmup = tr.close(t);

    let t = tr.open(|| "measure".into());
    let before = Boundary::take(&cluster);
    tr.counters(|| "measure_from".into(), || counters_json(&before.counters));
    let window = cluster.measure_until - cluster.measure_from;
    let slice_ns = window.as_nanos() / SLICES;
    let mut cal_prev = cal::traced_pass(tr);
    let mut cal_sum = cal_prev;
    let (mut measure, mut slice_cal) = (Duration::ZERO, Vec::new());
    let (mut allocs, mut alloc_bytes) = (0, 0);
    for i in 1..=SLICES {
        let until = if i == SLICES {
            cluster.measure_until
        } else {
            cluster.measure_from + SimDuration::from_nanos(slice_ns * i)
        };
        let s = tr.open(|| format!("slice-{i}"));
        let heap = alloc::snapshot();
        cluster.sim.run_until(until);
        let heap_after = alloc::snapshot();
        let took = tr.close(s);
        allocs += heap_after.calls - heap.calls;
        alloc_bytes += heap_after.bytes - heap.bytes;
        tr.counters(
            || format!("slice-{i}"),
            || counters_json(&cluster.counters_snapshot()),
        );
        let cal_next = cal::traced_pass(tr);
        measure += took;
        slice_cal.push(secs(took) / (0.5 * (secs(cal_prev) + secs(cal_next))));
        cal_sum += cal_next;
        cal_prev = cal_next;
    }
    let after = Boundary::take(&cluster);
    tr.close(t);

    let t = tr.open(|| "drain".into());
    cluster
        .sim
        .run_until(cluster.measure_until + SimDuration::from_millis(wl.drain_ms));
    let drain = tr.close(t);

    let t = tr.open(|| "verify".into());
    let totals = cluster.counters_snapshot();
    tr.counters(|| "drained".into(), || counters_json(&totals));
    let hub = cluster.metrics.borrow();
    let window_ns = window.as_nanos() as f64;
    let sim = SimStats {
        ops: hub.ops,
        errors: hub.errors,
        issued: totals.get("client.stat_issued"),
        replies: totals.get("client.stat_replies"),
        set: Latency::of(&hub.set_latency),
        get: Latency::of(&hub.get_latency),
        all: Latency::of(&hub.all_latency),
        window_s: window.as_secs_f64(),
        events: after.events - before.events,
        window: after
            .counters
            .iter()
            .map(|(k, v)| (k, v.saturating_sub(before.counters.get(k))))
            .collect(),
        totals: totals.iter().collect(),
        core0_busy: (after.core0_busy_ns - before.core0_busy_ns) / window_ns,
        arm_busy: (after.arm_busy_ns - before.arm_busy_ns) / window_ns,
        master_shard_ops: after
            .shard_ops
            .iter()
            .zip(&before.shard_ops)
            .map(|(a, b)| a - b)
            .collect(),
        has_nic: cluster.nic_kv().is_some(),
        digests: cluster.keyspace_digests(),
        allocs,
        alloc_bytes,
        peak_live_bytes: alloc::peak_live_bytes() - live_at_start,
    };
    drop(hub);
    let mut checks = vec![
        Check::new(
            "replicas converged",
            sim.digests.windows(2).all(|d| d[0] == d[1]),
            format!("keyspace digests {:x?}", sim.digests),
        ),
        Check::new("ops completed", sim.ops > 0, format!("ops = {}", sim.ops)),
        Check::new(
            "no operation failed",
            sim.failed() == 0,
            format!(
                "{} error replies, {} issued, {} replies after the drain",
                sim.errors, sim.issued, sim.replies
            ),
        ),
    ];
    checks.extend(wl.mechanism_checks(&sim));
    let verify = tr.close(t);
    let t = tr.open(|| "teardown".into());
    drop(cluster);
    tr.close(t);
    tr.close(rep);

    let host = HostStats {
        build_s: secs(build),
        preload_s: secs(preload),
        sync_warmup_s: secs(sync_warmup),
        measure_s: secs(measure),
        drain_s: secs(drain),
        verify_s: secs(verify),
        calibration_pass_s: secs(cal_sum) / (SLICES + 1) as f64,
        slice_cal,
    };
    Rep { sim, host, checks }
}
