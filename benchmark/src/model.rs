//! The model's drift gauge against the paper's Figure 11.
//!
//! The simulator's cost parameters were *calibrated* to the paper's
//! figures, not validated on hardware, and `EXPERIMENTS.md` still prints
//! numbers from an earlier calibration (311 vs 271 kops/s). These two
//! ratios, measured at the `set-fanout` operating point, show how far the
//! model has drifted: the paper reports SKV +14 % SET throughput and −21 %
//! p99 latency over RDMA-Redis at three slaves.

use skv_core::cluster::Cluster;
use skv_core::config::Mode;
use skv_simcore::SimDuration;

use crate::rep::quantile_us;
use crate::workloads::set_fanout_spec;

/// Simulated window of each of the two gauge runs.
const WINDOW_MS: u64 = 150;

pub struct Fig11 {
    /// SKV throughput ÷ RDMA-Redis throughput − 1 (paper: +0.14).
    pub tput_gain: f64,
    /// 1 − SKV p99 ÷ RDMA-Redis p99 (paper: 0.21).
    pub p99_cut: f64,
}

fn kops_and_p99(mode: Mode, seed: u64) -> (f64, f64) {
    let mut spec = set_fanout_spec(mode);
    spec.measure = SimDuration::from_millis(WINDOW_MS);
    spec.seed = seed;
    let mut cluster = Cluster::build(spec);
    let report = cluster.run();
    let p99 = quantile_us(&cluster.metrics.borrow().all_latency, 0.99);
    (report.throughput_kops, p99)
}

pub fn fig11(seed: u64) -> Fig11 {
    let (skv_kops, skv_p99) = kops_and_p99(Mode::Skv, seed);
    let (rdma_kops, rdma_p99) = kops_and_p99(Mode::RdmaRedis, seed);
    Fig11 {
        tput_gain: skv_kops / rdma_kops - 1.0,
        p99_cut: 1.0 - skv_p99 / rdma_p99,
    }
}
