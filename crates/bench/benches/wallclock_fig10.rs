//! Wall-clock: a full Figure-10-style cluster run (mixed GET/SET, 8
//! clients, 1 master + 3 slaves) for both the TCP baseline and SKV.
//! This is the end-to-end number — how long reproducing one figure data
//! point actually takes on the host.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use skv_bench::wallclock::fig10_style_spec;
use skv_core::cluster::run_spec;
use skv_core::config::Mode;
use std::time::Duration;

fn fig10_style(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_style");
    g.sample_size(5);
    for (name, mode) in [("redis-tcp", Mode::TcpRedis), ("skv", Mode::Skv)] {
        let spec = fig10_style_spec(mode, 0x10F1);
        // Elements = operations the run completes (runs are deterministic, so
        // one untimed run counts for every timed one): simulated ops per
        // host second in `BENCH_results.json`.
        g.throughput(Throughput::Elements(run_spec(spec.clone()).ops));
        g.bench_function(name, |b| {
            b.iter(|| {
                let report = run_spec(spec.clone());
                assert!(report.ops > 0, "figure-10-style run produced no operations");
                black_box(report.ops)
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(1))
        .measurement_time(Duration::from_millis(2_000))
        .sample_size(5);
    targets = fig10_style
}
criterion_main!(benches);
