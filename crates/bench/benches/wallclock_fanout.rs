//! Wall-clock: N-slave replication fan-out. Pure SET with 4 KiB values so
//! per-replica payload handling dominates host CPU; the sweep shows how
//! the cost of one simulated run scales with the replica count. This is
//! the headline number for the zero-copy frame pipeline (refcount bumps
//! per slave instead of payload clones) and for the doorbell-batched
//! post-list path, where one fabric call carries the whole fan-out (the
//! arms keep their `skv-batched-slaves-*` names from when a serial
//! `skv-slaves-*` twin ran beside them, so `BENCH_results.json` history
//! lines up). The `skv-value-*` arms sweep the payload from 64 B to
//! 64 KiB at a fixed fan-out, exercising the pooled send rings across
//! frame sizes.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use skv_bench::wallclock::{fanout_spec, fanout_spec_sized, smoke};
use skv_core::cluster::run_spec;
use skv_core::config::Mode;
use std::time::Duration;

fn fanout(c: &mut Criterion) {
    let sweep: &[usize] = if smoke() { &[1, 5] } else { &[1, 5, 10] };
    let values: &[usize] = if smoke() {
        &[64, 4096]
    } else {
        &[64, 1024, 4096, 16384, 65536]
    };
    let mut g = c.benchmark_group("fanout");
    g.sample_size(5);
    let arms = sweep
        .iter()
        .map(|&n| {
            let spec = fanout_spec(Mode::Skv, n, 0xFA0);
            (format!("skv-batched-slaves-{n}"), spec)
        })
        .chain(values.iter().map(|&size| {
            let spec = fanout_spec_sized(Mode::Skv, 5, size, 0xFA0);
            (format!("skv-value-{size}"), spec)
        }));
    for (name, spec) in arms {
        // Elements = operations the run completes (runs are deterministic, so
        // one untimed run counts for every timed one): simulated ops per
        // host second in `BENCH_results.json`.
        g.throughput(Throughput::Elements(run_spec(spec.clone()).ops));
        g.bench_function(&name, |b| {
            b.iter(|| {
                let report = run_spec(spec.clone());
                assert!(report.ops > 0, "fan-out run produced no operations");
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
    targets = fanout
}
criterion_main!(benches);
