//! Wall-clock: keyspace-shard sweep under a pipelined GET/SET workload.
//! Same spec per arm; only `num_shards` differs. The single-shard arm is
//! the historical engine (and must stay schedule-identical to it); the
//! sharded arms run hash-slot routing, per-shard CQs and the serialized
//! replication egress, so the sweep prices what the shard layer costs in
//! host CPU per simulated run.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use skv_bench::wallclock::shards_spec;
use skv_core::cluster::run_spec;
use std::time::Duration;

fn shards(c: &mut Criterion) {
    let mut g = c.benchmark_group("shards");
    g.sample_size(5);
    for num_shards in [1usize, 2, 4] {
        let spec = shards_spec(num_shards, 0x5EED);
        // Elements = operations the run completes (runs are deterministic, so
        // one untimed run counts for every timed one): simulated ops per
        // host second in `BENCH_results.json`.
        g.throughput(Throughput::Elements(run_spec(spec.clone()).ops));
        g.bench_function(&format!("skv-shards-{num_shards}"), |b| {
            b.iter(|| {
                let report = run_spec(spec.clone());
                assert!(report.ops > 0, "sharded run produced no operations");
                assert_eq!(report.errors, 0, "sharded run saw error replies");
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
    targets = shards
}
criterion_main!(benches);
