//! Wall-clock: replication-protocol sweep at a fixed 3-slave fan-out.
//! Same SET workload per arm; only the `ReplModeKind` differs. The
//! async arm is the pre-existing stream path (the cost floor), quorum adds
//! per-write WR-ack tracking plus deferred-reply release on the master,
//! and chain serializes each write through hop timers and applied-ack
//! advancement — the sweep keeps the tracked modes' host-CPU overhead
//! honest relative to the stream they wrap.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use skv_bench::wallclock::replmode_spec;
use skv_core::cluster::run_spec;
use skv_core::replmode::ReplModeKind;
use std::time::Duration;

fn replmode(c: &mut Criterion) {
    let mut g = c.benchmark_group("replmode");
    g.sample_size(5);
    for mode in ReplModeKind::ALL {
        g.bench_function(&format!("skv-{}", mode.label()), |b| {
            b.iter(|| {
                let report = run_spec(replmode_spec(mode, 0x5EED));
                assert!(report.ops > 0, "replmode run produced no operations");
                assert_eq!(report.errors, 0, "replmode run saw error replies");
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
    targets = replmode
}
criterion_main!(benches);
