//! Wall-clock: raw discrete-event dispatch throughput of the simulation
//! engine. Every experiment in this repo is bounded by how fast the event
//! loop turns over, so this is the suite's canary for engine regressions.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use skv_bench::wallclock::smoke;
use skv_simcore::{ActorId, FnActor, SimDuration, SimTime, Simulation};
use std::time::Duration;

/// An actor that answers a `u64` count with a 100 ns timer carrying the
/// count minus one, until it reaches zero.
fn timer_chain(sim: &mut Simulation) -> ActorId {
    sim.add_actor(Box::new(FnActor::new(|ctx, _from, msg| {
        if let Ok(n) = msg.downcast::<u64>() {
            if *n > 0 {
                ctx.timer(SimDuration::from_nanos(100), *n - 1);
            }
        }
    })))
}

fn event_loop(c: &mut Criterion) {
    let events: u64 = if smoke() { 20_000 } else { 100_000 };
    let mut g = c.benchmark_group("event_loop");
    g.throughput(Throughput::Elements(events));
    g.bench_function("timer-chain", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(7);
            let actor = timer_chain(&mut sim);
            sim.schedule(SimTime::ZERO, actor, events);
            sim.run_to_completion();
            sim.now()
        });
    });
    // Each event answers with `K` zero-delay sends until `events` have been
    // scheduled: the same-instant pushes that make up ~45 % of a cluster
    // run's events and never enter the heap.
    g.bench_function("same-instant-burst", |b| {
        const K: u64 = 4;
        b.iter(|| {
            let mut sim = Simulation::new(7);
            let mut left = events - 1;
            let actor = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
                let me = ctx.id();
                for _ in 0..K.min(left) {
                    ctx.send(me, ());
                }
                left -= K.min(left);
            })));
            sim.schedule(SimTime::ZERO, actor, ());
            sim.run_to_completion();
            assert_eq!(sim.events_processed(), events);
            sim.now()
        });
    });
    // The timer chain again, under 8 192 timers parked beyond its end — a
    // backlogged NIC core's completion timers. Every push and pop of the
    // chain sifts through the 13 heap levels they occupy: the price of a
    // deep queue, which the same-instant lane does not touch.
    g.bench_function("deep-backlog", |b| {
        const PARKED: u64 = 8_192;
        b.iter(|| {
            let mut sim = Simulation::new(7);
            let actor = timer_chain(&mut sim);
            let horizon = SimTime::from_nanos(100 * events);
            for i in 0..PARKED {
                sim.schedule(horizon + SimDuration::from_nanos(i), actor, 0u64);
            }
            sim.schedule(SimTime::ZERO, actor, events - PARKED - 1);
            sim.run_to_completion();
            assert_eq!(sim.events_processed(), events);
            sim.now()
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1_500))
        .sample_size(10);
    targets = event_loop
}
criterion_main!(benches);
