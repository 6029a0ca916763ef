//! Criterion isolates of the functions no `benchmark/` layer replay times:
//! the event queue's two shapes, core-pool scheduling, the `Dict` and
//! `SkipList` primitives, the keyed hash and single-segment TCP reassembly.
//!
//! Ungated on purpose. Run-to-run medians of these arms move ±20–50 % on a
//! shared 2-core box (DESIGN.md §22), so they are for looking at one
//! function while changing it — build both commits, alternate the
//! binaries — and never a pass/fail number. Everything that gates or is
//! committed comes from `benchmark/` (`scripts/bench.sh`); RESP, engine,
//! RDB, backlog and MSS-segmented reassembly are timed there
//! (`benchmark/src/replay.rs`), calibration-normalised.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use skv_core::channel::Channel;
use skv_netsim::{Frame, TcpConnId};
use skv_simcore::{ActorId, CorePool, FnActor, SimDuration, SimTime, Simulation};
use skv_store::dict::Dict;
use skv_store::hash::siphash13;
use skv_store::sds::Sds;
use skv_store::skiplist::SkipList;

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
    const EVENTS: u64 = 100_000;
    let mut g = c.benchmark_group("event_loop");
    g.throughput(Throughput::Elements(EVENTS));
    // One pending event at a time: the floor the other is read against.
    g.bench_function("timer-chain", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(7);
            let actor = timer_chain(&mut sim);
            sim.schedule(SimTime::ZERO, actor, EVENTS);
            sim.run_to_completion();
            sim.now()
        });
    });
    // Each event answers with `K` zero-delay sends until `EVENTS` have been
    // scheduled: the same-instant pushes that make up ~45 % of a cluster
    // run's events and never enter the heap.
    g.bench_function("same-instant-burst", |b| {
        const K: u64 = 4;
        b.iter(|| {
            let mut sim = Simulation::new(7);
            let mut left = EVENTS - 1;
            let actor = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
                let me = ctx.id();
                for _ in 0..K.min(left) {
                    ctx.send(me, ());
                }
                left -= K.min(left);
            })));
            sim.schedule(SimTime::ZERO, actor, ());
            sim.run_to_completion();
            assert_eq!(sim.events_processed(), EVENTS);
            sim.now()
        });
    });
    g.finish();
}

fn corepool(c: &mut Criterion) {
    let mut g = c.benchmark_group("simcore");
    g.throughput(Throughput::Elements(1));
    g.bench_function("corepool_run_on", |b| {
        let mut pool = CorePool::new(8, 1.0);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimDuration::from_nanos(100);
            black_box(pool.run_any(t, SimDuration::from_nanos(250)))
        });
    });
    g.finish();
}

fn dict(c: &mut Criterion) {
    const KEYS: u64 = 10_000;
    let mut g = c.benchmark_group("dict");
    g.throughput(Throughput::Elements(1));
    g.bench_function("insert", |b| {
        let mut d: Dict<u64> = Dict::new();
        let mut i = 0u64;
        b.iter(|| {
            let key = format!("key:{:08}", i % KEYS);
            d.insert(key.as_bytes(), i);
            i += 1;
        });
    });
    g.bench_function("get_hit", |b| {
        let mut d: Dict<u64> = Dict::new();
        for i in 0..KEYS {
            d.insert(format!("key:{i:08}").as_bytes(), i);
        }
        let mut i = 0u64;
        b.iter(|| {
            let key = format!("key:{:08}", i % KEYS);
            black_box(d.get(key.as_bytes()));
            i += 1;
        });
    });
    g.finish();
}

fn skiplist(c: &mut Criterion) {
    const MEMBERS: u64 = 10_000;
    let mut g = c.benchmark_group("skiplist");
    g.throughput(Throughput::Elements(1));
    g.bench_function("insert", |b| {
        let mut sl = SkipList::new(7);
        let mut i = 0u64;
        b.iter(|| {
            sl.insert(i as f64, Sds::from(format!("m{i:010}").as_str()));
            i += 1;
        });
    });
    g.bench_function("rank", |b| {
        let mut sl = SkipList::new(7);
        for i in 0..MEMBERS {
            sl.insert(i as f64, Sds::from(format!("m{i:06}").as_str()));
        }
        let mut i = 0u64;
        b.iter(|| {
            let m = format!("m{:06}", i % MEMBERS);
            black_box(sl.rank((i % MEMBERS) as f64, m.as_bytes()));
            i += 1;
        });
    });
    g.finish();
}

fn primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("primitives");
    let data = vec![0xABu8; 64];
    g.throughput(Throughput::Bytes(64));
    g.bench_function("siphash13", |b| {
        b.iter(|| black_box(siphash13(&data)));
    });
    g.finish();
}

/// 512 tagged 4 KiB frames delivered as one segment: the zero-copy fast
/// path (`benchmark/` replays the MSS-segmented, buffered one).
fn channel(c: &mut Criterion) {
    const FRAMES: u32 = 512;
    const PAYLOAD: u32 = 4096;
    let payload = vec![0xA5u8; PAYLOAD as usize];
    let mut wire = Vec::new();
    for tag in 0..FRAMES {
        wire.extend_from_slice(&tag.to_le_bytes());
        wire.extend_from_slice(&PAYLOAD.to_le_bytes());
        wire.extend_from_slice(&payload);
    }
    let wire = Frame::from(wire);

    let mut g = c.benchmark_group("channel");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("tcp-reassembly-burst", |b| {
        b.iter(|| {
            let mut rx = Channel::tcp(TcpConnId(1));
            let got = rx.on_tcp_bytes(wire.clone());
            assert_eq!(got.len(), FRAMES as usize);
            black_box(got.len())
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    targets = event_loop, corepool, dict, skiplist, primitives, channel
}
criterion_main!(benches);
