//! Allocation budget of the steady-state command path.
//!
//! The command path allocates per *message* — an event; pooled frames reuse
//! their headers — never per argument and never per completion: commands
//! are parsed in place out of their delivery frame, CQ drains poll into a
//! reused WC array, replies are encoded into pooled send rings, and the
//! one copy of a value is the store's — made when a key is new or its value
//! outgrows (or shrinks well below) the buffer it has, never for an
//! overwrite of a similar size. These tests pin that with a counting allocator:
//! a regression that brings back a `Vec<Vec<u8>>` per command or a
//! `Vec<Wc>` per drain shows up as a count, not as a slower benchmark.
//!
//! The allocator counts per thread, so the tests can run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use skv_core::cluster::{Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::replmode::ReplModeKind;
use skv_netsim::{Frame, Net, NetEvent, NetParams, SendWr, SocketAddr, Topology};
use skv_simcore::{FnActor, FramePool, SimDuration, Simulation};
use skv_store::engine::Engine;
use skv_store::object::RObj;
use skv_store::resp::Resp;

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Allocations of at least [`BIG`] bytes.
    static BIG_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Size from which an allocation counts as "value-sized" in the `SET`
/// copy tests.
const BIG: usize = 4096;

fn count(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when they can no longer be touched.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    if size >= BIG {
        let _ = BIG_CALLS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only the
// thread-local counters above and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`, i.e.
        // from `System`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` came from `System` via this allocator and
        // the caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(calls, bytes)` allocated by this thread so far.
fn heap() -> (u64, u64) {
    (CALLS.with(Cell::get), BYTES.with(Cell::get))
}

/// The benchmark's closed-loop shape: 10 000 keys, 20 ms of client
/// warm-up, then a measured window of `measure_ms`.
fn spec(
    cfg: ClusterConfig,
    clients: usize,
    pipeline: usize,
    value_size: usize,
    measure_ms: u64,
) -> RunSpec {
    RunSpec {
        cfg,
        num_clients: clients,
        pipeline,
        set_ratio: 1.0,
        mset_keys: 0,
        value_size,
        key_space: 10_000,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
        warmup: SimDuration::from_millis(20),
        measure: SimDuration::from_millis(measure_ms),
        seed: 42,
    }
}

/// Run `spec` and return `(allocations, bytes)` per operation completed in
/// the measurement window, counted over exactly that window (connections,
/// syncs, pools and the keyspace are warm by `measure_from`).
fn per_op(spec: RunSpec) -> (f64, f64) {
    let mut cluster = Cluster::build(spec);
    cluster.sim.run_until(cluster.measure_from);
    let (calls, bytes) = heap();
    cluster.sim.run_until(cluster.measure_until);
    let (calls_after, bytes_after) = heap();
    let ops = cluster.metrics.borrow().ops;
    assert!(ops > 5_000, "need a real steady state, saw {ops} ops");
    let digests = {
        cluster.run();
        cluster.keyspace_digests()
    };
    assert!(
        digests.windows(2).all(|d| d[0] == d[1]),
        "replicas diverged: {digests:x?}"
    );
    (
        (calls_after - calls) as f64 / ops as f64,
        (bytes_after - bytes) as f64 / ops as f64,
    )
}

/// The Fig. 11 operating point (the benchmark's `set-fanout`): SKV, three
/// slaves, 8 closed-loop clients, 64-byte SETs. One SET is executed on
/// four nodes and costs 11 simulator events and 5 handoffs, and every one
/// of them travels in a box the event queue recycles: each receiver opens
/// its message and hands the box back (the client's zero-sized think timer
/// boxes nothing). An overwrite rewrites the stored value in place, and the
/// command, reply and stream frames reuse their pooled `Rc` headers. What
/// is left is keyspace growth — a key stored for the first time on each of
/// the four nodes (its entry, its copy of the value) and the `Dict` bucket
/// and rehash pushes that make room for it: 1.1 measured. Before the
/// borrowed command path this was ≈ 102 allocations per op; before the
/// in-place store, 19.1; before pooled headers, 14.1; before recycled
/// event boxes, 11.1.
#[test]
fn set_fanout_stays_within_its_allocation_budget() {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = 3;
    let (allocs, _) = per_op(spec(cfg, 8, 1, 64, 250));
    assert!(
        allocs <= 2.0,
        "{allocs:.1} allocations per SET on the fan-out path (budget 2)"
    );
}

/// A message that is not zero-sized, so its boxes go through the event
/// queue's free list.
#[derive(Default)]
struct Hop(u32);

/// A send, a `timer_at` and a handoff of a message type the queue has seen
/// before, each received through `Context::open`: every push finds a
/// recycled box, so a warm round trip allocates nothing.
#[test]
fn warm_event_round_trip_allocates_nothing() {
    let mut sim = Simulation::new(1);
    let me = sim.add_actor(Box::new(FnActor::new(|ctx, _from, msg| {
        let Ok(hop) = msg.downcast::<Hop>() else {
            return;
        };
        let me = ctx.id();
        match ctx.open(hop) {
            Hop(0) => ctx.send(me, Hop(1)),
            Hop(1) => ctx.timer_at(ctx.now() + SimDuration::from_nanos(10), Hop(2)),
            Hop(2) => ctx.handoff(me, Hop(3)),
            Hop(_) => {}
        }
    })));
    let mut round = || {
        sim.schedule(sim.now(), me, Hop(0));
        sim.run_to_completion();
    };
    round();
    let (calls, _) = heap();
    for _ in 0..1_000 {
        round();
    }
    assert_eq!(heap().0 - calls, 0, "a warm event round trip allocated");
    assert_eq!((sim.events_processed(), sim.handoffs()), (3_003, 1_001));
}

/// One RDMA message end to end on a warm fabric: post a WRITE_WITH_IMM,
/// let it arrive, take the completion notify, drain the CQ, repost the
/// receive and re-arm. The wire record's box carries the notify, and both
/// endpoints open what they receive, so nothing on the way allocates.
#[test]
fn warm_rdma_round_trip_allocates_nothing() {
    let mut sim = Simulation::new(1);
    let mut topo = Topology::new();
    let (a, b) = (topo.add_host(), topo.add_host());
    let net = Net::install(&mut sim, topo, NetParams::default());
    let addr = SocketAddr::new(b, 6379);
    let ring = net.register_mr_without_contents(b, 4096);
    let received = Rc::new(Cell::new(0u64));

    let (fabric, seen) = (net.clone(), received.clone());
    let mut wcs = Vec::with_capacity(8);
    let server = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
        let Ok(ev) = msg.downcast::<NetEvent>() else {
            return;
        };
        match ctx.open(ev) {
            NetEvent::CmConnectRequest { req, .. } => {
                let cq = fabric.create_cq(ctx.id());
                let qp = fabric.rdma_accept(ctx, req, cq).expect("a fresh request");
                fabric.post_recv(qp, 0).expect("an open QP");
                fabric.req_notify_cq(ctx, cq);
            }
            NetEvent::CqNotify { cq } => {
                fabric.poll_cq_into(cq, 8, &mut wcs);
                for wc in wcs.drain(..) {
                    seen.set(seen.get() + u64::try_from(wc.data.len()).unwrap_or(0));
                    fabric.post_recv(wc.qp, 0).expect("an open QP");
                }
                fabric.req_notify_cq(ctx, cq);
            }
            _ => {}
        }
    })));
    net.rdma_listen(addr, server);

    let (fabric, payload) = (net.clone(), Frame::from(vec![7u8; 64]));
    let mut qp = None;
    let client = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
        let msg = match msg.downcast::<NetEvent>() {
            Ok(ev) => {
                if let NetEvent::CmEstablished {
                    qp: established, ..
                } = ctx.open(ev)
                {
                    qp = Some(established);
                }
                return;
            }
            Err(other) => other,
        };
        if let (Ok(hop), Some(qp)) = (msg.downcast::<Hop>(), qp) {
            ctx.open(hop);
            let wr = SendWr::write_imm(1, ring, 0, 0, payload.clone()).unsignaled();
            fabric.post_send(ctx, qp, wr).expect("an open QP");
        }
    })));
    let fabric = net.clone();
    let dialer = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
        let cq = fabric.create_cq(client);
        fabric.req_notify_cq(ctx, cq);
        fabric.rdma_connect(ctx, a, client, cq, addr);
    })));
    sim.schedule(sim.now(), dialer, ());
    sim.run_to_completion();

    let mut round = || {
        sim.schedule(sim.now(), client, Hop(0));
        sim.run_to_completion();
    };
    round();
    let (calls, _) = heap();
    for _ in 0..1_000 {
        round();
    }
    assert_eq!(heap().0 - calls, 0, "a warm RDMA round trip allocated");
    assert_eq!(received.get(), 1_001 * 64, "every message arrived");
}

/// A warm `FramePool` hands out the header and bytes it got back: building
/// a frame, viewing it by clone, `slice` and `split_to`, and dropping every
/// view allocates nothing.
#[test]
fn warm_frame_pool_round_trip_allocates_nothing() {
    let pool = FramePool::new(64, 4);
    let round = |i: u8| {
        let mut frame = pool.build(|b| b.extend_from_slice(&[i; 48]));
        let copy = frame.clone();
        let tail = copy.slice(16..);
        let head = frame.split_to(8);
        assert_eq!(head.len() + frame.len(), tail.len() + 16);
    };
    round(0);
    let (calls, _) = heap();
    for i in (0..=u8::MAX).cycle().take(1_000) {
        round(i);
    }
    assert_eq!(heap().0 - calls, 0, "a warm pooled round trip allocated");
    assert_eq!(pool.misses(), 1);
}

/// Quorum replication of 4 KiB values (the benchmark's `quorum-4k`): the
/// backlog and the wire frames that carry the value copy it, the stores
/// overwrite warm keys in place, and no hop that merely looks at it copies
/// it once more: 3 133 B measured. The window is the benchmark's 200 ms:
/// a 100 ms one reads 5.1 KB, because more of its SETs reach a key for the
/// first time and pay four store copies. Before: ≈ 67 KB allocated per op;
/// before the in-place store, ≈ 18 KB.
#[test]
fn quorum_4k_stays_within_5_kb_per_op() {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = 3;
    cfg.repl_mode = ReplModeKind::Quorum;
    let (_, bytes) = per_op(spec(cfg, 4, 4, 4096, 200));
    assert!(
        bytes <= 5_000.0,
        "{bytes:.0} bytes allocated per 4 KiB quorum SET (budget 5 000)"
    );
}

/// Value-sized allocations `engine` makes for one command.
fn big_copies<A: AsRef<[u8]>>(engine: &mut Engine, args: &[A]) -> u64 {
    let before = BIG_CALLS.with(Cell::get);
    engine.execute(0, args);
    BIG_CALLS.with(Cell::get) - before
}

/// `SET k <4 KiB>` of a new key copies the value once — into the object
/// the keyspace keeps — whether the arguments arrive owned or borrowed.
/// (`RObj::string` used to build a throw-away copy just to test for an
/// integer.)
#[test]
fn set_copies_the_value_exactly_once() {
    let mut engine = Engine::new(7);
    let value = vec![b'v'; BIG];
    let owned = [b"SET".to_vec(), b"k".to_vec(), value.clone()];
    let borrowed: [&[u8]; 3] = [b"SET", b"k2", &value];

    assert_eq!(big_copies(&mut engine, &owned), 1, "owned arguments");
    assert_eq!(big_copies(&mut engine, &borrowed), 1, "borrowed arguments");
}

/// Overwriting a string with one of the same size rewrites the buffer the
/// key already has: no value-sized allocation at all.
#[test]
fn set_overwrite_of_the_same_size_copies_nothing() {
    let mut engine = Engine::new(7);
    assert_eq!(
        big_copies(&mut engine, &[&b"SET"[..], b"k", &[b'a'; BIG]]),
        1
    );
    assert_eq!(
        big_copies(&mut engine, &[&b"SET"[..], b"k", &[b'b'; BIG]]),
        0
    );
    assert_eq!(
        engine.execute(0, &[&b"GET"[..], b"k"]).reply,
        Resp::Bulk(vec![b'b'; BIG])
    );
}

/// A short value does not inherit a long one's buffer: the keyspace never
/// pins more than twice the bytes it stores.
#[test]
fn set_of_a_short_value_lets_the_big_buffer_go() {
    let mut engine = Engine::new(7);
    engine.execute(0, &[&b"SET"[..], b"k", &[b'a'; BIG]]);
    engine.execute(0, &[&b"SET"[..], b"k", b"x"]);
    let kept = match engine.db().iter().find(|(key, _)| *key == b"k") {
        Some((_, RObj::Str(s))) => (s.as_bytes().to_vec(), s.capacity()),
        other => panic!("{other:?}"),
    };
    assert_eq!(kept, (b"x".to_vec(), 1), "an exact-size copy");
}
