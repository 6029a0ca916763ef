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

use skv_core::cluster::{Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::replmode::ReplModeKind;
use skv_simcore::{FramePool, SimDuration};
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
/// four nodes and costs 11 simulator events (one boxed payload each — the
/// 8 completion notifies among its 19 dispatches reuse the box of the
/// arrival that causes them, DESIGN.md §24; the client's zero-sized think
/// timer boxes nothing); an overwrite rewrites the stored value in place,
/// and the command, reply and stream frames reuse their pooled `Rc`
/// headers, so everything else on the path must fit in the rest of the
/// budget: 11.1 measured. Before the borrowed command path this was ≈ 102
/// allocations per op; before the in-place store, 19.1; before pooled
/// headers, 14.1.
#[test]
fn set_fanout_stays_within_its_allocation_budget() {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = 3;
    let (allocs, _) = per_op(spec(cfg, 8, 1, 64, 250));
    assert!(
        allocs <= 12.0,
        "{allocs:.1} allocations per SET on the fan-out path (budget 12)"
    );
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
