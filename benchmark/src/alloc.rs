//! Counting global allocator: allocation calls, bytes requested, live
//! bytes and their peak, with an on/off switch.
//!
//! The only `unsafe` in the benchmark lives here; the simulator crates keep
//! `#![forbid(unsafe_code)]`.
//!
//! The benchmark is one process with one thread (simulated clients are
//! actors, not host threads), so the counters are updated with plain
//! relaxed load/store pairs instead of atomic read-modify-writes: that
//! costs two moves per update instead of a locked instruction. A second
//! thread would lose counts — it could never corrupt memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The process allocator: `System` plus the counters below.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

#[inline]
fn bump(counter: &AtomicU64, by: u64) -> u64 {
    let v = counter.load(Relaxed).wrapping_add(by);
    counter.store(v, Relaxed);
    v
}

#[inline]
fn grew(size: usize) {
    bump(&CALLS, 1);
    bump(&BYTES, size as u64);
    let live = bump(&LIVE, size as u64);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

#[inline]
fn shrank(size: usize) {
    // Saturating: a block allocated while counting was off may be freed
    // while it is on.
    LIVE.store(LIVE.load(Relaxed).saturating_sub(size as u64), Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only the
// statics above and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            shrank(layout.size());
        }
        // SAFETY: `ptr` came from this allocator with this `layout`, i.e.
        // from `System`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System` via this allocator and
        // the caller guarantees `new_size` is valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ON.load(Relaxed) {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// A reading of the counters.
#[derive(Clone, Copy)]
pub struct Snapshot {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// Turn counting on or off.
pub fn set_enabled(on: bool) {
    ON.store(on, Relaxed);
}

/// Counting is suspended while this guard lives: the benchmark's own
/// instruments (calibration kernel, span recorder) use it so that they
/// never show up in a workload's allocation metrics.
pub struct Paused {
    was_on: bool,
}

/// Suspend counting until the returned guard is dropped.
pub fn pause() -> Paused {
    Paused {
        was_on: ON.swap(false, Relaxed),
    }
}

impl Drop for Paused {
    fn drop(&mut self) {
        ON.store(self.was_on, Relaxed);
    }
}

/// Read the cumulative call and byte counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restart peak tracking from the current live size, which is returned.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Highest live byte count since the last [`reset_peak`].
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Relaxed)
}
