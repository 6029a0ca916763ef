//! Frame-pooled send rings: a slab of reusable byte buffers.
//!
//! `Channel::send` used to allocate one wire frame per message; at
//! millions of ops this is the send side's last steady-state allocation
//! (the receive path went zero-copy in the frame-pipeline PR). A
//! [`FramePool`] removes it: senders borrow a recycled ring buffer, build
//! the wire frame in place, and hand it around as an ordinary [`Frame`]
//! view. When the last view drops — i.e. when the send has *completed*
//! and every receiver has let go — the allocation flows back into the
//! pool automatically via the frame storage's drop hook, exactly like a
//! hardware send ring whose slot is reusable once the WQE completes.
//!
//! Determinism note: the free list is a LIFO `Vec` and every borrow /
//! return follows the deterministic event schedule, so buffer reuse order
//! is itself deterministic — and, like `Frame`, the pool exposes nothing
//! about allocation (no addresses, no capacities) to simulated code, so
//! pooling cannot change simulated outcomes, only host wall-clock cost.
//!
//! The hit/miss/recycle counters are observability for tests and benches
//! (the steady-state send path is asserted allocation-free by checking
//! the hit rate), not part of any simulated cost model.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::frame::Frame;

/// Shared interior of a [`FramePool`]: the free slab plus counters.
/// Frame storages hold a `Weak` back-reference so buffers outliving the
/// pool are simply freed instead of kept alive.
pub(crate) struct PoolShared {
    free: RefCell<Vec<Vec<u8>>>,
    max_free: usize,
    buf_capacity: usize,
    hits: Cell<u64>,
    misses: Cell<u64>,
    recycled: Cell<u64>,
}

fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}

impl PoolShared {
    /// Return a buffer to the slab (called from `Storage::drop`). Buffers
    /// whose bytes were stolen (`From<Frame> for Vec<u8>`) arrive with
    /// zero capacity and are not worth keeping; a full slab drops the
    /// buffer on the floor rather than grow without bound.
    pub(crate) fn give_back(&self, mut bytes: Vec<u8>) {
        if bytes.capacity() == 0 {
            return;
        }
        bytes.clear();
        let mut free = self.free.borrow_mut();
        if free.len() < self.max_free {
            free.push(bytes);
            bump(&self.recycled);
        }
    }
}

/// A slab of reusable send-ring buffers; see the module docs. Cloning the
/// handle shares the slab.
#[derive(Clone)]
pub struct FramePool {
    shared: Rc<PoolShared>,
}

impl FramePool {
    /// Create a pool that retains up to `max_free` idle buffers and
    /// allocates fresh ones with `buf_capacity` bytes of capacity (grown
    /// buffers keep their larger capacity when recycled).
    pub fn new(buf_capacity: usize, max_free: usize) -> FramePool {
        FramePool {
            shared: Rc::new(PoolShared {
                free: RefCell::new(Vec::new()),
                max_free,
                buf_capacity,
                hits: Cell::new(0),
                misses: Cell::new(0),
                recycled: Cell::new(0),
            }),
        }
    }

    /// Borrow a ring buffer, let `fill` build the wire frame in place,
    /// and return the result as a pooled [`Frame`]. The buffer arrives
    /// empty (capacity intact) and flows back into the pool when the last
    /// view over the frame drops.
    pub fn build(&self, fill: impl FnOnce(&mut Vec<u8>)) -> Frame {
        let mut bytes = self.take();
        fill(&mut bytes);
        Frame::from_pooled(bytes, Rc::downgrade(&self.shared))
    }

    /// Copy `bytes` into a pooled frame — the pooled analogue of
    /// [`Frame::copy_from_slice`].
    pub fn frame_from_slice(&self, bytes: &[u8]) -> Frame {
        self.build(|buf| buf.extend_from_slice(bytes))
    }

    fn take(&self) -> Vec<u8> {
        let recycled = self.shared.free.borrow_mut().pop();
        match recycled {
            Some(bytes) => {
                bump(&self.shared.hits);
                bytes
            }
            None => {
                bump(&self.shared.misses);
                Vec::with_capacity(self.shared.buf_capacity)
            }
        }
    }

    /// Borrows served from the slab (no allocation).
    pub fn hits(&self) -> u64 {
        self.shared.hits.get()
    }

    /// Borrows that had to allocate a fresh buffer.
    pub fn misses(&self) -> u64 {
        self.shared.misses.get()
    }

    /// Buffers returned to the slab so far.
    pub fn recycled(&self) -> u64 {
        self.shared.recycled.get()
    }

    /// Fraction of borrows served without allocating, in `[0, 1]`;
    /// `1.0` for an untouched pool.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Idle buffers currently in the slab.
    pub fn free_len(&self) -> usize {
        self.shared.free.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_returns_to_the_pool_when_the_last_view_drops() {
        let pool = FramePool::new(64, 8);
        let frame = pool.build(|b| b.extend_from_slice(b"hello"));
        assert_eq!(frame, b"hello");
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.free_len(), 0, "buffer still borrowed");

        let view = frame.slice(1..4);
        drop(frame);
        assert_eq!(pool.free_len(), 0, "a live view pins the buffer");
        assert_eq!(view, b"ell");
        drop(view);
        assert_eq!(pool.free_len(), 1, "last view drop recycles");
        assert_eq!(pool.recycled(), 1);
    }

    #[test]
    fn steady_state_reuses_one_buffer() {
        let pool = FramePool::new(32, 8);
        for i in 0..100u8 {
            let frame = pool.frame_from_slice(&[i; 16]);
            assert_eq!(frame, &[i; 16][..]);
            // frame drops here; the buffer goes straight back.
        }
        assert_eq!(pool.misses(), 1, "steady state must not allocate");
        assert_eq!(pool.hits(), 99);
        assert!(pool.hit_rate() > 0.98);
    }

    #[test]
    fn recycled_buffers_arrive_empty_with_capacity() {
        let pool = FramePool::new(8, 8);
        let big = pool.frame_from_slice(&[7u8; 4096]); // grows past buf_capacity
        drop(big);
        assert_eq!(pool.free_len(), 1);
        let next = pool.build(|b| {
            assert!(b.is_empty(), "recycled buffer must be cleared");
            assert!(b.capacity() >= 4096, "grown capacity must be kept");
            b.push(1);
        });
        assert_eq!(next, &[1u8][..]);
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn stolen_buffers_do_not_poison_the_slab() {
        let pool = FramePool::new(16, 8);
        let frame = pool.frame_from_slice(b"take me");
        let owned: Vec<u8> = frame.into(); // steals the allocation
        assert_eq!(owned, b"take me");
        assert_eq!(pool.free_len(), 0, "stolen buffer must not be recycled");
        assert_eq!(pool.recycled(), 0);
    }

    #[test]
    fn slab_size_is_bounded() {
        let pool = FramePool::new(16, 2);
        let frames: Vec<_> = (0..5).map(|_| pool.frame_from_slice(b"x")).collect();
        drop(frames);
        assert_eq!(pool.free_len(), 2, "slab must cap at max_free");
    }

    #[test]
    fn buffers_outliving_the_pool_are_freed_not_leaked() {
        let pool = FramePool::new(16, 8);
        let frame = pool.frame_from_slice(b"orphan");
        drop(pool);
        // The weak back-reference is dead; dropping the frame must not
        // panic (the bytes are simply freed).
        drop(frame);
    }
}
