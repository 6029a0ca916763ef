//! Frame-pooled send rings: a slab of reusable byte buffers.
//!
//! `Channel::send` used to allocate one wire frame per message; at
//! millions of ops this is the send side's last steady-state allocation
//! (the receive path went zero-copy in the frame-pipeline PR). A
//! [`FramePool`] removes it: senders borrow a recycled ring buffer, build
//! the wire frame in place, and hand it around as an ordinary [`Frame`]
//! view. When the last view drops — i.e. when the send has *completed*
//! and every receiver has let go — the whole refcounted buffer, header
//! and bytes, flows back into the pool automatically via `Frame`'s drop
//! hook, exactly like a hardware send ring whose slot is reusable once
//! the WQE completes. A warm borrow therefore allocates nothing at all.
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

use crate::frame::{Frame, Storage};

/// Shared interior of a [`FramePool`]: the free slab plus counters.
/// Frame storages hold a `Weak` back-reference so buffers outliving the
/// pool are simply freed instead of kept alive.
pub(crate) struct PoolShared {
    /// Idle buffers, each a unique `Rc` whose header is reused as is.
    free: RefCell<Vec<Rc<Storage>>>,
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
    /// Return a buffer, header and all, to the slab (called from
    /// `Frame::drop` with the last reference). Buffers whose bytes were
    /// stolen (`From<Frame> for Vec<u8>`) arrive with zero capacity and
    /// are not worth keeping; a full slab frees the header and buffer
    /// rather than grow without bound.
    pub(crate) fn give_back(&self, mut storage: Rc<Storage>) {
        let Some(unique) = Rc::get_mut(&mut storage) else {
            return;
        };
        if unique.bytes.capacity() == 0 {
            return;
        }
        unique.bytes.clear();
        let mut free = self.free.borrow_mut();
        if free.len() < self.max_free {
            free.push(storage);
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
        let mut storage = self.take();
        // A slab header is unique (`give_back` checked), so this never
        // copies; a shared one would fall back to a fresh header.
        fill(&mut Rc::make_mut(&mut storage).bytes);
        Frame::over(storage)
    }

    fn take(&self) -> Rc<Storage> {
        let recycled = self.shared.free.borrow_mut().pop();
        match recycled {
            Some(storage) => {
                bump(&self.shared.hits);
                storage
            }
            None => {
                bump(&self.shared.misses);
                Rc::new(Storage::pooled(
                    self.shared.buf_capacity,
                    Rc::downgrade(&self.shared),
                ))
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

    fn filled(pool: &FramePool, bytes: &[u8]) -> Frame {
        pool.build(|b| b.extend_from_slice(bytes))
    }

    #[test]
    fn buffer_returns_to_the_pool_when_the_last_view_drops() {
        let pool = FramePool::new(64, 8);
        let frame = filled(&pool, b"hello");
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
            let frame = filled(&pool, &[i; 16]);
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
        let big = filled(&pool, &[7u8; 4096]); // grows past buf_capacity
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
        let frame = filled(&pool, b"take me");
        let owned: Vec<u8> = frame.into(); // steals the allocation
        assert_eq!(owned, b"take me");
        assert_eq!(pool.free_len(), 0, "stolen buffer must not be recycled");
        assert_eq!(pool.recycled(), 0);
        // The header dropped with its empty buffer: the next build misses.
        assert_eq!(filled(&pool, b"again"), b"again");
        assert_eq!((pool.hits(), pool.misses()), (0, 2));
    }

    #[test]
    fn slab_size_is_bounded() {
        let pool = FramePool::new(16, 2);
        let frames: Vec<_> = (0..5).map(|_| filled(&pool, b"x")).collect();
        drop(frames);
        assert_eq!(pool.free_len(), 2, "slab must cap at max_free");
        // The three returns past the cap freed header and buffer together;
        // the two kept serve the next two builds, the third allocates.
        assert_eq!(pool.recycled(), 2);
        let again: Vec<_> = (0..3).map(|_| filled(&pool, b"y")).collect();
        assert_eq!((pool.hits(), pool.misses()), (2, 6));
        assert!(again.iter().all(|f| f == b"y"));
    }

    #[test]
    fn buffers_outliving_the_pool_are_freed_not_leaked() {
        let pool = FramePool::new(16, 8);
        let frame = filled(&pool, b"orphan");
        let view = frame.slice(1..);
        let home = Rc::downgrade(&pool.shared);
        drop(pool);
        assert!(
            home.upgrade().is_none(),
            "frames must not keep the pool alive"
        );
        // The weak back-reference is dead; dropping the views must not
        // panic (header and bytes are simply freed).
        drop(frame);
        assert_eq!(view, b"rphan");
        drop(view);
    }

    #[test]
    fn a_second_build_reuses_the_first_frames_header() {
        let pool = FramePool::new(16, 8);
        let first = filled(&pool, b"one");
        let header = first.header();
        drop(first);
        let second = filled(&pool, b"two");
        assert!(
            std::ptr::eq(second.header(), header),
            "header was not reused"
        );
        assert_eq!(second, b"two");
        assert_eq!((pool.hits(), pool.misses()), (1, 1));
    }

    #[test]
    fn a_live_view_pins_the_header_and_the_buffer() {
        let pool = FramePool::new(16, 8);
        let mut frame = filled(&pool, b"header+bytes");
        let head = frame.split_to(6);
        assert!(std::ptr::eq(head.header(), frame.header()));
        drop(frame);
        assert_eq!(pool.free_len(), 0, "the head still views the buffer");
        let other = filled(&pool, b"other");
        assert!(!std::ptr::eq(other.header(), head.header()));
        assert_eq!(head, b"header");
        assert_eq!(pool.misses(), 2, "a pinned header cannot be handed out");
    }

    #[test]
    fn vec_from_a_unique_partial_view_returns_header_and_buffer() {
        let pool = FramePool::new(16, 8);
        let mut frame = filled(&pool, b"prefix:rest");
        let header = frame.header();
        frame.advance(7);
        let owned: Vec<u8> = frame.into();
        assert_eq!(owned, b"rest");
        assert_eq!(pool.free_len(), 1, "a partial view copies and recycles");
        let next = pool.build(|b| {
            assert!(b.capacity() >= 11, "the buffer came back with the header");
            b.push(b'n');
        });
        assert!(std::ptr::eq(next.header(), header));
    }
}
