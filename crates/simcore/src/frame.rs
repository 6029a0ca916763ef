//! Cheap-to-clone, sliceable byte buffers for the simulated data path.
//!
//! A [`Frame`] is a reference-counted byte buffer plus an `(offset, len)`
//! view — the same discipline real RDMA stacks apply to registered memory:
//! payloads are written once and every later hop (replication fan-out,
//! ring-buffer delivery, stream reassembly) hands around *views*, never
//! copies. `clone` is a refcount bump, `slice`/`split_to` adjust the view,
//! and only `extend_from_slice` on a shared buffer ever copies.
//!
//! Determinism note: a `Frame` exposes nothing about its allocation (no
//! addresses, no capacity), so substituting it for `Vec<u8>` anywhere in
//! the simulation cannot change simulated outcomes — only host wall-clock
//! cost. `tests/tests/determinism.rs` is the dynamic backstop for that
//! claim.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::rc::{Rc, Weak};

use crate::pool::PoolShared;

/// The refcounted backing allocation of a [`Frame`]: the bytes plus an
/// optional link back to the [`crate::FramePool`] the buffer was borrowed
/// from. When the last view over a pooled buffer drops, the whole `Rc` —
/// header and bytes — is recycled into its pool instead of freed (see
/// `Frame`'s `Drop`): that is the "send ring returned on completion"
/// lifecycle, and it needs no cooperation from any of the hops a frame
/// passes through. `Clone` exists only for `Rc::make_mut`'s fallback.
#[derive(Clone)]
pub(crate) struct Storage {
    pub(crate) bytes: Vec<u8>,
    home: Option<Weak<PoolShared>>,
}

impl Storage {
    fn owned(bytes: Vec<u8>) -> Storage {
        Storage { bytes, home: None }
    }

    /// An empty buffer of `capacity` that belongs to the pool `home`.
    pub(crate) fn pooled(capacity: usize, home: Weak<PoolShared>) -> Storage {
        Storage {
            bytes: Vec::with_capacity(capacity),
            home: Some(home),
        }
    }
}

/// A shared byte buffer with an `(offset, len)` view. See the module docs.
#[derive(Clone, Default)]
pub struct Frame {
    /// `None` is the empty frame: it has no backing buffer at all, so the
    /// payload-less completions the fabric produces by the million cost
    /// nothing to build or drop.
    buf: Option<Rc<Storage>>,
    off: usize,
    len: usize,
}

impl Frame {
    /// An empty frame. Allocates nothing.
    pub fn new() -> Frame {
        Frame::default()
    }

    /// View all of `storage`'s bytes.
    pub(crate) fn over(storage: Rc<Storage>) -> Frame {
        let len = storage.bytes.len();
        Frame {
            buf: Some(storage),
            off: 0,
            len,
        }
    }

    /// Take ownership of `vec` without copying.
    pub fn from_vec(vec: Vec<u8>) -> Frame {
        Frame::over(Rc::new(Storage::owned(vec)))
    }

    /// Copy `bytes` into a fresh frame. The one constructor that always
    /// copies — use it exactly where a real stack would DMA bytes in.
    pub fn copy_from_slice(bytes: &[u8]) -> Frame {
        Frame::from_vec(bytes.to_vec())
    }

    /// Number of visible bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.buf {
            Some(buf) => &buf.bytes[self.off..self.off + self.len],
            None => &[],
        }
    }

    /// A sub-view of this frame; refcount bump, no copy.
    ///
    /// # Panics
    /// If the range is out of bounds (mirrors slice indexing).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Frame {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of range for frame of {}",
            self.len
        );
        Frame {
            buf: self.buf.clone(),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Split off and return the first `n` bytes; `self` keeps the rest.
    /// Both halves share the underlying buffer.
    ///
    /// # Panics
    /// If `n > self.len()`.
    pub fn split_to(&mut self, n: usize) -> Frame {
        let head = self.slice(..n);
        self.off += n;
        self.len -= n;
        head
    }

    /// Drop the first `n` bytes from the view.
    ///
    /// # Panics
    /// If `n > self.len()`.
    pub fn advance(&mut self, n: usize) {
        assert!(
            n <= self.len,
            "advance {n} past end of frame of {}",
            self.len
        );
        self.off += n;
        self.len -= n;
    }

    /// Shorten the view to `n` bytes; no-op if already shorter.
    pub fn truncate(&mut self, n: usize) {
        self.len = self.len.min(n);
    }

    /// Append bytes. In place when this frame is the sole owner and its
    /// view ends at the buffer's end (the streaming-append case);
    /// otherwise copies out into a fresh buffer first (copy-on-write).
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        if let Some(storage) = self.buf.as_mut().and_then(Rc::get_mut) {
            if self.off + self.len == storage.bytes.len() {
                storage.bytes.extend_from_slice(bytes);
                self.len += bytes.len();
                return;
            }
        }
        let mut vec = Vec::with_capacity(self.len + bytes.len());
        vec.extend_from_slice(self.as_slice());
        vec.extend_from_slice(bytes);
        *self = Frame::from_vec(vec);
    }

    /// Copy the viewed bytes out into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// The header this frame views, null for the empty frame.
    #[cfg(test)]
    pub(crate) fn header(&self) -> *const Storage {
        self.buf.as_ref().map_or(std::ptr::null(), Rc::as_ptr)
    }
}

impl Drop for Frame {
    /// The last view over a pooled buffer hands the whole `Rc` back to its
    /// pool, so the next `build` reuses the header as well as the bytes.
    /// A buffer that outlives its pool is simply freed.
    fn drop(&mut self) {
        let Some(storage) = self.buf.take() else {
            return;
        };
        if Rc::strong_count(&storage) > 1 {
            return;
        }
        if let Some(pool) = storage.home.as_ref().and_then(Weak::upgrade) {
            pool.give_back(storage);
        }
    }
}

impl Deref for Frame {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Frame {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Frame {
    fn from(vec: Vec<u8>) -> Frame {
        Frame::from_vec(vec)
    }
}

impl From<&[u8]> for Frame {
    fn from(bytes: &[u8]) -> Frame {
        Frame::copy_from_slice(bytes)
    }
}

impl<const N: usize> From<&[u8; N]> for Frame {
    fn from(bytes: &[u8; N]) -> Frame {
        Frame::copy_from_slice(bytes)
    }
}

impl From<Frame> for Vec<u8> {
    /// Recover an owned `Vec`; free only when the frame is the sole owner
    /// of the whole buffer, otherwise one copy. A pooled buffer recovered
    /// this way leaves its pool for good (its header drops empty); after
    /// a copy, the frame's drop recycles the buffer as usual.
    fn from(mut frame: Frame) -> Vec<u8> {
        if let Some(storage) = frame.buf.as_mut().and_then(Rc::get_mut) {
            if storage.bytes.len() == frame.len {
                return std::mem::take(&mut storage.bytes);
            }
        }
        frame.to_vec()
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Frame({:?})", self.as_slice())
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Frame {}

impl Hash for Frame {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Frame {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Frame {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Frame {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Frame> for Vec<u8> {
    fn eq(&self, other: &Frame) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Frame {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Frame {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_frame_has_no_backing_buffer() {
        let mut f = Frame::new();
        assert!(f.buf.is_none() && f.is_empty());
        assert_eq!(f.slice(..), Frame::from_vec(Vec::new()));
        assert_eq!(f.split_to(0).as_slice(), b"");
        assert_eq!(Vec::from(f.clone()), Vec::<u8>::new());
        f.extend_from_slice(b"ab");
        assert_eq!(f, b"ab");
    }

    #[test]
    fn clone_is_a_view_not_a_copy() {
        let a = Frame::from_vec(vec![1, 2, 3, 4]);
        let b = a.clone();
        assert_eq!(Rc::strong_count(a.buf.as_ref().unwrap()), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn slice_and_split_share_the_buffer() {
        let mut f = Frame::from_vec((0u8..32).collect());
        let head = f.split_to(10);
        assert_eq!(head.len(), 10);
        assert_eq!(f.len(), 22);
        assert_eq!(head.as_slice(), &(0u8..10).collect::<Vec<_>>()[..]);
        assert_eq!(f.as_slice(), &(10u8..32).collect::<Vec<_>>()[..]);
        let mid = f.slice(2..5);
        assert_eq!(mid, vec![12u8, 13, 14]);
        assert_eq!(Rc::strong_count(f.buf.as_ref().unwrap()), 3);
    }

    #[test]
    fn extend_appends_in_place_when_unique() {
        let mut f = Frame::from_vec(vec![1, 2]);
        let buf_before = Rc::as_ptr(f.buf.as_ref().unwrap());
        f.extend_from_slice(&[3, 4]);
        assert_eq!(
            Rc::as_ptr(f.buf.as_ref().unwrap()),
            buf_before,
            "unique append reallocated"
        );
        assert_eq!(f, vec![1, 2, 3, 4]);
    }

    #[test]
    fn extend_copies_when_shared() {
        let mut f = Frame::from_vec(vec![1, 2]);
        let view = f.clone();
        f.extend_from_slice(&[3]);
        assert_eq!(f, vec![1, 2, 3]);
        assert_eq!(view, vec![1, 2], "shared view must not observe the append");
    }

    #[test]
    fn truncate_and_advance_adjust_the_view() {
        let mut f = Frame::from(&[9u8, 8, 7, 6, 5]);
        f.advance(1);
        f.truncate(3);
        assert_eq!(f, vec![8u8, 7, 6]);
        f.truncate(100); // no-op
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn into_vec_round_trips_without_copy_when_unique() {
        let v = vec![5u8; 1000];
        let ptr = v.as_ptr();
        let f = Frame::from_vec(v);
        let back: Vec<u8> = f.into();
        assert_eq!(back.as_ptr(), ptr, "sole-owner unwrap copied");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_past_end_panics() {
        let f = Frame::from_vec(vec![0; 4]);
        let _ = f.slice(2..6);
    }

    /// A random byte vector and an ordered pair of cut points within it.
    fn bytes_and_cuts() -> impl Strategy<Value = (Vec<u8>, usize, usize)> {
        (
            prop::collection::vec(any::<u8>(), 0..200),
            any::<u16>(),
            any::<u16>(),
        )
            .prop_map(|(v, x, y)| {
                let bound = v.len() + 1;
                let (mut a, mut b) = (x as usize % bound, y as usize % bound);
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                (v, a, b)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any slice of a Frame equals the same slice of the source Vec.
        #[test]
        fn prop_slice_matches_vec(case in bytes_and_cuts()) {
            let (v, a, b) = case;
            let f = Frame::from_vec(v.clone());
            prop_assert_eq!(f.slice(a..b).to_vec(), v[a..b].to_vec());
            prop_assert_eq!(f.slice(..a).to_vec(), v[..a].to_vec());
            prop_assert_eq!(f.slice(b..).to_vec(), v[b..].to_vec());
            prop_assert_eq!(f.slice(..).to_vec(), v.clone());
        }

        /// split_to partitions exactly like Vec::split_off (mirrored).
        #[test]
        fn prop_split_to_partitions(case in bytes_and_cuts()) {
            let (v, a, _b) = case;
            let mut f = Frame::from_vec(v.clone());
            let head = f.split_to(a);
            let mut expect_head = v.clone();
            let expect_tail = expect_head.split_off(a);
            prop_assert_eq!(head.as_slice(), expect_head.as_slice());
            prop_assert_eq!(f.as_slice(), expect_tail.as_slice());
        }

        /// Concatenation by repeated extend_from_slice round-trips, with
        /// and without an outstanding shared view (CoW path).
        #[test]
        fn prop_extend_concat_round_trip(
            case in bytes_and_cuts(),
            shared in any::<bool>(),
        ) {
            let (v, a, b) = case;
            let mut f = Frame::from_vec(v[..a].to_vec());
            let view = shared.then(|| f.clone());
            f.extend_from_slice(&v[a..b]);
            f.extend_from_slice(&v[b..]);
            prop_assert_eq!(f.as_slice(), &v[..]);
            if let Some(view) = view {
                prop_assert_eq!(view.as_slice(), &v[..a]);
            }
            let back: Vec<u8> = f.into();
            prop_assert_eq!(back, v);
        }

        /// Frames delivered as split+slice views reassemble to the source.
        #[test]
        fn prop_views_reassemble(case in bytes_and_cuts()) {
            let (v, a, b) = case;
            let whole = Frame::from_vec(v.clone());
            let mut rest = whole.clone();
            let first = rest.split_to(a);
            let second = rest.slice(..b - a);
            let third = rest.slice(b - a..);
            let mut rejoined = first.to_vec();
            rejoined.extend_from_slice(&second);
            rejoined.extend_from_slice(&third);
            prop_assert_eq!(rejoined, v);
        }
    }
}
