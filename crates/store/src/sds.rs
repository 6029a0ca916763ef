//! Simple Dynamic Strings.
//!
//! SKV inherits Redis's string representation (paper §IV: "the
//! implementation of data structures such as dynamic strings … are
//! inherited from Redis"). [`Sds`] is a growable byte string with Redis's
//! preallocation policy: grow by doubling while small, then by fixed 1 MiB
//! steps, trading memory for amortized-O(1) append — the policy that makes
//! `APPEND`-heavy workloads cheap.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;

/// Above this size, growth switches from doubling to +1 MiB steps.
const SDS_MAX_PREALLOC: usize = 1024 * 1024;

/// A binary-safe dynamic string.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Sds {
    buf: Vec<u8>,
}

impl Sds {
    /// An empty string.
    pub fn new() -> Self {
        Sds { buf: Vec::new() }
    }

    /// Create from bytes.
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Self {
        Sds {
            buf: bytes.as_ref().to_vec(),
        }
    }

    /// Create from an owned vector without copying.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Sds { buf }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Currently allocated capacity.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume into the underlying vector.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// True when a value of `len` bytes may be rewritten into this buffer:
    /// it fits, and it fills at least half, so a buffer kept for a shorter
    /// value never pins more than twice that value's bytes.
    pub fn can_reuse_for(&self, len: usize) -> bool {
        len <= self.buf.capacity() && 2 * len >= self.buf.capacity()
    }

    /// Replace the contents with `bytes`, keeping the buffer when they fit.
    pub fn overwrite(&mut self, bytes: &[u8]) {
        self.buf.clear();
        self.buf.extend_from_slice(bytes);
    }

    /// Ensure room for `additional` more bytes using Redis's policy:
    /// request doubling up to the 1 MiB preallocation cap, then fixed
    /// increments.
    pub fn make_room(&mut self, additional: usize) {
        let needed = self.buf.len() + additional;
        if needed <= self.buf.capacity() {
            return;
        }
        let target = if needed < SDS_MAX_PREALLOC {
            needed * 2
        } else {
            needed + SDS_MAX_PREALLOC
        };
        self.buf.reserve_exact(target - self.buf.len());
    }

    /// Append bytes (the `APPEND` command's core).
    pub fn append(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Overwrite bytes starting at `offset`, zero-padding any gap
    /// (the `SETRANGE` command's semantics).
    pub fn set_range(&mut self, offset: usize, bytes: &[u8]) {
        let end = offset + bytes.len();
        if end > self.buf.len() {
            self.make_room(end - self.buf.len());
            self.buf.resize(end, 0);
        }
        self.buf[offset..end].copy_from_slice(bytes);
    }

    /// Extract `GETRANGE`-style: clamped, inclusive indices that may be
    /// negative (counting from the end), mirroring Redis semantics.
    pub fn get_range(&self, start: i64, end: i64) -> &[u8] {
        let len = self.buf.len() as i64;
        if len == 0 {
            return &[];
        }
        let mut s = if start < 0 { len + start } else { start };
        let mut e = if end < 0 { len + end } else { end };
        s = s.max(0);
        e = e.min(len - 1);
        if s > e {
            return &[];
        }
        &self.buf[s as usize..=e as usize]
    }

    /// Parse as an i64 if the whole string is a valid decimal integer
    /// (Redis's shared-integer fast path); see [`parse_i64`].
    pub fn parse_i64(&self) -> Option<i64> {
        parse_i64(&self.buf)
    }

    /// Approximate heap memory used (for `maxmemory`-style accounting).
    pub fn memory_usage(&self) -> usize {
        self.buf.capacity() + std::mem::size_of::<Self>()
    }
}

/// Parse `bytes` as an i64 if they are exactly the canonical decimal form
/// of one: no leading zeros, no `-0`, no sign-only or empty input — the
/// strings Redis stores integer-encoded.
pub fn parse_i64(bytes: &[u8]) -> Option<i64> {
    let s = std::str::from_utf8(bytes).ok()?;
    if s.is_empty() || (s.len() > 1 && s.starts_with('0')) || s == "-" {
        return None;
    }
    if s.len() > 1 && s.starts_with("-0") {
        return None;
    }
    s.parse().ok()
}

impl Deref for Sds {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl Borrow<[u8]> for Sds {
    fn borrow(&self) -> &[u8] {
        &self.buf
    }
}

impl From<&[u8]> for Sds {
    fn from(b: &[u8]) -> Self {
        Sds::from_bytes(b)
    }
}

impl From<&str> for Sds {
    fn from(s: &str) -> Self {
        Sds::from_bytes(s.as_bytes())
    }
}

impl From<Vec<u8>> for Sds {
    fn from(v: Vec<u8>) -> Self {
        Sds::from_vec(v)
    }
}

impl fmt::Debug for Sds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sds({:?})", String::from_utf8_lossy(&self.buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_grows() {
        let mut s = Sds::from("hello");
        s.append(b" world");
        assert_eq!(s.as_bytes(), b"hello world");
        assert_eq!(s.len(), 11);
    }

    #[test]
    fn small_appends_double_capacity() {
        let mut s = Sds::from("abcd");
        let before = s.capacity();
        s.append(b"efgh");
        // Policy requests 2x the needed size.
        assert!(s.capacity() >= before.max(16));
        assert!(s.capacity() >= s.len() * 2 || s.capacity() >= SDS_MAX_PREALLOC);
    }

    #[test]
    fn set_range_pads_with_zeroes() {
        let mut s = Sds::from("ab");
        s.set_range(5, b"xy");
        assert_eq!(s.as_bytes(), b"ab\0\0\0xy");
        s.set_range(0, b"AB");
        assert_eq!(s.as_bytes(), b"AB\0\0\0xy");
    }

    #[test]
    fn get_range_negative_indices() {
        let s = Sds::from("Hello World");
        assert_eq!(s.get_range(0, 4), b"Hello");
        assert_eq!(s.get_range(-5, -1), b"World");
        assert_eq!(s.get_range(0, -1), b"Hello World");
        assert_eq!(s.get_range(6, 100), b"World");
        assert_eq!(s.get_range(9, 2), b"");
        assert_eq!(Sds::new().get_range(0, -1), b"");
    }

    #[test]
    fn parse_i64_strict() {
        assert_eq!(Sds::from("123").parse_i64(), Some(123));
        assert_eq!(Sds::from("-42").parse_i64(), Some(-42));
        assert_eq!(Sds::from("0").parse_i64(), Some(0));
        assert_eq!(Sds::from("012").parse_i64(), None); // leading zero
        assert_eq!(Sds::from("-0").parse_i64(), None);
        assert_eq!(Sds::from("1.5").parse_i64(), None);
        assert_eq!(Sds::from("").parse_i64(), None);
        assert_eq!(Sds::from("abc").parse_i64(), None);
        assert_eq!(Sds::from("9223372036854775807").parse_i64(), Some(i64::MAX));
        assert_eq!(Sds::from("9223372036854775808").parse_i64(), None);
    }

    #[test]
    fn a_buffer_is_reused_only_for_a_value_that_fills_half_of_it() {
        let mut s = Sds::from_bytes([b'x'; 64]);
        assert_eq!(s.capacity(), 64);
        assert!(s.can_reuse_for(64));
        assert!(s.can_reuse_for(32));
        assert!(!s.can_reuse_for(31), "would pin more than twice the value");
        assert!(!s.can_reuse_for(65), "does not fit");
        s.overwrite(b"short but at least half of the sixty-four bytes");
        assert_eq!(
            s.as_bytes(),
            b"short but at least half of the sixty-four bytes"
        );
        assert_eq!(s.capacity(), 64, "rewritten in place");
        assert!(Sds::new().can_reuse_for(0));
    }

    #[test]
    fn binary_safety() {
        let data = vec![0u8, 255, 10, 13, 0];
        let s = Sds::from_bytes(&data);
        assert_eq!(s.as_bytes(), &data[..]);
        assert_eq!(s.len(), 5);
    }
}
