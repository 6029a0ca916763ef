//! The replication backlog, after Redis's `repl_backlog`.
//!
//! The master appends every propagated write command to a fixed-size ring
//! buffer and tracks a monotonically increasing *replication offset* (total
//! bytes ever written). During the initial synchronization phase (paper
//! Figure 8) the master compares the slave's offset with its own: if the
//! missing range is still inside the backlog, it sends just that range
//! (partial resynchronization); otherwise it falls back to a full RDB
//! transfer.

/// Fixed-capacity ring buffer of replication stream bytes.
#[derive(Debug, Clone)]
pub struct Backlog {
    buf: Vec<u8>,
    capacity: usize,
    /// Total bytes ever fed (the master replication offset).
    offset: u64,
    /// Number of valid bytes currently retained (≤ capacity).
    histlen: usize,
    /// Write position within `buf`.
    idx: usize,
}

impl Backlog {
    /// Create a backlog with the given capacity in bytes.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "backlog capacity must be positive");
        Backlog {
            buf: Vec::new(),
            capacity,
            offset: 0,
            histlen: 0,
            idx: 0,
        }
    }

    /// Start over at `offset` with nothing retained: the history a
    /// promoted replica continues is one it applied, not one it wrote, so
    /// no earlier byte can be served from here.
    pub fn restart_at(&mut self, offset: u64) {
        self.offset = offset;
        self.histlen = 0;
        self.idx = 0;
    }

    /// The master replication offset: total bytes ever appended.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Bytes currently retained.
    pub fn histlen(&self) -> usize {
        self.histlen
    }

    /// The oldest offset still available for partial resync.
    pub fn first_available_offset(&self) -> u64 {
        self.offset - self.histlen as u64
    }

    /// Append replication stream bytes.
    pub fn feed(&mut self, data: &[u8]) {
        // The ring belongs to whoever writes it: a replica never feeds, so
        // it never holds one.
        if self.buf.is_empty() {
            self.buf = vec![0; self.capacity];
        }
        self.offset += data.len() as u64;
        // If the chunk exceeds capacity only its tail survives.
        let data = if data.len() > self.capacity {
            &data[data.len() - self.capacity..]
        } else {
            data
        };
        let first = (self.capacity - self.idx).min(data.len());
        self.buf[self.idx..self.idx + first].copy_from_slice(&data[..first]);
        let rest = data.len() - first;
        if rest > 0 {
            self.buf[..rest].copy_from_slice(&data[first..]);
        }
        self.idx = (self.idx + data.len()) % self.capacity;
        self.histlen = (self.histlen + data.len()).min(self.capacity);
    }

    /// Can a slave at `slave_offset` be served by partial resync?
    pub fn can_serve(&self, slave_offset: u64) -> bool {
        slave_offset >= self.first_available_offset() && slave_offset <= self.offset
    }

    /// The bytes from `from_offset` to the current offset, if retained.
    pub fn range_from(&self, from_offset: u64) -> Option<Vec<u8>> {
        if !self.can_serve(from_offset) {
            return None;
        }
        let want = (self.offset - from_offset) as usize;
        let mut out = Vec::with_capacity(want);
        // The newest `histlen` bytes end at `idx` (exclusive) in ring
        // order, so the range starts `want` bytes back from the write
        // head and spans at most one wrap: one or two slice copies.
        let start = (self.idx + self.capacity - want) % self.capacity;
        let first = want.min(self.capacity - start);
        out.extend_from_slice(&self.buf[start..start + first]);
        out.extend_from_slice(&self.buf[..want - first]);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feeds_and_serves_ranges() {
        let mut b = Backlog::new(16);
        b.feed(b"hello");
        b.feed(b"world");
        assert_eq!(b.offset(), 10);
        assert_eq!(b.histlen(), 10);
        assert_eq!(b.range_from(0).unwrap(), b"helloworld");
        assert_eq!(b.range_from(5).unwrap(), b"world");
        assert_eq!(b.range_from(10).unwrap(), b"");
    }

    #[test]
    fn wraparound_keeps_newest_bytes() {
        let mut b = Backlog::new(8);
        b.feed(b"abcdefgh"); // fills exactly
        b.feed(b"XY"); // evicts "ab"
        assert_eq!(b.offset(), 10);
        assert_eq!(b.histlen(), 8);
        assert_eq!(b.first_available_offset(), 2);
        assert!(!b.can_serve(1));
        assert_eq!(b.range_from(2).unwrap(), b"cdefghXY");
        assert_eq!(b.range_from(8).unwrap(), b"XY");
    }

    #[test]
    fn oversized_chunk_keeps_tail() {
        let mut b = Backlog::new(4);
        b.feed(b"0123456789");
        assert_eq!(b.offset(), 10);
        assert_eq!(b.histlen(), 4);
        assert_eq!(b.range_from(6).unwrap(), b"6789");
        assert!(b.range_from(5).is_none());
    }

    #[test]
    fn restart_resumes_at_an_offset_with_nothing_to_serve() {
        let mut b = Backlog::new(8);
        b.feed(b"abcdef");
        b.restart_at(100);
        assert_eq!((b.offset(), b.histlen()), (100, 0));
        assert!(!b.can_serve(99));
        assert_eq!(b.range_from(100).unwrap(), b"");
        b.feed(b"0123456789");
        assert_eq!(b.first_available_offset(), 102);
        assert_eq!(b.range_from(104).unwrap(), b"456789");
    }

    #[test]
    fn cannot_serve_future_offsets() {
        let mut b = Backlog::new(8);
        b.feed(b"abc");
        assert!(!b.can_serve(4));
        assert!(b.range_from(4).is_none());
    }

    #[test]
    fn many_wraps_stay_consistent() {
        let mut b = Backlog::new(13); // deliberately not a power of two
        let mut reference = Vec::new();
        for i in 0..100u32 {
            let chunk = format!("<{i}>");
            b.feed(chunk.as_bytes());
            reference.extend_from_slice(chunk.as_bytes());
        }
        let total = reference.len() as u64;
        assert_eq!(b.offset(), total);
        for back in 0..=13u64 {
            let from = total - back;
            let got = b.range_from(from).unwrap();
            assert_eq!(got, &reference[from as usize..], "from offset {from}");
        }
        assert!(b.range_from(total - 14).is_none());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Backlog::new(0);
    }
}
