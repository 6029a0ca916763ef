//! # The replica's side of synchronisation (Fig. 8 ①→②, Fig. 9, §III-D)
//!
//! A replica's protocol is short: ask for a sync, load the snapshot, apply
//! the stream Nic-KV fans out, ask again after a failure. [`ReplSink`]
//! owns everything a replica knows about where it stands in that protocol —
//! the phase, the snapshot being received, the frames waiting behind a gap,
//! the applied offset — and nothing else. It does no IO and reads no clock:
//! time comes in as `now`, commands go out through the caller's [`Apply`]
//! callback, and "send a `SyncRequest` from the applied offset" comes back
//! as the step's return value. The actor around it
//! ([`crate::server::KvServer`]) dials, sends, executes and charges CPU;
//! the same split as [`crate::replmode::Tracker`] (DESIGN.md §25).
//!
//! A replication stream frame is `[u64 LE from_offset][stream bytes]`: the
//! master-history offset of its first byte, then RESP commands. The bytes
//! are a *byte stream* — a re-served backlog range is cut wherever the
//! chunk size falls, so a frame may end inside a command.

use std::collections::VecDeque;

use skv_netsim::Frame;
use skv_simcore::{SimDuration, SimTime};
use skv_store::resp::{self, ParsedCommand};

use crate::channel::RING_SIZE;

/// Most stream frames a replica keeps while it cannot apply them (a sync
/// is in flight, or they lie beyond a gap). Anything dropped past the cap
/// is re-sent by the resync stream itself.
const STASH_CAP: usize = 1024;

/// Most bytes per frame of a re-served backlog range (after the header).
pub(crate) const STREAM_CHUNK: usize = 32 * 1024;

/// Longest unparsed command tail carried between frames: no command is
/// longer than the ring it crossed.
const CARRY_CAP: usize = RING_SIZE;

/// Encode a replication stream frame.
fn stream_frame(from_offset: u64, bytes: &[u8]) -> Vec<u8> {
    [&from_offset.to_le_bytes(), bytes].concat()
}

/// Cut the range of history that starts at `from` into stream frames of at
/// most [`STREAM_CHUNK`] bytes each — wherever that falls in a command.
pub(crate) fn stream_frames(from: u64, bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let offsets = (from..).step_by(STREAM_CHUNK);
    let chunks = bytes.chunks(STREAM_CHUNK).zip(offsets);
    chunks.map(|(chunk, at)| stream_frame(at, chunk))
}

/// Decode a replication stream frame.
pub(crate) fn parse_stream_frame(frame: &[u8]) -> Option<(u64, &[u8])> {
    let (header, body) = frame.split_first_chunk::<8>()?;
    Some((u64::from_le_bytes(*header), body))
}

/// Where a replica stands. `Streaming` and `Rerequested` apply the stream
/// as it arrives ([`ReplSink::is_streaming`]); `Joining` and `Loading`
/// stash it. Every phase but `Streaming` is waiting for the source.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// In step with the source; nothing outstanding.
    #[default]
    Streaming,
    /// Applying what arrives, with a `SyncRequest` outstanding (a gap, a
    /// lost upstream, a restart).
    Rerequested,
    /// Not synchronised: a `SyncRequest` is outstanding and every frame is
    /// stashed until the source answers.
    Joining,
    /// A `FullSyncBegin` arrived; the snapshot is being received.
    Loading,
}

/// The caller's per-command callback: called once per whole command, in
/// stream order, with its arguments and its encoded length.
pub type Apply<'a> = dyn FnMut(&[&[u8]], usize) + 'a;

/// The snapshot a `FullSyncBegin` announced, while its chunks arrive.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Transfer {
    expect: u64,
    buf: Vec<u8>,
    start_offset: u64,
}

/// The replica-side sync state machine. See the module docs. A step that
/// can meet a gap returns whether a `SyncRequest` from [`Self::applied`] is
/// now due — `true` at most once per outstanding request.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
pub struct ReplSink {
    phase: Phase,
    /// When the current waiting phase last saw progress: its request
    /// leaving, a `FullSyncBegin`, an RDB chunk.
    progress_at: SimTime,
    /// Bytes of the source's history applied, in whole commands.
    applied: u64,
    /// The unparsed tail (less than one command) of the frame that ended
    /// at `applied + carry.len()`.
    carry: Vec<u8>,
    /// Frames not yet applicable, ordered by offset (arrival order among
    /// equals), at most [`STASH_CAP`].
    stash: VecDeque<(u64, Frame)>,
    rdb: Option<Transfer>,
    /// A smaller stash than [`STASH_CAP`], for small-scope exploration.
    #[cfg(test)]
    stash_cap: Option<usize>,
}

impl ReplSink {
    /// A replica in step with its source at `offset`.
    pub fn at(offset: u64) -> Self {
        ReplSink {
            applied: offset,
            ..ReplSink::default()
        }
    }

    /// A replica with no history (`SLAVEOF`, or a snapshot that failed to
    /// load) whose request for a full sync leaves now.
    pub fn joining(now: SimTime) -> Self {
        ReplSink {
            phase: Phase::Joining,
            progress_at: now,
            ..ReplSink::default()
        }
    }

    /// This replica, keeping at most `cap` frames it cannot apply yet: with
    /// a history of a few commands the production cap is never met.
    #[cfg(test)]
    pub(crate) fn with_stash_cap(self, cap: usize) -> Self {
        let stash_cap = Some(cap);
        ReplSink { stash_cap, ..self }
    }

    /// Is the stream being applied as it arrives (the replica counts as
    /// synchronised, possibly with a re-request outstanding)?
    pub fn is_streaming(&self) -> bool {
        matches!(self.phase, Phase::Streaming | Phase::Rerequested)
    }

    /// Bytes of the source's history applied (whole commands only).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// A request from the applied offset leaves now, whatever was
    /// outstanding: the upstream was lost, the replica restarted or was
    /// demoted, or the last request [`Self::stalled`].
    pub fn rerequest(&mut self, now: SimTime) {
        self.phase = if self.is_streaming() {
            Phase::Rerequested
        } else {
            Phase::Joining
        };
        self.progress_at = now;
    }

    /// Has a waiting phase seen neither an answer nor an RDB chunk for
    /// longer than `waiting_time`? (The request or its reply can be lost
    /// anywhere along the relay; the transfer can be cut.)
    pub fn stalled(&self, now: SimTime, waiting_time: SimDuration) -> bool {
        self.phase != Phase::Streaming && now - self.progress_at > waiting_time
    }

    /// The source answered with a full sync: `total_bytes` of snapshot
    /// taken at `start_offset` follow.
    pub fn on_full_sync_begin(&mut self, now: SimTime, start_offset: u64, total_bytes: u64) {
        self.phase = Phase::Loading;
        self.progress_at = now;
        self.rdb = Some(Transfer {
            expect: total_bytes,
            buf: Vec::with_capacity(usize::try_from(total_bytes).unwrap_or(0)),
            start_offset,
        });
    }

    /// The source answered with a partial sync: the missing range follows
    /// as ordinary stream frames.
    pub fn on_partial_sync_begin(&mut self) {
        self.phase = Phase::Streaming;
    }

    /// One chunk of the announced snapshot (a chunk nothing announced is
    /// dropped). Returns the snapshot and its offset once complete; the
    /// caller loads it and reports back through [`Self::adopt`], or starts
    /// over with [`Self::joining`] if it is corrupt.
    pub fn on_rdb_chunk(&mut self, now: SimTime, chunk: &[u8]) -> Option<(Vec<u8>, u64)> {
        let rdb = self.rdb.as_mut()?;
        self.progress_at = now;
        rdb.buf.extend_from_slice(chunk);
        if (rdb.buf.len() as u64) < rdb.expect {
            return None;
        }
        self.rdb.take().map(|rdb| (rdb.buf, rdb.start_offset))
    }

    /// The snapshot taken at `start_offset` is loaded: adopt the source's
    /// history at that point, then apply what the stash holds from there.
    pub fn adopt(&mut self, now: SimTime, start_offset: u64, apply: &mut Apply<'_>) -> bool {
        self.phase = match self.phase {
            Phase::Loading => Phase::Streaming,
            Phase::Joining => Phase::Rerequested,
            streaming => streaming,
        };
        // Unconditionally: the keyspace now *is* the snapshot, so an offset
        // kept from before it — higher or lower — would claim bytes the
        // replica does not hold, or re-apply ones it does.
        self.applied = start_offset;
        self.carry.clear();
        self.drain(now, apply)
    }

    /// One `REPL_STREAM` frame: applied, stashed or dropped as a duplicate
    /// by where it starts and what phase it meets.
    pub fn on_frame(&mut self, now: SimTime, frame: &Frame, apply: &mut Apply<'_>) -> bool {
        let Some((from, body)) = parse_stream_frame(frame) else {
            return false;
        };
        // A zero-copy view of the delivery frame, so stashing allocates
        // nothing per stalled frame.
        let body = frame.slice(frame.len() - body.len()..);
        if !self.is_streaming() {
            self.stash(from, body);
            return false;
        }
        let mut ask = false;
        if from > self.have() {
            self.stash(from, body);
            ask = self.on_gap(now);
        } else {
            self.apply_frame(from, &body, apply);
        }
        self.drain(now, apply) || ask
    }

    /// One past the last stream byte held: applied or carried.
    fn have(&self) -> u64 {
        self.applied + self.carry.len() as u64
    }

    fn stash(&mut self, from: u64, body: Frame) {
        if self.stash.len() < self.stash_cap() {
            let at = self.stash.partition_point(|&(off, _)| off <= from);
            self.stash.insert(at, (from, body));
        }
    }

    fn stash_cap(&self) -> usize {
        #[cfg(test)]
        if let Some(cap) = self.stash_cap {
            return cap;
        }
        STASH_CAP
    }

    /// Bytes are missing before something that arrived: ask for them,
    /// unless a request is already outstanding.
    fn on_gap(&mut self, now: SimTime) -> bool {
        let ask = self.phase == Phase::Streaming;
        if ask {
            self.rerequest(now);
        }
        ask
    }

    /// Apply every stashed frame the applied offset has reached; what is
    /// left behind them lies beyond a gap.
    fn drain(&mut self, now: SimTime, apply: &mut Apply<'_>) -> bool {
        let mut reached = false;
        while let Some((off, body)) = self.stash.pop_front() {
            if off > self.have() {
                self.stash.push_front((off, body));
                break;
            }
            self.apply_frame(off, &body, apply);
            reached = true;
        }
        reached && !self.stash.is_empty() && self.on_gap(now)
    }

    /// Apply the part of a frame at `from <= have()` not yet held: skip
    /// the overlap, run each whole command (the first may start in the
    /// carry), advance `applied` past them and carry the unparsed tail.
    fn apply_frame(&mut self, from: u64, body: &[u8], apply: &mut Apply<'_>) {
        let skip = usize::try_from(self.have() - from).unwrap_or(usize::MAX);
        let Some(fresh) = body.get(skip..).filter(|f| !f.is_empty()) else {
            return; // entirely duplicate
        };
        let mut joined = std::mem::take(&mut self.carry);
        let buf = if joined.is_empty() {
            fresh
        } else {
            joined.extend_from_slice(fresh);
            &joined
        };
        let mut pos = 0;
        while pos < buf.len() {
            match resp::parse_command(&buf[pos..]) {
                ParsedCommand::Command(args, used) => {
                    apply(&args, used);
                    pos += used;
                }
                // A complete frame that is no command is skipped.
                ParsedCommand::NotCommand(_, used) => pos += used,
                // The frame ended inside a command: the next one has the
                // rest. (Past the cap the tail is dropped and shows as a
                // gap, like the bytes after a protocol error.)
                ParsedCommand::Incomplete if buf.len() - pos <= CARRY_CAP => {
                    self.carry = buf[pos..].to_vec();
                    break;
                }
                ParsedCommand::Incomplete | ParsedCommand::ProtocolError(_) => break,
            }
        }
        self.applied += pos as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const T0: SimTime = SimTime::ZERO;
    const WAIT: SimDuration = SimDuration::from_millis(60);

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// A history offset as an index into the test's stream.
    fn ix(offset: u64) -> usize {
        usize::try_from(offset).expect("test histories are small")
    }

    /// `SET k<i> <value_len bytes>` as the master replicates it.
    fn set(i: usize, value_len: usize) -> Vec<u8> {
        let (key, value) = (format!("k{i}"), "v".repeat(value_len));
        format!(
            "*3\r\n$3\r\nSET\r\n${}\r\n{key}\r\n${value_len}\r\n{value}\r\n",
            key.len()
        )
        .into_bytes()
    }

    /// A source history of `sizes.len()` commands and their start offsets.
    fn history(sizes: &[usize]) -> (Vec<u8>, Vec<u64>) {
        let (mut stream, mut starts) = (Vec::new(), Vec::new());
        for (i, &len) in sizes.iter().enumerate() {
            starts.push(stream.len() as u64);
            stream.extend(set(i, len));
        }
        (stream, starts)
    }

    /// The apply callback of the tests: note each command's key.
    fn record(keys: &mut Vec<String>) -> impl FnMut(&[&[u8]], usize) + '_ {
        |args, _| keys.push(String::from_utf8_lossy(args[1]).into_owned())
    }

    /// The sink under test plus the keys its callback saw, in order.
    struct Replica {
        sink: ReplSink,
        keys: Vec<String>,
        requests: usize,
    }

    impl Replica {
        fn new(sink: ReplSink) -> Self {
            Replica {
                sink,
                keys: Vec::new(),
                requests: 0,
            }
        }

        fn deliver(&mut self, now: SimTime, wire: Vec<u8>) -> bool {
            let before = self.sink.applied;
            let wire = Frame::from(wire);
            let ask = self.sink.on_frame(now, &wire, &mut record(&mut self.keys));
            assert!(self.sink.applied >= before, "a frame moved applied back");
            assert!(self.sink.stash.len() <= STASH_CAP);
            self.requests += usize::from(ask);
            ask
        }

        fn adopt(&mut self, now: SimTime, start_offset: u64) -> bool {
            self.sink
                .adopt(now, start_offset, &mut record(&mut self.keys))
        }

        /// The source answers the last request with a partial sync: the
        /// range from the position the sink reports, cut like a backlog.
        fn reserve(&mut self, now: SimTime, stream: &[u8]) {
            let from = self.sink.applied();
            self.sink.on_partial_sync_begin();
            for wire in stream_frames(from, &stream[ix(from)..]) {
                self.deliver(now, wire);
            }
        }

        fn expect_whole_history(&self, stream: &[u8], commands: usize) {
            let want: Vec<String> = (0..commands).map(|i| format!("k{i}")).collect();
            assert_eq!(self.keys, want, "every command exactly once, in order");
            assert_eq!(self.sink.applied(), stream.len() as u64);
            assert!(self.sink.carry.is_empty() && self.sink.stash.is_empty());
        }
    }

    #[test]
    fn frame_codec_round_trips_and_rejects_short_headers() {
        let wire = stream_frame(77, b"abc");
        assert_eq!(parse_stream_frame(&wire), Some((77, &b"abc"[..])));
        assert_eq!(parse_stream_frame(&wire[..8]), Some((77, &b""[..])));
        for short in 0..8 {
            assert_eq!(parse_stream_frame(&wire[..short]), None);
        }
        let bytes = vec![7u8; 2 * STREAM_CHUNK + 5];
        let frames: Vec<_> = stream_frames(100, &bytes).collect();
        let froms: Vec<u64> = frames
            .iter()
            .map(|f| parse_stream_frame(f).expect("header").0)
            .collect();
        let chunk = STREAM_CHUNK as u64;
        assert_eq!(froms, vec![100, 100 + chunk, 100 + 2 * chunk]);
        assert_eq!(frames[2].len(), 8 + 5);
    }

    // -- the phase table: one test per input, every phase a row ---------------

    #[test]
    fn a_gap_asks_once_until_the_source_answers() {
        let (stream, at) = history(&[10, 10, 10, 10]);
        let mut r = Replica::new(ReplSink::at(0));
        let frame = |i: usize| stream_frame(at[i], &set(i, 10));
        assert!(!r.deliver(T0, frame(0)));
        assert_eq!(r.sink.phase, Phase::Streaming);
        // Frame 1 is lost: 2 and 3 lie beyond a gap. One request, not two.
        assert!(r.deliver(T0, frame(2)));
        assert_eq!(r.sink.phase, Phase::Rerequested);
        assert!(!r.deliver(T0, frame(3)));
        assert_eq!((r.sink.applied(), r.sink.stash.len()), (at[1], 2));
        // The answer re-serves from the reported position; the stash joins.
        r.reserve(T0, &stream);
        assert_eq!(r.sink.phase, Phase::Streaming);
        r.expect_whole_history(&stream, 4);
        assert_eq!(r.requests, 1);
    }

    #[test]
    fn waiting_phases_stash_and_streaming_phases_apply() {
        let frame = stream_frame(0, &set(0, 10));
        for (phase, applies) in [
            (Phase::Streaming, true),
            (Phase::Rerequested, true),
            (Phase::Joining, false),
            (Phase::Loading, false),
        ] {
            let mut r = Replica::new(ReplSink::at(0));
            r.sink.phase = phase;
            assert!(!r.deliver(T0, frame.clone()), "{phase:?}");
            assert_eq!(r.sink.phase, phase);
            assert_eq!(
                (r.keys.len(), r.sink.stash.len()),
                if applies { (1, 0) } else { (0, 1) }
            );
            assert_eq!(r.sink.is_streaming(), applies);
        }
    }

    #[test]
    fn a_request_is_reissued_only_after_waiting_time_without_progress() {
        let mut sink = ReplSink::joining(ms(100));
        assert_eq!((sink.phase, sink.applied()), (Phase::Joining, 0));
        assert!(!sink.stalled(ms(160), WAIT));
        assert!(sink.stalled(ms(161), WAIT));
        // FullSyncBegin and every RDB chunk count as progress.
        sink.on_full_sync_begin(ms(150), 0, 10);
        assert_eq!(sink.phase, Phase::Loading);
        assert!(!sink.stalled(ms(210), WAIT));
        assert_eq!(sink.on_rdb_chunk(ms(200), b"01234"), None);
        assert!(!sink.stalled(ms(260), WAIT));
        assert!(sink.stalled(ms(261), WAIT));
        // The re-request restarts the clock and keeps stashing.
        sink.rerequest(ms(261));
        assert_eq!(sink.phase, Phase::Joining);
        assert!(!sink.stalled(ms(321), WAIT));
        // A cut transfer that resumes still completes.
        let done = sink.on_rdb_chunk(ms(300), b"56789");
        assert_eq!(done, Some((b"0123456789".to_vec(), 0)));
        // A streaming replica with a request out stalls too; one in step
        // never does, and PartialSyncBegin is an answer.
        let mut sink = ReplSink::at(5);
        assert!(!sink.stalled(ms(10_000), WAIT));
        sink.rerequest(ms(100));
        assert_eq!(sink.phase, Phase::Rerequested);
        assert!(sink.stalled(ms(161), WAIT));
        sink.on_partial_sync_begin();
        assert_eq!(sink.phase, Phase::Streaming);
        assert!(!sink.stalled(ms(10_000), WAIT));
    }

    #[test]
    fn rerequest_keeps_applying_or_keeps_stashing() {
        for (before, after) in [
            (Phase::Streaming, Phase::Rerequested),
            (Phase::Rerequested, Phase::Rerequested),
            (Phase::Joining, Phase::Joining),
            (Phase::Loading, Phase::Joining),
        ] {
            let mut sink = ReplSink::at(9);
            sink.phase = before;
            sink.rerequest(ms(5));
            assert_eq!(
                (sink.phase, sink.progress_at, sink.applied()),
                (after, ms(5), 9)
            );
        }
    }

    #[test]
    fn every_phase_answers_the_two_sync_begins_the_same_way() {
        for phase in [
            Phase::Streaming,
            Phase::Rerequested,
            Phase::Joining,
            Phase::Loading,
        ] {
            let mut sink = ReplSink::at(3);
            sink.phase = phase;
            sink.on_partial_sync_begin();
            assert_eq!(sink.phase, Phase::Streaming);
            sink.phase = phase;
            sink.on_full_sync_begin(ms(1), 40, 2);
            assert_eq!((sink.phase, sink.progress_at), (Phase::Loading, ms(1)));
            // A second announcement replaces the first transfer.
            assert_eq!(sink.on_rdb_chunk(ms(2), b"x"), None);
            sink.on_full_sync_begin(ms(3), 50, 2);
            assert_eq!(sink.on_rdb_chunk(ms(4), b"yz"), Some((b"yz".to_vec(), 50)));
            // Nothing is announced any more: a stray chunk is dropped.
            assert_eq!(sink.on_rdb_chunk(ms(5), b"stray"), None);
        }
    }

    #[test]
    fn a_loaded_snapshot_ends_the_wait_it_answered() {
        for (before, after) in [
            (Phase::Loading, Phase::Streaming),
            // The load outran a stalled-transfer re-request: still out.
            (Phase::Joining, Phase::Rerequested),
            (Phase::Streaming, Phase::Streaming),
            (Phase::Rerequested, Phase::Rerequested),
        ] {
            let mut r = Replica::new(ReplSink::at(0));
            r.sink.phase = before;
            assert!(!r.adopt(T0, 120));
            assert_eq!((r.sink.phase, r.sink.applied()), (after, 120));
        }
    }

    #[test]
    fn a_corrupt_snapshot_starts_over_with_nothing() {
        let mut r = Replica::new(ReplSink::at(500));
        r.sink.on_full_sync_begin(T0, 900, 4);
        r.deliver(T0, stream_frame(900, &set(0, 10)));
        let (snapshot, _) = r.sink.on_rdb_chunk(T0, b"torn").expect("complete");
        assert_eq!(snapshot, b"torn");
        // The caller could not load it: it replaces the sink, and with no
        // history left the position it reports is `unsynced()`'s offset.
        r.sink = ReplSink::joining(ms(7));
        assert_eq!((r.sink.phase, r.sink.applied()), (Phase::Joining, 0));
        assert!(r.sink.stash.is_empty() && r.sink.rdb.is_none());
    }

    #[test]
    fn the_stash_is_capped_and_an_overflow_costs_one_request() {
        let sizes = vec![10; STASH_CAP + 50];
        let (stream, at) = history(&sizes);
        let mut r = Replica::new(ReplSink::joining(T0));
        for (i, &from) in at.iter().enumerate() {
            assert!(!r.deliver(T0, stream_frame(from, &set(i, 10))));
        }
        assert_eq!(r.sink.stash.len(), STASH_CAP);
        // The snapshot lands at offset 0: everything kept applies, in order.
        r.sink.on_full_sync_begin(T0, 0, 0);
        assert!(!r.adopt(T0, 0));
        assert_eq!((r.keys.len(), r.sink.applied()), (STASH_CAP, at[STASH_CAP]));
        // The 50 dropped frames show as a gap at the next live frame only.
        let next = stream.len() as u64;
        assert!(r.deliver(T0, stream_frame(next, &set(sizes.len(), 10))));
        assert!(!r.deliver(T0, stream_frame(next, &set(sizes.len(), 10))));
        let mut longer = stream.clone();
        longer.extend(set(sizes.len(), 10));
        r.reserve(T0, &longer);
        r.expect_whole_history(&longer, sizes.len() + 1);
        assert_eq!(r.requests, 1);
    }

    #[test]
    fn duplicates_overlaps_and_reordering_apply_each_byte_once() {
        let (stream, at) = history(&[10, 20, 30, 40, 50]);
        let mut r = Replica::new(ReplSink::at(0));
        let span = |a: usize, b: usize| stream_frame(at[a], &stream[ix(at[a])..ix(at[b])]);
        r.deliver(T0, span(0, 1));
        r.deliver(T0, span(0, 1)); // duplicate
        r.deliver(T0, span(3, 4)); // ahead: stashed, asks
        r.deliver(T0, span(2, 3)); // ahead: stashed before it
        r.deliver(T0, span(2, 3)); // duplicate in the stash
        assert_eq!(r.keys, ["k0"]);
        r.deliver(T0, span(0, 2)); // overlaps what is applied, closes the gap
        assert_eq!(r.keys, ["k0", "k1", "k2", "k3"]);
        r.deliver(T0, span(1, 4)); // entirely old
        r.deliver(T0, stream_frame(at[4], &stream[ix(at[4])..]));
        r.expect_whole_history(&stream, 5);
        assert_eq!(r.requests, 1);
    }

    #[test]
    fn a_chunk_boundary_is_not_a_gap() {
        // The recover-resync shape: ≈ 290-byte SETs re-served in 32 KiB
        // chunks, so the cuts fall inside commands. Dropping the tail at
        // each cut made every chunk after the first look like a gap.
        let sizes = vec![256; 400];
        let (stream, _) = history(&sizes);
        assert!(stream.len() > 3 * STREAM_CHUNK);
        let mut r = Replica::new(ReplSink::at(0));
        r.sink.rerequest(T0);
        r.reserve(T0, &stream);
        r.expect_whole_history(&stream, 400);
        assert_eq!(r.requests, 0);
    }

    #[test]
    fn the_position_reported_with_a_carry_is_whole_commands() {
        let (stream, at) = history(&[10, 10, 10]);
        let mut r = Replica::new(ReplSink::at(0));
        let cut = ix(at[1]) + 7;
        r.deliver(T0, stream_frame(0, &stream[..cut]));
        assert_eq!((r.sink.applied(), r.sink.carry.len()), (at[1], 7));
        // A live frame beyond the carry is a gap; the request names `applied`
        // and the re-serve that overlaps the carry is skipped, not re-read.
        assert!(r.deliver(T0, stream_frame(at[2], &stream[ix(at[2])..])));
        r.reserve(T0, &stream);
        r.expect_whole_history(&stream, 3);
    }

    #[test]
    fn a_full_sync_is_adopted_on_either_side_of_the_applied_offset() {
        let (stream, at) = history(&[10; 8]);
        // Ahead of the replica: the usual case.
        let mut r = Replica::new(ReplSink::joining(T0));
        r.adopt(T0, at[5]);
        assert_eq!(r.sink.applied(), at[5]);
        // Behind it (an unsolicited full sync from a stale position): the
        // keyspace went back to the snapshot, so the offset does too, any
        // half-read command is forgotten, and the next live frame asks for
        // the range in between.
        let mut r = Replica::new(ReplSink::at(0));
        r.deliver(T0, stream_frame(0, &stream[..ix(at[6]) + 3]));
        assert_eq!((r.sink.applied(), r.sink.carry.len()), (at[6], 3));
        r.keys.clear();
        r.sink.on_full_sync_begin(T0, at[2], 0);
        assert!(!r.adopt(T0, at[2]));
        assert_eq!((r.sink.applied(), r.sink.carry.len()), (at[2], 0));
        assert!(r.deliver(T0, stream_frame(at[7], &stream[ix(at[7])..])));
        r.reserve(T0, &stream);
        assert_eq!(r.keys, ["k2", "k3", "k4", "k5", "k6", "k7"]);
        assert_eq!(r.sink.applied(), stream.len() as u64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A stream is a byte stream: N commands of mixed sizes, split at
        /// arbitrary byte boundaries and delivered in order, apply each
        /// command exactly once and ask for nothing.
        #[test]
        fn in_order_delivery_survives_any_split(
            sizes in prop::collection::vec(0usize..600, 1..40),
            cuts in prop::collection::vec(any::<u32>(), 0..60),
        ) {
            let (stream, _) = history(&sizes);
            let mut cuts: Vec<usize> = cuts.iter().map(|c| *c as usize % stream.len()).collect();
            cuts.extend([0, stream.len()]);
            cuts.sort_unstable();
            let mut r = Replica::new(ReplSink::at(0));
            for w in cuts.windows(2) {
                r.deliver(T0, stream_frame(w[0] as u64, &stream[w[0]..w[1]]));
            }
            r.expect_whole_history(&stream, sizes.len());
            prop_assert_eq!(r.requests, 0);
        }

        /// Whatever subset of the frames arrives, in whatever order, however
        /// often and however truncated (down to less than a header), a
        /// re-serve from the position the sink reports afterwards completes
        /// the source's history: nothing applied twice, nothing skipped.
        #[test]
        fn any_delivery_then_a_reserve_reproduces_the_history(
            sizes in prop::collection::vec(0usize..400, 1..30),
            cuts in prop::collection::vec(any::<u32>(), 0..40),
            schedule in prop::collection::vec((any::<u32>(), any::<u32>()), 0..120),
            joining in any::<bool>(),
        ) {
            let (stream, _) = history(&sizes);
            let mut cuts: Vec<usize> = cuts.iter().map(|c| *c as usize % stream.len()).collect();
            cuts.extend([0, stream.len()]);
            cuts.sort_unstable();
            let frames: Vec<Vec<u8>> = cuts
                .windows(2)
                .map(|w| stream_frame(w[0] as u64, &stream[w[0]..w[1]]))
                .collect();
            let mut r = Replica::new(if joining { ReplSink::joining(T0) } else { ReplSink::at(0) });
            for (pick, keep) in schedule {
                let mut wire = frames[pick as usize % frames.len()].clone();
                // One delivery in four is cut short.
                if keep % 4 == 0 {
                    wire.truncate((keep / 4) as usize % (wire.len() + 1));
                }
                r.deliver(T0, wire);
            }
            prop_assert!(r.requests <= 1, "one request outstanding at most");
            if joining {
                // The snapshot covers the history so far; the rest follows.
                prop_assert!(r.keys.is_empty());
                r.sink.on_full_sync_begin(T0, 0, 0);
                r.adopt(T0, 0);
            }
            r.reserve(T0, &stream);
            r.expect_whole_history(&stream, sizes.len());
        }
    }
}
