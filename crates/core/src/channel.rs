//! Transport-agnostic message channels.
//!
//! Server code talks in `(tag, payload)` messages; a [`Channel`] maps those
//! onto either transport:
//!
//! * **RDMA** — the paper's scheme (§III-B): each peer registers a receive
//!   ring Memory Region, the MR handles are exchanged with SEND/RECV right
//!   after RDMA_CM establishes the QP, and every message is then a
//!   `WRITE_WITH_IMM` into the peer's ring (the immediate carries the
//!   message tag, the completion carries where the bytes landed).
//! * **TCP** — a length-prefixed frame stream, used by the original-Redis
//!   baseline.
//!
//! The channel never charges CPU time; the owning actor accounts for WR
//! posting and kernel-stack costs itself, because those costs are exactly
//! what the paper's evaluation is about.

use skv_netsim::{
    Frame, MrId, Net, NodeId, QpId, SendOp, SendWr, TcpConnId, Wc, WcOpcode, WcStatus, RNR_WR_ID,
};
use skv_simcore::{Context, FramePool};

/// Receive WRs kept posted on an RDMA channel.
const RECV_DEPTH: usize = 128;

/// Per-connection receive-ring size in bytes, for every channel the
/// cluster's actors open. It must exceed the largest burst in flight —
/// a sizing rule, not a measured trade-off, so it is not a config knob.
pub const RING_SIZE: usize = 1 << 20;

/// A `(tag, payload)` message delivered by a channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelMsg {
    /// Routing tag (see [`crate::protocol::tag`]).
    pub tag: u32,
    /// The bytes — a zero-copy view of the transport's delivery frame.
    pub payload: Frame,
}

enum TransportState {
    Rdma {
        qp: QpId,
        /// Ring the peer writes into (ours).
        my_ring: MrId,
        /// Ring we write into (theirs), learned via handshake.
        peer_ring: Option<MrId>,
        send_pos: usize,
        ring_size: usize,
        /// Messages queued until the handshake completes.
        pending: Vec<(u32, Frame)>,
        /// Whether we've sent our MR handle yet.
        handshake_sent: bool,
    },
    Tcp {
        conn: TcpConnId,
        /// Reassembly buffer for a partial inbound frame. Bytes before
        /// `consumed` have already been delivered; the cursor advances per
        /// frame and the buffer compacts amortizedly instead of shifting
        /// on every delivery.
        inbuf: Vec<u8>,
        /// Consume cursor into `inbuf`.
        consumed: usize,
    },
}

/// One end of a connection, over either transport.
pub struct Channel {
    state: TransportState,
    /// Total messages sent (diagnostics).
    pub sent: u64,
    /// Total messages received (diagnostics).
    pub received: u64,
    /// Set when the transport has failed (send-side error completion, post
    /// failure, or closed TCP stream). The owner must tear the connection
    /// down and re-establish it.
    broken: bool,
    /// Send-ring pool for TCP wire frames; without one, `send` falls back
    /// to allocating the wire frame per message.
    pool: Option<FramePool>,
    /// Work requests posted by the handshake-completion flush of queued
    /// messages — posts that happen *inside* [`Channel::on_wc`], where the
    /// caller can't observe `send`'s return value. Owners that keep
    /// doorbell/WR statistics collect these via
    /// [`Channel::take_flushed_wrs`] so stats count every WR at actual
    /// post time.
    flushed_wrs: u64,
    /// Whether message WRs ask for their success completion
    /// (`IBV_SEND_SIGNALED`). `on_wc` reads a send completion only for its
    /// error status, and errors complete regardless — so an owner that
    /// reads nothing else from them posts unsignaled
    /// ([`Channel::unsignaled`]) and is spared the completion event,
    /// the notify and the poll. The MR-handshake SEND is always signaled.
    signaled: bool,
}

impl Channel {
    /// Wrap a freshly established QP. Registers this side's receive ring,
    /// posts receives, and sends the MR handshake. Every message is read
    /// from its completion, never from the ring, so the ring is registered
    /// without contents: the peer's writes are bounds-checked, not copied.
    pub fn rdma(
        net: &Net,
        ctx: &mut Context<'_>,
        node: NodeId,
        qp: QpId,
        ring_size: usize,
    ) -> Channel {
        let my_ring = net.register_mr_without_contents(node, ring_size);
        // A post failure here means the QP died between establishment and
        // channel construction; mark the channel broken so the owner tears
        // it down and redials instead of running with a starved ring.
        let mut recv_failed = false;
        for i in 0..RECV_DEPTH {
            if net.post_recv(qp, i as u64).is_err() {
                recv_failed = true;
                break;
            }
        }
        let mut ch = Channel {
            state: TransportState::Rdma {
                qp,
                my_ring,
                peer_ring: None,
                send_pos: 0,
                ring_size,
                pending: Vec::new(),
                handshake_sent: false,
            },
            sent: 0,
            received: 0,
            broken: recv_failed,
            pool: None,
            flushed_wrs: 0,
            signaled: true,
        };
        if !ch.broken {
            ch.send_handshake(net, ctx);
        }
        ch
    }

    /// Wrap a TCP connection endpoint.
    pub fn tcp(conn: TcpConnId) -> Channel {
        Channel {
            state: TransportState::Tcp {
                conn,
                inbuf: Vec::new(),
                consumed: 0,
            },
            sent: 0,
            received: 0,
            broken: false,
            pool: None,
            flushed_wrs: 0,
            signaled: true,
        }
    }

    /// This channel's owner reads no success send-completion: post every
    /// message WR — sent, staged, or flushed from the handshake queue —
    /// unsignaled. Error completions still arrive and still break the
    /// channel.
    #[must_use]
    pub fn unsignaled(mut self) -> Channel {
        self.signaled = false;
        self
    }

    /// Use `pool` for send-side wire frames (TCP framing): the steady-state
    /// send path then borrows recycled ring buffers instead of allocating.
    pub fn use_pool(&mut self, pool: FramePool) {
        self.pool = Some(pool);
    }

    /// Whether the transport has failed and the connection must be
    /// re-established.
    pub fn broken(&self) -> bool {
        self.broken
    }

    /// The RDMA QP backing this channel, if any.
    pub fn qp(&self) -> Option<QpId> {
        match &self.state {
            TransportState::Rdma { qp, .. } => Some(*qp),
            TransportState::Tcp { .. } => None,
        }
    }

    /// The TCP connection backing this channel, if any.
    pub fn tcp_conn(&self) -> Option<TcpConnId> {
        match &self.state {
            TransportState::Tcp { conn, .. } => Some(*conn),
            TransportState::Rdma { .. } => None,
        }
    }

    /// True once messages can flow (RDMA: MR handshake completed).
    pub fn ready(&self) -> bool {
        match &self.state {
            TransportState::Rdma { peer_ring, .. } => peer_ring.is_some(),
            TransportState::Tcp { .. } => true,
        }
    }

    fn send_handshake(&mut self, net: &Net, ctx: &mut Context<'_>) {
        if let TransportState::Rdma {
            qp,
            my_ring,
            handshake_sent,
            ..
        } = &mut self.state
        {
            if !*handshake_sent {
                *handshake_sent = true;
                let handshake =
                    SendWr::new(u64::MAX - 1, SendOp::Send, my_ring.0.to_le_bytes().to_vec());
                if net.post_send(ctx, *qp, handshake).is_err() {
                    self.broken = true;
                }
            }
        }
    }

    /// Send a message. Over RDMA this is one `WRITE_WITH_IMM` (one Work
    /// Request — the unit of host CPU cost the paper counts), and the
    /// payload frame rides to the wire by refcount: sending one frame to
    /// N channels costs N refcount bumps, not N copies.
    ///
    /// Messages sent before the handshake completes are queued and flushed
    /// on completion.
    ///
    /// Returns the number of RDMA work requests rung *right now* — 1 when
    /// the WRITE_WITH_IMM was posted, 0 when the message was queued behind
    /// the handshake, failed to post, or went over TCP (no WRs). Owners
    /// keeping WR statistics count this at the call site and pick up the
    /// deferred posts later via [`Channel::take_flushed_wrs`].
    pub fn send(
        &mut self,
        net: &Net,
        ctx: &mut Context<'_>,
        tag: u32,
        payload: impl Into<Frame>,
    ) -> usize {
        let payload: Frame = payload.into();
        if let TransportState::Tcp { conn, .. } = &self.state {
            let conn = *conn;
            if !net.tcp_is_open(conn) {
                self.broken = true;
                return 0;
            }
            // The header's length field is u32; a payload that cannot be
            // framed poisons the channel instead of truncating on the wire.
            let Ok(len) = u32::try_from(payload.len()) else {
                self.broken = true;
                return 0;
            };
            // One header+payload copy into the wire frame — the model's
            // stand-in for the kernel socket copy the TCP baseline pays.
            // With a pool attached the destination buffer is a recycled
            // send ring instead of a fresh allocation.
            let build = |frame: &mut Vec<u8>| {
                frame.extend_from_slice(&tag.to_le_bytes());
                frame.extend_from_slice(&len.to_le_bytes());
                frame.extend_from_slice(&payload);
            };
            let frame = match &self.pool {
                Some(pool) => pool.build(build),
                None => {
                    let mut vec = Vec::with_capacity(payload.len() + 8);
                    build(&mut vec);
                    Frame::from_vec(vec)
                }
            };
            self.sent += 1;
            net.tcp_send(ctx, conn, frame);
            return 0;
        }
        if let Some((qp, wr)) = self.build_wr(tag, payload) {
            if net.post_send(ctx, qp, wr).is_err() {
                self.broken = true;
            } else {
                return 1;
            }
        }
        0
    }

    /// Take (and reset) the count of work requests posted by handshake
    /// flushes inside [`Channel::on_wc`]. Each flushed message was its own
    /// `post_send` — one doorbell, one WR — so the count feeds both stats.
    pub fn take_flushed_wrs(&mut self) -> u64 {
        std::mem::take(&mut self.flushed_wrs)
    }

    /// Stage — without ringing a doorbell — the `WRITE_WITH_IMM` work
    /// request that [`Channel::send`] would post for `(tag, payload)`,
    /// advancing the ring cursor and `sent` bookkeeping identically.
    /// [`crate::conns::ConnTable`] collects staged WRs from several
    /// channels into one [`Net::post_send_batch`] call: the
    /// doorbell-batched fan-out. A failed batch entry must be reported
    /// back via [`Channel::mark_broken`].
    ///
    /// Returns `None` (queueing the message, exactly as `send` does) while
    /// the MR handshake is outstanding — and `None` for TCP channels,
    /// which have no work requests; callers check [`Channel::qp`] and use
    /// `send` there instead.
    pub fn build_wr(&mut self, tag: u32, payload: impl Into<Frame>) -> Option<(QpId, SendWr)> {
        let payload: Frame = payload.into();
        let TransportState::Rdma {
            qp,
            peer_ring,
            send_pos,
            ring_size,
            pending,
            ..
        } = &mut self.state
        else {
            return None;
        };
        let Some(ring) = *peer_ring else {
            pending.push((tag, payload));
            return None;
        };
        assert!(
            payload.len() <= *ring_size,
            "message of {} bytes exceeds ring of {}",
            payload.len(),
            ring_size
        );
        if *send_pos + payload.len() > *ring_size {
            *send_pos = 0;
        }
        let offset = *send_pos;
        *send_pos += payload.len();
        self.sent += 1;
        let mut wr = SendWr::write_imm(self.sent, ring, offset, tag, payload);
        wr.signaled = self.signaled;
        Some((*qp, wr))
    }

    /// Record a send-side transport failure observed outside the channel —
    /// a batched post returning an error for this channel's staged WR.
    pub fn mark_broken(&mut self) {
        self.broken = true;
    }

    /// Process a work completion belonging to this channel's QP.
    /// Returns any application message it carried.
    pub fn on_wc(&mut self, net: &Net, ctx: &mut Context<'_>, wc: &Wc) -> Option<ChannelMsg> {
        let TransportState::Rdma {
            qp,
            peer_ring,
            pending,
            ..
        } = &mut self.state
        else {
            return None;
        };
        debug_assert_eq!(wc.qp, *qp);
        match wc.opcode {
            WcOpcode::Recv => {
                // An RNR completion has no receive slot to replenish and
                // carries no usable payload.
                if wc.status != WcStatus::Success || wc.wr_id == RNR_WR_ID {
                    return None;
                }
                // The MR handshake: peer's ring handle.
                if peer_ring.is_none() && wc.data.len() == 4 {
                    let raw = read_u32_le(&wc.data)?;
                    *peer_ring = Some(MrId(raw));
                    let queued = std::mem::take(pending);
                    net.post_recv(*qp, wc.wr_id).ok();
                    for (tag, payload) in queued {
                        let posted = self.send(net, ctx, tag, payload);
                        self.flushed_wrs += posted as u64;
                    }
                } else {
                    net.post_recv(*qp, wc.wr_id).ok();
                }
                None
            }
            WcOpcode::RecvRdmaWithImm => {
                if wc.status != WcStatus::Success || wc.wr_id == RNR_WR_ID {
                    return None;
                }
                // Replenish the receive slot. The completion carries the
                // written bytes as a zero-copy view: the message.
                net.post_recv(*qp, wc.wr_id).ok();
                self.received += 1;
                Some(ChannelMsg {
                    tag: wc.imm,
                    payload: wc.data.clone(),
                })
            }
            // Send-side completions carry no application data, but an
            // error status means the QP is dead.
            WcOpcode::Send | WcOpcode::RdmaWrite | WcOpcode::RdmaRead => {
                if wc.status != WcStatus::Success {
                    self.broken = true;
                }
                None
            }
        }
    }

    /// Process inbound TCP bytes, appending every completed frame to `out`
    /// — the caller's message array, so an actor that keeps one around
    /// reassembles every delivery without allocating.
    ///
    /// Fast path (nothing buffered): frames are delivered as zero-copy
    /// sub-views of the incoming segment and only a trailing partial frame
    /// is buffered. Buffered path: the segment is appended and frames are
    /// consumed behind a cursor; the buffer compacts only when consumed
    /// bytes dominate it, so total reassembly cost is linear in bytes
    /// received rather than quadratic in frames per buffer.
    pub fn on_tcp_bytes_into(&mut self, bytes: Frame, out: &mut Vec<ChannelMsg>) {
        let TransportState::Tcp {
            inbuf, consumed, ..
        } = &mut self.state
        else {
            return;
        };
        let before = out.len();
        let mut poisoned = false;
        if inbuf.len() == *consumed {
            inbuf.clear();
            *consumed = 0;
            let mut pos = 0;
            loop {
                let rest = bytes.get(pos..).unwrap_or_default();
                match parse_header(rest) {
                    Header::Frame { tag, len } if rest.len() - 8 >= len => {
                        out.push(ChannelMsg {
                            tag,
                            payload: bytes.slice(pos + 8..pos + 8 + len),
                        });
                        pos += 8 + len;
                    }
                    Header::Frame { .. } | Header::Incomplete => break,
                    Header::Oversized => {
                        poisoned = true;
                        break;
                    }
                }
            }
            match bytes.get(pos..) {
                Some(rest) if !rest.is_empty() && !poisoned => {
                    inbuf.extend_from_slice(rest);
                }
                _ => {}
            }
        } else {
            inbuf.extend_from_slice(&bytes);
            loop {
                let rest = inbuf.get(*consumed..).unwrap_or_default();
                match parse_header(rest) {
                    Header::Frame { tag, len } if rest.len() - 8 >= len => {
                        let start = *consumed + 8;
                        let Some(chunk) = inbuf.get(start..start + len) else {
                            break;
                        };
                        out.push(ChannelMsg {
                            tag,
                            payload: Frame::copy_from_slice(chunk),
                        });
                        *consumed = start + len;
                    }
                    Header::Frame { .. } | Header::Incomplete => break,
                    Header::Oversized => {
                        poisoned = true;
                        break;
                    }
                }
            }
            if poisoned || *consumed == inbuf.len() {
                inbuf.clear();
                *consumed = 0;
            } else if *consumed * 2 >= inbuf.len() {
                // Amortized compaction: consumed bytes are the majority,
                // so this copy is charged against the frames already
                // delivered from them.
                inbuf.copy_within(*consumed.., 0);
                inbuf.truncate(inbuf.len() - *consumed);
                *consumed = 0;
            }
        }
        if poisoned {
            // A length the peer could never legitimately send: treat the
            // stream as corrupt rather than buffering toward a claimed
            // multi-gigabyte frame. The owner's watchdog reconnects.
            self.broken = true;
        }
        self.received += (out.len() - before) as u64;
    }

    /// [`Channel::on_tcp_bytes_into`] with a fresh vector per call.
    pub fn on_tcp_bytes(&mut self, bytes: Frame) -> Vec<ChannelMsg> {
        let mut out = Vec::new();
        self.on_tcp_bytes_into(bytes, &mut out);
        out
    }
}

/// Largest payload a frame header may claim. Real messages top out at the
/// replication ring size (kilobytes); anything near u32::MAX is stream
/// corruption, and buffering toward it would be an allocation attack in a
/// real deployment.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Outcome of parsing a `[u32 tag][u32 len]` frame header.
enum Header {
    /// Fewer than 8 bytes available.
    Incomplete,
    /// A complete header claiming `len` payload bytes (possibly not yet
    /// all received).
    Frame {
        /// Message tag.
        tag: u32,
        /// Claimed payload length, already bounded by [`MAX_FRAME_LEN`].
        len: usize,
    },
    /// A complete header whose claimed length exceeds [`MAX_FRAME_LEN`]:
    /// the stream is corrupt.
    Oversized,
}

/// Parse a frame header off the front of `bytes`.
fn parse_header(bytes: &[u8]) -> Header {
    let (Some(tag), Some(len)) = (read_u32_le(bytes), bytes.get(4..).and_then(read_u32_le)) else {
        return Header::Incomplete;
    };
    let len = len as usize;
    if len > MAX_FRAME_LEN {
        return Header::Oversized;
    }
    Header::Frame { tag, len }
}

/// Read a little-endian `u32` from the front of `bytes`, if long enough.
fn read_u32_le(bytes: &[u8]) -> Option<u32> {
    let arr: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // test values are tiny literals
mod tests {
    use super::*;

    /// Hand-build a wire image of `(tag, payload)` frames (send() needs a
    /// live fabric; framing is what these tests exercise).
    fn wire_of(frames: &[(u32, &[u8])]) -> Vec<u8> {
        let mut wire = Vec::new();
        for &(tag, payload) in frames {
            wire.extend_from_slice(&tag.to_le_bytes());
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(payload);
        }
        wire
    }

    fn expect_msgs(frames: &[(u32, &[u8])]) -> Vec<ChannelMsg> {
        frames
            .iter()
            .map(|&(tag, payload)| ChannelMsg {
                tag,
                payload: payload.into(),
            })
            .collect()
    }

    const FRAMES: &[(u32, &[u8])] = &[(1, b"abc"), (2, b""), (900, &[0u8, 255])];

    #[test]
    fn tcp_framing_roundtrip_fragmented() {
        // Feed byte by byte — every delivery takes the buffered path with a
        // partial frame outstanding — and expect exact reassembly.
        let wire = wire_of(FRAMES);
        let mut rx = Channel::tcp(TcpConnId(1));
        // One caller-owned array across all deliveries: frames are
        // appended behind what it already holds and counted once each.
        let mut got = Vec::new();
        for b in wire {
            rx.on_tcp_bytes_into(Frame::copy_from_slice(&[b]), &mut got);
        }
        assert_eq!(got, expect_msgs(FRAMES));
        assert_eq!(rx.received, FRAMES.len() as u64);
    }

    #[test]
    fn tcp_framing_single_delivery_fast_path() {
        // The whole wire in one segment: every payload comes back as a
        // zero-copy view and nothing is left buffered.
        let wire = wire_of(FRAMES);
        let mut rx = Channel::tcp(TcpConnId(1));
        let got = rx.on_tcp_bytes(wire.into());
        assert_eq!(got, expect_msgs(FRAMES));
        assert_eq!(rx.on_tcp_bytes(Frame::new()), Vec::new());
    }

    #[test]
    fn tcp_framing_mixed_fast_and_buffered_paths() {
        // A segment carrying one full frame plus half of the next forces
        // the fast path to stash a tail, the following segment takes the
        // buffered path, and a final aligned segment returns to fast path.
        let frames: Vec<(u32, Vec<u8>)> = (0..6u32)
            .map(|i| (i + 10, vec![i as u8; 5 + i as usize * 3]))
            .collect();
        let borrowed: Vec<(u32, &[u8])> = frames.iter().map(|(t, p)| (*t, p.as_slice())).collect();
        let wire = wire_of(&borrowed);
        // Split points chosen to land mid-header, mid-payload, and on a
        // frame boundary.
        for cuts in [vec![13, 14, 30], vec![3, 50], vec![8, 16, 24, 32]] {
            let mut rx = Channel::tcp(TcpConnId(1));
            let mut got = Vec::new();
            let mut at = 0;
            for cut in cuts.iter().copied().filter(|&c| c < wire.len()) {
                got.extend(rx.on_tcp_bytes(Frame::copy_from_slice(&wire[at..cut])));
                at = cut;
            }
            got.extend(rx.on_tcp_bytes(Frame::copy_from_slice(&wire[at..])));
            assert_eq!(got, expect_msgs(&borrowed), "cuts failed");
        }
    }

    #[test]
    fn tcp_reassembly_compacts_consumed_prefix() {
        // Stream many frames through a permanently misaligned buffer; the
        // consume-cursor path must keep the residual buffer bounded by a
        // couple of frames rather than the whole history.
        let frames: Vec<(u32, Vec<u8>)> = (0..200u32).map(|i| (i, vec![i as u8; 64])).collect();
        let borrowed: Vec<(u32, &[u8])> = frames.iter().map(|(t, p)| (*t, p.as_slice())).collect();
        let wire = wire_of(&borrowed);
        let mut rx = Channel::tcp(TcpConnId(1));
        let mut got = Vec::new();
        // 71 is coprime with the 72-byte frame size: every segment
        // boundary lands mid-frame, so the buffered path runs constantly.
        for seg in wire.chunks(71) {
            got.extend(rx.on_tcp_bytes(Frame::copy_from_slice(seg)));
            let TransportState::Tcp { inbuf, .. } = &rx.state else {
                unreachable!()
            };
            assert!(
                inbuf.len() <= 4 * 72,
                "residual buffer grew to {} bytes",
                inbuf.len()
            );
        }
        assert_eq!(got, expect_msgs(&borrowed));
    }

    #[test]
    fn tcp_fast_path_payload_is_zero_copy_view() {
        let wire = wire_of(&[(7, b"payload bytes here")]);
        let frame = Frame::from(wire);
        let mut rx = Channel::tcp(TcpConnId(1));
        let got = rx.on_tcp_bytes(frame.clone());
        assert_eq!(got.len(), 1);
        // A view of the same backing buffer compares equal to the slice the
        // sender framed — and took no allocation to produce.
        assert_eq!(got[0].payload, frame.slice(8..));
    }

    #[test]
    fn tcp_channel_reports_identity() {
        let ch = Channel::tcp(TcpConnId(7));
        assert!(ch.ready());
        assert_eq!(ch.tcp_conn(), Some(TcpConnId(7)));
        assert_eq!(ch.qp(), None);
    }

    /// A header claiming a payload longer than [`MAX_FRAME_LEN`] (e.g.
    /// `u32::MAX`, the value a truncating length cast would have written
    /// for a 4 GiB + 3 byte payload) must poison the channel — not panic,
    /// and not buffer gigabytes waiting for a frame that never completes.
    #[test]
    fn oversized_frame_length_breaks_channel_fast_path() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&5u32.to_le_bytes());
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(b"tail bytes that must not be hoarded");
        let mut rx = Channel::tcp(TcpConnId(1));
        let got = rx.on_tcp_bytes(wire.into());
        assert!(got.is_empty());
        assert!(rx.broken());
        let TransportState::Tcp { inbuf, .. } = &rx.state else {
            unreachable!()
        };
        assert!(inbuf.is_empty(), "poisoned stream must not keep buffering");
    }

    /// Same corruption arriving after a valid frame, split so the bad
    /// header takes the buffered path: the good frame is delivered, the
    /// stream then breaks.
    #[test]
    fn oversized_frame_length_breaks_channel_buffered_path() {
        let mut wire = wire_of(&[(3, b"ok")]);
        wire.extend_from_slice(&9u32.to_le_bytes());
        wire.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        let mut rx = Channel::tcp(TcpConnId(1));
        let mut got = Vec::new();
        for seg in wire.chunks(7) {
            got.extend(rx.on_tcp_bytes(Frame::copy_from_slice(seg)));
        }
        assert_eq!(got, expect_msgs(&[(3, b"ok")]));
        assert!(rx.broken());
    }

    /// The largest legal length is still parsed as a frame header (and
    /// simply waits for its payload), so the bound does not reject real
    /// traffic.
    #[test]
    fn max_frame_len_boundary_is_accepted() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
        let mut rx = Channel::tcp(TcpConnId(1));
        assert!(rx.on_tcp_bytes(wire.into()).is_empty());
        assert!(!rx.broken());
    }
}
