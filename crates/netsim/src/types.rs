//! Identifiers, events, and work-completion types for the simulated fabric.

use skv_simcore::Frame;
use std::fmt;

/// Identifies a node (a host, or a SmartNIC SoC) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A network address: a node plus a 16-bit port.
///
/// Both the TCP-like transport and RDMA_CM listeners bind addresses of this
/// form, mirroring how the real SKV listens on an RDMA port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketAddr {
    /// The node.
    pub node: NodeId,
    /// The port.
    pub port: u16,
}

impl SocketAddr {
    /// Construct an address.
    pub fn new(node: NodeId, port: u16) -> Self {
        SocketAddr { node, port }
    }
}

impl fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

/// Handle to one endpoint of an established TCP-like connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TcpConnId(pub u32);

/// Handle to a queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QpId(pub u32);

/// Handle to a completion queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CqId(pub u32);

/// Handle to a registered memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MrId(pub u32);

/// Handle to a pending RDMA_CM connection request awaiting accept/reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CmReqId(pub u32);

/// Names a wire record in flight inside the fabric (see
/// [`NetEvent::InFlight`]). Opaque: the field is private to this crate, so
/// no endpoint can build one or read what it stands for.
#[derive(Debug, Clone, Copy)]
pub struct InFlightId(pub(crate) u32);

/// Verbs operation kinds, mirroring `ibv_wr_opcode`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendOp {
    /// Two-sided send; consumes a posted receive at the peer.
    Send,
    /// One-sided write into the peer MR; no receive consumed, no peer
    /// completion generated.
    Write {
        /// Peer memory region to write into.
        remote_mr: MrId,
        /// Byte offset within the region.
        remote_offset: usize,
    },
    /// One-sided write that also delivers a 32-bit immediate, consuming a
    /// posted receive and generating a completion at the peer — the
    /// primitive SKV uses for both command delivery and replication.
    WriteImm {
        /// Peer memory region to write into.
        remote_mr: MrId,
        /// Byte offset within the region.
        remote_offset: usize,
        /// The immediate value delivered with the completion.
        imm: u32,
    },
    /// One-sided read from the peer MR.
    Read {
        /// Peer memory region to read from.
        remote_mr: MrId,
        /// Byte offset within the region.
        remote_offset: usize,
        /// Number of bytes to read.
        len: usize,
    },
}

/// A send-side work request.
#[derive(Debug, Clone)]
pub struct SendWr {
    /// Application cookie returned in the completion.
    pub wr_id: u64,
    /// The operation.
    pub op: SendOp,
    /// Payload carried by `Send`/`Write`/`WriteImm` (empty for `Read`).
    /// A [`Frame`], so posting a fan-out of the same payload to many QPs
    /// is a refcount bump per WR, not a copy.
    pub data: Frame,
    /// `IBV_SEND_SIGNALED`: whether a *successful* WRITE / WRITE_WITH_IMM /
    /// SEND produces a send-side completion. An unsignaled success leaves
    /// the sender's CQ untouched — no completion, no notify, nothing to
    /// poll — while every non-success status still completes, so failure
    /// detection never depends on the flag. READ ignores it: its
    /// completion carries the data.
    pub signaled: bool,
}

impl SendWr {
    /// A signaled work request.
    pub fn new(wr_id: u64, op: SendOp, data: impl Into<Frame>) -> SendWr {
        SendWr {
            wr_id,
            op,
            data: data.into(),
            signaled: true,
        }
    }

    /// A signaled WRITE_WITH_IMM of `data` to `remote_offset` of the peer's
    /// `remote_mr`.
    pub fn write_imm(
        wr_id: u64,
        remote_mr: MrId,
        remote_offset: usize,
        imm: u32,
        data: impl Into<Frame>,
    ) -> SendWr {
        let op = SendOp::WriteImm {
            remote_mr,
            remote_offset,
            imm,
        };
        SendWr::new(wr_id, op, data)
    }

    /// A READ of `len` bytes at `remote_offset` of the peer's `remote_mr`.
    pub fn read(wr_id: u64, remote_mr: MrId, remote_offset: usize, len: usize) -> SendWr {
        let op = SendOp::Read {
            remote_mr,
            remote_offset,
            len,
        };
        SendWr::new(wr_id, op, Frame::new())
    }

    /// The same request without `IBV_SEND_SIGNALED`: the poster does not
    /// read its success completion.
    #[must_use]
    pub fn unsignaled(mut self) -> SendWr {
        self.signaled = false;
        self
    }
}

/// Completion opcode, mirroring `ibv_wc_opcode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcOpcode {
    /// A posted send completed (peer received it).
    Send,
    /// An RDMA write (with or without immediate) completed at the sender.
    RdmaWrite,
    /// An RDMA read completed at the requester.
    RdmaRead,
    /// A two-sided receive completed.
    Recv,
    /// A receive completed due to a peer `WriteImm`.
    RecvRdmaWithImm,
}

/// Completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcStatus {
    /// The operation succeeded.
    Success,
    /// The peer was unreachable (node down / QP torn down).
    RemoteUnreachable,
    /// A posted receive was not available for a `Send`/`WriteImm`.
    ReceiverNotReady,
    /// Transport retries were exhausted (injected loss); the QP has
    /// transitioned to the error state and must be re-established.
    RetryExceeded,
    /// A one-sided READ/WRITE named a range outside the target MR, the
    /// simulated analogue of `IBV_WC_REM_ACCESS_ERR`: a requester protocol
    /// error is reported to the requester, not a panic on the target host.
    RemoteAccessError,
}

/// A work completion, mirroring `ibv_wc`.
#[derive(Debug, Clone)]
pub struct Wc {
    /// Cookie from the work request (receive-side: the recv WR's cookie).
    pub wr_id: u64,
    /// What completed.
    pub opcode: WcOpcode,
    /// Outcome.
    pub status: WcStatus,
    /// The QP this completion belongs to.
    pub qp: QpId,
    /// Number of payload bytes involved.
    pub byte_len: usize,
    /// Immediate value (valid for `RecvRdmaWithImm`).
    pub imm: u32,
    /// For receive-side completions of `WriteImm`: where in the local MR the
    /// payload landed. (A real application knows this from its ring-buffer
    /// protocol; the simulator reports it for convenience and asserts in
    /// tests that protocols track it correctly.)
    pub mr_offset: usize,
    /// The payload, as a zero-copy view of the sender's frame: valid for
    /// `Recv` completions of two-sided sends, `RdmaRead` completions, and
    /// `RecvRdmaWithImm` — for the latter the same bytes have also been
    /// written into the target MR at `mr_offset`, unless it was registered
    /// without contents, and consuming `data` directly skips the
    /// `mr_read` copy-out.
    pub data: Frame,
}

/// Events delivered by the fabric to endpoint actors.
///
/// Endpoint actors downcast their [`skv_simcore::Payload`] messages to this
/// type to handle network activity.
#[derive(Debug)]
pub enum NetEvent {
    /// An outbound TCP connection is established.
    TcpConnected {
        /// The local connection handle.
        conn: TcpConnId,
        /// The remote address.
        peer: SocketAddr,
    },
    /// A listener accepted an inbound TCP connection.
    TcpAccepted {
        /// The local connection handle.
        conn: TcpConnId,
        /// The remote address.
        peer: SocketAddr,
    },
    /// A TCP connect attempt failed (no listener / node down).
    TcpConnectFailed {
        /// The address that was dialled.
        to: SocketAddr,
    },
    /// Bytes arrived on a TCP connection (in order).
    TcpDelivered {
        /// The local connection handle.
        conn: TcpConnId,
        /// The bytes (a zero-copy view of the sender's frame).
        bytes: Frame,
    },
    /// A TCP peer closed the connection.
    TcpClosed {
        /// The local connection handle.
        conn: TcpConnId,
    },
    /// An inbound RDMA_CM connection request; answer with
    /// [`crate::Net::rdma_accept`] or [`crate::Net::rdma_reject`].
    CmConnectRequest {
        /// Token identifying this request.
        req: CmReqId,
        /// Who is dialling.
        from: SocketAddr,
        /// The listen address dialled (RDMA_CM's listen id): an actor
        /// listening on several addresses tells them apart by it.
        to: SocketAddr,
    },
    /// An RDMA_CM connection is established; the QP is ready.
    CmEstablished {
        /// The local queue pair.
        qp: QpId,
        /// The remote address.
        peer: SocketAddr,
    },
    /// An RDMA_CM connect attempt failed.
    CmConnectFailed {
        /// The address that was dialled.
        to: SocketAddr,
    },
    /// The completion event channel fired for `cq`
    /// (armed via [`crate::Net::req_notify_cq`]).
    CqNotify {
        /// The completion queue with new completions.
        cq: CqId,
    },
    /// The fabric's note to itself that a wire record — an RDMA arrival, a
    /// sender completion, an RDMA_CM hop — takes
    /// effect now. Only ever addressed to the fabric's own actor; endpoint
    /// actors never receive one. It is a `NetEvent` so that the box which
    /// carries it can become the [`NetEvent::CqNotify`] the arrival causes.
    InFlight(InFlightId),
}

/// What a recycled box holds while it waits on the event queue's free list
/// ([`skv_simcore::Context::open`]): a wire record no slab slot has, which
/// the fabric ignores. Never sent.
impl Default for NetEvent {
    fn default() -> Self {
        NetEvent::InFlight(InFlightId(u32::MAX))
    }
}

/// Allocate the next dense resource id from a table length, panicking
/// loudly if the 32-bit id space is ever exhausted (a simulation bug, not a
/// recoverable error; a truncating `as u32` cast would silently alias id 0
/// after 2^32 allocations instead).
pub(crate) fn next_id(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(id) => id,
        Err(_) => panic!("resource id space exhausted ({len} allocated)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let a = SocketAddr::new(NodeId(3), 6379);
        assert_eq!(a.to_string(), "node3:6379");
        assert_eq!(NodeId(0).to_string(), "node0");
    }

    #[test]
    fn addr_ordering_is_total() {
        let a = SocketAddr::new(NodeId(1), 5);
        let b = SocketAddr::new(NodeId(1), 6);
        let c = SocketAddr::new(NodeId(2), 0);
        assert!(a < b && b < c);
    }
}
