//! RDMA verbs over the simulated fabric.
//!
//! Models the subset of the verbs API that SKV uses (§III-B of the paper):
//! RDMA_CM connection establishment, memory regions, queue pairs,
//! SEND/RECV, WRITE, WRITE_WITH_IMM, READ, and completion queues with
//! completion-event-channel semantics (`ibv_req_notify_cq` /
//! `ibv_get_cq_event`).
//!
//! Memory regions hold real bytes: an RDMA WRITE physically copies the
//! payload into the target region at the arrival instant, so protocols
//! built on top move real data and can be checked end-to-end for
//! correctness, not just for timing. A region registered *without
//! contents* ([`Net::register_mr_without_contents`]) keeps only its
//! length: writes into it are bounds-checked but not copied, and READs of
//! it fail. A `WRITE_WITH_IMM`'s completion carries the payload either
//! way, which is all a receive ring's owner reads.
//!
//! Error semantics follow reliable-connection hardware: a WR whose packets
//! are lost (fault injection) or whose destination is gone surfaces as a
//! completion-with-error at the sender — [`WcStatus::RetryExceeded`] /
//! [`WcStatus::RemoteUnreachable`] — and moves the QP to the *error state*,
//! after which posts fail with [`PostError::QpError`] until the application
//! tears the QP down and re-establishes the connection. Nothing is ever
//! silently lost without a send-side signal.
//!
//! **Selective signaling** (`IBV_SEND_SIGNALED`, [`SendWr::signaled`]): a
//! WRITE / WRITE_WITH_IMM / SEND posted unsignaled produces no send-side
//! completion when it *succeeds* — no event, no notify, no poll cost for
//! the poster — and completes exactly like a signaled one when it does
//! not, so the paragraph above holds for every WR. READ always completes.
//! The fabric models no send-queue depth, so there are no WQE slots for a
//! periodic signaled WR to reclaim: posters signal exactly the WRs whose
//! success they read.
//!
//! One divergence from hardware, chosen deliberately: `req_notify_cq` fires
//! immediately when completions are already queued, removing the classic
//! poll/arm race without requiring apps to re-poll.
//!
//! Every completion on an armed CQ notifies at once: there is no interrupt
//! moderation, as in the paper's event-driven poll loop. How many
//! completions one notify finds is `rdma.wcs_polled` / `rdma.cq_notifies`,
//! the completion-side analogue of `rdma.wrs_posted` / `rdma.doorbells`.
//!
//! Completion costs follow the same convention as posting costs: the fabric
//! charges nothing, the *polling actor* charges `cq_poll_cpu` per
//! `poll_cq` call plus `wc_handle_cpu` per returned WC to its own core
//! (see `skv-core`'s `cqdrain`).

use skv_simcore::{ActorId, Context, Frame, SimDuration};

use crate::counters::FabricStat;
use crate::fabric::{CmRequest, CqState, FabricMsg, MrState, Net, NetInner, QpState, RNR_WR_ID};
use crate::faults::Verdict;
use crate::types::*;

/// Time for an RC QP to exhaust its retransmits and surface an error
/// completion when the fault plan drops a message (the RC retry budget of
/// the ConnectX manual).
const RC_RETRY_LATENCY: SimDuration = SimDuration::from_micros(500);

/// Why a post failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostError {
    /// The QP has been closed.
    QpClosed,
    /// The QP is not connected to a peer.
    NotConnected,
    /// The QP is in the error state (retries exhausted on an earlier WR);
    /// tear it down and reconnect.
    QpError,
}

/// Why answering an RDMA_CM connection request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmError {
    /// The request token was already accepted or rejected (stale event).
    AlreadyAnswered,
}

impl Net {
    /// Create a completion queue owned by `owner`.
    pub fn create_cq(&self, owner: ActorId) -> CqId {
        let mut inner = self.inner.borrow_mut();
        let id = CqId(next_id(inner.cqs.len()));
        inner.cqs.push(CqState {
            owner,
            queue: Default::default(),
            armed: false,
        });
        id
    }

    /// Register a memory region of `len` zeroed bytes on `node`.
    pub fn register_mr(&self, node: NodeId, len: usize) -> MrId {
        self.register(node, len, Some(vec![0; len]))
    }

    /// Register a region of `len` bytes on `node` that keeps no copy of
    /// what lands in it: for a receive ring whose owner reads every
    /// message from its completion, never from the region. Remote WRITEs
    /// and WRITE_WITH_IMMs are bounds-checked exactly as for
    /// [`Net::register_mr`] (out of range completes `RemoteAccessError`);
    /// a READ always completes `RemoteAccessError`, as on an MR registered
    /// without `IBV_ACCESS_REMOTE_READ`.
    pub fn register_mr_without_contents(&self, node: NodeId, len: usize) -> MrId {
        self.register(node, len, None)
    }

    fn register(&self, node: NodeId, len: usize, buf: Option<Vec<u8>>) -> MrId {
        let mut inner = self.inner.borrow_mut();
        let id = MrId(next_id(inner.mrs.len()));
        inner.mrs.push(MrState { node, len, buf });
        id
    }

    /// Read bytes out of a local memory region.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or the region keeps no
    /// contents (a protocol bug).
    pub fn mr_read(&self, mr: MrId, offset: usize, len: usize) -> Vec<u8> {
        let inner = self.inner.borrow();
        let Some(buf) = &inner.mrs[mr.0 as usize].buf else {
            panic!("MR read from a region without contents");
        };
        let Some(view) = offset.checked_add(len).and_then(|end| buf.get(offset..end)) else {
            panic!("MR read out of bounds: {}+{} > {}", offset, len, buf.len());
        };
        view.to_vec()
    }

    /// Write bytes into a local memory region.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or the region keeps no
    /// contents (a protocol bug).
    pub fn mr_write(&self, mr: MrId, offset: usize, data: &[u8]) {
        let mut inner = self.inner.borrow_mut();
        let Some(buf) = &mut inner.mrs[mr.0 as usize].buf else {
            panic!("MR write to a region without contents");
        };
        let buf_len = buf.len();
        let Some(dst) = offset
            .checked_add(data.len())
            .and_then(|end| buf.get_mut(offset..end))
        else {
            panic!(
                "MR write out of bounds: {}+{} > {}",
                offset,
                data.len(),
                buf_len
            );
        };
        dst.copy_from_slice(data);
    }

    /// Register `actor` as the RDMA_CM listener on `addr`.
    ///
    /// # Panics
    /// Panics if the address is already bound.
    pub fn rdma_listen(&self, addr: SocketAddr, actor: ActorId) {
        let mut inner = self.inner.borrow_mut();
        let prev = inner.cm_listeners.insert(addr, actor);
        assert!(prev.is_none(), "RDMA address {addr} already bound");
    }

    /// Initiate an RDMA_CM connection to `to`.
    ///
    /// The listener receives [`NetEvent::CmConnectRequest`] and answers with
    /// [`Net::rdma_accept`] or [`Net::rdma_reject`]. On success the caller
    /// receives [`NetEvent::CmEstablished`] carrying its new QP, whose
    /// completions go to `cq`.
    pub fn rdma_connect(
        &self,
        ctx: &mut Context<'_>,
        from_node: NodeId,
        from_actor: ActorId,
        cq: CqId,
        to: SocketAddr,
    ) {
        let mut inner = self.inner.borrow_mut();
        let half = inner.params.connect_latency / 2;
        let reachable =
            inner.up(from_node) && inner.up(to.node) && inner.cm_listeners.contains_key(&to);
        let judged = inner.judge(ctx.now(), from_node, to.node);
        if !reachable || judged == Verdict::Drop {
            if reachable {
                inner.counters.inc(FabricStat::FaultsCmDropped);
            }
            ctx.send_in(half * 2, from_actor, NetEvent::CmConnectFailed { to });
            return;
        }
        let port = inner.alloc_ephemeral();
        let req = CmReqId(next_id(inner.cm_requests.len()));
        inner.cm_requests.push(Some(CmRequest {
            from_actor,
            from_node,
            from_cq: cq,
            from_addr: SocketAddr::new(from_node, port),
            listener_addr: to,
        }));
        inner.launch(ctx, ctx.now() + half, FabricMsg::CmRequestArrive { req });
    }

    /// Accept a pending connection request, creating this side's QP with
    /// completions directed to `cq`. Returns the acceptor-side QP.
    ///
    /// Both sides receive [`NetEvent::CmEstablished`] once the handshake
    /// completes.
    ///
    /// Answering a request that was already accepted or rejected returns
    /// [`CmError::AlreadyAnswered`] instead of creating anything.
    pub fn rdma_accept(
        &self,
        ctx: &mut Context<'_>,
        req: CmReqId,
        cq: CqId,
    ) -> Result<QpId, CmError> {
        let mut inner = self.inner.borrow_mut();
        let request = inner.cm_requests[req.0 as usize]
            .take()
            .ok_or(CmError::AlreadyAnswered)?;
        let half = inner.params.connect_latency / 2;
        let acceptor = ctx.id();
        let acceptor_node = request.listener_addr.node;

        let initiator_qp = QpId(next_id(inner.qps.len()));
        inner.qps.push(QpState {
            node: request.from_node,
            cq: request.from_cq,
            peer: None,
            peer_addr: request.listener_addr,
            recv_queue: Default::default(),
            open: true,
            error: false,
        });
        let acceptor_qp = QpId(next_id(inner.qps.len()));
        inner.qps.push(QpState {
            node: acceptor_node,
            cq,
            peer: Some(initiator_qp),
            peer_addr: request.from_addr,
            recv_queue: Default::default(),
            open: true,
            error: false,
        });
        inner.qps[initiator_qp.0 as usize].peer = Some(acceptor_qp);
        inner.counters.inc(FabricStat::RdmaConnections);

        let established = ctx.now() + half;
        inner.launch(
            ctx,
            established,
            FabricMsg::CmEstablishedArrive {
                actor: request.from_actor,
                qp: initiator_qp,
                peer: request.listener_addr,
            },
        );
        inner.launch(
            ctx,
            established,
            FabricMsg::CmEstablishedArrive {
                actor: acceptor,
                qp: acceptor_qp,
                peer: request.from_addr,
            },
        );
        Ok(acceptor_qp)
    }

    /// Reject a pending connection request.
    ///
    /// Answering a request that was already accepted or rejected returns
    /// [`CmError::AlreadyAnswered`].
    pub fn rdma_reject(&self, ctx: &mut Context<'_>, req: CmReqId) -> Result<(), CmError> {
        let mut inner = self.inner.borrow_mut();
        let request = inner.cm_requests[req.0 as usize]
            .take()
            .ok_or(CmError::AlreadyAnswered)?;
        let half = inner.params.connect_latency / 2;
        ctx.send_in(
            half,
            request.from_actor,
            NetEvent::CmConnectFailed {
                to: request.listener_addr,
            },
        );
        Ok(())
    }

    /// Post a receive work request (a buffer slot for `Send`/`WriteImm`).
    pub fn post_recv(&self, qp: QpId, wr_id: u64) -> Result<(), PostError> {
        let mut inner = self.inner.borrow_mut();
        let state = &mut inner.qps[qp.0 as usize];
        if !state.open {
            return Err(PostError::QpClosed);
        }
        state.recv_queue.push_back(wr_id);
        Ok(())
    }

    /// Post a send-side work request.
    ///
    /// The *caller* is responsible for charging
    /// [`crate::NetParams::wr_post_cpu`] to its own core — that per-WR CPU
    /// cost is precisely what SKV's replication offload saves the master.
    pub fn post_send(&self, ctx: &mut Context<'_>, qp: QpId, wr: SendWr) -> Result<(), PostError> {
        let mut inner = self.inner.borrow_mut();
        post_one(&mut inner, ctx, qp, wr)?;
        inner.counters.inc(FabricStat::RdmaDoorbells);
        Ok(())
    }

    /// Post a batch of WRs, on one QP or several, under a single doorbell —
    /// the verbs linked-WR post generalised across send queues, modelling
    /// DPA-style doorbell batching where one kick flushes WQEs staged on
    /// many send queues (the shape of SKV's replication fan-out: the same
    /// frame to N slave QPs).
    ///
    /// A bad WR on one QP must not block WRs bound for *other* QPs, so
    /// each entry gets an independent outcome:
    /// `outcomes` is cleared and filled in input order. `wrs` is drained,
    /// not consumed — like `outcomes` it is the caller's staging buffer, so
    /// a steady fan-out posts batch after batch without allocating.
    /// Exactly one doorbell is counted when at least one WR posts.
    pub fn post_send_batch(
        &self,
        ctx: &mut Context<'_>,
        wrs: &mut Vec<(QpId, SendWr)>,
        outcomes: &mut Vec<Result<(), PostError>>,
    ) {
        let mut inner = self.inner.borrow_mut();
        outcomes.clear();
        for (qp, wr) in wrs.drain(..) {
            outcomes.push(post_one(&mut inner, ctx, qp, wr));
        }
        if outcomes.iter().any(Result::is_ok) {
            inner.counters.inc(FabricStat::RdmaDoorbells);
        }
    }

    /// Drain up to `max` completions from `cq` into `out` (appended;
    /// popped from the front of the queue, no element shifting regardless
    /// of queue depth) and return how many were drained — `ibv_poll_cq`
    /// with a caller-owned WC array, so a polling loop reuses one buffer.
    ///
    /// The fabric charges no CPU here; the polling actor owns the cost —
    /// [`crate::NetParams::cq_poll_cpu`] per call plus
    /// [`crate::NetParams::wc_handle_cpu`] per returned WC. Each returned
    /// WC bumps the `rdma.wcs_polled` counter.
    pub fn poll_cq_into(&self, cq: CqId, max: usize, out: &mut Vec<Wc>) -> usize {
        let mut inner = self.inner.borrow_mut();
        let q = &mut inner.cqs[cq.0 as usize].queue;
        let polled = q.len().min(max);
        out.extend(q.drain(..polled));
        inner.counters.add(FabricStat::RdmaWcsPolled, polled as u64);
        polled
    }

    /// [`Net::poll_cq_into`] with a fresh vector per call.
    pub fn poll_cq(&self, cq: CqId, max: usize) -> Vec<Wc> {
        let mut out = Vec::new();
        self.poll_cq_into(cq, max, &mut out);
        out
    }

    /// Number of completions currently queued on `cq`.
    pub fn cq_depth(&self, cq: CqId) -> usize {
        self.inner.borrow().cqs[cq.0 as usize].queue.len()
    }

    /// Arm the completion event channel: the owner receives
    /// [`NetEvent::CqNotify`] when the next completion arrives (immediately
    /// if completions are already pending).
    pub fn req_notify_cq(&self, ctx: &mut Context<'_>, cq: CqId) {
        let mut inner = self.inner.borrow_mut();
        if inner.cqs[cq.0 as usize].queue.is_empty() {
            inner.cqs[cq.0 as usize].armed = true;
        } else {
            inner.fire_cq_notify(ctx, cq);
        }
    }

    /// Tear down a QP. In-flight operations targeting it are discarded at
    /// arrival.
    pub fn destroy_qp(&self, qp: QpId) {
        let mut inner = self.inner.borrow_mut();
        inner.qps[qp.0 as usize].open = false;
        inner.qps[qp.0 as usize].recv_queue.clear();
        if let Some(peer) = inner.qps[qp.0 as usize].peer {
            inner.qps[peer.0 as usize].peer = None;
        }
    }

    /// The remote address a QP is connected to.
    pub fn qp_peer_addr(&self, qp: QpId) -> SocketAddr {
        self.inner.borrow().qps[qp.0 as usize].peer_addr
    }

    /// The node a QP lives on.
    pub fn qp_node(&self, qp: QpId) -> NodeId {
        self.inner.borrow().qps[qp.0 as usize].node
    }

    /// The CQ a QP's completions go to.
    pub fn qp_cq(&self, qp: QpId) -> CqId {
        self.inner.borrow().qps[qp.0 as usize].cq
    }
}

/// Validate, judge and launch one send-side WR: the shared engine behind
/// [`Net::post_send`] and [`Net::post_send_batch`].
/// Counts the WR (`rdma.wrs_posted` + per-op counters) but **not** the
/// doorbell — the calling post entry point owns doorbell accounting.
fn post_one(
    inner: &mut NetInner,
    ctx: &mut Context<'_>,
    qp: QpId,
    wr: SendWr,
) -> Result<(), PostError> {
    let state = &inner.qps[qp.0 as usize];
    if !state.open {
        return Err(PostError::QpClosed);
    }
    if state.error {
        return Err(PostError::QpError);
    }
    let Some(peer_qp) = state.peer else {
        return Err(PostError::NotConnected);
    };
    let src_node = state.node;
    let dst_node = inner.qps[peer_qp.0 as usize].node;

    let wire_bytes = match &wr.op {
        SendOp::Read { .. } => 32, // a read request is a small packet
        _ => wr.data.len().max(32),
    };
    let counter = match &wr.op {
        SendOp::Send => FabricStat::RdmaSends,
        SendOp::Write { .. } => FabricStat::RdmaWrites,
        SendOp::WriteImm { .. } => FabricStat::RdmaWriteImm,
        SendOp::Read { .. } => FabricStat::RdmaReads,
    };
    inner.counters.inc(counter);
    inner.counters.inc(FabricStat::RdmaWrsPosted);
    inner
        .counters
        .add(FabricStat::RdmaBytes, wr.data.len() as u64);

    let dma = inner.params.dma_delay;
    let mut extra = SimDuration::ZERO;
    match inner.judge(ctx.now(), src_node, dst_node) {
        Verdict::Deliver => {}
        Verdict::Drop => {
            // RC retransmits exhaust: the WR completes with an error
            // after the retry budget and the QP enters the error state.
            inner.counters.inc(FabricStat::FaultsRdmaDropped);
            inner.counters.inc(FabricStat::RdmaQpErrors);
            inner.qps[qp.0 as usize].error = true;
            let wc = Wc {
                wr_id: wr.wr_id,
                opcode: sender_opcode(&wr.op),
                status: WcStatus::RetryExceeded,
                qp,
                byte_len: wr.data.len(),
                imm: 0,
                mr_offset: 0,
                data: Frame::new(),
            };
            push_sender_wc(inner, ctx, RC_RETRY_LATENCY, wr.signaled, wc);
            return Ok(());
        }
        Verdict::Delay(d) => {
            inner.counters.inc(FabricStat::FaultsRdmaDelayed);
            extra = d;
        }
    }
    let (arrival, lat) = inner.wire(ctx.now(), src_node, dst_node, wire_bytes);
    inner.launch(
        ctx,
        arrival + extra + dma,
        FabricMsg::RdmaArrive {
            src_qp: qp,
            dst_qp: peer_qp,
            wr,
            path_latency: lat,
        },
    );
    Ok(())
}

/// Apply an RDMA arrival at the destination NIC (fabric-actor context).
pub(crate) fn handle_arrival(
    net: &mut NetInner,
    ctx: &mut Context<'_>,
    src_qp: QpId,
    dst_qp: QpId,
    wr: SendWr,
    path_latency: SimDuration,
) {
    let SendWr {
        wr_id,
        op,
        data,
        signaled,
    } = wr;
    let dst_open = net.qps[dst_qp.0 as usize].open;
    let dst_err = net.qps[dst_qp.0 as usize].error;
    let dst_node = net.qps[dst_qp.0 as usize].node;
    let dst_up = net.up(dst_node);

    let opcode = sender_opcode(&op);
    let byte_len = data.len();
    // The sender's completion for this WR, visible one ACK-hop later.
    let sender_wc = |status| Wc {
        wr_id,
        opcode,
        status,
        qp: src_qp,
        byte_len,
        imm: 0,
        mr_offset: 0,
        data: Frame::new(),
    };

    // A destination that is gone (crashed node, torn-down or errored QP)
    // NAKs the sender into retry exhaustion: error completion + the
    // sender's QP enters the error state.
    if !dst_open || !dst_up || dst_err {
        net.counters.inc(FabricStat::RdmaDrops);
        if !net.qps[src_qp.0 as usize].error {
            net.counters.inc(FabricStat::RdmaQpErrors);
            net.qps[src_qp.0 as usize].error = true;
        }
        let wc = sender_wc(WcStatus::RemoteUnreachable);
        push_sender_wc(net, ctx, path_latency, signaled, wc);
        return;
    }

    match op {
        SendOp::Send => {
            let recv_wr = pop_recv(net, dst_qp);
            let dst_cq = net.qps[dst_qp.0 as usize].cq;
            let wc = Wc {
                wr_id: recv_wr.unwrap_or(RNR_WR_ID),
                opcode: WcOpcode::Recv,
                status: if recv_wr.is_some() {
                    WcStatus::Success
                } else {
                    WcStatus::ReceiverNotReady
                },
                qp: dst_qp,
                byte_len,
                imm: 0,
                mr_offset: 0,
                data,
            };
            net.push_wc(ctx, dst_cq, wc);
            let wc = sender_wc(WcStatus::Success);
            push_sender_wc(net, ctx, path_latency, signaled, wc);
        }
        SendOp::Write {
            remote_mr,
            remote_offset,
        } => {
            let status = if write_mr(net, dst_node, remote_mr, remote_offset, &data) {
                WcStatus::Success
            } else {
                WcStatus::RemoteAccessError
            };
            push_sender_wc(net, ctx, path_latency, signaled, sender_wc(status));
        }
        SendOp::WriteImm {
            remote_mr,
            remote_offset,
            imm,
        } => {
            if !write_mr(net, dst_node, remote_mr, remote_offset, &data) {
                // The payload never landed: no receive is consumed and the
                // receiver sees nothing, exactly like a NAKed verbs WRITE.
                let wc = sender_wc(WcStatus::RemoteAccessError);
                push_sender_wc(net, ctx, path_latency, signaled, wc);
                return;
            }
            let recv_wr = pop_recv(net, dst_qp);
            let dst_cq = net.qps[dst_qp.0 as usize].cq;
            // The completion carries the sender's frame as well: the bytes
            // are already in the MR (one-sided reads see them), but handing
            // the view to the receiver spares it the mr_read copy-out.
            let wc = Wc {
                wr_id: recv_wr.unwrap_or(RNR_WR_ID),
                opcode: WcOpcode::RecvRdmaWithImm,
                status: if recv_wr.is_some() {
                    WcStatus::Success
                } else {
                    WcStatus::ReceiverNotReady
                },
                qp: dst_qp,
                byte_len,
                imm,
                mr_offset: remote_offset,
                data,
            };
            net.push_wc(ctx, dst_cq, wc);
            let wc = sender_wc(WcStatus::Success);
            push_sender_wc(net, ctx, path_latency, signaled, wc);
        }
        SendOp::Read {
            remote_mr,
            remote_offset,
            len,
        } => {
            let mr = &net.mrs[remote_mr.0 as usize];
            assert_eq!(mr.node, dst_node, "READ must target an MR on the peer node");
            // A requester-supplied range outside the MR is the requester's
            // protocol error, not a target-host bug: complete with
            // `RemoteAccessError` rather than panicking the simulation. So
            // does any READ of a region that keeps no contents.
            let payload = remote_offset
                .checked_add(len)
                .and_then(|end| mr.buf.as_ref()?.get(remote_offset..end))
                .map(Frame::copy_from_slice);
            let Some(payload) = payload else {
                net.counters.inc(FabricStat::RdmaAccessErrors);
                let wc = Wc {
                    byte_len: 0,
                    mr_offset: remote_offset,
                    ..sender_wc(WcStatus::RemoteAccessError)
                };
                push_sender_wc(net, ctx, path_latency, true, wc);
                return;
            };
            // Response: serialization of the payload plus the return hop.
            // A READ's completion *is* its result, so it is always signaled.
            let resp_delay = net.params.serialize_time(len) + path_latency + net.params.dma_delay;
            let wc = Wc {
                byte_len: len,
                mr_offset: remote_offset,
                data: payload,
                ..sender_wc(WcStatus::Success)
            };
            push_sender_wc(net, ctx, resp_delay, true, wc);
        }
    }
}

/// Deliver a CM connection request to its listener (fabric-actor context).
pub(crate) fn handle_cm_request_arrival(net: &mut NetInner, ctx: &mut Context<'_>, req: CmReqId) {
    let Some(request) = net.cm_requests[req.0 as usize].as_ref() else {
        return;
    };
    let listener = net.cm_listeners.get(&request.listener_addr).copied();
    let listener_up = net.up(request.listener_addr.node);
    let (from, to) = (request.from_addr, request.listener_addr);
    match listener {
        Some(actor) if listener_up => {
            ctx.send(actor, NetEvent::CmConnectRequest { req, from, to });
        }
        _ => {
            let from_actor = request.from_actor;
            let half = net.params.connect_latency / 2;
            net.cm_requests[req.0 as usize] = None;
            ctx.send_in(half, from_actor, NetEvent::CmConnectFailed { to });
        }
    }
}

/// Sender-side completion opcode for a work-request operation.
fn sender_opcode(op: &SendOp) -> WcOpcode {
    match op {
        SendOp::Send => WcOpcode::Send,
        SendOp::Write { .. } | SendOp::WriteImm { .. } => WcOpcode::RdmaWrite,
        SendOp::Read { .. } => WcOpcode::RdmaRead,
    }
}

fn pop_recv(net: &mut NetInner, qp: QpId) -> Option<u64> {
    let popped = net.qps[qp.0 as usize].recv_queue.pop_front();
    if popped.is_none() {
        net.counters.inc(FabricStat::RdmaRnr);
    }
    popped
}

/// Apply a remote WRITE payload to the target MR (a region without
/// contents only checks the range).
///
/// Returns `false` — after counting an `rdma.access_errors` — when the
/// remote-supplied range falls outside the region: that is the *requester's*
/// protocol error and must surface as its completion status, not a panic on
/// the target host.
#[must_use]
fn write_mr(net: &mut NetInner, dst_node: NodeId, mr: MrId, offset: usize, data: &[u8]) -> bool {
    let state = &mut net.mrs[mr.0 as usize];
    assert_eq!(
        state.node, dst_node,
        "WRITE must target an MR on the peer node"
    );
    let end = offset
        .checked_add(data.len())
        .filter(|&end| end <= state.len);
    let wrote = match (end, &mut state.buf) {
        (None, _) => false,
        (Some(_), None) => true,
        (Some(end), Some(buf)) => buf
            .get_mut(offset..end)
            .map(|dst| dst.copy_from_slice(data))
            .is_some(),
    };
    if !wrote {
        net.counters.inc(FabricStat::RdmaAccessErrors);
    }
    wrote
}

/// Make `wc` visible in its QP's send CQ after `delay` — unless it is the
/// success of an unsignaled WR, which the sender never asked to see: no
/// `PushWc` event, no notify, nothing to poll. Every other status
/// completes whatever the flag says.
fn push_sender_wc(
    net: &mut NetInner,
    ctx: &mut Context<'_>,
    delay: SimDuration,
    signaled: bool,
    wc: Wc,
) {
    if wc.status == WcStatus::Success && !signaled {
        return;
    }
    let cq = net.qps[wc.qp.0 as usize].cq;
    net.launch(ctx, ctx.now() + delay, FabricMsg::PushWc { cq, wc });
}
