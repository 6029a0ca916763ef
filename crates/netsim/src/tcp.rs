//! The TCP-like kernel-stack transport.
//!
//! Original Redis runs over the kernel network stack; the paper's Figure 10
//! baseline ("original Redis") therefore pays per-message syscall and copy
//! overhead and higher end-to-end latency. This module models a reliable,
//! in-order, connection-oriented message stream with those costs.
//!
//! CPU accounting: the fabric adds *latency*; the *CPU time* burned in the
//! kernel is charged by the application actors themselves (via
//! [`crate::NetParams::tcp_send_cost`] / [`tcp_recv_cost`]) so that it
//! contends with command execution on the server core, exactly the
//! contention the paper attributes Redis's low throughput to.
//!
//! [`tcp_recv_cost`]: crate::NetParams::tcp_recv_cost

use skv_simcore::{ActorId, Context, Frame, SimDuration};

use crate::counters::Slot;
use crate::fabric::{Net, TcpConnState};
use crate::faults::Verdict;
use crate::types::{next_id, NetEvent, NodeId, SocketAddr, TcpConnId};

/// Extra delivery delay of one TCP retransmission timeout when the fault
/// plan drops a segment (the minimum Linux RTO).
const TCP_RTO: SimDuration = SimDuration::from_millis(200);

impl Net {
    /// Register `actor` as the accept handler for TCP connections to `addr`.
    ///
    /// # Panics
    /// Panics if the address is already bound.
    pub fn tcp_listen(&self, addr: SocketAddr, actor: ActorId) {
        let mut inner = self.inner.borrow_mut();
        let prev = inner.tcp_listeners.insert(addr, actor);
        assert!(prev.is_none(), "TCP address {addr} already bound");
    }

    /// Open a connection from (`from_node`, `from_actor`) to `to`.
    ///
    /// On success the caller receives [`NetEvent::TcpConnected`] and the
    /// listener receives [`NetEvent::TcpAccepted`] after the handshake
    /// latency; otherwise the caller receives [`NetEvent::TcpConnectFailed`].
    pub fn tcp_connect(
        &self,
        ctx: &mut Context<'_>,
        from_node: NodeId,
        from_actor: ActorId,
        to: SocketAddr,
    ) {
        let mut inner = self.inner.borrow_mut();
        let handshake = inner.params.connect_latency;
        let listener = inner.tcp_listeners.get(&to).copied();
        let reachable = inner.up(from_node) && inner.up(to.node) && listener.is_some();
        let judged = inner.judge(ctx.now(), from_node, to.node);
        let listener = match listener {
            Some(l) if reachable && judged != Verdict::Drop => l,
            _ => {
                if reachable {
                    inner.counters.inc(Slot::FaultsTcpConnectDropped);
                }
                ctx.send_in(handshake, from_actor, NetEvent::TcpConnectFailed { to });
                return;
            }
        };
        let local_port = inner.alloc_ephemeral();
        let local_addr = SocketAddr::new(from_node, local_port);

        let done = ctx.now() + handshake;
        let client_id = TcpConnId(next_id(inner.tcp_conns.len()));
        inner.tcp_conns.push(TcpConnState {
            node: from_node,
            actor: from_actor,
            peer: None,
            next_delivery: done,
            open: true,
        });
        let server_id = TcpConnId(next_id(inner.tcp_conns.len()));
        inner.tcp_conns.push(TcpConnState {
            node: to.node,
            actor: listener,
            peer: Some(client_id),
            next_delivery: done,
            open: true,
        });
        inner.tcp_conns[client_id.0 as usize].peer = Some(server_id);
        inner.counters.inc(Slot::TcpConnects);

        ctx.send_in(
            handshake,
            from_actor,
            NetEvent::TcpConnected {
                conn: client_id,
                peer: to,
            },
        );
        ctx.send_in(
            handshake,
            listener,
            NetEvent::TcpAccepted {
                conn: server_id,
                peer: local_addr,
            },
        );
    }

    /// Send one message on `conn`. Delivery is reliable and in order.
    ///
    /// The caller should separately charge [`crate::NetParams::tcp_send_cost`]
    /// to its own core, and the receiver [`crate::NetParams::tcp_recv_cost`]
    /// upon delivery.
    pub fn tcp_send(&self, ctx: &mut Context<'_>, conn: TcpConnId, bytes: impl Into<Frame>) {
        let bytes: Frame = bytes.into();
        let mut inner = self.inner.borrow_mut();
        let state = &inner.tcp_conns[conn.0 as usize];
        if !state.open {
            return;
        }
        let Some(peer_id) = state.peer else { return };
        let src = state.node;
        let (dst_node, dst_actor, dst_open) = {
            let p = &inner.tcp_conns[peer_id.0 as usize];
            (p.node, p.actor, p.open)
        };
        if !dst_open || !inner.up(src) || !inner.up(dst_node) {
            inner.counters.inc(Slot::TcpDrops);
            return;
        }
        let n = bytes.len();
        let stack = inner.params.tcp_stack_latency;
        let extra_base = inner.params.tcp_base_latency;
        // Fault injection: TCP stays reliable, so a dropped segment costs a
        // retransmission timeout rather than vanishing.
        let fault_delay = match inner.judge(ctx.now(), src, dst_node) {
            Verdict::Deliver => SimDuration::ZERO,
            Verdict::Drop => {
                inner.counters.inc(Slot::FaultsTcpRetrans);
                TCP_RTO
            }
            Verdict::Delay(d) => {
                inner.counters.inc(Slot::FaultsTcpDelayed);
                d
            }
        };
        let (arrival, _lat) = inner.wire(ctx.now(), src, dst_node, n);
        // Kernel stack traversals on both ends plus the TCP path's base cost.
        let mut deliver_at = arrival + stack + stack + extra_base + fault_delay;
        // Enforce in-order delivery per connection.
        let peer = &mut inner.tcp_conns[peer_id.0 as usize];
        deliver_at = deliver_at.max(peer.next_delivery);
        peer.next_delivery = deliver_at;
        inner.counters.inc(Slot::TcpMessages);
        inner.counters.add(Slot::TcpBytes, n as u64);

        ctx.send_at(
            deliver_at,
            dst_actor,
            NetEvent::TcpDelivered {
                conn: peer_id,
                bytes,
            },
        );
    }

    /// Close a connection. The peer receives [`NetEvent::TcpClosed`].
    pub fn tcp_close(&self, ctx: &mut Context<'_>, conn: TcpConnId) {
        let mut inner = self.inner.borrow_mut();
        let state = &mut inner.tcp_conns[conn.0 as usize];
        if !state.open {
            return;
        }
        state.open = false;
        let peer = state.peer;
        let src = state.node;
        if let Some(peer_id) = peer {
            let lat = {
                let p = &inner.tcp_conns[peer_id.0 as usize];
                if !p.open {
                    return;
                }
                inner.topo.base_latency(src, p.node, &inner.params)
            };
            let p = &mut inner.tcp_conns[peer_id.0 as usize];
            p.peer = None;
            let actor = p.actor;
            ctx.send_in(lat, actor, NetEvent::TcpClosed { conn: peer_id });
        }
    }

    /// Whether a connection endpoint is still open.
    pub fn tcp_is_open(&self, conn: TcpConnId) -> bool {
        self.inner.borrow().tcp_conns[conn.0 as usize].open
    }
}
