//! The client side of one connection.
//!
//! The paper's load generator is one closed-loop connection per client
//! (redis-benchmark, §V-B). [`ClientLink`] is what such a connection *is*
//! on the client's side, whoever the client: which transport the mode
//! uses, the dial and its `client_dial_delay` backoff, the CQ / TCP input
//! step that turns transport events into replies, whether the connection
//! is still good, and closing it. [`crate::client::BenchClient`] and
//! [`crate::probes::HistWriter`] keep only what to send, what a reply
//! means and when to give up.
//!
//! The owner hands every simulator message it does not recognise to
//! [`ClientLink::accept`] and then takes [`LinkEvent`]s out of
//! [`ClientLink::next_event`] until there are none. Events come out one
//! at a time so that the owner handles each reply between the same two
//! completions it arrived between: handling a reply schedules a timer,
//! handling a completion may post to the fabric, and the order of those
//! is the simulation.
//!
//! The link charges no CPU: a client models none, so the cost of a drain
//! is discarded and an over-budget burst continues in a fresh event at
//! the same instant — other messages still interleave, which is all the
//! budget is for here.

use skv_netsim::{CqId, Frame, Net, NetEvent, NodeId, SocketAddr, Wc};
use skv_simcore::{Context, FramePool, Payload, SimDuration};

use crate::channel::{Channel, ChannelMsg, RING_SIZE};
use crate::config::ClusterConfig;
use crate::conns::{ConnEvent, ConnTable};
use crate::cqdrain::{self, POLL_BUDGET};
use crate::protocol::tag;

/// What the transport told the link.
#[derive(Debug)]
pub enum LinkEvent {
    /// The dial succeeded: start sending.
    Up,
    /// One reply frame from the server.
    Reply(Frame),
    /// The connection is gone — an error completion broke the channel, or
    /// (`by_peer`) the server closed it. The owner gives up on what is in
    /// flight, [`ClientLink::close`]s and dials again.
    Lost {
        /// The server closed the connection (TCP only).
        by_peer: bool,
    },
    /// The dial was refused; dial again after this long.
    Refused(SimDuration),
}

/// One client's connection to one server address, re-dialled at will.
pub struct ClientLink {
    net: Net,
    cfg: ClusterConfig,
    node: NodeId,
    server: SocketAddr,
    /// Every connection this link ever opened; it talks on `conn`.
    conns: ConnTable<()>,
    /// The live connection, if any. Whatever the transport delivers is
    /// taken as this connection's traffic.
    conn: Option<usize>,
    /// Consecutive refused dials since the last established connection.
    dial_attempts: u32,
    /// Input [`ClientLink::accept`] took and [`ClientLink::next_event`]
    /// has yet to hand out, newest first: polled completions, reassembled
    /// TCP messages, the drain to finish, and at most one event of the
    /// other kinds.
    wcs: Vec<Wc>,
    msgs: Vec<ChannelMsg>,
    draining: Option<(CqId, usize)>,
    broke: bool,
    queued: Option<LinkEvent>,
}

impl ClientLink {
    /// A link from `node` to `server`, not yet dialled. `pool`, when
    /// given, backs the TCP wire frames.
    pub fn new(
        net: Net,
        cfg: ClusterConfig,
        node: NodeId,
        server: SocketAddr,
        pool: Option<FramePool>,
    ) -> Self {
        ClientLink {
            net,
            cfg,
            node,
            server,
            conns: ConnTable::new(pool),
            conn: None,
            dial_attempts: 0,
            wcs: Vec::new(),
            msgs: Vec::new(),
            draining: None,
            broke: false,
            queued: None,
        }
    }

    /// The address this link dials.
    pub fn server(&self) -> SocketAddr {
        self.server
    }

    /// Dial, unless a connection is up. The answer arrives as
    /// [`LinkEvent::Up`] or [`LinkEvent::Refused`].
    pub fn dial(&mut self, ctx: &mut Context<'_>) {
        if self.conn.is_none() {
            let rdma = self.cfg.mode.uses_rdma();
            self.conns
                .dial(&self.net, ctx, self.node, rdma, self.server);
        }
    }

    /// Whether a connection is up (it may have broken since).
    pub fn connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Whether the connection that is up can no longer carry traffic.
    pub fn broken(&self) -> bool {
        self.conn.is_some_and(|c| self.conns.channel(c).broken())
    }

    /// Send one command (nothing happens without a connection). A send
    /// that breaks the channel shows in [`ClientLink::broken`].
    pub fn send(&mut self, ctx: &mut Context<'_>, cmd: impl Into<Frame>) {
        if let Some(conn) = self.conn {
            self.conns.send(&self.net, ctx, conn, tag::CMD, cmd);
        }
    }

    /// Abandon the connection, if any: commands in flight on it are lost,
    /// like a real client timing out.
    pub fn close(&mut self, ctx: &mut Context<'_>) {
        let Some(conn) = self.conn.take() else {
            return;
        };
        self.conns.close(&self.net, conn);
        if let Some(tcp) = self.conns.channel(conn).tcp_conn() {
            self.net.tcp_close(ctx, tcp);
        }
    }

    /// Take one simulator message; anything but transport input is
    /// ignored. Follow with [`ClientLink::next_event`] until `None`.
    pub fn accept(&mut self, ctx: &mut Context<'_>, msg: Payload) {
        let Ok(ev) = msg.downcast::<NetEvent>() else {
            return;
        };
        match ctx.open(ev) {
            // A second QP while connected is left unused; a second TCP
            // connection replaces the first.
            NetEvent::CmEstablished { qp, .. } if self.conn.is_none() => {
                // A request's completion is its reply; its send completion
                // says nothing the client reads. The channel queues the
                // first burst until the MR handshake completes.
                let ch = Channel::rdma(&self.net, ctx, self.node, qp, RING_SIZE).unsignaled();
                self.connected_on(ch);
            }
            NetEvent::TcpConnected { conn, .. } => self.connected_on(Channel::tcp(conn)),
            NetEvent::CqNotify { cq } => {
                let polled = cqdrain::begin_drain(&self.net, cq, POLL_BUDGET, &mut self.wcs);
                self.wcs.reverse();
                self.draining = Some((cq, polled));
            }
            NetEvent::TcpDelivered { bytes, .. } => {
                if let Some(conn) = self.conn {
                    self.msgs = self.conns.on_tcp_bytes(conn, bytes);
                    self.msgs.reverse();
                }
            }
            NetEvent::TcpClosed { .. } => self.queued = Some(LinkEvent::Lost { by_peer: true }),
            NetEvent::CmConnectFailed { .. } | NetEvent::TcpConnectFailed { .. } => {
                // Capped exponential backoff: the base delay for the
                // startup race, doubling toward the configured cap under a
                // long partition — but never beyond `client_retry_timeout`,
                // so a recovered server is found within one watchdog period.
                self.dial_attempts = self.dial_attempts.saturating_add(1);
                let delay = self.cfg.client_dial_delay(self.dial_attempts);
                self.queued = Some(LinkEvent::Refused(delay));
            }
            _ => {}
        }
    }

    fn connected_on(&mut self, channel: Channel) {
        self.dial_attempts = 0;
        self.conn = Some(self.conns.add(channel, (), None));
        self.queued = Some(LinkEvent::Up);
    }

    /// The next thing the accepted input means, in arrival order.
    pub fn next_event(&mut self, ctx: &mut Context<'_>) -> Option<LinkEvent> {
        while let Some(wc) = self.wcs.pop() {
            // Dropped: completions past a break, and those of a QP that
            // is not the live connection's (a closed one, an unused one).
            let live = |c: &usize| !self.broke && self.conns.channel(*c).qp() == Some(wc.qp);
            let Some(conn) = self.conn.filter(live) else {
                continue;
            };
            match self.conns.on_wc(&self.net, ctx, conn, &wc) {
                ConnEvent::Msg(m) if m.tag == tag::REPLY => {
                    return Some(LinkEvent::Reply(m.payload));
                }
                ConnEvent::Broken => self.broke = true,
                _ => {}
            }
        }
        while let Some(m) = self.msgs.pop() {
            if m.tag == tag::REPLY {
                return Some(LinkEvent::Reply(m.payload));
            }
        }
        if self.msgs.capacity() > 0 {
            // The table lent the array; it reuses it for the next delivery.
            self.conns.put_msgs(std::mem::take(&mut self.msgs));
        }
        if let Some((cq, polled)) = self.draining.take() {
            if cqdrain::finish_drain(&self.net, ctx, cq, POLL_BUDGET, polled).more {
                ctx.timer_at(ctx.now(), NetEvent::CqNotify { cq });
            }
        }
        if std::mem::take(&mut self.broke) {
            return Some(LinkEvent::Lost { by_peer: false });
        }
        self.queued.take()
    }
}
