//! The client side of a client's connections.
//!
//! The paper's load generator is one closed-loop connection per client
//! (redis-benchmark, §V-B). [`ClientLink`] is what such a connection *is*
//! on the client's side: which transport the mode uses, the dial and its
//! `client_dial_delay` backoff, the CQ / TCP input step that turns
//! transport events into replies, whether the connection is still good,
//! and closing it. A link has one or more *targets*, each dialled and
//! re-dialled on its own, all on the one CQ its table dials on: a bench
//! client has one, and a history probe that reads from a quorum has the
//! anchor first and its peers after it. [`crate::client::BenchClient`]
//! keeps only what to send, what a reply means and when to give up.
//!
//! The owner hands every simulator message it does not recognise to
//! [`ClientLink::accept`] and then takes `(target, LinkEvent)`s out of
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

/// What the transport told the link about one target.
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

/// One address a link dials, and its connection there.
struct Target {
    addr: SocketAddr,
    /// The live connection, if any. Whatever the transport delivers for
    /// this target is taken as this connection's traffic.
    conn: Option<usize>,
    /// Consecutive refused dials since the last established connection.
    dial_attempts: u32,
    /// An error completion broke `conn` in the drain under way.
    broke: bool,
}

/// One client's connections to its targets, each re-dialled at will.
pub struct ClientLink {
    net: Net,
    cfg: ClusterConfig,
    node: NodeId,
    targets: Vec<Target>,
    /// Every connection this link ever opened, tagged with its target.
    conns: ConnTable<usize>,
    /// Input [`ClientLink::accept`] took and [`ClientLink::next_event`]
    /// has yet to hand out, newest first: polled completions, reassembled
    /// TCP messages (and their target), the drain to finish, and at most
    /// one event of the other kinds.
    wcs: Vec<Wc>,
    msgs: Vec<ChannelMsg>,
    msgs_from: usize,
    draining: Option<(CqId, usize)>,
    queued: Option<(usize, LinkEvent)>,
}

impl ClientLink {
    /// A link from `node` to `targets`, none dialled yet. `pool`, when
    /// given, backs the TCP wire frames.
    pub fn new(
        net: Net,
        cfg: ClusterConfig,
        node: NodeId,
        targets: &[SocketAddr],
        pool: Option<FramePool>,
    ) -> Self {
        let targets = targets.iter().map(|&addr| Target {
            addr,
            conn: None,
            dial_attempts: 0,
            broke: false,
        });
        ClientLink {
            net,
            cfg,
            node,
            targets: targets.collect(),
            conns: ConnTable::new(pool),
            wcs: Vec::new(),
            msgs: Vec::new(),
            msgs_from: 0,
            draining: None,
            queued: None,
        }
    }

    /// The address of `target`.
    pub fn target(&self, target: usize) -> SocketAddr {
        self.targets[target].addr
    }

    /// Dial `target`, unless its connection is up. The answer arrives as
    /// [`LinkEvent::Up`] or [`LinkEvent::Refused`].
    pub fn dial(&mut self, ctx: &mut Context<'_>, target: usize) {
        let t = &self.targets[target];
        if t.conn.is_none() {
            let rdma = self.cfg.mode.uses_rdma();
            self.conns.dial(&self.net, ctx, self.node, rdma, t.addr);
        }
    }

    /// Dial every target whose connection is not up.
    pub fn dial_all(&mut self, ctx: &mut Context<'_>) {
        for target in 0..self.targets.len() {
            self.dial(ctx, target);
        }
    }

    /// Whether `target`'s connection is up (it may have broken since).
    pub fn connected(&self, target: usize) -> bool {
        self.targets[target].conn.is_some()
    }

    /// How many targets have a connection up.
    pub fn up(&self) -> usize {
        self.targets.iter().filter(|t| t.conn.is_some()).count()
    }

    /// Whether a connection that is up can no longer carry traffic.
    pub fn broken(&self) -> bool {
        let mut live = self.targets.iter().filter_map(|t| t.conn);
        live.any(|c| self.conns.channel(c).broken())
    }

    /// Send one command to every target that is up. A send that breaks a
    /// channel shows in [`ClientLink::broken`].
    pub fn send(&mut self, ctx: &mut Context<'_>, cmd: impl Into<Frame>) {
        let cmd = cmd.into();
        for conn in self.targets.iter().filter_map(|t| t.conn) {
            self.conns.send(&self.net, ctx, conn, tag::CMD, cmd.clone());
        }
    }

    /// Abandon `target`'s connection, if any: commands in flight on it are
    /// lost, like a real client timing out.
    pub fn close_target(&mut self, ctx: &mut Context<'_>, target: usize) {
        let Some(conn) = self.targets[target].conn.take() else {
            return;
        };
        self.conns.close(&self.net, conn);
        if let Some(tcp) = self.conns.channel(conn).tcp_conn() {
            self.net.tcp_close(ctx, tcp);
        }
    }

    /// Abandon every target's connection.
    pub fn close(&mut self, ctx: &mut Context<'_>) {
        for target in 0..self.targets.len() {
            self.close_target(ctx, target);
        }
    }

    /// Take one simulator message; anything but transport input is
    /// ignored. Follow with [`ClientLink::next_event`] until `None`.
    pub fn accept(&mut self, ctx: &mut Context<'_>, msg: Payload) {
        let Ok(ev) = msg.downcast::<NetEvent>() else {
            return;
        };
        let target_of = |targets: &[Target], addr| targets.iter().position(|t| t.addr == addr);
        match ctx.open(ev) {
            NetEvent::CmEstablished { qp, peer } => {
                // A second QP to a target that is connected is left
                // unused. A request's completion is its reply; its send
                // completion says nothing the client reads. The channel
                // queues the first burst until the MR handshake completes.
                let idle = |t: &Target| t.addr == peer && t.conn.is_none();
                if let Some(target) = self.targets.iter().position(idle) {
                    let ch = Channel::rdma(&self.net, ctx, self.node, qp, RING_SIZE).unsignaled();
                    self.connected_on(target, ch);
                }
            }
            // A second TCP connection replaces the first.
            NetEvent::TcpConnected { conn, peer } => {
                if let Some(target) = target_of(&self.targets, peer) {
                    self.connected_on(target, Channel::tcp(conn));
                }
            }
            NetEvent::CqNotify { cq } => {
                let polled = cqdrain::begin_drain(&self.net, cq, POLL_BUDGET, &mut self.wcs);
                self.wcs.reverse();
                self.draining = Some((cq, polled));
            }
            NetEvent::TcpDelivered { conn, bytes } => {
                let target = self.target_of_tcp(conn);
                if let Some(conn) = self.targets[target].conn {
                    self.msgs = self.conns.on_tcp_bytes(conn, bytes);
                    self.msgs.reverse();
                    self.msgs_from = target;
                }
            }
            NetEvent::TcpClosed { conn } => {
                let lost = LinkEvent::Lost { by_peer: true };
                self.queued = Some((self.target_of_tcp(conn), lost));
            }
            NetEvent::CmConnectFailed { to } | NetEvent::TcpConnectFailed { to } => {
                let Some(target) = target_of(&self.targets, to) else {
                    return;
                };
                // Capped exponential backoff: the base delay for the
                // startup race, doubling toward the configured cap under a
                // long partition — but never beyond `client_retry_timeout`,
                // so a recovered server is found within one watchdog period.
                let t = &mut self.targets[target];
                t.dial_attempts = t.dial_attempts.saturating_add(1);
                let delay = self.cfg.client_dial_delay(t.dial_attempts);
                self.queued = Some((target, LinkEvent::Refused(delay)));
            }
            _ => {}
        }
    }

    /// The target a TCP connection was opened to (the first, if unknown).
    fn target_of_tcp(&self, tcp: skv_netsim::TcpConnId) -> usize {
        let conn = self.conns.conn_of_tcp(tcp);
        conn.map_or(0, |c| *self.conns.kind(c))
    }

    fn connected_on(&mut self, target: usize, channel: Channel) {
        let conn = self.conns.add(channel, target, None);
        let t = &mut self.targets[target];
        t.dial_attempts = 0;
        t.conn = Some(conn);
        self.queued = Some((target, LinkEvent::Up));
    }

    /// The next thing the accepted input means, and for which target, in
    /// arrival order.
    pub fn next_event(&mut self, ctx: &mut Context<'_>) -> Option<(usize, LinkEvent)> {
        while let Some(wc) = self.wcs.pop() {
            // Dropped: completions past their target's break, and those of
            // a QP that is no target's live connection (a closed one, an
            // unused one).
            let live = self.targets.iter().enumerate().find_map(|(target, t)| {
                let on_qp = |c: &usize| self.conns.channel(*c).qp() == Some(wc.qp);
                Some((target, t.conn.filter(on_qp).filter(|_| !t.broke)?))
            });
            let Some((target, conn)) = live else {
                continue;
            };
            match self.conns.on_wc(&self.net, ctx, conn, &wc) {
                ConnEvent::Msg(m) if m.tag == tag::REPLY => {
                    return Some((target, LinkEvent::Reply(m.payload)));
                }
                ConnEvent::Broken => self.targets[target].broke = true,
                _ => {}
            }
        }
        while let Some(m) = self.msgs.pop() {
            if m.tag == tag::REPLY {
                return Some((self.msgs_from, LinkEvent::Reply(m.payload)));
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
        if let Some(target) = self.targets.iter().position(|t| t.broke) {
            self.targets[target].broke = false;
            return Some((target, LinkEvent::Lost { by_peer: false }));
        }
        self.queued.take()
    }
}
