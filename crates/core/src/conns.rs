//! The connection table every actor keeps its channels in.
//!
//! `KvServer`, `NicKv`, the probe reader and every client's
//! [`crate::link::ClientLink`] own a growing list of [`Channel`]s, find
//! them again by QP or TCP connection id, send on them,
//! tear them down, feed them work completions and TCP deliveries, and — on
//! the replication write path — post the same frame to several of them
//! under one doorbell. [`ConnTable`] is the one owner of that plumbing:
//!
//! * **lookup** — [`ConnTable::conn_of_qp`] / [`ConnTable::conn_of_tcp`]
//!   map a transport id to a connection index; every other call takes the
//!   index, so each actor keeps its own policy for completions that arrive
//!   on a closed connection;
//! * **send / close** — [`ConnTable::send`] reports a send that broke the
//!   channel so the actor can run its own recovery;
//! * **dispatch** — [`ConnTable::on_wc`] and [`ConnTable::on_tcp_bytes`]
//!   turn transport input into [`ConnEvent`]s / messages, over scratch
//!   arrays the table lends out so a steady drain never allocates;
//! * **posting** — [`ConnTable::stage`] builds one `WRITE_WITH_IMM` per
//!   call without ringing a doorbell and [`ConnTable::post`] rings one for
//!   everything staged ([`Net::post_send_batch`]); a single-entry post is
//!   exactly a [`Net::post_send`];
//! * **signaling** — every send, staged frame and handshake flush asks
//!   for a send completion or not as its channel says
//!   ([`Channel::unsignaled`]); [`ConnTable::stage_signaled`] is the
//!   per-WR exception, for the one WR whose completion *is* information
//!   (a tracked write's ack).
//!
//! The doorbell/WR statistics count staged frames at *post* time: a frame
//! staged behind an unfinished MR handshake is queued inside the channel
//! and counted when the handshake completion flushes it, not when staged.
//!
//! The table never charges CPU. Who pays for a post — the host's
//! `post_list_cpu` on the event-loop core, or per-slave ring writes spread
//! over the SmartNIC's ARM threads — is exactly what the paper compares,
//! so each actor keeps that accounting itself.

use skv_netsim::{
    CqId, DetMap, Frame, Net, NodeId, PostError, QpId, SendWr, SocketAddr, TcpConnId, Wc,
};
use skv_simcore::stats::CounterSet;
use skv_simcore::{Context, FramePool};

use crate::channel::{Channel, ChannelMsg};
use crate::cqdrain;
use crate::metrics::catalog::NicStat;

/// One entry of a [`ConnTable`].
struct ConnState<K> {
    channel: Channel,
    /// What the owning actor uses the connection for.
    kind: K,
    open: bool,
    /// The listen address dialled (outbound connections only; inbound
    /// peers show an ephemeral port nobody can route back to).
    peer: Option<SocketAddr>,
    /// Frames staged while the MR handshake was outstanding. They post
    /// inside [`Channel::on_wc`]'s flush, where [`ConnTable::on_wc`]
    /// reconciles them against [`Channel::take_flushed_wrs`] — so the
    /// statistics count staged frames only, never flushed control traffic.
    deferred_wrs: u64,
}

/// What a work completion meant for its connection.
#[derive(Debug)]
pub enum ConnEvent {
    /// It carried an application message.
    Msg(ChannelMsg),
    /// It broke the (still open) channel; the owner must tear it down.
    Broken,
    /// Transport bookkeeping only.
    Quiet,
}

/// An actor's connections, indexed in arrival order. Closed entries keep
/// their index, so indices held elsewhere (node lists, pending replies)
/// never dangle. `K` is the owner's per-connection role tag.
pub struct ConnTable<K> {
    conns: Vec<ConnState<K>>,
    by_qp: DetMap<QpId, usize>,
    by_tcp: DetMap<TcpConnId, usize>,
    /// Send-ring pool attached to every channel added (TCP wire framing).
    pool: Option<FramePool>,
    /// The CQ [`ConnTable::dial`] connects on, created at the first dial.
    dial_cq: Option<CqId>,
    /// The WC array every CQ drain polls into.
    wc_scratch: Vec<Wc>,
    /// The message array every TCP delivery is reassembled into.
    msg_scratch: Vec<ChannelMsg>,
    /// WRs staged for the next [`ConnTable::post`], with the
    /// `(connection, QP, wr_id)` of each in post order.
    wrs: Vec<(QpId, SendWr)>,
    staged: Vec<(usize, QpId, u64)>,
    outcomes: Vec<Result<(), PostError>>,
    /// Doorbells rung by [`ConnTable::post`] (plus one per staged frame a
    /// handshake flush posted on its own) and WRs posted through
    /// [`ConnTable::stage`], as `nic.*` slots: only Nic-KV exports its
    /// table's (the host charges its own `ServerStat::Doorbells`).
    pub(crate) stats: CounterSet<NicStat>,
}

impl<K> ConnTable<K> {
    /// An empty table; `pool`, when given, backs every channel's TCP wire
    /// frames.
    pub fn new(pool: Option<FramePool>) -> Self {
        ConnTable {
            conns: Vec::new(),
            by_qp: DetMap::new(),
            by_tcp: DetMap::new(),
            pool,
            dial_cq: None,
            wc_scratch: Vec::new(),
            msg_scratch: Vec::new(),
            wrs: Vec::new(),
            staged: Vec::new(),
            outcomes: Vec::new(),
            stats: CounterSet::default(),
        }
    }

    /// Take ownership of a fresh channel; returns its connection index.
    pub fn add(&mut self, mut channel: Channel, kind: K, peer: Option<SocketAddr>) -> usize {
        if let Some(pool) = &self.pool {
            channel.use_pool(pool.clone());
        }
        let idx = self.conns.len();
        if let Some(qp) = channel.qp() {
            self.by_qp.insert(qp, idx);
        }
        if let Some(tcp) = channel.tcp_conn() {
            self.by_tcp.insert(tcp, idx);
        }
        self.conns.push(ConnState {
            channel,
            kind,
            open: true,
            peer,
            deferred_wrs: 0,
        });
        idx
    }

    /// Dial `to` from `node` for the calling actor: over RDMA on the
    /// [`ConnTable::dial_on`] CQ, or else a CQ of the table's own — created
    /// and armed at the first dial, reused by every later one — or over
    /// TCP. The transport answers the actor
    /// with `CmEstablished` / `TcpConnected` (or the matching failure),
    /// which is when the channel is built and [`ConnTable::add`]ed.
    pub fn dial(
        &mut self,
        net: &Net,
        ctx: &mut Context<'_>,
        node: NodeId,
        rdma: bool,
        to: SocketAddr,
    ) {
        let me = ctx.id();
        if !rdma {
            net.tcp_connect(ctx, node, me, to);
            return;
        }
        let cq = *self
            .dial_cq
            .get_or_insert_with(|| cqdrain::create_armed(net, ctx));
        net.rdma_connect(ctx, node, me, cq, to);
    }

    /// Make [`ConnTable::dial`] connect on `cq` instead of a CQ of its own.
    pub fn dial_on(&mut self, cq: CqId) {
        self.dial_cq = Some(cq);
    }

    /// Connections ever added (open or closed).
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Whether no connection was ever added.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// The connection a QP belongs to, open or closed.
    pub fn conn_of_qp(&self, qp: QpId) -> Option<usize> {
        self.by_qp.get(&qp).copied()
    }

    /// The connection a TCP connection id belongs to, open or closed.
    pub fn conn_of_tcp(&self, tcp: TcpConnId) -> Option<usize> {
        self.by_tcp.get(&tcp).copied()
    }

    /// Whether `conn` has not been closed.
    pub fn is_open(&self, conn: usize) -> bool {
        self.conns[conn].open
    }

    /// The channel behind `conn` (transport ids, readiness, health).
    pub fn channel(&self, conn: usize) -> &Channel {
        &self.conns[conn].channel
    }

    /// The owner's role tag for `conn`.
    pub fn kind(&self, conn: usize) -> &K {
        &self.conns[conn].kind
    }

    /// Mutable role tag (roles are learned from traffic).
    pub fn kind_mut(&mut self, conn: usize) -> &mut K {
        &mut self.conns[conn].kind
    }

    /// `(index, open, role)` of every connection, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, bool, &K)> {
        self.conns
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.open, &c.kind))
    }

    /// The first open connection whose role satisfies `pred`.
    pub fn find_open(&self, pred: impl Fn(&K) -> bool) -> Option<usize> {
        self.conns.iter().position(|c| c.open && pred(&c.kind))
    }

    /// The open connection that was dialled to `addr`, if any.
    pub fn open_conn_to(&self, addr: SocketAddr) -> Option<usize> {
        self.conns
            .iter()
            .position(|c| c.open && c.peer == Some(addr))
    }

    /// Send `(tag, payload)` on `conn` now (nothing happens on a closed
    /// connection). Returns `false` when the send left the channel broken:
    /// the owner must then close it and start whatever recovery the
    /// connection's role requires.
    pub fn send(
        &mut self,
        net: &Net,
        ctx: &mut Context<'_>,
        conn: usize,
        tag: u32,
        payload: impl Into<Frame>,
    ) -> bool {
        let c = &mut self.conns[conn];
        if !c.open {
            return true;
        }
        c.channel.send(net, ctx, tag, payload);
        !c.channel.broken()
    }

    /// Close `conn` and release its QP; `false` when it was closed
    /// already. Frames still queued behind its handshake die with it.
    pub fn close(&mut self, net: &Net, conn: usize) -> bool {
        let c = &mut self.conns[conn];
        if !c.open {
            return false;
        }
        c.open = false;
        c.deferred_wrs = 0;
        let _ = c.channel.take_flushed_wrs();
        if let Some(qp) = c.channel.qp() {
            net.destroy_qp(qp);
        }
        true
    }

    /// Stage `(tag, payload)` on the open RDMA connection `conn` for the
    /// next [`ConnTable::post`] and return the `(QP, wr_id)` its send-side
    /// completion will carry. `None` when nothing was staged: the
    /// connection is closed, or its MR handshake is outstanding and the
    /// channel queued the frame to flush (and be counted) later.
    pub fn stage(&mut self, conn: usize, tag: u32, payload: Frame) -> Option<(QpId, u64)> {
        let c = &mut self.conns[conn];
        if !c.open {
            return None;
        }
        let Some((qp, wr)) = c.channel.build_wr(tag, payload) else {
            if !c.channel.ready() {
                c.deferred_wrs += 1;
            }
            return None;
        };
        let key = (qp, wr.wr_id);
        self.staged.push((conn, qp, wr.wr_id));
        self.wrs.push((qp, wr));
        Some(key)
    }

    /// [`ConnTable::stage`], but the WR asks for its success completion
    /// whatever the channel's policy: the caller will read it under the
    /// returned key. A frame queued behind the handshake (`None`) flushes
    /// under the channel's policy, like any other.
    pub fn stage_signaled(&mut self, conn: usize, tag: u32, payload: Frame) -> Option<(QpId, u64)> {
        let key = self.stage(conn, tag, payload)?;
        if let Some((_, wr)) = self.wrs.last_mut() {
            wr.signaled = true;
        }
        Some(key)
    }

    /// Post everything staged under one doorbell. Returns the
    /// `(connection, QP, wr_id)` of every WR the fabric rejected (none,
    /// and no allocation, normally); those channels are marked broken and
    /// the owner must close them.
    pub fn post(&mut self, net: &Net, ctx: &mut Context<'_>) -> Vec<(usize, QpId, u64)> {
        if self.wrs.is_empty() {
            return Vec::new();
        }
        self.stats.inc(NicStat::Doorbells);
        self.stats.add(NicStat::WrsPosted, self.wrs.len() as u64);
        net.post_send_batch(ctx, &mut self.wrs, &mut self.outcomes);
        let failed: Vec<_> = self
            .staged
            .drain(..)
            .zip(self.outcomes.drain(..))
            .filter_map(|(id, outcome)| outcome.is_err().then_some(id))
            .collect();
        for &(conn, ..) in &failed {
            self.conns[conn].channel.mark_broken();
        }
        failed
    }

    /// Feed one work completion to `conn`'s channel (open or not — the
    /// caller decides whether closed connections still get theirs).
    pub fn on_wc(&mut self, net: &Net, ctx: &mut Context<'_>, conn: usize, wc: &Wc) -> ConnEvent {
        let c = &mut self.conns[conn];
        let msg = c.channel.on_wc(net, ctx, wc);
        // A handshake completion flushes queued frames, each as its own
        // post; this is the post time of the staged ones among them.
        let flushed = c.channel.take_flushed_wrs().min(c.deferred_wrs);
        c.deferred_wrs -= flushed;
        self.stats.add(NicStat::Doorbells, flushed);
        self.stats.add(NicStat::WrsPosted, flushed);
        match msg {
            Some(m) => ConnEvent::Msg(m),
            None if c.open && c.channel.broken() => ConnEvent::Broken,
            None => ConnEvent::Quiet,
        }
    }

    /// Borrow the WC array for a [`cqdrain::drain_budgeted`] pass; hand it
    /// back with [`ConnTable::put_wcs`].
    pub fn take_wcs(&mut self) -> Vec<Wc> {
        std::mem::take(&mut self.wc_scratch)
    }

    /// Return the (emptied) WC array.
    pub fn put_wcs(&mut self, wcs: Vec<Wc>) {
        self.wc_scratch = wcs;
    }

    /// Reassemble a TCP delivery on `conn` into the table's message array
    /// and lend it out; hand it back with [`ConnTable::put_msgs`].
    pub fn on_tcp_bytes(&mut self, conn: usize, bytes: Frame) -> Vec<ChannelMsg> {
        let mut msgs = std::mem::take(&mut self.msg_scratch);
        self.conns[conn].channel.on_tcp_bytes_into(bytes, &mut msgs);
        msgs
    }

    /// Return the (drained) message array.
    pub fn put_msgs(&mut self, msgs: Vec<ChannelMsg>) {
        self.msg_scratch = msgs;
    }

    /// After a process restart: route every stale completion on `cq`
    /// through its channel so surviving receive slots are replenished (the
    /// messages themselves are dropped — the process "restarted"), then
    /// re-arm the CQ.
    pub fn recover_drain(&mut self, net: &Net, ctx: &mut Context<'_>, cq: CqId) {
        let mut wcs = self.take_wcs();
        cqdrain::recover_drain(net, ctx, cq, &mut wcs, |ctx, wc| {
            if let Some(conn) = self.conn_of_qp(wc.qp) {
                let _ = self.on_wc(net, ctx, conn, &wc);
            }
        });
        self.put_wcs(wcs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use skv_netsim::{NetEvent, NetParams, SendOp, SocketAddr, Topology, WcOpcode, WcStatus};
    use skv_simcore::{FnActor, SimDuration, SimTime, Simulation};

    use crate::channel::RING_SIZE;

    /// Kick the scripted peer into dialing the table's owner.
    struct Connect;

    /// Poke the scripted peer into finally sending its MR handshake.
    struct ReleaseHandshake;

    /// Tell the owner to stage this many frames on connection 0 and post.
    struct Fanout(usize);

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// `(rdma.wrs_posted, rdma.doorbells)` fabric snapshot.
    fn fabric_posts(net: &Net) -> (u64, u64) {
        let c = net.counters();
        (c.get("rdma.wrs_posted"), c.get("rdma.doorbells"))
    }

    /// Drive a table against a scripted peer that establishes its QP but
    /// *withholds* its half of the MR handshake until poked, so the
    /// owner-side channel sits open-but-not-ready while frames are staged.
    /// The table's statistics must track the fabric's `rdma.wrs_posted`
    /// and `rdma.doorbells` exactly through all three phases: nothing while
    /// frames queue, the deferred frames once the handshake flushes them,
    /// and one doorbell per post afterwards.
    #[test]
    fn staged_frames_are_counted_when_they_post_not_when_staged() {
        // A signaled channel: each of the five frames completes back.
        assert_eq!(stage_across_a_withheld_handshake(false), 5);
    }

    /// The channel's signaling policy covers every way a frame leaves it —
    /// including the three the handshake completion flushes from inside
    /// `Channel::on_wc`, where no caller is around to say: an unsignaled
    /// channel posts the same five WRs and polls no completion for them.
    #[test]
    fn frames_flushed_by_the_handshake_inherit_the_channels_policy() {
        assert_eq!(stage_across_a_withheld_handshake(true), 0);
    }

    /// The three-phase script of the two tests above; returns how many
    /// send-side write completions the owner polled.
    fn stage_across_a_withheld_handshake(unsignaled: bool) -> u64 {
        let mut sim = Simulation::new(17);
        let mut topo = Topology::new();
        let owner_node = topo.add_host();
        let peer_node = topo.add_host();
        let net = Net::install(&mut sim, topo, NetParams::default());
        let owner_addr = SocketAddr::new(owner_node, 7000);

        let table: Rc<RefCell<ConnTable<()>>> = Rc::new(RefCell::new(ConnTable::new(None)));
        let write_wcs: Rc<RefCell<u64>> = Rc::default();
        let (tb, n, polled) = (table.clone(), net.clone(), write_wcs.clone());
        let owner = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
            let mut table = tb.borrow_mut();
            let msg = match msg.downcast::<Fanout>() {
                Ok(fanout) => {
                    for _ in 0..fanout.0 {
                        table.stage(0, 7, Frame::copy_from_slice(b"repl-stream-frame"));
                    }
                    assert!(table.post(&n, ctx).is_empty());
                    return;
                }
                Err(msg) => msg,
            };
            let Ok(ev) = msg.downcast::<NetEvent>() else {
                return;
            };
            match *ev {
                NetEvent::CmConnectRequest { req, .. } => {
                    let cq = n.create_cq(ctx.id());
                    n.req_notify_cq(ctx, cq);
                    n.rdma_accept(ctx, req, cq).expect("fresh CM request");
                }
                NetEvent::CmEstablished { qp, .. } => {
                    let mut ch = Channel::rdma(&n, ctx, owner_node, qp, RING_SIZE);
                    if unsignaled {
                        ch = ch.unsignaled();
                    }
                    table.add(ch, (), None);
                }
                NetEvent::CqNotify { cq } => {
                    let mut wcs = table.take_wcs();
                    cqdrain::drain_budgeted(&n, ctx, cq, 64, &mut wcs, |ctx, wc| {
                        let conn = table.conn_of_qp(wc.qp).expect("known QP");
                        if wc.opcode == WcOpcode::RdmaWrite {
                            assert_eq!(wc.status, WcStatus::Success);
                            *polled.borrow_mut() += 1;
                        }
                        table.on_wc(&n, ctx, conn, &wc);
                    });
                    table.put_wcs(wcs);
                }
                _ => {}
            }
        })));
        net.rdma_listen(owner_addr, owner);

        let peer_qp: Rc<RefCell<Option<QpId>>> = Rc::default();
        let (pq, n) = (peer_qp.clone(), net.clone());
        let peer = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
            let msg = match msg.downcast::<Connect>() {
                Ok(_) => {
                    let cq = n.create_cq(ctx.id());
                    n.req_notify_cq(ctx, cq);
                    n.rdma_connect(ctx, peer_node, ctx.id(), cq, owner_addr);
                    return;
                }
                Err(msg) => msg,
            };
            let msg = match msg.downcast::<ReleaseHandshake>() {
                Ok(_) => {
                    // The withheld half of the channel handshake: register
                    // a receive ring and send its handle, exactly as
                    // `Channel::rdma` would have at establishment.
                    let qp = pq.borrow().expect("established before release");
                    let mr = n.register_mr(peer_node, RING_SIZE);
                    let handshake =
                        SendWr::new(u64::MAX - 1, SendOp::Send, mr.0.to_le_bytes().to_vec());
                    n.post_send(ctx, qp, handshake).expect("handshake post");
                    return;
                }
                Err(msg) => msg,
            };
            let Ok(ev) = msg.downcast::<NetEvent>() else {
                return;
            };
            match *ev {
                NetEvent::CmEstablished { qp, .. } => {
                    *pq.borrow_mut() = Some(qp);
                    // Plenty of receive slots for the owner's handshake
                    // SEND and the staged writes; the peer never replenishes.
                    for i in 0..64u64 {
                        n.post_recv(qp, i).expect("post recv");
                    }
                }
                NetEvent::CqNotify { cq } => {
                    cqdrain::drain_budgeted(&n, ctx, cq, 64, &mut Vec::new(), |_, _| {});
                }
                _ => {}
            }
        })));
        sim.schedule(SimTime::ZERO, peer, Connect);
        let stats = |table: &ConnTable<()>| {
            let s = &table.stats;
            (s.get(NicStat::WrsPosted), s.get(NicStat::Doorbells))
        };

        // Phase 0: connection up, the owner's handshake sent, peer silent —
        // the channel is open but not ready, and nothing has been staged.
        sim.run_until(t(5));
        {
            let table = table.borrow();
            assert_eq!(table.len(), 1, "peer connected");
            assert!(table.is_open(0) && !table.channel(0).ready());
            assert_eq!(stats(&table), (0, 0));
        }
        let (wrs0, dbs0) = fabric_posts(&net);

        // Phase 1: three frames staged while the handshake is outstanding.
        // They must queue — zero WRs on the fabric, zero in the statistics
        // (the historical bug counted them here).
        sim.schedule(t(6), owner, Fanout(3));
        sim.run_until(t(10));
        assert_eq!(
            stats(&table.borrow()),
            (0, 0),
            "queued frames are not posts"
        );
        assert_eq!(
            fabric_posts(&net),
            (wrs0, dbs0),
            "nothing reached the fabric"
        );

        // Phase 2: the peer completes the handshake; the queued frames
        // flush (as individual posts — deferral forfeits batching) and the
        // statistics pick them up at actual post time. The fabric saw one
        // extra WR: the peer's own handshake SEND.
        sim.schedule(t(11), peer, ReleaseHandshake);
        sim.run_until(t(20));
        assert!(table.borrow().channel(0).ready());
        assert_eq!(stats(&table.borrow()), (3, 3));
        let (wrs1, dbs1) = fabric_posts(&net);
        assert_eq!(wrs1 - wrs0, 3 + 1, "3 flushed frames + peer handshake");
        assert_eq!(dbs1 - dbs0, 3 + 1);

        // Phase 3: the channel is ready, so staged frames post at once —
        // statistics and fabric deltas agree WR for WR, one doorbell for
        // the pair.
        sim.schedule(t(21), owner, Fanout(2));
        sim.run_until(t(30));
        assert_eq!(stats(&table.borrow()), (3 + 2, 3 + 1));
        let (wrs2, dbs2) = fabric_posts(&net);
        assert_eq!((wrs2 - wrs1, dbs2 - dbs1), (2, 1));
        let polled = *write_wcs.borrow();
        polled
    }
}
