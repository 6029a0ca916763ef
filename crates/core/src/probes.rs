//! # probes — the history probe actors
//!
//! Dedicated clients that record a client-visible [`History`] during
//! chaos runs, for [`crate::histcheck::check_linearizable`] to check
//! afterwards (deployed by `Cluster::add_history`):
//!
//! * [`HistWriter`] — owns a namespaced key set (`h:{writer}:{key}`) and
//!   issues `SET key <seq>` to the master, one in flight, with strictly
//!   increasing `seq` per writer. Single-writer-per-key by construction.
//! * [`HistReader`] — issues `GET` for a random probe key to a set of
//!   target servers (the *anchor* plus optional quorum peers) and
//!   completes a read once the anchor and `read_quorum` targets
//!   responded, taking the **maximum** observed sequence number.
//!
//! Everything is deterministic: actors draw from split [`DetRng`]s, the
//! history lives in a [`SharedHistory`] the test inspects after the run.
//!
//! [`History`]: crate::histcheck::History

use std::collections::VecDeque;

use skv_netsim::{Net, NetEvent, NodeId, SocketAddr};
use skv_simcore::{Actor, ActorId, Context, DetRng, Payload, SimDuration, SimTime};
use skv_store::resp::Resp;

use crate::channel::{Channel, RING_SIZE};
use crate::client::parse_reply_stamp;
use crate::config::ClusterConfig;
use crate::conns::{ConnEvent, ConnTable};
use crate::cqdrain::{self, POLL_BUDGET};
use crate::histcheck::{OpKind, SharedHistory};
use crate::link::{ClientLink, LinkEvent};
use crate::protocol::tag;

/// Writer probes per deployment; each owns its key namespace.
pub const WRITERS: usize = 2;
/// Keys per writer.
const KEYS_PER_WRITER: usize = 4;
/// Reader probes per deployment.
pub const READERS: usize = 2;
/// Think time between a completion and the probe's next operation.
const OP_GAP: SimDuration = SimDuration::from_micros(30);

/// The probe key for `(writer, key_idx)`; namespaced away from the
/// benchmark keyspace.
pub fn probe_key(writer: usize, key_idx: usize) -> String {
    format!("h:{writer:02}:{key_idx:04}")
}

/// Where a [`HistReader`] anchors its reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadAnchor {
    /// Read from the master only (quorum-mode arm: the master holds
    /// every committed write).
    Master,
    /// Read from one slave only (async arm: exposes staleness; chain
    /// arm with the tail index: the commit point).
    Slave(usize),
    /// Read from the master plus enough slaves for a majority of the
    /// replica set (ABD-style read quorum).
    MasterQuorum,
}

#[derive(Default)]
enum ProbeMsg {
    #[default]
    Start,
    IssueNext,
    Watchdog,
}

/// Single-writer probe actor: `SET probe_key <seq>` to the master, one
/// operation in flight, strictly increasing `seq`.
pub struct HistWriter {
    link: ClientLink,
    retry_timeout: SimDuration,
    history: SharedHistory,
    writer_id: usize,
    start_at: SimTime,
    stop_at: SimTime,
    seq: u64,
    /// Index into the shared history of the op awaiting its reply.
    in_flight: Option<usize>,
}

impl HistWriter {
    /// Create a writer probe targeting `server` (the master).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        net: Net,
        cfg: ClusterConfig,
        node: NodeId,
        server: SocketAddr,
        history: SharedHistory,
        writer_id: usize,
        start_at: SimTime,
        stop_at: SimTime,
    ) -> Self {
        HistWriter {
            retry_timeout: cfg.client_retry_timeout,
            link: ClientLink::new(net, cfg, node, server, None),
            history,
            writer_id,
            start_at,
            stop_at,
            seq: 0,
            in_flight: None,
        }
    }

    fn abandon(&mut self, ctx: &mut Context<'_>) {
        // The in-flight op stays incomplete in the history: its effect is
        // unknown (the checker treats it as maybe-applied).
        self.in_flight = None;
        self.link.close(ctx);
        ctx.timer(SimDuration::from_millis(1), ProbeMsg::Start);
    }

    fn issue(&mut self, ctx: &mut Context<'_>) {
        if ctx.now() >= self.stop_at || self.in_flight.is_some() {
            return;
        }
        if !self.link.connected() || self.link.broken() {
            // Don't record an op we provably cannot send: a dangling
            // invocation would read as a maybe-applied write. The
            // watchdog redials and re-issues.
            return;
        }
        self.seq += 1;
        let key = probe_key(
            self.writer_id,
            usize::try_from(self.seq).unwrap_or(0) % KEYS_PER_WRITER,
        );
        let value = self.seq.to_string();
        let cmd = Resp::command([b"SET".as_slice(), key.as_bytes(), value.as_bytes()]);
        let idx = self
            .history
            .borrow_mut()
            .invoke(key, OpKind::Write, self.seq, ctx.now());
        self.in_flight = Some(idx);
        self.link.send(ctx, cmd.encode());
    }

    fn on_reply(&mut self, ctx: &mut Context<'_>, payload: &[u8]) {
        let Some(idx) = self.in_flight.take() else {
            return;
        };
        let is_error = payload.first() == Some(&b'-');
        let mut h = self.history.borrow_mut();
        if let Some(op) = h.ops.get_mut(idx) {
            op.completed = Some(ctx.now());
            op.ok = !is_error;
        }
        drop(h);
        ctx.timer(OP_GAP, ProbeMsg::IssueNext);
    }
}

impl Actor for HistWriter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.timer_at(self.start_at, ProbeMsg::Start);
        ctx.timer_at(self.start_at + self.retry_timeout, ProbeMsg::Watchdog);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, msg: Payload) {
        let msg = match msg.downcast::<ProbeMsg>() {
            Ok(m) => {
                match ctx.open(m) {
                    ProbeMsg::Start => self.link.dial(ctx),
                    ProbeMsg::IssueNext => self.issue(ctx),
                    ProbeMsg::Watchdog => {
                        let now = ctx.now();
                        if now >= self.stop_at && self.in_flight.is_none() {
                            return;
                        }
                        let stuck = self.in_flight.is_some_and(|idx| {
                            self.history.borrow().ops.get(idx).is_some_and(|op| {
                                now.saturating_since(op.invoked) > self.retry_timeout
                            })
                        });
                        if stuck || self.link.broken() {
                            self.abandon(ctx);
                        }
                        ctx.timer(self.retry_timeout, ProbeMsg::Watchdog);
                    }
                }
                return;
            }
            Err(other) => other,
        };
        self.link.accept(ctx, msg);
        while let Some(ev) = self.link.next_event(ctx) {
            match ev {
                LinkEvent::Up => self.issue(ctx),
                LinkEvent::Reply(payload) => self.on_reply(ctx, &payload),
                LinkEvent::Lost { by_peer } if !by_peer || ctx.now() < self.stop_at => {
                    self.abandon(ctx);
                }
                LinkEvent::Lost { .. } => {}
                LinkEvent::Refused(delay) => ctx.timer(delay, ProbeMsg::Start),
            }
        }
    }
}

struct TargetConn {
    addr: SocketAddr,
    /// This target's connection in the reader's table, once established.
    conn: Option<usize>,
    /// Read generations with a GET outstanding on this channel, oldest
    /// first (replies arrive in FIFO order per channel).
    outstanding: VecDeque<u64>,
}

/// Multi-target read probe: GETs a random probe key from every connected
/// target and completes once the anchor (`targets[0]`) plus
/// `read_quorum` total targets responded, observing the maximum value.
/// RDMA modes only (one CQ multiplexes all target QPs).
pub struct HistReader {
    net: Net,
    retry_timeout: SimDuration,
    node: NodeId,
    targets: Vec<TargetConn>,
    read_quorum: usize,
    history: SharedHistory,
    start_at: SimTime,
    stop_at: SimTime,
    rng: DetRng,
    /// One connection per reachable target, tagged with the target index.
    conns: ConnTable<usize>,
    cur_gen: u64,
    /// Index into the shared history of the read in progress.
    cur_op: Option<usize>,
    /// Per-target observation for the current generation.
    got: Vec<Option<u64>>,
}

impl HistReader {
    /// Create a reader probe. `targets[0]` is the anchor; a read needs
    /// the anchor plus `read_quorum` total responders.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        net: Net,
        cfg: ClusterConfig,
        node: NodeId,
        targets: Vec<SocketAddr>,
        read_quorum: usize,
        history: SharedHistory,
        start_at: SimTime,
        stop_at: SimTime,
    ) -> Self {
        let got = vec![None; targets.len()];
        HistReader {
            net,
            retry_timeout: cfg.client_retry_timeout,
            node,
            targets: targets
                .into_iter()
                .map(|addr| TargetConn {
                    addr,
                    conn: None,
                    outstanding: VecDeque::new(),
                })
                .collect(),
            read_quorum: read_quorum.max(1),
            history,
            start_at,
            stop_at,
            rng: DetRng::new(0),
            conns: ConnTable::new(None),
            cur_gen: 0,
            cur_op: None,
            got,
        }
    }

    fn dial_missing(&mut self, ctx: &mut Context<'_>) {
        for t in &mut self.targets {
            if t.conn.is_some_and(|c| !self.conns.channel(c).broken()) {
                continue;
            }
            if let Some(conn) = t.conn.take() {
                self.conns.close(&self.net, conn);
                t.outstanding.clear();
            }
            self.conns.dial(&self.net, ctx, self.node, true, t.addr);
        }
    }

    fn issue(&mut self, ctx: &mut Context<'_>) {
        if ctx.now() >= self.stop_at || self.cur_op.is_some() {
            return;
        }
        // No anchor connection → nothing can complete; back off and retry.
        if self.targets.first().is_some_and(|t| t.conn.is_none()) {
            ctx.timer(self.retry_timeout, ProbeMsg::IssueNext);
            return;
        }
        let writer = usize::try_from(self.rng.below(WRITERS as u64)).unwrap_or(0);
        let key_idx = usize::try_from(self.rng.below(KEYS_PER_WRITER as u64)).unwrap_or(0);
        let key = probe_key(writer, key_idx);
        let cmd = Resp::command([b"GET".as_slice(), key.as_bytes()]).encode();
        self.cur_gen += 1;
        for g in &mut self.got {
            *g = None;
        }
        let idx = self
            .history
            .borrow_mut()
            .invoke(key, OpKind::Read, 0, ctx.now());
        self.cur_op = Some(idx);
        let gen = self.cur_gen;
        for t in &mut self.targets {
            let Some(conn) = t.conn else {
                continue;
            };
            self.conns.send(&self.net, ctx, conn, tag::CMD, cmd.clone());
            t.outstanding.push_back(gen);
        }
        self.maybe_complete(ctx);
    }

    /// Record target `ti`'s reply for the generation it answers; complete
    /// the current read when anchor + quorum responded.
    fn on_get_reply(&mut self, ctx: &mut Context<'_>, ti: usize, payload: &[u8]) {
        let Some(gen) = self.targets[ti].outstanding.pop_front() else {
            return;
        };
        if gen != self.cur_gen || self.cur_op.is_none() {
            return; // reply for an abandoned generation
        }
        if let Some(v) = parse_reply_stamp(payload) {
            self.got[ti] = Some(v);
        }
        self.maybe_complete(ctx);
    }

    fn maybe_complete(&mut self, ctx: &mut Context<'_>) {
        let Some(idx) = self.cur_op else { return };
        if self.got.first().copied().flatten().is_none() {
            return; // anchor has not answered
        }
        let responders = self.got.iter().filter(|g| g.is_some()).count();
        if responders < self.read_quorum {
            return;
        }
        let observed = self.got.iter().flatten().copied().max().unwrap_or(0);
        let read_set: Vec<SocketAddr> = self
            .targets
            .iter()
            .zip(&self.got)
            .filter(|(_, g)| g.is_some())
            .map(|(t, _)| t.addr)
            .collect();
        {
            let mut h = self.history.borrow_mut();
            if let Some(op) = h.ops.get_mut(idx) {
                op.completed = Some(ctx.now());
                op.ok = true;
                op.seq = observed;
                op.read_set = read_set;
            }
        }
        self.cur_op = None;
        ctx.timer(OP_GAP, ProbeMsg::IssueNext);
    }
}

impl Actor for HistReader {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.rng = ctx.rng().split();
        ctx.timer_at(self.start_at, ProbeMsg::Start);
        ctx.timer_at(self.start_at + self.retry_timeout, ProbeMsg::Watchdog);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, msg: Payload) {
        let msg = match msg.downcast::<ProbeMsg>() {
            Ok(m) => {
                match ctx.open(m) {
                    ProbeMsg::Start => {
                        self.dial_missing(ctx);
                        ctx.timer(OP_GAP, ProbeMsg::IssueNext);
                    }
                    ProbeMsg::IssueNext => self.issue(ctx),
                    ProbeMsg::Watchdog => {
                        let now = ctx.now();
                        if now >= self.stop_at && self.cur_op.is_none() {
                            return;
                        }
                        let timeout = self.retry_timeout;
                        let stuck = self.cur_op.is_some_and(|idx| {
                            self.history
                                .borrow()
                                .ops
                                .get(idx)
                                .is_some_and(|op| now.saturating_since(op.invoked) > timeout)
                        });
                        if stuck {
                            // Abandon the read and record an *explicit
                            // abort*: its value was provably never
                            // observed, so the checker drops it instead
                            // of treating it as an infinite-window op
                            // (which a dial backoff under a partition
                            // would otherwise leave behind every time a
                            // probe gives up mid-plan).
                            if let Some(idx) = self.cur_op.take() {
                                let mut h = self.history.borrow_mut();
                                if let Some(op) = h.ops.get_mut(idx) {
                                    op.aborted = true;
                                }
                            }
                            self.dial_missing(ctx);
                            ctx.timer(OP_GAP, ProbeMsg::IssueNext);
                        }
                        ctx.timer(timeout, ProbeMsg::Watchdog);
                    }
                }
                return;
            }
            Err(other) => other,
        };
        let Ok(ev) = msg.downcast::<NetEvent>() else {
            return;
        };
        match ctx.open(ev) {
            NetEvent::CmEstablished { qp, peer } => {
                let Some(ti) = self.targets.iter().position(|t| t.addr == peer) else {
                    return;
                };
                if self.targets[ti].conn.is_some() {
                    return;
                }
                let ch = Channel::rdma(&self.net, ctx, self.node, qp, RING_SIZE).unsignaled();
                self.targets[ti].conn = Some(self.conns.add(ch, ti, None));
            }
            NetEvent::CmConnectFailed { .. } => {
                // The watchdog retries; losing one target only costs
                // quorum membership until then.
            }
            NetEvent::CqNotify { cq } => {
                let net = self.net.clone();
                let mut wcs = self.conns.take_wcs();
                let out =
                    cqdrain::drain_budgeted(&net, ctx, cq, POLL_BUDGET, &mut wcs, |ctx, wc| {
                        // A target's current channel gets the completions of
                        // whichever of its QPs they arrive on.
                        let Some(ti) = self.conns.conn_of_qp(wc.qp).map(|c| *self.conns.kind(c))
                        else {
                            return;
                        };
                        let Some(conn) = self.targets[ti].conn else {
                            return;
                        };
                        if let ConnEvent::Msg(m) = self.conns.on_wc(&net, ctx, conn, &wc) {
                            if m.tag == tag::REPLY {
                                self.on_get_reply(ctx, ti, &m.payload);
                            }
                        }
                        // Broken channels stay in place until the watchdog
                        // redials: `outstanding` bookkeeping dies with them.
                    });
                self.conns.put_wcs(wcs);
                if out.more {
                    ctx.timer_at(ctx.now(), NetEvent::CqNotify { cq });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_keys_are_namespaced_and_stable() {
        assert_eq!(probe_key(1, 2), "h:01:0002");
        assert_ne!(probe_key(1, 2), probe_key(2, 1));
    }
}
