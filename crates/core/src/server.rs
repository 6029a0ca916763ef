//! Host-KV: the server process running on a host (master or slave).
//!
//! One actor type plays every server role in every mode:
//!
//! * **master** — executes client commands on a single-threaded event loop
//!   (core 0), feeds the replication backlog, and propagates write commands
//!   (what a master knows about its history and its replicas, and every
//!   sync decision taken from it, is owned by the IO-free
//!   [`crate::replsource::ReplSource`]):
//!   * `TcpRedis` / `RdmaRedis`: sends the stream to each synced slave
//!     itself, one message (= one Work Request, = one chunk of host CPU)
//!     per slave per command — the serial fan-out §V-C blames for the
//!     degradation of Figure 7;
//!   * `Skv`: sends **one** replication request to Nic-KV (Figure 9 ①) and
//!     immediately returns to serving clients;
//! * **slave** — runs the initial synchronization of Figure 8 (request via
//!   Nic-KV, RDB or backlog transfer from the master), then applies the
//!   replication stream and reports progress. What a slave knows about its
//!   own synchronisation — phase, snapshot in flight, stash, applied
//!   offset — is owned by the IO-free [`crate::replsink::ReplSink`]; this
//!   actor dials, sends, executes and charges CPU on its behalf.
//!
//! Replication stream frames carry the master-history offset of their first
//! byte, so receivers deduplicate overlaps (sync rides concurrently with
//! steady-state fan-out) and detect gaps (a crashed-and-recovered slave
//! re-requests synchronization from its last applied offset).

use skv_netsim::{CqId, Frame, Net, NetEvent, NodeId, SocketAddr};
use skv_simcore::stats::CounterSet;
use skv_simcore::{
    Actor, ActorId, Context, CorePool, DetRng, FramePool, Payload, SimDuration, SimTime,
};
use skv_store::cmd::{self, CommandSpec};
use skv_store::repl::{ReplicationId, ReplicationPosition};
use skv_store::resp::{self, ParsedCommand, Resp};

use crate::channel::{Channel, ChannelMsg, RING_SIZE};
use crate::commitgate::{CommitGate, OutFrame};
use crate::config::{ClusterConfig, Mode};
use crate::conns::{ConnEvent, ConnTable};
use crate::cqdrain::{self, ParkedCqs, POLL_BUDGET};
use crate::hostlinks::{ConnKind, Fallback, HostLinks};
use crate::hotcache::FWD_NO_ADMIT;
use crate::metrics::catalog::ServerStat;
use crate::protocol::{tag, NodeMsg};
use crate::replsink::{Apply, ReplSink};
use crate::replsource::{ReplSource, Serve};
use crate::shard::{ApplyRing, ShardSet, APPLY_RING_CAP, CROSS_SHARD_HOP};

/// Emptied `SendFrames` lists kept for reuse (one is in flight per
/// command whose CPU work has not finished yet).
const SPARE_LISTS: usize = 64;

/// External control events injected by the harness.
#[derive(Debug, Clone)]
pub enum Control {
    /// Make this server a slave of `master`; in SKV mode `nic` is the
    /// master's Nic-KV address to send the sync request to (Fig. 8 ①).
    Slaveof {
        /// The master's Host-KV address.
        master: SocketAddr,
        /// The master's Nic-KV address, if offloading is in use.
        nic: Option<SocketAddr>,
    },
    /// Crash this server (stops responding; its node drops traffic).
    Crash,
    /// Recover from a crash; a synced slave re-requests synchronization.
    Recover,
    /// Master only: open the channel to its Nic-KV (SKV mode).
    ConnectNic {
        /// The Nic-KV address on the SmartNIC SoC.
        nic: SocketAddr,
    },
}

/// Messages the server schedules to itself.
#[derive(Default)]
enum ServerMsg {
    /// Cron tick: expire cycle, rehash, progress report.
    #[default]
    Cron,
    /// CPU work finished; emit the prepared frames.
    SendFrames(Vec<OutFrame>),
    /// The RDB persist (on the background core) completed.
    PersistDone {
        slave: SocketAddr,
        snapshot: Vec<u8>,
        start_offset: u64,
    },
    /// Backoff expired: retry the dial to `to` if it is still wanted.
    Redial { to: SocketAddr },
}

/// The Host-KV server actor.
pub struct KvServer {
    net: Net,
    cfg: ClusterConfig,
    node: NodeId,
    addr: SocketAddr,
    /// One CQ per shard; `cqs[0]` is the primary (listen/dial) CQ and the
    /// only one at `num_shards = 1`. Inbound accepts round-robin across
    /// the set, and each CQ's drain loop runs on its shard's core.
    cqs: Vec<CqId>,
    /// Round-robin cursor for spreading accepted QPs over `cqs`.
    accept_cursor: usize,
    /// CQs left un-armed behind the command work their last poll queued;
    /// the `SendFrames` that ends that work polls them again.
    parked: ParkedCqs,
    /// When the last `SendFrames` scheduled since the current poll began
    /// fires: the work that poll queued (see `drain_cq`).
    frames_due: Option<SimTime>,
    cpu: CorePool,
    /// The store: one engine per shard behind the slot-range router, and
    /// the `shard.ops` / `shard.cross_msgs` counters execution keeps.
    shards: ShardSet,
    /// Sharded slave apply pipeline: bounded ring between the parse core
    /// and the apply core (unused at `num_shards = 1`).
    apply_ring: ApplyRing,
    /// Monotonic floor for REPL_STREAM emission times: shard cores finish
    /// out of order, but the stream must leave in backlog-offset order.
    repl_egress_at: SimTime,
    /// The history this server writes (or, as a replica, follows) and
    /// what it knows about its own replicas.
    source: ReplSource,
    /// `Some` exactly while this server is a replica: everything it knows
    /// about its own synchronisation. A master has none.
    sink: Option<ReplSink>,
    conns: ConnTable<ConnKind>,
    /// Dial intents, backoff, Nic-KV liveness and the degraded flag.
    links: HostLinks,
    /// `min-slaves` and the lag verdicts; quorum's held replies.
    gate: CommitGate,
    crashed: bool,
    /// Seeded from `seed` at construction, replaced by a split of the
    /// simulation RNG in `on_start` (so actor start order matters, not OS
    /// state). Never absent — no unwrap on the command path.
    rng: DetRng,
    /// The `server.*` counters.
    stats: CounterSet<ServerStat>,
    /// Send-ring pool for wire frames (TCP framing), replies and
    /// replication stream frames; shared by every channel this server owns.
    pool: FramePool,
    /// Emptied `SendFrames` lists, reused by the next `finish_command`.
    spare_frames: Vec<Vec<OutFrame>>,
}

impl KvServer {
    /// Create a server bound to `addr` on `node`.
    pub fn new(net: Net, cfg: ClusterConfig, node: NodeId, addr: SocketAddr, seed: u64) -> Self {
        let num_shards = cfg.num_shards.max(1);
        // One core per shard plus the background persist core; the legacy
        // single-shard floor of 2 is unchanged.
        let cores = cfg.machines.host_cores.max(num_shards + 1).max(2);
        // Sized for a typical wire frame (4 KiB value + headers); the
        // slab keeps enough buffers for a deep pipeline of in-flight
        // sends and grown buffers keep their capacity when recycled.
        let pool = FramePool::new(4096 + 64, 256);
        KvServer {
            net,
            node,
            addr,
            cqs: Vec::new(),
            accept_cursor: 0,
            parked: ParkedCqs::default(),
            frames_due: None,
            cpu: CorePool::new(cores, cfg.machines.host_core_speed),
            shards: ShardSet::new(num_shards, seed),
            apply_ring: ApplyRing::new(APPLY_RING_CAP),
            repl_egress_at: SimTime::ZERO,
            source: ReplSource::new(cfg.backlog_size, ReplicationId::from_seed(seed ^ 0xCAFE)),
            sink: None,
            conns: ConnTable::new(Some(pool.clone())),
            links: HostLinks::new(&cfg),
            gate: CommitGate::new(&cfg),
            crashed: false,
            rng: DetRng::new(seed ^ 0xD1CE),
            cfg,
            stats: CounterSet::default(),
            pool,
            spare_frames: Vec::new(),
        }
    }

    /// The `server.*` counters.
    pub fn stats(&self) -> &CounterSet<ServerStat> {
        &self.stats
    }

    /// The send-ring pool (tests assert the steady-state hit rate here).
    pub fn send_pool(&self) -> &FramePool {
        &self.pool
    }

    /// Dial intents, backoff and Nic-KV liveness: whether the master is
    /// degraded, and the degraded windows.
    pub fn links(&self) -> &HostLinks {
        &self.links
    }

    /// The store: engines, keyspace digest and the shard counters.
    pub fn shards(&self) -> &ShardSet {
        &self.shards
    }

    /// The store, to [`ShardSet::preload`] it. What is written this way
    /// bypasses the backlog and reaches slaves only through a full sync.
    pub fn shards_mut(&mut self) -> &mut ShardSet {
        &mut self.shards
    }

    /// Commands executed per shard (the `shard.ops` counters).
    pub fn shard_ops(&self) -> &[u64] {
        self.shards.ops()
    }

    /// Deepest occupancy the slave apply ring reached
    /// (`shard.queue_depth`; 0 unless this server applied a stream with
    /// `num_shards > 1`).
    pub fn apply_queue_depth(&self) -> u64 {
        u64::try_from(self.apply_ring.max_depth).unwrap_or(u64::MAX)
    }

    /// Replication offset: bytes of history written (master) or applied
    /// (slave).
    pub fn repl_offset(&self) -> u64 {
        let written = self.source.offset();
        self.sink.as_ref().map_or(written, ReplSink::applied)
    }

    /// This server's replication position (slave view).
    pub fn position(&self) -> ReplicationPosition {
        ReplicationPosition {
            repl_id: self.source.repl_id(),
            offset: self.repl_offset(),
        }
    }

    /// Is this server currently acting as a master?
    pub fn is_master(&self) -> bool {
        self.sink.is_none()
    }

    /// Is a slave fully synchronized?
    pub fn is_synced_slave(&self) -> bool {
        self.sink.as_ref().is_some_and(ReplSink::is_streaming)
    }

    /// This server's CQs, one per shard; CQ 0 is also the one it dials on.
    pub fn cqs(&self) -> &[CqId] {
        &self.cqs
    }

    /// Mean utilization of the event-loop core over the run so far.
    pub fn core0_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(0, now)
    }

    fn now_ms(ctx: &Context<'_>) -> u64 {
        ctx.now().as_nanos() / 1_000_000
    }

    // -- connection plumbing -------------------------------------------------

    fn send_on(&mut self, ctx: &mut Context<'_>, conn: usize, tag: u32, payload: impl Into<Frame>) {
        if !self.conns.send(&self.net, ctx, conn, tag, payload) {
            self.on_conn_broken(ctx, conn);
        }
    }

    /// The first open connection of this kind.
    fn open_conn(&self, kind: ConnKind) -> Option<usize> {
        self.conns.find_open(|k| *k == kind)
    }

    /// Dial the coordination upstream `to`; `msg` leaves once it is up. The
    /// channel carries probes and progress too, so it is labelled Nic even
    /// when it reaches the master.
    fn dial_upstream(&mut self, ctx: &mut Context<'_>, to: SocketAddr, msg: Vec<u8>) {
        let frames = vec![(tag::NODE, msg.into())];
        self.links.want(to, (ConnKind::Nic, frames));
        self.connect(ctx, to);
    }

    /// Master: dial its Nic-KV at `nic` and introduce itself.
    fn dial_nic(&mut self, ctx: &mut Context<'_>, nic: SocketAddr) {
        let (from, is_master) = (self.addr, true);
        self.dial_upstream(ctx, nic, NodeMsg::Hello { from, is_master }.encode());
    }

    /// Start the transport connect for a dial the links want (on CQ 0).
    fn connect(&mut self, ctx: &mut Context<'_>, to: SocketAddr) {
        let rdma = self.cfg.mode.uses_rdma();
        self.conns.dial(&self.net, ctx, self.node, rdma, to);
    }

    fn synced_slave_conns(&self) -> impl Iterator<Item = usize> + '_ {
        self.conns
            .iter()
            .filter(|(_, open, kind)| *open && matches!(kind, ConnKind::Slave(_)))
            .map(|(i, ..)| i)
    }

    // -- failure handling ----------------------------------------------------

    /// A connection's transport failed: tear it down and start whatever
    /// recovery its role requires.
    fn on_conn_broken(&mut self, ctx: &mut Context<'_>, conn: usize) {
        if !self.conns.close(&self.net, conn) {
            return;
        }
        self.stats.inc(ServerStat::ConnErrors);
        match self.conns.kind(conn) {
            ConnKind::Nic if self.is_master() && self.cfg.mode == Mode::Skv => {
                // The channel to Nic-KV died: fall back to host-driven
                // fan-out and keep redialling until the SoC returns.
                let fallback = self.links.nic_lost(ctx.now());
                self.fall_back(ctx, fallback);
            }
            // A slave lost its upstream: re-request sync from the current
            // offset (served from the backlog when possible).
            ConnKind::Nic | ConnKind::Master => self.schedule_upstream_resync(ctx),
            _ => {} // clients and slave conns re-establish themselves
        }
    }

    /// Carry out the links' answer to a quiet Nic-KV: count a new degraded
    /// period and stop queueing frames on the dead channel, then dial.
    fn fall_back(&mut self, ctx: &mut Context<'_>, fallback: Fallback) {
        if fallback.degraded {
            self.stats.inc(ServerStat::Degradations);
            if let Some(conn) = self.open_conn(ConnKind::Nic) {
                self.conns.close(&self.net, conn);
            }
        }
        if let Some(nic) = fallback.dial {
            self.dial_nic(ctx, nic);
        }
    }

    /// Slave: re-request synchronization from the current offset.
    fn schedule_upstream_resync(&mut self, ctx: &mut Context<'_>) {
        if let Some(sink) = self.sink.as_mut() {
            sink.rerequest(ctx.now());
            // Restart the silence clock so we don't double-trigger.
            self.links.upstream_heard(ctx.now());
            self.send_sync_request(ctx);
        }
    }

    // -- command path --------------------------------------------------------

    /// Handle one SoC-relayed command frame (TAG_FWD_CMD): an 8-byte LE
    /// cookie followed by the original RESP command. The connection keeps
    /// its Nic kind — the front-end multiplexes many clients over it.
    fn on_forwarded_command(&mut self, ctx: &mut Context<'_>, conn: usize, payload: &Frame) {
        let Some(header) = payload.get(..8) else {
            return;
        };
        let Ok(cookie_bytes) = <[u8; 8]>::try_from(header) else {
            return;
        };
        let cookie = u64::from_le_bytes(cookie_bytes);
        self.run_command(ctx, conn, payload.slice(8..), Some(cookie));
    }

    /// The shared command path behind both entry points. `fwd` carries a
    /// relay cookie when the command came through the SoC front-end; its
    /// reply then leaves as a cookie-framed `FWD_REPLY` on `conn`.
    fn run_command(&mut self, ctx: &mut Context<'_>, conn: usize, payload: Frame, fwd: Option<u64>) {
        // Parsed once, in place: the arguments are views into `payload`.
        let unrouted = (0, SimDuration::ZERO);
        let args = match resp::parse_command(&payload) {
            ParsedCommand::Command(args, _) => args,
            ParsedCommand::NotCommand(why, _) => {
                let reply = Resp::err(why);
                self.finish_command(ctx, conn, payload.len(), &reply, None, unrouted, fwd);
                return;
            }
            ParsedCommand::Incomplete | ParsedCommand::ProtocolError(_) => {
                let reply = Resp::err("protocol error");
                self.finish_command(ctx, conn, payload.len(), &reply, None, unrouted, fwd);
                return;
            }
        };

        // The command path's one table lookup: the write gate, the shard
        // planner, the engine and the admission veto all read `spec`.
        let spec = cmd::lookup(args[0]);
        // min-slaves / lag write gating (paper §III-C, §III-D).
        let is_write_cmd = spec.is_some_and(CommandSpec::is_write);
        let (master, degraded) = (self.is_master(), self.links.is_degraded());
        let own_slaves = || self.synced_slave_conns().count();
        if is_write_cmd && self.gate.blocked(master, degraded, own_slaves) {
            self.stats.inc(ServerStat::Rejected);
            let reply = Resp::Error("NOREPLICAS Not enough good replicas to write".into());
            self.finish_command(ctx, conn, payload.len(), &reply, None, unrouted, fwd);
            return;
        }

        let (result, shard, hops) = self.shards.execute(Self::now_ms(ctx), spec, &args);
        self.stats.inc(ServerStat::Commands);
        // A forwarded read of a TTL-bearing key goes back marked "do not
        // admit": the host owns expiry, so the host says so.
        let veto = fwd.is_some() && self.shards.vetoes_admission(spec, &args, shard);
        let fwd = fwd.map(|cookie| if veto { cookie | FWD_NO_ADMIT } else { cookie });
        // The *original* command bytes are replicated even for split
        // executions; slaves re-route them with the same slot map.
        let replicate = result.should_replicate().then(|| payload.clone());
        let (bytes, route) = (payload.len(), (shard, CROSS_SHARD_HOP * hops));
        self.finish_command(ctx, conn, bytes, &result.reply, replicate, route, fwd);
    }

    /// Account CPU for a command and schedule its reply + replication.
    /// `route` is `(shard, cross_cost)`: the core that executed the command
    /// (always 0 unsharded) and the inter-shard hop overhead a split
    /// command paid.
    #[allow(clippy::too_many_arguments)]
    fn finish_command(
        &mut self,
        ctx: &mut Context<'_>,
        conn: usize,
        req_bytes: usize,
        reply: &Resp,
        replicate: Option<Frame>,
        route: (usize, SimDuration),
        fwd: Option<u64>,
    ) {
        let (shard, cross_cost) = route;
        let costs = &self.cfg.costs;
        let net_p = &self.cfg.net;
        let payload_kib = req_bytes as f64 / 1024.0;

        let mut cost = costs.cmd_base + costs.cmd_per_kib.mul_f64(payload_kib) + cross_cost;
        let mut wr_posts = 0u32; // WQEs built (the unit of replication work)
        let mut doorbells = 0u32; // post calls; each may stall (tail model)
        let mut frames: Vec<OutFrame> = self.spare_frames.pop().unwrap_or_default();

        // Quorum holds a replicated write's reply until the NIC
        // commits the covering offset; its post cost is charged on release
        // (`release_ready_replies`), not here. Async keeps the original
        // immediate-reply schedule bit for bit.
        let defer = replicate.is_some() && self.gate.defers(self.is_master());
        // The reply is encoded straight into a recycled send-ring buffer. A
        // forwarded command's reply leads with its relay cookie and leaves
        // under FWD_REPLY.
        let reply_tag = if fwd.is_some() {
            tag::FWD_REPLY
        } else {
            tag::REPLY
        };
        let reply_frame: Frame = self.pool.build(|out| {
            if let Some(cookie) = fwd {
                out.extend_from_slice(&cookie.to_le_bytes());
            }
            reply.encode_into(out);
        });
        let reply_len = reply_frame.len();

        // Transport costs for receiving the request and posting the reply.
        // Over RDMA the completion-side CPU (cq_poll_cpu + wc_handle_cpu)
        // is charged where polling happens — the CqNotify drain — not per
        // command; here only the reply's WR post.
        if self.cfg.mode == Mode::TcpRedis {
            cost += net_p.tcp_recv_cost(req_bytes);
        }
        if !defer {
            let (post, wrs) = reply_post(&self.cfg, reply_len);
            cost += post;
            wr_posts += wrs;
            doorbells += wrs;
        }
        // A forwarded *dirty* command's ack must chase its own stream
        // frame down the master→NIC channel (the front-end invalidates
        // off the stream before relaying acks), so its reply frame is
        // appended after the replication block instead of here. Direct
        // replies keep the seed's reply-first order bit for bit.
        let reply_after_stream = fwd.is_some() && replicate.is_some();
        if !defer && !reply_after_stream {
            frames.push(OutFrame::new(conn, reply_tag, reply_frame.clone()));
        }

        // Replication propagation (the heart of the experiment).
        if let Some(cmd_bytes) = replicate {
            let span = self.source.feed(&cmd_bytes);
            if defer {
                self.stats.inc(ServerStat::DeferredReplies);
                let reply = OutFrame::new(conn, reply_tag, reply_frame.clone());
                self.gate.hold(span.end, reply);
            }
            // The stream frame is built in a recycled send-ring buffer —
            // no allocation on the steady-state path — and every recipient
            // below clones the Frame, so N-slave fan-out is N refcount
            // bumps of this one buffer.
            let frame: Frame = self.pool.build(|out| {
                out.extend_from_slice(&span.start.to_le_bytes());
                out.extend_from_slice(&cmd_bytes);
            });
            // SKV hands Nic-KV one request, regardless of slave count
            // (Figure 9 ①). When the SoC is dead (degraded mode, or the
            // channel simply isn't up) the master falls back to
            // RDMA-Redis-style fan-out so writes keep replicating.
            let nic_conn = if self.cfg.mode == Mode::Skv && !self.links.is_degraded() {
                self.open_conn(ConnKind::Nic)
            } else {
                None
            };
            match (self.cfg.mode, nic_conn) {
                (Mode::TcpRedis, _) => {
                    for slave in self.synced_slave_conns() {
                        cost += net_p.tcp_send_cost(frame.len());
                        frames.push(OutFrame::new(slave, tag::REPL_STREAM, frame.clone()));
                    }
                }
                (_, Some(nic)) => {
                    cost += net_p.wr_post_cpu;
                    wr_posts += 1;
                    doorbells += 1;
                    frames.push(OutFrame::new(nic, tag::REPL_STREAM, frame));
                }
                (_, None) => {
                    // One WR per slave on the event loop — the CPU the
                    // paper measures RDMA-Redis burning — posted as one
                    // linked list under a single doorbell.
                    let slaves = self.synced_slave_conns().count();
                    cost += net_p.post_list_cpu(slaves);
                    wr_posts += u32::try_from(slaves).unwrap_or(u32::MAX);
                    doorbells += u32::from(slaves > 0);
                    for slave in self.synced_slave_conns() {
                        frames.push(OutFrame::new(slave, tag::REPL_STREAM, frame.clone()));
                    }
                }
            }
        }
        if !defer && reply_after_stream {
            // The deferred-from-above forwarded ack, now ordered behind
            // its stream frame (its post cost was charged with the reply
            // branch above; only the emission order moved).
            frames.push(OutFrame::new(conn, reply_tag, reply_frame));
        }

        self.stats.add(ServerStat::WrsPosted, u64::from(wr_posts));
        let done = self.charge_posts(ctx.now(), shard, cost, doorbells);
        self.schedule_frames(ctx, done, frames);
    }

    /// Charge `core` a handler's `cost` — jittered, plus the stalls its
    /// `doorbells` draw — and return when the core is done with it. The
    /// stall is doorbell/CQ contention on the MMIO write, so it is drawn
    /// once per *doorbell*, not per linked WR: a whole fan-out risks one
    /// stall, however many slaves it reaches.
    fn charge_posts(
        &mut self,
        now: SimTime,
        core: usize,
        cost: SimDuration,
        doorbells: u32,
    ) -> SimTime {
        let jitter = self.cfg.costs.jitter;
        let spike_prob = self.cfg.costs.post_spike_prob;
        let mut cost = cost.mul_f64(self.rng.service_jitter(jitter));
        for _ in 0..doorbells {
            if self.rng.chance(spike_prob) {
                cost += self.cfg.costs.post_spike_cost;
            }
        }
        self.stats.add(ServerStat::Doorbells, u64::from(doorbells));
        self.cpu.run_on(core, now, cost).finished
    }

    /// Schedule a handler's staged frames, whose CPU work ends at `done`.
    /// Replication-stream frames pass one egress point (`repl_egress_at`):
    /// shards may finish out of order, but the backlog is one stream, so
    /// stream frames must hit the wire in the offset order they were fed —
    /// the sim's FIFO tie-break at equal timestamps preserves feed order
    /// for frames released together. A batch leaves whole when it need not
    /// wait, or when it carries a `FWD_REPLY`: a forwarded ack must trail
    /// its own stream frame to the SoC, which invalidates off the stream
    /// before it relays acks. Only otherwise do its other frames go ahead
    /// at `done`. One core finishes its work in order, so at one shard the
    /// egress point never passes `done` and every batch leaves whole.
    fn schedule_frames(&mut self, ctx: &mut Context<'_>, done: SimTime, frames: Vec<OutFrame>) {
        if !frames.iter().any(|f| f.tag == tag::REPL_STREAM) {
            return self.send_frames_at(ctx, done, frames);
        }
        let at = done.max(self.repl_egress_at);
        self.repl_egress_at = at;
        let whole = frames.iter().all(|f| f.tag == tag::REPL_STREAM)
            || frames.iter().any(|f| f.tag == tag::FWD_REPLY);
        if at == done || whole {
            return self.send_frames_at(ctx, at, frames);
        }
        let (stream, other) = frames.into_iter().partition(|f| f.tag == tag::REPL_STREAM);
        self.send_frames_at(ctx, done, other);
        self.send_frames_at(ctx, at, stream);
    }

    /// The one `SendFrames` timer: the event that ends a command's CPU
    /// work, and so the one that polls a CQ parked behind it.
    fn send_frames_at(&mut self, ctx: &mut Context<'_>, at: SimTime, frames: Vec<OutFrame>) {
        self.frames_due = Some(self.frames_due.map_or(at, |due| due.max(at)));
        ctx.timer_at(at, ServerMsg::SendFrames(frames));
    }

    /// Release every held reply the gate frees, charging the reply-post
    /// CPU that `finish_command` skipped. Only quorum holds replies, so
    /// only quorum takes the commit census.
    fn release_ready_replies(&mut self, ctx: &mut Context<'_>) {
        if !self.gate.holding(self.is_master()) {
            return;
        }
        let open = self.conns.iter().filter_map(|(_, open, kind)| match kind {
            ConnKind::Slave(addr) if open => Some(*addr),
            _ => None,
        });
        let census = self.source.commit_census(self.cfg.num_slaves, open);
        let mut frames: Vec<OutFrame> = self.spare_frames.pop().unwrap_or_default();
        let mut cost = SimDuration::ZERO;
        let mut doorbells = 0u32;
        let conns = &self.conns;
        for reply in self.gate.release(census, |conn| conns.is_open(conn)) {
            let (post, wrs) = reply_post(&self.cfg, reply.payload.len());
            cost += post;
            doorbells += wrs;
            frames.push(reply);
        }
        let released = frames.len() as u64;
        self.stats.add(ServerStat::ReleasedReplies, released);
        self.stats.add(ServerStat::WrsPosted, u64::from(doorbells));
        if frames.is_empty() {
            self.spare_frames.push(frames);
            return;
        }
        let done = self.charge_posts(ctx.now(), 0, cost, doorbells);
        self.schedule_frames(ctx, done, frames);
    }

    /// Deliver the frames a command handler staged. Replication-stream
    /// frames bound for RDMA connections are staged and posted as one
    /// linked list — a single doorbell for the whole fan-out — while
    /// replies and TCP sends leave one by one.
    fn emit_frames(&mut self, ctx: &mut Context<'_>, mut frames: Vec<OutFrame>) {
        // Cookie replies (only the cache front end forwards) ride the same
        // linked post list as the stream frames they must trail — the list
        // preserves per-QP order, where an early `send_on` would overtake
        // the batch.
        for f in frames.drain(..) {
            let listed = (f.tag == tag::REPL_STREAM || f.tag == tag::FWD_REPLY)
                && self.conns.channel(f.conn).qp().is_some();
            if listed {
                self.conns.stage(f.conn, f.tag, f.payload);
            } else {
                self.send_on(ctx, f.conn, f.tag, f.payload);
            }
        }
        if self.spare_frames.len() < SPARE_LISTS {
            self.spare_frames.push(frames);
        }
        for (conn, ..) in self.conns.post(&self.net, ctx) {
            self.on_conn_broken(ctx, conn);
        }
    }

    // -- master-side synchronization ------------------------------------------

    /// Carry out the source's answer for `slave`: to a request it sent
    /// (directly, or relayed by Nic-KV), or to a stream the source found
    /// stalled.
    fn serve(&mut self, ctx: &mut Context<'_>, slave: SocketAddr, serve: Serve) {
        if let Serve::Partial { from, .. } = serve {
            // Fast path: partial resync needs no persist step.
            self.stats.inc(ServerStat::PartialSyncs);
            let frames = self.source.partial_frames(from);
            return self.send_to_slave(ctx, slave, frames);
        }
        // Full sync: capture the snapshot now (fork-style copy-on-write
        // semantics) but charge the persist time on a background core, so
        // the event loop keeps serving clients (paper: "starts a child
        // process to persist all the data"). One per replica at a time.
        let Some(start_offset) = self.source.snapshot_for(slave) else {
            return;
        };
        let (snapshot, keys) = self.shards.save();
        // The persist core sits just past the shard cores (core 1 when
        // unsharded — the historical schedule).
        let persist_core = self.shards.num_shards();
        let cost = SimDuration::from_micros(150) + self.cfg.costs.persist_per_key * keys;
        let done = self.cpu.run_on(persist_core, ctx.now(), cost).finished;
        ctx.timer_at(
            done,
            ServerMsg::PersistDone {
                slave,
                snapshot,
                start_offset,
            },
        );
    }

    /// Send a sync transfer on the open channel to the slave at `to`, or
    /// dial one and send once it is up.
    fn send_to_slave(&mut self, ctx: &mut Context<'_>, to: SocketAddr, frames: Vec<(u32, Frame)>) {
        if let Some(conn) = self.open_conn(ConnKind::Slave(to)) {
            for (t, p) in frames {
                self.send_on(ctx, conn, t, p);
            }
        } else {
            self.links.want(to, (ConnKind::Slave(to), frames));
            self.connect(ctx, to);
        }
    }

    // -- slave-side synchronization -------------------------------------------

    /// Start over as an unsynchronised replica of `slave_of` (`SLAVEOF`, or
    /// a snapshot that failed to load): with no history there is no
    /// position to resume, so `position()` reads `unsynced()` until the
    /// full sync this asks for lands.
    fn join_upstream(&mut self, ctx: &mut Context<'_>) {
        self.source.follow(ReplicationId::NONE);
        self.sink = Some(ReplSink::joining(ctx.now()));
        self.send_sync_request(ctx);
    }

    /// The encoded `SyncRequest` for this replica's current position.
    fn sync_request(&self) -> Vec<u8> {
        let (slave, position) = (self.addr, self.position());
        NodeMsg::SyncRequest { slave, position }.encode()
    }

    /// Send the `SyncRequest` the sink decided on. The sink already counts
    /// it as outstanding: cron re-issues it if neither a
    /// Full/PartialSyncBegin nor RDB progress answers within `waiting_time`.
    fn send_sync_request(&mut self, ctx: &mut Context<'_>) {
        let Some((master, nic)) = self.links.upstream(self.is_master()) else {
            return;
        };
        let msg = self.sync_request();
        // With Nic-KV unreachable but the master link alive, ask the master
        // directly so a gap-resync doesn't dial a dead SoC.
        let conn = self
            .open_conn(ConnKind::Nic)
            .or_else(|| self.open_conn(ConnKind::Master));
        if let Some(conn) = conn {
            self.send_on(ctx, conn, tag::NODE, msg);
        } else {
            self.dial_upstream(ctx, nic.unwrap_or(master), msg);
        }
    }

    fn on_rdb_chunk(&mut self, ctx: &mut Context<'_>, chunk: &[u8]) {
        let now = ctx.now();
        let complete = self.sink.as_mut().and_then(|s| s.on_rdb_chunk(now, chunk));
        let Some((snapshot, start_offset)) = complete else {
            return;
        };
        // Snapshot complete: load it (charging CPU).
        let seed = self.rng.gen_u64();
        let Ok(loaded) = self.shards.load(&snapshot, seed) else {
            // Corrupt snapshot (torn transfer): restart the sync from
            // scratch instead of taking the whole process down.
            self.stats.inc(ServerStat::ConnErrors);
            self.join_upstream(ctx);
            return;
        };
        self.stats.inc(ServerStat::FullSyncs);
        let cost = SimDuration::from_micros(100) + self.cfg.costs.load_per_key * loaded as u64;
        self.cpu.run_on(0, now, cost);
        self.drive_sink(ctx, |sink, apply| sink.adopt(now, start_offset, apply));
    }

    /// Run one sink step that may apply stream commands, then do the IO it
    /// decided on. Parse and execute happen synchronously (determinism:
    /// replica contents never depend on core timing); the CPU model differs
    /// by shard count. Unsharded: one charge on core 0 for the step.
    /// Sharded: a two-stage pipeline — core 0 parses, core 1 applies,
    /// coupled by the bounded parse→apply ring, so parse of command k+1
    /// overlaps apply of command k.
    fn drive_sink(
        &mut self,
        ctx: &mut Context<'_>,
        step: impl FnOnce(&mut ReplSink, &mut Apply<'_>) -> bool,
    ) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let (now, now_ms) = (ctx.now(), Self::now_ms(ctx));
        let mut total_cost = SimDuration::ZERO;
        let ask = step(sink, &mut |args, used| {
            self.stats.add(ServerStat::AppliedBytes, used as u64);
            let parse_cost = self.cfg.costs.cmd_per_kib.mul_f64(used as f64 / 1024.0);
            let apply_cost = self.cfg.costs.apply_base;
            if self.shards.num_shards() > 1 {
                let gate = self.apply_ring.admit(now);
                let parsed = self.cpu.run_on(0, gate, parse_cost).finished;
                let done = self.cpu.run_on(1, parsed, apply_cost).finished;
                self.apply_ring.complete(done);
            } else {
                total_cost += apply_cost + parse_cost;
            }
            self.shards.execute(now_ms, cmd::lookup(args[0]), args);
        });
        if !total_cost.is_zero() {
            self.cpu.run_on(0, now, total_cost);
        }
        if ask {
            self.send_sync_request(ctx);
        }
    }

    // -- node messages ---------------------------------------------------------

    fn on_node_msg(&mut self, ctx: &mut Context<'_>, conn: usize, msg: NodeMsg) {
        match msg {
            NodeMsg::SyncRequest { slave, position } => {
                // Arrives directly in baseline modes (and when a recovered
                // slave re-dials the master in any mode).
                let serve = self.source.on_sync_request(position);
                self.serve(ctx, slave, serve);
            }
            NodeMsg::SyncNotify { slave, position } => {
                // Relayed by Nic-KV (Fig. 8 ②).
                *self.conns.kind_mut(conn) = ConnKind::Nic;
                let serve = self.source.on_sync_request(position);
                self.serve(ctx, slave, serve);
            }
            NodeMsg::FullSyncBegin {
                repl_id,
                start_offset,
                total_bytes,
            } => {
                *self.conns.kind_mut(conn) = ConnKind::Master;
                if let Some(sink) = self.sink.as_mut() {
                    sink.on_full_sync_begin(ctx.now(), start_offset, total_bytes);
                    self.source.follow(repl_id);
                }
            }
            NodeMsg::PartialSyncBegin { repl_id, .. } => {
                *self.conns.kind_mut(conn) = ConnKind::Master;
                self.source.follow(repl_id);
                if let Some(sink) = self.sink.as_mut() {
                    sink.on_partial_sync_begin();
                }
                self.stats.inc(ServerStat::PartialSyncs);
            }
            NodeMsg::ProgressReport { slave, offset } => {
                let open = self.open_conn(ConnKind::Slave(slave)).is_some();
                let progress = self.source.on_progress(slave, offset, open);
                self.gate.own_verdict(progress.lag_exceeded());
                if let Some(serve) = progress.repair {
                    self.serve(ctx, slave, serve);
                }
                // Progress may have advanced the census commit point.
                self.release_ready_replies(ctx);
            }
            NodeMsg::Probe { seq } => {
                // Reply immediately (paper: "they reply to Nic-KV
                // immediately"); tiny cost on the event loop.
                self.cpu.run_on(0, ctx.now(), SimDuration::from_nanos(300));
                let reply = NodeMsg::ProbeReply {
                    seq,
                    from: self.addr,
                }
                .encode();
                self.send_on(ctx, conn, tag::NODE, reply);
            }
            NodeMsg::SlaveSetUpdate { available, lagging } => {
                self.gate.nic_verdict(available, lagging);
            }
            NodeMsg::Promote => {
                if let Some(sink) = self.sink.take() {
                    self.source.restart_at(sink.applied());
                }
            }
            NodeMsg::Demote => {
                // Rejoin as a slave of the original master and resync from
                // the current offset. (A real system would also reconcile
                // any writes accepted while promoted; the paper's scenario
                // has the original master simply resume.) The SLAVEOF
                // target outlived the promotion.
                if self.links.upstream(false).is_some() {
                    let mut sink = ReplSink::at(self.repl_offset());
                    sink.rerequest(ctx.now());
                    self.sink = Some(sink);
                    self.send_sync_request(ctx);
                }
            }
            NodeMsg::WriteCommitted { upto } => {
                // Nic-KV reports the replication mode's commit point; a
                // master releases every held reply it covers.
                self.gate.committed(upto);
                self.release_ready_replies(ctx);
            }
            NodeMsg::ProbeReply { .. }
            | NodeMsg::Replicate { .. }
            | NodeMsg::Hello { .. }
            | NodeMsg::WriteAck { .. } => {}
        }
    }

    // -- cron -------------------------------------------------------------------

    fn on_cron(&mut self, ctx: &mut Context<'_>) {
        ctx.timer(SimDuration::from_millis(100), ServerMsg::Cron);
        if self.crashed {
            return;
        }
        self.shards.cron(Self::now_ms(ctx));
        // Slaves report progress on the master channel (Fig. 9 ③).
        if self.is_synced_slave() {
            let (slave, offset) = (self.addr, self.repl_offset());
            let report: Frame = NodeMsg::ProgressReport { slave, offset }.encode().into();
            let master = self.open_conn(ConnKind::Master);
            // Quorum: Nic-KV also consumes progress as cumulative
            // acks (covers acks lost to QP errors between retransmits).
            let nic = (self.cfg.mode == Mode::Skv && self.cfg.repl_mode.defers_replies())
                .then(|| self.open_conn(ConnKind::Nic))
                .flatten();
            for conn in master.into_iter().chain(nic) {
                self.send_on(ctx, conn, tag::NODE, report.clone());
            }
        }
        // Quorum, master side: drop replies whose client conn died
        // (undeliverable) and re-check the census commit point so a
        // lost `WriteCommitted` cannot wedge the reply queue.
        self.release_ready_replies(ctx);
        // A sync can stall: the request lost in flight (e.g. relayed via a
        // Nic-KV that had no master link at that instant), or the RDB/stream
        // transfer cut by a transport error. Silence means re-request.
        let stalled = |s: &ReplSink| s.stalled(ctx.now(), self.cfg.waiting_time);
        if self.sink.as_ref().is_some_and(stalled) {
            self.schedule_upstream_resync(ctx);
        }
        if self.cfg.mode == Mode::Skv {
            self.cron_skv_liveness(ctx);
        }
    }

    /// SKV-mode liveness checks: detect a silent Nic-KV (master falls back
    /// to host-driven fan-out, a slave tears the channel down) and poll the
    /// SoC so everyone re-attaches after it recovers.
    fn cron_skv_liveness(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        if self.is_master() {
            let fallback = self.links.master_cron(now);
            return self.fall_back(ctx, fallback);
        }
        let Some(nic) = self.links.watched_nic(self.is_synced_slave()) else {
            return;
        };
        // Probe silence on a live-looking channel means the SoC is gone.
        let open = self.conns.open_conn_to(nic);
        if let Some(conn) = self.links.upstream_silent(now, open) {
            self.on_conn_broken(ctx, conn);
        }
        // No channel to Nic-KV (it crashed, or the dial gave up): poll it
        // so a recovered SoC re-learns this slave — without this the NIC
        // comes back with an empty node list and fan-out goes nowhere.
        let to_nic = self.conns.open_conn_to(nic);
        let open = to_nic.or_else(|| self.open_conn(ConnKind::Nic)).is_some();
        if self.links.reregister_due(nic, open, now) {
            // Re-registration only: nothing is counted as outstanding.
            let msg = self.sync_request();
            self.dial_upstream(ctx, nic, msg);
        }
    }

    // -- channel message routing --------------------------------------------------

    fn on_channel_msg(&mut self, ctx: &mut Context<'_>, conn: usize, msg: ChannelMsg) {
        // Liveness bookkeeping: traffic on a Nic-KV channel proves the SoC
        // alive (probes arrive every `probe_interval`, so silence is a
        // reliable death signal).
        if *self.conns.kind(conn) == ConnKind::Nic {
            self.links.nic_heard(self.is_master(), ctx.now());
        }
        match msg.tag {
            tag::CMD => self.run_command(ctx, conn, msg.payload, None),
            // A client command relayed by the SoC front-end: strip the
            // cookie and run the ordinary command path; the reply goes
            // back cookie-framed as FWD_REPLY on the same channel.
            tag::FWD_CMD => self.on_forwarded_command(ctx, conn, &msg.payload),
            tag::NODE => {
                if let Some(m) = NodeMsg::decode(&msg.payload) {
                    self.on_node_msg(ctx, conn, m);
                }
            }
            tag::REPL_STREAM => {
                let now = ctx.now();
                self.drive_sink(ctx, |sink, apply| sink.on_frame(now, &msg.payload, apply));
            }
            tag::RDB_CHUNK => self.on_rdb_chunk(ctx, &msg.payload),
            _ => {}
        }
    }
}

impl Actor for KvServer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.rng = ctx.rng().split();
        let me = ctx.id();
        if self.cfg.mode.uses_rdma() {
            // One armed CQ per shard, CQ 0 (the listen / dial CQ) first;
            // each CQ's completions interrupt the owning shard's core.
            for _ in 0..self.shards.num_shards() {
                let cq = cqdrain::create_armed(&self.net, ctx);
                self.cqs.push(cq);
            }
            self.conns.dial_on(self.cqs[0]);
            self.net.rdma_listen(self.addr, me);
        } else {
            self.net.tcp_listen(self.addr, me);
        }
        ctx.timer(SimDuration::from_millis(100), ServerMsg::Cron);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, msg: Payload) {
        // Control events work even while crashed (Recover must).
        let msg = match msg.downcast::<Control>() {
            Ok(ctrl) => {
                match *ctrl {
                    Control::Slaveof { master, nic } => {
                        if !self.crashed {
                            self.links.follow(master, nic);
                            self.join_upstream(ctx);
                        }
                    }
                    Control::Crash => {
                        self.crashed = true;
                        self.net.set_node_up(self.node, false);
                        self.source.crash();
                        // The `SendFrames` that would poll them are lost
                        // with the process; `Recover` re-arms every CQ.
                        self.parked.clear();
                    }
                    Control::ConnectNic { nic } => {
                        if let Some(nic) = self.links.connect_nic(nic, ctx.now()) {
                            self.dial_nic(ctx, nic);
                        }
                    }
                    Control::Recover => {
                        self.crashed = false;
                        self.net.set_node_up(self.node, true);
                        // Fresh start for the liveness clocks and backoff;
                        // the dials made before the crash are forgotten.
                        let rejoin = self.links.restart(ctx.now(), self.is_master());
                        // Notifications delivered while crashed were lost;
                        // drain stale completions (replenishing receive
                        // slots) and re-arm the completion channel.
                        for &cq in &self.cqs {
                            self.conns.recover_drain(&self.net, ctx, cq);
                        }
                        // A synced slave re-requests sync from its current
                        // offset; the backlog usually serves it partially.
                        if self.is_synced_slave() {
                            self.schedule_upstream_resync(ctx);
                        } else if let Some(nic) = rejoin {
                            // A recovered master re-registers with Nic-KV:
                            // the SoC tore its channel down while the host
                            // was gone, so the surviving half is stale.
                            if let Some(conn) = self.conns.open_conn_to(nic) {
                                self.conns.close(&self.net, conn);
                            }
                            self.dial_nic(ctx, nic);
                        }
                    }
                }
                return;
            }
            Err(other) => other,
        };
        if self.crashed {
            // Keep the cron chain alive through a crash so the periodic
            // recovery machinery resumes on Recover; all other messages
            // are lost with the process.
            if let Some(ServerMsg::Cron) = msg.downcast_ref::<ServerMsg>() {
                ctx.timer(SimDuration::from_millis(100), ServerMsg::Cron);
            }
            return;
        }
        let msg = match msg.downcast::<ServerMsg>() {
            Ok(m) => {
                match ctx.open(m) {
                    ServerMsg::Cron => self.on_cron(ctx),
                    ServerMsg::SendFrames(frames) => {
                        self.emit_frames(ctx, frames);
                        // The core is through the work that parked a CQ:
                        // poll it again, before it is armed.
                        while let Some(cq) = self.parked.take_due(ctx.now()) {
                            self.drain_cq(ctx, cq);
                        }
                    }
                    ServerMsg::PersistDone {
                        slave,
                        snapshot,
                        start_offset,
                    } => {
                        self.stats.inc(ServerStat::FullSyncs);
                        let frames = self.source.on_persist_done(slave, start_offset, snapshot);
                        self.send_to_slave(ctx, slave, frames);
                    }
                    ServerMsg::Redial { to } => {
                        if self.links.wants(to) {
                            self.stats.inc(ServerStat::Reconnects);
                            self.connect(ctx, to);
                        }
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
            NetEvent::CmConnectRequest { req, .. } => {
                // Accept now; the channel (ring registration, receive
                // posting, MR handshake) is created when CmEstablished
                // arrives, so both sides post receives before either
                // side's handshake SEND can land. A request already
                // answered is ignored. Only an RDMA listener is asked, and
                // `on_start` creates the CQs before it listens. Sharded servers spread accepted connections across the
                // per-shard CQs round-robin, so each shard core polls its
                // own completion stream; with one CQ this picks cq 0 every
                // time.
                let cq = self.cqs[self.accept_cursor % self.cqs.len()];
                self.accept_cursor += 1;
                let _ = self.net.rdma_accept(ctx, req, cq);
            }
            NetEvent::CmEstablished { qp, peer } => {
                if self.conns.conn_of_qp(qp).is_some() {
                    return;
                }
                let ch = Channel::rdma(&self.net, ctx, self.node, qp, RING_SIZE);
                self.attach(ctx, ch, peer);
            }
            NetEvent::CqNotify { cq } => self.drain_cq(ctx, cq),
            NetEvent::TcpAccepted { conn, .. } => {
                self.conns.add(Channel::tcp(conn), ConnKind::Unknown, None);
            }
            NetEvent::TcpConnected { conn, peer } => self.attach(ctx, Channel::tcp(conn), peer),
            NetEvent::TcpDelivered { conn, bytes } => {
                let Some(idx) = self.conns.conn_of_tcp(conn) else {
                    return;
                };
                let mut msgs = self.conns.on_tcp_bytes(idx, bytes);
                for m in msgs.drain(..) {
                    self.on_channel_msg(ctx, idx, m);
                }
                self.conns.put_msgs(msgs);
            }
            NetEvent::TcpClosed { conn } => {
                if let Some(idx) = self.conns.conn_of_tcp(conn) {
                    self.on_conn_broken(ctx, idx);
                }
            }
            NetEvent::TcpConnectFailed { to } | NetEvent::CmConnectFailed { to } => {
                // Dial again where and when the links say; they need to
                // know whether a replica has any link to its master.
                let master = self.is_master();
                let upstream = self.links.upstream(master);
                let to_master = upstream.and_then(|(m, _)| self.conns.open_conn_to(m));
                let link = to_master.or_else(|| self.open_conn(ConnKind::Master));
                if let Some((to, after)) = self.links.refused(to, master, link.is_some()) {
                    ctx.timer(after, ServerMsg::Redial { to });
                }
            }
            // The fabric's own wire records; never addressed to an endpoint.
            NetEvent::InFlight(_) => {}
        }
    }
}

impl KvServer {
    /// One budgeted pass over `cq`: at most `POLL_BUDGET` completions,
    /// with the poll + per-WC handling CPU charged to the core owning the
    /// CQ (cq 0 → core 0; extra shard CQs → their cores). An over-budget
    /// burst continues in a self-scheduled follow-up once that work is
    /// done. A pass whose commands queued work leaves the CQ parked: the
    /// `SendFrames` that ends the work polls it again, so completions that
    /// land while the core is busy share one poll (DESIGN.md §12.3).
    fn drain_cq(&mut self, ctx: &mut Context<'_>, cq: CqId) {
        let net = self.net.clone();
        let mut wcs = self.conns.take_wcs();
        let polled = cqdrain::begin_drain(&net, cq, POLL_BUDGET, &mut wcs);
        self.frames_due = None;
        for wc in wcs.drain(..) {
            let Some(conn) = self.conns.conn_of_qp(wc.qp) else {
                continue;
            };
            match self.conns.on_wc(&net, ctx, conn, &wc) {
                ConnEvent::Msg(msg) => self.on_channel_msg(ctx, conn, msg),
                ConnEvent::Broken => self.on_conn_broken(ctx, conn),
                ConnEvent::Quiet => {}
            }
        }
        self.conns.put_wcs(wcs);
        let queued = self.frames_due.take();
        let out = cqdrain::finish_parked(&net, ctx, cq, &mut self.parked, polled, queued);
        let core = self.cqs.iter().position(|&c| c == cq).unwrap_or(0);
        let done = self.cpu.run_on(core, ctx.now(), out.cpu_cost).finished;
        if out.more {
            ctx.timer_at(done, NetEvent::CqNotify { cq });
        }
    }

    /// An outbound dial to `peer` came up: the connection takes the role
    /// the dial was made for and the frames queued for it leave.
    fn attach(&mut self, ctx: &mut Context<'_>, channel: Channel, peer: SocketAddr) {
        let (kind, frames) = self.links.established(peer);
        if matches!(kind, ConnKind::Slave(_)) {
            self.source.attach(peer);
        }
        let conn = self.conns.add(channel, kind, Some(peer));
        for (t, p) in frames {
            self.send_on(ctx, conn, t, p);
        }
    }
}

/// Event-loop cost of posting one reply of `len` bytes, and the WRs (each
/// its own doorbell) that takes: one over RDMA, none over TCP.
fn reply_post(cfg: &ClusterConfig, len: usize) -> (SimDuration, u32) {
    if cfg.mode.uses_rdma() {
        (cfg.net.wr_post_cpu, 1)
    } else {
        (cfg.net.tcp_send_cost(len), 0)
    }
}
