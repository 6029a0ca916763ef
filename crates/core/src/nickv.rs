//! Nic-KV: the offloaded component running on the SmartNIC SoC.
//!
//! Implements §III-C/§III-D of the paper on the BlueField's (simulated)
//! ARM cores:
//!
//! * maintains the **node list** — master and slaves with their replication
//!   state and validity flags,
//! * relays initial synchronization requests to the master (Fig. 8 ①→②),
//! * performs **steady-state replication fan-out** (Fig. 9): one request
//!   from the master becomes one `WRITE_WITH_IMM` per valid slave, written
//!   from the slaves' send buffers on the NIC, optionally spread over
//!   `thread-num` ARM cores,
//! * runs **failure detection**: 1-second probes, `waiting-time` timeouts,
//!   invalid flags, `min-slaves` notifications to the master, and master
//!   failover with downgrade-on-return,
//! * with the hot-key cache on, runs the clients' **command front end** on
//!   every ARM core the fan-out threads leave free, each core polling its
//!   own CQ and its share of the client connections (DESIGN.md §16.1).

use skv_netsim::{CqId, Frame, Net, NetEvent, NodeId, SocketAddr, WcOpcode, WcStatus};
use skv_simcore::stats::CounterSet;
use skv_simcore::{Actor, ActorId, Context, CorePool, Payload, SimDuration, SimTime};
use skv_store::cmd;
use skv_store::repl::ReplicationPosition;
use skv_store::resp::{self, ParsedCommand, Resp};

use crate::channel::{Channel, ChannelMsg, RING_SIZE};
use crate::cluster::NIC_FE_PORT;
use crate::config::ClusterConfig;
use crate::conns::{ConnEvent, ConnTable};
use crate::cqdrain::{self, POLL_BUDGET};
use crate::hotcache::{Dispatch, HotCache, SocFrontEnd};
use crate::metrics::catalog::NicStat;
use crate::protocol::{tag, NodeMsg};
use crate::replmode::{quorum_slave_acks, ReplModeKind, Step, Tracker, REPL_WINDOW};
use crate::replsink::parse_stream_frame;
use crate::replsource::MAX_SLAVE_LAG;

/// Emptied connection lists kept for reuse; more than a replication
/// window's worth in flight at once is not a steady state worth serving.
const SPARE_LISTS: usize = 64;

/// An entry in the node list (paper §III-C: "a node list storing the
/// corresponding relationship between the master node and the slave node
/// is maintained on the SmartNIC").
#[derive(Debug, Clone)]
pub struct NodeEntry {
    /// The node's server address.
    pub addr: SocketAddr,
    /// Whether this entry is the master.
    pub is_master: bool,
    /// Replication state as last reported.
    pub position: ReplicationPosition,
    /// The invalid flag (§III-D): cleared while the node answers probes.
    pub valid: bool,
    /// Last time this node answered a probe (or any message).
    pub last_reply: SimTime,
    /// When the oldest unanswered probe was sent (§III-D: a node is failed
    /// when a probe sent `waiting-time` ago has no reply).
    pub pending_probe_since: Option<SimTime>,
    /// Connection index, once the node has a channel to Nic-KV.
    conn: Option<usize>,
}

#[derive(Default)]
enum NicMsg {
    /// Probe round timer.
    #[default]
    ProbeTick,
    /// All per-slave fan-out work for one replicated write finished; post
    /// one WR per slave under a single doorbell. Each slave's WR carries
    /// the same frame by refcount bump.
    FanoutSendBatch { conns: Vec<usize>, frame: Frame },
    /// Tracked-mode (quorum) fan-out work finished; post the write's WRs
    /// under one doorbell and arm ack tracking on their completions.
    TrackedSend { seq: u64, conns: Vec<usize> },
    /// Chain-mode per-hop work finished; post the write to its current
    /// head hop.
    ChainHop { seq: u64 },
    /// Front-end ARM work for a client-bound reply finished (a cache hit
    /// or a relayed forwarded reply); send it on the client channel now.
    CacheReply { conn: usize, frame: Frame },
    /// Front-end forwarding work for a missed/non-GET client command
    /// finished; relay the cookie-framed `FWD_CMD` to the master.
    FwdSend { cookie: u64, frame: Frame },
}

/// External control events injected by the harness. The SmartNIC SoC can
/// crash independently of its host (the degradation scenario): the host
/// keeps running, Nic-KV just disappears.
#[derive(Debug, Clone)]
pub enum NicControl {
    /// Crash the SoC (its node drops traffic; process state is lost).
    Crash,
    /// Restart the SoC. The node list is empty until the master's Hello
    /// and the slaves' re-registration polls rebuild it.
    Recover,
}

/// The Nic-KV actor.
pub struct NicKv {
    net: Net,
    cfg: ClusterConfig,
    node: NodeId,
    addr: SocketAddr,
    /// Every CQ this SoC polls, with the ARM core that polls it: thread
    /// 0's first (the master and slave channels), then, cache on, one per
    /// front-end core (the client connections).
    cqs: Vec<(CqId, usize)>,
    /// Round-robin cursor over the front-end CQs for accepted clients.
    accept_cursor: usize,
    /// The SmartNIC's ARM cores (slow; speed factor from `MachineParams`).
    cpu: CorePool,
    /// Channels to the master, the slaves and (cache on) the clients, each
    /// tagged with the ARM core that polls its CQ and runs its work; the
    /// node list maps nodes to indices here.
    conns: ConnTable<usize>,
    nodes: Vec<NodeEntry>,
    probe_seq: u64,
    /// Address of a slave promoted during master failover, if any.
    promoted: Option<SocketAddr>,
    /// Round-robin cursor for thread assignment.
    fanout_cursor: usize,
    /// Whether the SoC is currently crashed.
    crashed: bool,
    /// Highest master replication offset observed in forwarded frames.
    master_offset: u64,
    /// Last `(available, lagging)` pair pushed to the master.
    last_update_sent: Option<(u32, bool)>,
    /// This actor's `nic.*` counters (the rest are its parts'; see
    /// [`NicKv::stats`]).
    stats: CounterSet<NicStat>,
    /// Instants at which a node was declared failed (detection latency
    /// analysis for the `waiting-time` ablation).
    pub detections: Vec<(SimTime, SocketAddr)>,
    /// Instants at which a previously failed node was seen alive again.
    pub recoveries: Vec<(SimTime, SocketAddr)>,
    /// Tracked replication (quorum / chain): in-flight writes, acks, the
    /// commit frontier, and the mode currently *in force* — `cfg.repl_mode`
    /// unless `mode_failover` degraded a quorum cluster to the async
    /// stream.
    tracker: Tracker,
    /// Scratch for the live-slave list every tracker call is given.
    live: Vec<SocketAddr>,
    /// Highest commit offset pushed to the master via `WriteCommitted`.
    notified_upto: u64,
    /// Every mode transition `(instant, new mode)`, in order. The history
    /// checker cuts its linearizability claim at the first entry — the
    /// declared degradation point.
    pub mode_changes: Vec<(SimTime, ReplModeKind)>,
    /// Highest simultaneously-valid slave count ever observed; degrading
    /// below quorum is only meaningful once a full quorum existed
    /// (otherwise cluster start-up would read as a partition).
    peak_slaves: usize,
    /// Replicated writes seen per master shard, classified by the hash
    /// slot of the command's first key (index = shard). Only populated
    /// when `num_shards > 1` — the NIC's view of how evenly the shard
    /// mapping spreads replication ingress. Exported as
    /// `shard.nic_ingress`.
    shard_ingress: Vec<u64>,
    /// The command front end clients meet in cache-on runs: the hot-key
    /// GET cache (`Some` iff `ClusterConfig::hot_cache_enabled()`) and the
    /// commands forwarded to the host.
    front: SocFrontEnd,
    /// Emptied per-write connection lists, reused by the next fan-out.
    spare_conns: Vec<Vec<usize>>,
}

impl NicKv {
    /// Create a Nic-KV bound to `addr` on the SmartNIC SoC node.
    pub fn new(net: Net, cfg: ClusterConfig, node: NodeId, addr: SocketAddr) -> Self {
        let cores = cfg.machines.nic_cores.max(1);
        let speed = cfg.machines.nic_core_speed;
        let shard_ingress = vec![0; cfg.num_shards.max(1)];
        let cache = cfg
            .hot_cache_enabled()
            .then(|| HotCache::new(cfg.hot_cache_bytes, cfg.hot_cache_policy_kind()));
        let tracker = Tracker::new(
            cfg.repl_mode,
            cfg.num_slaves,
            REPL_WINDOW,
            cfg.record_history,
        );
        NicKv {
            net,
            node,
            addr,
            cqs: Vec::new(),
            accept_cursor: 0,
            cpu: CorePool::new(cores, speed),
            conns: ConnTable::new(None),
            nodes: Vec::new(),
            probe_seq: 0,
            promoted: None,
            fanout_cursor: 0,
            crashed: false,
            master_offset: 0,
            last_update_sent: None,
            cfg,
            stats: CounterSet::default(),
            detections: Vec::new(),
            recoveries: Vec::new(),
            tracker,
            live: Vec::new(),
            notified_upto: 0,
            mode_changes: Vec::new(),
            peak_slaves: 0,
            shard_ingress,
            front: SocFrontEnd::new(cache),
            spare_conns: Vec::new(),
        }
    }

    /// The tracked-replication state machine: the mode in force, the
    /// commit frontier and in-flight writes.
    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    /// Every `nic.*` counter: this actor's, its connection table's, the
    /// tracker's and the front end's, summed.
    pub fn stats(&self) -> CounterSet<NicStat> {
        let mut all = self.stats.clone();
        for part in [&self.conns.stats, &self.tracker.stats, &self.front.stats] {
            all.merge(part);
        }
        all
    }

    /// The command front end: the hot cache and its counters, when one is
    /// enabled.
    pub fn front_end(&self) -> &SocFrontEnd {
        &self.front
    }

    /// Every CQ this SoC polls: thread 0's, then the front end's.
    pub fn cqs(&self) -> impl Iterator<Item = CqId> + '_ {
        self.cqs.iter().map(|&(cq, _)| cq)
    }

    /// Busy time each ARM core has accumulated so far, in core order.
    pub fn core_busy(&self) -> impl Iterator<Item = SimDuration> + '_ {
        (0..self.cpu.num_cores()).map(|core| self.cpu.busy_time(core))
    }

    /// The ARM core that polls `cq`.
    fn core_of_cq(&self, cq: CqId) -> usize {
        self.cqs.iter().find(|c| c.0 == cq).map_or(0, |c| c.1)
    }

    /// Replication ingress per master shard (empty counts unless the
    /// cluster runs with `num_shards > 1`).
    pub fn shard_ingress(&self) -> &[u64] {
        &self.shard_ingress
    }

    /// Whether the mode *currently in force* tracks per-write acks and
    /// defers the master's client replies (quorum and chain; not the
    /// async stream, including a quorum cluster degraded into it).
    fn deferred(&self) -> bool {
        self.tracker.mode().defers_replies()
    }

    /// Hand the tracker an input together with the live-slave set, then
    /// carry out every step it decided on, in order.
    fn track(&mut self, ctx: &mut Context<'_>, input: impl FnOnce(&mut Tracker, &[SocketAddr])) {
        let mut live = std::mem::take(&mut self.live);
        live.clear();
        // Only chains read it: their hops, and who a repair keeps.
        if self.tracker.mode() == ReplModeKind::Chain {
            live.extend(self.slave_targets().map(|(_, addr)| addr));
        }
        input(&mut self.tracker, &live);
        self.live = live;
        while let Some(step) = self.tracker.next_step() {
            match step {
                // Parsing the request happens once, on the thread that owns
                // the master connection (thread 0 by convention).
                Step::Parse => {
                    self.cpu
                        .run_on(0, ctx.now(), self.cfg.costs.nic_fanout_base);
                }
                Step::Fanout { seq } => {
                    if let Some((conns, done)) = self.charge_fanout(ctx.now()) {
                        ctx.timer_at(done, NicMsg::TrackedSend { seq, conns });
                    }
                }
                Step::Hop { seq } => {
                    let done = self.charge_fanout_thread(ctx.now());
                    ctx.timer_at(done, NicMsg::ChainHop { seq });
                }
                Step::Committed => self.notify_committed(ctx),
            }
        }
    }

    fn addr_of_conn(&self, conn: usize) -> Option<SocketAddr> {
        self.nodes
            .iter()
            .find(|n| n.conn == Some(conn))
            .map(|n| n.addr)
    }

    /// The node list (for tests and reports).
    pub fn node_list(&self) -> &[NodeEntry] {
        &self.nodes
    }

    /// Currently valid slaves.
    pub fn available_slaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !n.is_master && n.valid)
            .count()
    }

    /// Mean ARM-core utilization so far.
    pub fn mean_utilization(&self, now: SimTime) -> f64 {
        self.cpu.mean_utilization(now)
    }

    fn entry_mut(&mut self, addr: SocketAddr) -> Option<&mut NodeEntry> {
        self.nodes.iter_mut().find(|n| n.addr == addr)
    }

    fn master_conn(&self) -> Option<usize> {
        self.open_conn_of(|n| n.is_master)
    }

    /// The open channel of the first node `pred` picks, if it has one.
    fn open_conn_of(&self, pred: impl Fn(&NodeEntry) -> bool) -> Option<usize> {
        self.nodes
            .iter()
            .find(|n| pred(n))
            .and_then(|n| n.conn)
            .filter(|&c| self.conns.is_open(c))
    }

    /// Send on an open connection; a send that breaks the channel tears
    /// the connection down.
    fn send_on(&mut self, ctx: &mut Context<'_>, conn: usize, tag: u32, payload: impl Into<Frame>) {
        if !self.conns.send(&self.net, ctx, conn, tag, payload) {
            self.close_conn(ctx, conn);
        }
    }

    /// Tear down a failed connection; the node it belonged to stays in the
    /// list (validity is the probe machinery's business) but loses its
    /// channel until it re-registers. Losing the *master* channel also
    /// takes the hot cache cold and fails outstanding forwards over to
    /// error replies (see [`NicKv::on_master_channel_lost`]).
    fn close_conn(&mut self, ctx: &mut Context<'_>, conn: usize) {
        if !self.conns.close(&self.net, conn) {
            return;
        }
        let was_master = self
            .nodes
            .iter()
            .any(|n| n.is_master && n.conn == Some(conn));
        for e in &mut self.nodes {
            if e.conn == Some(conn) {
                e.conn = None;
            }
        }
        if was_master {
            self.on_master_channel_lost(ctx);
        }
    }

    /// The master channel died: the cache goes cold, and every forwarded
    /// command still outstanding is answered with an error (the same
    /// liveness a directly-connected client gets from its broken channel).
    fn on_master_channel_lost(&mut self, ctx: &mut Context<'_>) {
        for conn in self.front.master_lost() {
            self.reply_master_unavailable(ctx, conn);
        }
    }

    /// Tell the client on `conn` that its command cannot reach the master,
    /// instead of hanging its closed loop.
    fn reply_master_unavailable(&mut self, ctx: &mut Context<'_>, conn: usize) {
        let err = Resp::Error("ERR master unavailable".into()).encode();
        self.send_on(ctx, conn, tag::REPLY, err);
    }

    /// Whether any *valid* slave lags beyond the configured bound.
    fn any_valid_slave_lagging(&self) -> bool {
        self.nodes.iter().any(|n| {
            !n.is_master
                && n.valid
                && n.position.offset > 0
                && self.master_offset.saturating_sub(n.position.offset) > MAX_SLAVE_LAG
        })
    }

    fn notify_available(&mut self, ctx: &mut Context<'_>) {
        // Every availability change funnels through here — the natural
        // seam for the cross-mode failover policy.
        self.maybe_mode_transition(ctx);
        let available = u32::try_from(self.available_slaves()).unwrap_or(u32::MAX);
        let lagging = self.any_valid_slave_lagging();
        if self.last_update_sent == Some((available, lagging)) {
            return;
        }
        if let Some(conn) = self.master_conn() {
            self.last_update_sent = Some((available, lagging));
            let msg = NodeMsg::SlaveSetUpdate { available, lagging }.encode();
            self.send_on(ctx, conn, tag::NODE, msg);
        }
    }

    // -- message handling ------------------------------------------------------

    fn on_channel_msg(&mut self, ctx: &mut Context<'_>, conn: usize, msg: ChannelMsg) {
        match msg.tag {
            tag::NODE => {
                if let Some(m) = NodeMsg::decode(&msg.payload) {
                    self.on_node_msg(ctx, conn, m);
                }
            }
            // Steady-state replication request from the master (Fig. 9 ①).
            tag::REPL_STREAM => self.fan_out(ctx, msg.payload),
            // Client command landing on the SoC front-end (cache-on runs
            // route clients at the NIC instead of the master).
            tag::CMD => self.on_client_cmd(ctx, conn, &msg.payload),
            // Cookie-framed reply for a command we forwarded to the host.
            tag::FWD_REPLY => self.on_fwd_reply(ctx, &msg.payload),
            _ => {}
        }
    }

    // -- hot-key GET cache front-end --------------------------------------------

    /// One client command at the SoC front end: a cache hit is answered
    /// after the ARM lookup cost, anything else is relayed to the master
    /// as a cookie-framed [`tag::FWD_CMD`] after the forwarding cost. The
    /// work runs on the front-end core that polls the client's CQ.
    fn on_client_cmd(&mut self, ctx: &mut Context<'_>, conn: usize, payload: &Frame) {
        let costs = &self.cfg.costs;
        let (cost, msg) = match self.front.on_client_cmd(conn, payload) {
            Dispatch::Hit(frame) => (costs.nic_cache_hit, NicMsg::CacheReply { conn, frame }),
            Dispatch::Forward { cookie, frame } => {
                (costs.nic_fwd, NicMsg::FwdSend { cookie, frame })
            }
        };
        let core = *self.conns.kind(conn);
        let done = self.cpu.run_on(core, ctx.now(), cost).finished;
        ctx.timer_at(done, msg);
    }

    /// Relay a cookie-framed client command to the master once the
    /// front-end work is done. With no live master channel the client
    /// gets an immediate error reply.
    fn fwd_to_master(&mut self, ctx: &mut Context<'_>, cookie: u64, frame: Frame) {
        if let Some(mconn) = self.master_conn() {
            // A send that breaks the master channel fails every
            // outstanding cookie over to an error reply in `close_conn`.
            self.send_on(ctx, mconn, tag::FWD_CMD, frame);
        } else if let Some(conn) = self.front.unforward(cookie) {
            self.reply_master_unavailable(ctx, conn);
        }
    }

    /// A cookie-framed reply came back from the host: relay the inner
    /// reply to the client the front end says is waiting for it, after the
    /// forwarding cost on that client's front-end core — the core its
    /// hits reply from, so the connection's replies keep their order. The
    /// admission version is the replication high-water this NIC has seen
    /// on the stream.
    fn on_fwd_reply(&mut self, ctx: &mut Context<'_>, payload: &Frame) {
        let Some((conn, frame)) = self.front.on_fwd_reply(payload, self.master_offset) else {
            return;
        };
        if !self.conns.is_open(conn) {
            return; // the client went away; drop the reply
        }
        let (core, cost) = (*self.conns.kind(conn), self.cfg.costs.nic_fwd);
        let done = self.cpu.run_on(core, ctx.now(), cost).finished;
        ctx.timer_at(done, NicMsg::CacheReply { conn, frame });
    }

    /// What the SoC reads out of a replicated stream frame before fanning
    /// it out, through the command table's view of its one command: the
    /// owning master shard (hash slot of the first key) gets an ingress
    /// count, and the front end keeps its cache coherent with the write
    /// ([`SocFrontEnd::on_stream_write`]). Unsharded and cache-off it is a
    /// no-op (no parse, no state, no CPU), keeping that schedule's state
    /// untouched.
    fn observe_stream_command(&mut self, from_offset: u64, body: &[u8]) {
        let shards = self.shard_ingress.len();
        if shards <= 1 && self.front.cache().is_none() {
            return;
        }
        // Parsed in place: keys and values are views into the stream frame.
        let ParsedCommand::Command(args, _) = resp::parse_command(body) else {
            return;
        };
        let Some(spec) = cmd::lookup(args[0]) else {
            return;
        };
        if shards > 1 {
            let shard = spec.keys(&args).next().map_or(0, |key| {
                crate::protocol::slot_shard(crate::protocol::key_hash_slot(key), shards)
            });
            self.shard_ingress[shard] += 1;
        }
        self.front
            .on_stream_write(spec, &args, from_offset + body.len() as u64);
    }

    fn on_node_msg(&mut self, ctx: &mut Context<'_>, conn: usize, msg: NodeMsg) {
        match msg {
            NodeMsg::Hello { from, is_master } => {
                self.upsert_node(ctx.now(), from, is_master, Some(conn));
                if is_master {
                    // §III-D: a returning original master demotes whoever
                    // was promoted in its absence.
                    self.demote_promoted(ctx);
                    // Tell the master how many slaves are already valid.
                    self.notify_available(ctx);
                    if self.cfg.mode_failover && self.tracker.mode() != self.cfg.repl_mode {
                        // A (re)connecting master defaults to the
                        // configured mode; bring it up to date with the
                        // mode actually in force.
                        self.announce_mode(ctx);
                    }
                    if self.deferred() {
                        // A reconnecting master lost any earlier commit
                        // notification state; resend the frontier.
                        self.notified_upto = 0;
                        self.notify_committed(ctx);
                    }
                }
            }
            NodeMsg::SyncRequest { slave, position } => {
                // Fig. 8 ①: record the slave's replication status at the
                // end of the node list, then notify the master (②).
                self.upsert_node(ctx.now(), slave, false, Some(conn));
                if let Some(e) = self.entry_mut(slave) {
                    e.position = position;
                }
                // Small ARM-core cost for parsing + list update
                // (reference-core time; the pool scales it down).
                self.cpu.run_any(ctx.now(), SimDuration::from_nanos(400));
                if let Some(mconn) = self.master_conn() {
                    let relay = NodeMsg::SyncNotify { slave, position }.encode();
                    self.send_on(ctx, mconn, tag::NODE, relay);
                }
                self.notify_available(ctx);
                if self.deferred() {
                    self.track(ctx, |t, live| t.on_progress(slave, position.offset, live));
                    match self.tracker.mode() {
                        ReplModeKind::Quorum => self.retransmit_pending(ctx, slave),
                        // A healed slave re-enters the replication
                        // topology here, at the tail of every in-flight
                        // chain its cumulative offset does not cover.
                        ReplModeKind::Chain => {
                            self.tracker.rejoin(slave, position.offset);
                        }
                        ReplModeKind::Async => {}
                    }
                }
            }
            // A progress report, or a chain hop acknowledgement: the slave
            // *applied* the stream up to `offset` (cumulative, so one ack
            // can cover several pending writes).
            NodeMsg::ProgressReport { slave, offset } | NodeMsg::WriteAck { slave, offset } => {
                if let Some(e) = self.entry_mut(slave) {
                    e.position.offset = e.position.offset.max(offset);
                    e.last_reply = ctx.now();
                }
                if self.deferred() {
                    self.track(ctx, |t, live| t.on_progress(slave, offset, live));
                }
            }
            NodeMsg::ProbeReply { seq: _, from } => {
                let now = ctx.now();
                let mut became_valid = false;
                let mut master_returned = false;
                if let Some(e) = self.entry_mut(from) {
                    e.last_reply = now;
                    e.pending_probe_since = None;
                    if !e.valid {
                        e.valid = true;
                        became_valid = true;
                        master_returned = e.is_master;
                        // The node's replication state is unknown until it
                        // reports fresh progress; don't let a stale offset
                        // trip the lag check.
                        e.position.offset = 0;
                    }
                }
                if became_valid {
                    self.recoveries.push((now, from));
                }
                if master_returned {
                    // §III-D: "when the original master node is found
                    // recovered, Nic-KV lets it continue to be the master
                    // node and downgrades the previously selected master".
                    self.demote_promoted(ctx);
                }
                if became_valid {
                    self.notify_available(ctx);
                }
            }
            _ => {}
        }
    }

    /// Send Demote to the slave promoted during a failover, if any.
    fn demote_promoted(&mut self, ctx: &mut Context<'_>) {
        if let Some(promoted) = self.promoted.take() {
            if let Some(conn) = self.entry_mut(promoted).and_then(|e| e.conn) {
                let msg = NodeMsg::Demote.encode();
                self.send_on(ctx, conn, tag::NODE, msg);
            }
        }
    }

    fn upsert_node(
        &mut self,
        now: SimTime,
        addr: SocketAddr,
        is_master: bool,
        conn: Option<usize>,
    ) {
        let mut revalidated = false;
        match self.entry_mut(addr) {
            Some(e) => {
                e.last_reply = now;
                e.pending_probe_since = None;
                if !e.valid {
                    e.valid = true;
                    revalidated = true;
                }
                if conn.is_some() {
                    e.conn = conn;
                }
                e.is_master = is_master || e.is_master;
            }
            None => self.nodes.push(NodeEntry {
                addr,
                is_master,
                position: ReplicationPosition::unsynced(),
                valid: true,
                last_reply: now,
                pending_probe_since: None,
                conn,
            }),
        }
        if revalidated {
            self.recoveries.push((now, addr));
        }
    }

    /// Steady-state fan-out (Fig. 9 ②): write the command into each valid
    /// slave's send buffer and post one WRITE_WITH_IMM per slave, the work
    /// spread round-robin across `thread-num` ARM cores. Quorum/chain
    /// modes hand the write to the tracker instead, which launches it
    /// under the mode's pattern or parks it behind a full window.
    fn fan_out(&mut self, ctx: &mut Context<'_>, frame: Frame) {
        self.stats.inc(NicStat::FanoutMsgs);
        let end_offset = parse_stream_frame(&frame).map(|(from_offset, body)| {
            self.observe_stream_command(from_offset, body);
            from_offset + body.len() as u64
        });
        // Track the master's offset from the frame header (first 8 bytes),
        // for the lag check of §III-C.
        if let Some(end_offset) = end_offset {
            self.master_offset = self.master_offset.max(end_offset);
        }
        if !self.deferred() {
            self.async_send(ctx, frame);
        } else if let Some(end_offset) = end_offset {
            self.track(ctx, |t, live| t.admit(frame, end_offset, live));
        }
    }

    /// The async-stream send body: the request parse on thread 0, then
    /// the per-slave ARM work. Shared by the steady-state fast path and
    /// the degrade flush, which re-launches window-parked tracked frames
    /// under async semantics (already counted in `NicStat::FanoutMsgs`).
    fn async_send(&mut self, ctx: &mut Context<'_>, frame: Frame) {
        self.cpu
            .run_on(0, ctx.now(), self.cfg.costs.nic_fanout_base);
        if let Some((conns, done)) = self.charge_fanout(ctx.now()) {
            ctx.timer_at(done, NicMsg::FanoutSendBatch { conns, frame });
        }
    }

    /// Charge one ring write per live slave, round-robin over the fan-out
    /// threads. The WQEs are only staged: one doorbell flushes them all
    /// once the last thread finishes. Returns the target connections and
    /// that instant, or `None` without a live slave.
    fn charge_fanout(&mut self, now: SimTime) -> Option<(Vec<usize>, SimTime)> {
        let mut conns = self.spare_conns.pop().unwrap_or_default();
        conns.extend(self.slave_targets().map(|(conn, _)| conn));
        let mut done = now;
        for _ in &conns {
            done = done.max(self.charge_fanout_thread(now));
        }
        if conns.is_empty() {
            self.recycle_conns(conns);
            return None;
        }
        Some((conns, done))
    }

    /// Keep an emptied connection list for the next fan-out to fill.
    fn recycle_conns(&mut self, mut conns: Vec<usize>) {
        conns.clear();
        if self.spare_conns.len() < SPARE_LISTS {
            self.spare_conns.push(conns);
        }
    }

    /// Valid slaves with an open channel, in node-list order: the targets
    /// of one replicated write, as `(connection index, address)`.
    fn slave_targets(&self) -> impl Iterator<Item = (usize, SocketAddr)> + '_ {
        self.nodes
            .iter()
            .filter(|n| !n.is_master && n.valid)
            .filter_map(|n| n.conn.map(|c| (c, n.addr)))
            .filter(|&(c, _)| self.conns.is_open(c))
    }

    /// Charge one slave's ring-write work to the next fan-out thread
    /// (round-robin) and return when that thread finishes it.
    fn charge_fanout_thread(&mut self, now: SimTime) -> SimTime {
        let thread = self.fanout_cursor % self.cfg.effective_nic_threads();
        self.fanout_cursor += 1;
        self.stats.inc(NicStat::FanoutSends);
        self.cpu
            .run_on(thread, now, self.cfg.costs.nic_per_slave)
            .finished
    }

    /// Post `frame` to each of `conns` under a single doorbell — the one
    /// place replication WRs leave the NIC. A channel whose handshake is
    /// still outstanding queues the frame internally; a rejected WR breaks
    /// only its own channel. For a tracked write (`seq`) each WR is armed
    /// so its send-side completion lands back on the tracker as that
    /// slave's ack — the one completion Nic-KV reads, so the one WR it
    /// posts signaled; a frame queued behind the handshake gets no such
    /// completion, the slave's cumulative progress acks it instead.
    /// Returns whether the fabric accepted every WR.
    fn post_stream(
        &mut self,
        ctx: &mut Context<'_>,
        conns: &[usize],
        frame: &Frame,
        seq: Option<u64>,
    ) -> bool {
        for &conn in conns {
            let Some(seq) = seq else {
                self.conns.stage(conn, tag::REPL_STREAM, frame.clone());
                continue;
            };
            let Some(slave) = self.addr_of_conn(conn) else {
                continue;
            };
            let staged = self
                .conns
                .stage_signaled(conn, tag::REPL_STREAM, frame.clone());
            if let Some(key) = staged {
                self.tracker.arm(key, seq, slave);
            }
        }
        let failed = self.conns.post(&self.net, ctx);
        let accepted = failed.is_empty();
        for (conn, qp, wr_id) in failed {
            self.tracker.disarm((qp, wr_id));
            self.close_conn(ctx, conn);
        }
        accepted
    }

    /// Post one chain write to its head hop (the `ChainHop` timer body).
    fn chain_hop_post(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let mut target = None;
        self.track(ctx, |t, live| target = t.hop_target(seq, live));
        let Some((slave, frame)) = target else {
            return;
        };
        let conn = self.open_conn_of(|n| n.addr == slave);
        if !conn.is_some_and(|c| self.post_stream(ctx, &[c], &frame, Some(seq))) {
            // The hop died between scheduling and posting, or on the post.
            self.tracker.hop_unposted(seq);
            self.chain_repair(ctx);
        }
    }

    /// Push the commit frontier to the master so it can release deferred
    /// client replies.
    fn notify_committed(&mut self, ctx: &mut Context<'_>) {
        let upto = self.tracker.committed_upto();
        if upto <= self.notified_upto {
            return;
        }
        if let Some(conn) = self.master_conn() {
            self.notified_upto = upto;
            let msg = NodeMsg::WriteCommitted { upto }.encode();
            self.send_on(ctx, conn, tag::NODE, msg);
        }
    }

    /// Quorum mode: re-post every pending write a re-registering slave has
    /// not acked.
    fn retransmit_pending(&mut self, ctx: &mut Context<'_>, slave: SocketAddr) {
        let Some(conn) = self.open_conn_of(|n| n.addr == slave) else {
            return;
        };
        for seq in self.tracker.unacked_by(slave) {
            self.stats.inc(NicStat::Retransmits);
            self.cpu.run_any(ctx.now(), self.cfg.costs.nic_per_slave);
            if let Some(frame) = self.tracker.frame_of(seq) {
                self.post_stream(ctx, &[conn], &frame, Some(seq));
            }
        }
    }

    /// Chain mode: splice every dead hop out of every in-flight chain and
    /// re-drive stalled writes. Run after completion drains and failure
    /// detections — any path that can tear a conn down.
    fn chain_repair(&mut self, ctx: &mut Context<'_>) {
        if self.tracker.mode() == ReplModeKind::Chain {
            self.track(ctx, Tracker::repair);
        }
    }

    // -- cross-mode failover (`ClusterConfig::mode_failover`) -------------------

    /// The failover policy, run on every availability change: a quorum
    /// cluster that can no longer assemble a write quorum degrades to the
    /// async stream rather than stalling every client, and re-promotes to
    /// the configured mode once enough slaves return. Linearizability is
    /// promised only up to the first degradation instant; `mode_changes`
    /// is the seam `histcheck::check_linearizable_upto` cuts at.
    fn maybe_mode_transition(&mut self, ctx: &mut Context<'_>) {
        if !self.cfg.mode_failover || self.cfg.repl_mode != ReplModeKind::Quorum {
            return;
        }
        let need = quorum_slave_acks(self.cfg.num_slaves);
        let avail = self.available_slaves();
        self.peak_slaves = self.peak_slaves.max(avail);
        let mode = self.tracker.mode();
        if mode == self.cfg.repl_mode && avail < need && self.peak_slaves >= need {
            self.degrade_to_async(ctx);
        } else if mode == ReplModeKind::Async && avail >= need {
            self.promote_to_configured(ctx);
        }
    }

    /// Degrade to the async stream. Every byte the master has streamed so
    /// far is re-declared committed under async semantics (the master's
    /// deferred replies release), tracked-write state is dropped, and
    /// window-parked frames are flushed through the async fast path so no
    /// write is lost in the transition.
    fn degrade_to_async(&mut self, ctx: &mut Context<'_>) {
        self.stats.inc(NicStat::ModeChanges);
        self.mode_changes.push((ctx.now(), ReplModeKind::Async));
        for frame in self.tracker.degrade(self.master_offset) {
            self.async_send(ctx, frame);
        }
        self.announce_mode(ctx);
        self.notify_committed(ctx);
    }

    /// Re-promote to the configured mode. The async interlude's bytes
    /// commit by the semantics they were written under; tracking starts
    /// fresh at the current stream frontier.
    fn promote_to_configured(&mut self, ctx: &mut Context<'_>) {
        self.tracker.promote(self.cfg.repl_mode, self.master_offset);
        self.stats.inc(NicStat::ModeChanges);
        self.mode_changes.push((ctx.now(), self.cfg.repl_mode));
        self.announce_mode(ctx);
        self.notify_committed(ctx);
    }

    /// Tell the master which mode is in force now.
    fn announce_mode(&mut self, ctx: &mut Context<'_>) {
        if let Some(conn) = self.master_conn() {
            let msg = NodeMsg::ModeChange {
                mode: self.tracker.mode(),
            }
            .encode();
            self.send_on(ctx, conn, tag::NODE, msg);
        }
    }

    // -- failure detection (§III-D) ---------------------------------------------

    fn on_probe_tick(&mut self, ctx: &mut Context<'_>) {
        ctx.timer(self.cfg.probe_interval, NicMsg::ProbeTick);
        let now = ctx.now();
        self.probe_seq += 1;
        let seq = self.probe_seq;

        // A node is failed when a probe sent `waiting-time` ago has no
        // reply (§III-D).
        let waiting = self.cfg.waiting_time;
        let mut detected = Vec::new();
        let mut master_failed = false;
        for e in &mut self.nodes {
            let overdue = e
                .pending_probe_since
                .is_some_and(|t| now.saturating_since(t) > waiting);
            if e.valid && overdue {
                e.valid = false;
                detected.push((now, e.addr));
                if e.is_master {
                    master_failed = true;
                }
            }
        }
        let any_detected = !detected.is_empty();
        self.detections.extend(detected);
        if master_failed && self.promoted.is_none() {
            self.failover(ctx);
        }

        // Send this round's probes (cheap ARM work per probe). One encode,
        // one buffer: each target's copy is a Frame refcount bump.
        let probe: Frame = NodeMsg::Probe { seq }.encode().into();
        let targets: Vec<(usize, SocketAddr)> = self
            .nodes
            .iter()
            .filter_map(|e| e.conn.map(|c| (c, e.addr)))
            .filter(|&(c, _)| self.conns.is_open(c))
            .collect();
        for (conn, addr) in targets {
            let cost = SimDuration::from_nanos(150);
            self.cpu.run_any(now, cost);
            self.stats.inc(NicStat::Probes);
            if let Some(e) = self.entry_mut(addr) {
                if e.pending_probe_since.is_none() {
                    e.pending_probe_since = Some(now);
                }
            }
            self.send_on(ctx, conn, tag::NODE, probe.clone());
        }
        // Push availability/lag state to the master when it changed.
        if any_detected {
            // Newly invalid nodes break in-flight chains: splice them out.
            self.chain_repair(ctx);
        }
        self.notify_available(ctx);
    }

    /// §III-D: "one of the available slave nodes is selected as the master
    /// node" — the one with the highest replication offset loses the least.
    fn failover(&mut self, ctx: &mut Context<'_>) {
        let best = self
            .nodes
            .iter()
            .filter(|n| !n.is_master && n.valid)
            .max_by_key(|n| (n.position.offset, std::cmp::Reverse(n.addr)))
            .map(|n| (n.addr, n.conn));
        let Some((addr, Some(conn))) = best else {
            return;
        };
        self.promoted = Some(addr);
        self.stats.inc(NicStat::Failovers);
        let msg = NodeMsg::Promote.encode();
        self.send_on(ctx, conn, tag::NODE, msg);
    }
}

impl Actor for NicKv {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let cq = cqdrain::create_armed(&self.net, ctx);
        self.cqs.push((cq, 0));
        self.net.rdma_listen(self.addr, ctx.id());
        if self.front.cache().is_some() {
            for core in self.cfg.nic_front_end_cores() {
                let cq = cqdrain::create_armed(&self.net, ctx);
                self.cqs.push((cq, core));
            }
            let front = SocketAddr::new(self.node, NIC_FE_PORT);
            self.net.rdma_listen(front, ctx.id());
        }
        ctx.timer(self.cfg.probe_interval, NicMsg::ProbeTick);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, msg: Payload) {
        // Control events work even while crashed (Recover must).
        let msg = match msg.downcast::<NicControl>() {
            Ok(ctrl) => {
                match *ctrl {
                    NicControl::Crash => {
                        self.crashed = true;
                        self.net.set_node_up(self.node, false);
                    }
                    NicControl::Recover => {
                        self.crashed = false;
                        self.net.set_node_up(self.node, true);
                        // The SoC restarted: transport state and the node
                        // list are gone. The master's Hello redial and the
                        // slaves' re-registration polls rebuild the list.
                        // Front-end state first, before the close loop, so
                        // tearing down the master conn doesn't fire error
                        // replies into already-dead client channels.
                        self.front.restart();
                        self.nodes.clear();
                        for i in 0..self.conns.len() {
                            self.close_conn(ctx, i);
                        }
                        self.promoted = None;
                        self.master_offset = 0;
                        self.last_update_sent = None;
                        // Tracked-mode state is process state: gone too.
                        self.tracker.reset();
                        self.notified_upto = 0;
                        // Stale completions still replenish receive slots,
                        // and every CQ is armed again.
                        for &(cq, _) in &self.cqs {
                            self.conns.recover_drain(&self.net, ctx, cq);
                        }
                    }
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<NicMsg>() {
            Ok(m) => {
                match ctx.open(m) {
                    // Keep the probe-timer chain alive through a crash so
                    // probing resumes on recovery.
                    NicMsg::ProbeTick if self.crashed => {
                        ctx.timer(self.cfg.probe_interval, NicMsg::ProbeTick);
                    }
                    NicMsg::ProbeTick => self.on_probe_tick(ctx),
                    // Work a crashed process had in progress is lost.
                    _ if self.crashed => {}
                    NicMsg::FanoutSendBatch { conns, frame } => {
                        self.post_stream(ctx, &conns, &frame, None);
                        self.recycle_conns(conns);
                    }
                    NicMsg::TrackedSend { seq, conns } => {
                        // `None`: committed before the fan-out work finished.
                        if let Some(frame) = self.tracker.frame_of(seq) {
                            self.post_stream(ctx, &conns, &frame, Some(seq));
                        }
                        self.recycle_conns(conns);
                    }
                    NicMsg::ChainHop { seq } => {
                        self.chain_hop_post(ctx, seq);
                    }
                    NicMsg::CacheReply { conn, frame } => {
                        self.send_on(ctx, conn, tag::REPLY, frame);
                    }
                    NicMsg::FwdSend { cookie, frame } => {
                        self.fwd_to_master(ctx, cookie, frame);
                    }
                }
                return;
            }
            Err(other) => other,
        };
        if self.crashed {
            return; // a crashed process handles nothing
        }
        let Ok(ev) = msg.downcast::<NetEvent>() else {
            return;
        };
        match ctx.open(ev) {
            NetEvent::CmConnectRequest { req, to, .. } => {
                // The master and the slaves dial `addr` and land on thread
                // 0's CQ. Clients dial the front end and are spread over
                // its cores' CQs round-robin, as the master spreads its
                // connections over the shard CQs. Stale or double-answered
                // requests are benign: ignore.
                let cq = match self.cqs.split_first() {
                    None => return,
                    Some((_, front)) if to != self.addr && !front.is_empty() => {
                        let (cq, _) = front[self.accept_cursor % front.len()];
                        self.accept_cursor += 1;
                        cq
                    }
                    Some((&(cq, _), _)) => cq,
                };
                let _ = self.net.rdma_accept(ctx, req, cq);
            }
            NetEvent::CmEstablished { qp, .. } if self.conns.conn_of_qp(qp).is_none() => {
                // The SoC's per-message rate is its scarce resource:
                // fan-out, forwards, replies and node messages post
                // unsignaled; only a tracked write's ack asks for its
                // completion (`post_stream`).
                let ch = Channel::rdma(&self.net, ctx, self.node, qp, RING_SIZE).unsignaled();
                let core = self.core_of_cq(self.net.qp_cq(qp));
                self.conns.add(ch, core, None);
            }
            NetEvent::CqNotify { cq } => {
                // Budgeted drain on the slow ARM cores: at most
                // `POLL_BUDGET` completions per event, CPU charged to the
                // core that polls this CQ, over-budget bursts continued
                // after that work — the realistic back-pressure under
                // fan-in.
                let core = self.core_of_cq(cq);
                let net = self.net.clone();
                let mut wcs = self.conns.take_wcs();
                let out =
                    cqdrain::drain_budgeted(&net, ctx, cq, POLL_BUDGET, &mut wcs, |ctx, wc| {
                        let open = |c: &usize| self.conns.is_open(*c);
                        let Some(conn) = self.conns.conn_of_qp(wc.qp).filter(open) else {
                            return;
                        };
                        // Tracked-mode ack hook: a send-side completion for a
                        // replication WR resolves to its `(seq, slave)` —
                        // success means the slave holds the bytes (RC), error
                        // feeds chain repair.
                        if self.deferred() && wc.opcode == WcOpcode::RdmaWrite {
                            let (key, ok) = ((wc.qp, wc.wr_id), wc.status == WcStatus::Success);
                            self.track(ctx, |t, live| t.on_wr_done(key, ok, live));
                        }
                        match self.conns.on_wc(&net, ctx, conn, &wc) {
                            ConnEvent::Msg(m) => self.on_channel_msg(ctx, conn, m),
                            ConnEvent::Broken => self.close_conn(ctx, conn),
                            ConnEvent::Quiet => {}
                        }
                    });
                self.conns.put_wcs(wcs);
                // Completion errors may have torn connections down; give
                // in-flight chains a chance to splice dead hops out.
                self.chain_repair(ctx);
                let done = self.cpu.run_on(core, ctx.now(), out.cpu_cost).finished;
                if out.more {
                    ctx.timer_at(done, NetEvent::CqNotify { cq });
                }
            }
            _ => {}
        }
    }
}
