//! Nic-KV: the offloaded component running on the SmartNIC SoC.
//!
//! Implements §III-C/§III-D of the paper on the BlueField's (simulated)
//! ARM cores:
//!
//! * maintains the **node list** — master and slaves with their replication
//!   state and validity flags; its decisions belong to the IO-free
//!   [`NodeList`] (DESIGN.md §32), this actor carries them out,
//! * relays initial synchronization requests to the master (Fig. 8 ①→②),
//! * performs **steady-state replication fan-out** (Fig. 9): one request
//!   from the master becomes one `WRITE_WITH_IMM` per valid slave, written
//!   from the slaves' send buffers on the NIC, optionally spread over
//!   `thread-num` ARM cores,
//! * runs **failure detection**: 1-second probes, `waiting-time` timeouts
//!   (counted from an unanswered probe or a closed channel), invalid flags,
//!   `min-slaves` notifications to the master, and master failover with
//!   downgrade-on-return,
//! * with the hot-key cache on, runs the clients' **command front end** on
//!   every ARM core the fan-out threads leave free, each core polling its
//!   own CQ and its share of the client connections (DESIGN.md §16.1).

use skv_netsim::{CqId, Frame, Net, NetEvent, NodeId, SocketAddr, WcOpcode, WcStatus};
use skv_simcore::stats::CounterSet;
use skv_simcore::{Actor, ActorId, Context, CorePool, Payload, SimDuration, SimTime};
use skv_store::cmd;
use skv_store::resp::{self, ParsedCommand, Resp};

use crate::channel::{Channel, ChannelMsg, RING_SIZE};
use crate::cluster::NIC_FE_PORT;
use crate::config::ClusterConfig;
use crate::conns::{ConnEvent, ConnTable};
use crate::cqdrain::{self, POLL_BUDGET};
use crate::hotcache::{Dispatch, HotCache, SocFrontEnd};
use crate::metrics::catalog::NicStat;
use crate::nodelist::NodeList;
use crate::protocol::{tag, NodeMsg};
use crate::replmode::{Step, Tracker, REPL_WINDOW};
use crate::replsink::parse_stream_frame;

/// Emptied connection lists kept for reuse; more than a replication
/// window's worth in flight at once is not a steady state worth serving.
const SPARE_LISTS: usize = 64;

#[derive(Default)]
enum NicMsg {
    /// Probe round timer.
    #[default]
    ProbeTick,
    /// All per-slave fan-out work for one replicated write finished; post
    /// one WR per slave under a single doorbell. Each slave's WR carries
    /// the same frame by refcount bump. With a `seq` (quorum) each WR is
    /// armed, so its completion acks that tracked write.
    Fanout {
        conns: Vec<usize>,
        frame: Frame,
        seq: Option<u64>,
    },
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
    /// The node list and failure detector (§III-C, §III-D).
    nodes: NodeList,
    /// Round-robin cursor for thread assignment.
    fanout_cursor: usize,
    /// Whether the SoC is currently crashed.
    crashed: bool,
    /// Highest master replication offset observed in forwarded frames.
    master_offset: u64,
    /// This actor's `nic.*` counters (the rest are its parts'; see
    /// [`NicKv::stats`]).
    stats: CounterSet<NicStat>,
    /// Quorum's tracked replication: in-flight writes, acks and the
    /// commit frontier.
    tracker: Tracker,
    /// Highest commit offset pushed to the master via `WriteCommitted`.
    notified_upto: u64,
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
        let tracker = Tracker::new(cfg.num_slaves, REPL_WINDOW);
        NicKv {
            net,
            node,
            addr,
            cqs: Vec::new(),
            accept_cursor: 0,
            cpu: CorePool::new(cores, speed),
            conns: ConnTable::new(None),
            nodes: NodeList::new(&cfg),
            fanout_cursor: 0,
            crashed: false,
            master_offset: 0,
            cfg,
            stats: CounterSet::default(),
            tracker,
            notified_upto: 0,
            shard_ingress,
            front: SocFrontEnd::new(cache),
            spare_conns: Vec::new(),
        }
    }

    /// The tracked-replication state machine: the commit frontier and
    /// in-flight writes.
    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    /// Keep every commit's ack set (see [`Tracker::record_commits`]).
    pub fn record_commits(&mut self) {
        self.tracker.record_commits();
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

    /// Hand the tracker an input, then carry out every step it decided on,
    /// in order. A tracker that admitted nothing (the async stream)
    /// decides nothing.
    fn track(&mut self, ctx: &mut Context<'_>, input: impl FnOnce(&mut Tracker)) {
        input(&mut self.tracker);
        while let Some(step) = self.tracker.next_step() {
            match step {
                Step::Fanout { seq, frame } => self.launch(ctx, frame, Some(seq)),
                Step::Committed => self.notify_committed(ctx),
            }
        }
    }

    /// The node list: its entries, valid slaves, detections and
    /// recoveries.
    pub fn nodes(&self) -> &NodeList {
        &self.nodes
    }

    /// Mean ARM-core utilization so far.
    pub fn mean_utilization(&self, now: SimTime) -> f64 {
        self.cpu.mean_utilization(now)
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
        if self.conns.close(&self.net, conn) && self.nodes.closed(ctx.now(), conn) {
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

    /// Every availability change funnels through here: the slave-set
    /// update, if it changed.
    fn notify_available(&mut self, ctx: &mut Context<'_>) {
        if let Some((conn, msg)) = self.nodes.update(self.master_offset) {
            self.send_on(ctx, conn, tag::NODE, msg.encode());
        }
    }

    /// Send `msg` on `conn`, when there is one.
    fn send_node(&mut self, ctx: &mut Context<'_>, conn: Option<usize>, msg: NodeMsg) {
        if let Some(conn) = conn {
            self.send_on(ctx, conn, tag::NODE, msg.encode());
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
        if let Some(mconn) = self.nodes.master_conn() {
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
        let now = ctx.now();
        match msg {
            NodeMsg::Hello { from, is_master } => {
                let demote = self.nodes.register(now, from, is_master, conn);
                if is_master {
                    // §III-D: a returning original master demotes whoever
                    // was promoted in its absence.
                    self.send_node(ctx, demote, NodeMsg::Demote);
                    // Tell the master how many slaves are already valid.
                    self.notify_available(ctx);
                    // A reconnecting master lost any earlier commit
                    // notification state; resend the frontier.
                    self.notified_upto = 0;
                    self.notify_committed(ctx);
                }
            }
            NodeMsg::SyncRequest { slave, position } => {
                // Fig. 8 ①: record the slave at the end of the node list,
                // then notify the master (②).
                self.nodes.register(now, slave, false, conn);
                // Small ARM-core cost for parsing + list update
                // (reference-core time; the pool scales it down).
                self.cpu.run_any(now, SimDuration::from_nanos(400));
                let master = self.nodes.master_conn();
                self.send_node(ctx, master, NodeMsg::SyncNotify { slave, position });
                self.notify_available(ctx);
                // The position acks what the slave holds, and it is sent
                // the tracked writes it has not acked.
                self.track(ctx, |t| t.on_progress(slave, position.offset));
                self.retransmit_pending(ctx, slave);
            }
            // A progress report: the slave *applied* the stream up to
            // `offset` (cumulative, so one report can cover several pending
            // writes).
            NodeMsg::ProgressReport { slave, offset } => {
                self.nodes.progress(slave, offset);
                self.track(ctx, |t| t.on_progress(slave, offset));
            }
            NodeMsg::ProbeReply { seq: _, from } => {
                let (back, demote) = self.nodes.probe_reply(now, from);
                // §III-D: "when the original master node is found
                // recovered, Nic-KV lets it continue to be the master
                // node and downgrades the previously selected master".
                self.send_node(ctx, demote, NodeMsg::Demote);
                if back {
                    self.notify_available(ctx);
                }
            }
            _ => {}
        }
    }

    /// Steady-state fan-out (Fig. 9 ②): the one place Nic-KV asks the
    /// replication mode. The async stream launches the write now; quorum
    /// hands it to the tracker, which launches it the same way or parks it
    /// behind a full window.
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
        if !self.cfg.repl_mode.defers_replies() {
            self.launch(ctx, frame, None);
        } else if let Some(end_offset) = end_offset {
            self.track(ctx, |t| t.admit(frame, end_offset));
        }
    }

    /// Launch one replicated write (tracked under `seq` for quorum): the
    /// request parse on thread 0, the thread that owns the master
    /// connection, then one ring write per live slave, round-robin over the
    /// fan-out threads. The WQEs are only staged: one doorbell flushes them
    /// all once the last thread finishes. Without a live slave nothing is
    /// posted.
    fn launch(&mut self, ctx: &mut Context<'_>, frame: Frame, seq: Option<u64>) {
        let (now, costs) = (ctx.now(), &self.cfg.costs);
        self.cpu.run_on(0, now, costs.nic_fanout_base);
        let mut conns = self.spare_conns.pop().unwrap_or_default();
        conns.extend(self.nodes.targets().map(|(conn, _)| conn));
        if conns.is_empty() {
            self.recycle_conns(conns);
            return;
        }
        let mut done = now;
        for _ in &conns {
            let thread = self.fanout_cursor % self.cfg.effective_nic_threads();
            self.fanout_cursor += 1;
            self.stats.inc(NicStat::FanoutSends);
            done = done.max(self.cpu.run_on(thread, now, costs.nic_per_slave).finished);
        }
        ctx.timer_at(done, NicMsg::Fanout { conns, frame, seq });
    }

    /// Keep an emptied connection list for the next fan-out to fill.
    fn recycle_conns(&mut self, mut conns: Vec<usize>) {
        conns.clear();
        if self.spare_conns.len() < SPARE_LISTS {
            self.spare_conns.push(conns);
        }
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
            let Some(slave) = self.nodes.addr_of(conn) else {
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

    /// Push the commit frontier to the master so it can release deferred
    /// client replies.
    fn notify_committed(&mut self, ctx: &mut Context<'_>) {
        let upto = self.tracker.committed_upto();
        if upto <= self.notified_upto {
            return;
        }
        if let Some(conn) = self.nodes.master_conn() {
            self.notified_upto = upto;
            let msg = NodeMsg::WriteCommitted { upto }.encode();
            self.send_on(ctx, conn, tag::NODE, msg);
        }
    }

    /// Quorum: re-post every pending write a re-registering slave has
    /// not acked.
    fn retransmit_pending(&mut self, ctx: &mut Context<'_>, slave: SocketAddr) {
        let Some(conn) = self.nodes.conn_of(slave) else {
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

    // -- failure detection (§III-D) ---------------------------------------------

    /// Carry out a probe round: the failover the node list decided on, one
    /// probe per open channel (cheap ARM work each; one encode, one
    /// buffer, each copy a `Frame` refcount bump), and the slave-set
    /// update.
    fn on_probe_tick(&mut self, ctx: &mut Context<'_>) {
        ctx.timer(self.cfg.probe_interval, NicMsg::ProbeTick);
        let now = ctx.now();
        let round = self.nodes.probe_round(now);
        if round.promote.is_some() {
            self.stats.inc(NicStat::Failovers);
            self.send_node(ctx, round.promote, NodeMsg::Promote);
        }
        let probe: Frame = NodeMsg::Probe { seq: round.seq }.encode().into();
        let mut at = 0;
        while let Some(conn) = self.nodes.next_probe(&mut at, now) {
            self.cpu.run_any(now, SimDuration::from_nanos(150));
            self.stats.inc(NicStat::Probes);
            self.send_on(ctx, conn, tag::NODE, probe.clone());
        }
        self.notify_available(ctx);
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
                        self.nodes.restart();
                        for i in 0..self.conns.len() {
                            self.close_conn(ctx, i);
                        }
                        self.master_offset = 0;
                        // Quorum tracking state is process state: gone too.
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
                    NicMsg::Fanout { conns, frame, seq } => {
                        // A tracked write that committed before its fan-out
                        // work finished is not posted.
                        if seq.is_none_or(|seq| self.tracker.frame_of(seq).is_some()) {
                            self.post_stream(ctx, &conns, &frame, seq);
                        }
                        self.recycle_conns(conns);
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
                        // Quorum's ack hook: a send-side completion for a
                        // tracked replication WR resolves to its
                        // `(seq, slave)` — success means the slave holds the
                        // bytes (RC). Only tracked WRs are armed.
                        if wc.opcode == WcOpcode::RdmaWrite {
                            let (key, ok) = ((wc.qp, wc.wr_id), wc.status == WcStatus::Success);
                            self.track(ctx, |t| t.on_wr_done(key, ok));
                        }
                        match self.conns.on_wc(&net, ctx, conn, &wc) {
                            ConnEvent::Msg(m) => self.on_channel_msg(ctx, conn, m),
                            ConnEvent::Broken => self.close_conn(ctx, conn),
                            ConnEvent::Quiet => {}
                        }
                    });
                self.conns.put_wcs(wcs);
                let done = self.cpu.run_on(core, ctx.now(), out.cpu_cost).finished;
                if out.more {
                    ctx.timer_at(done, NetEvent::CqNotify { cq });
                }
            }
            _ => {}
        }
    }
}
