//! # What leaves the master for one command, and at what cost (§V-C, Fig. 9 ①)
//!
//! The paper's comparison is who pays to post a replicated write. An SKV
//! master posts one WR to Nic-KV; RDMA-Redis posts one WR per slave on its
//! event loop, as one linked list under one doorbell; Redis sends one TCP
//! message per slave. [`Egress`] owns that decision for everything the
//! master's command path sends: which frames leave and in what order,
//! which of them ride the one linked post list, what event-loop CPU, WRs
//! and doorbells they cost, which reply waits for its commit, and when a
//! batch may leave behind the replication stream's egress floor.
//!
//! It does no IO and reads no clock. [`crate::server::KvServer`] passes in
//! the facts — the command's reply and stream, `defer`, the Nic-KV
//! connection while the master is not degraded, the synced slave
//! connections, the instant its core is done — and carries the plan out:
//! it charges the cost (jitter, then one stall draw per doorbell),
//! schedules the `SendFrames` timers, and stages or sends each frame as
//! the plan marks it. The same split as [`crate::commitgate::CommitGate`]
//! (DESIGN.md §34).

use std::ops::Range;

use skv_simcore::{Frame, FramePool, SimDuration, SimTime};
use skv_store::resp::Resp;

use crate::config::{ClusterConfig, Mode};
use crate::protocol::tag;

/// Emptied frame lists kept for reuse (one is in flight per command whose
/// CPU work has not finished yet).
const SPARE_LISTS: usize = 64;

/// A frame bound for one connection: a staged send, or a held reply.
/// A `listed` frame rides its batch's one linked post list; the others
/// leave one send each.
pub(crate) struct OutFrame {
    pub conn: usize,
    pub tag: u32,
    pub listed: bool,
    pub payload: Frame,
}

/// One command's facts, as the command path knows them after execution.
pub(crate) struct Command<'a> {
    /// The connection the command came in on; its reply leaves there.
    pub conn: usize,
    pub req_len: usize,
    /// The inter-shard hops a split command paid.
    pub cross_cost: SimDuration,
    /// The relay cookie of a command the SoC front end forwarded: its
    /// reply leaves cookie-framed as `FWD_REPLY`.
    pub fwd: Option<u64>,
    pub reply: &'a Resp,
    /// A write to replicate: the backlog offsets it occupies, and its bytes.
    pub stream: Option<(Range<u64>, &'a [u8])>,
    /// Quorum: the reply waits until the write's end offset commits.
    pub defer: bool,
}

impl<'a> Command<'a> {
    /// A command that replicates nothing and crossed no shard.
    pub(crate) fn reply(conn: usize, req_len: usize, fwd: Option<u64>, reply: &'a Resp) -> Self {
        let (cross_cost, stream, defer) = (SimDuration::ZERO, None, false);
        Command {
            conn,
            req_len,
            cross_cost,
            fwd,
            reply,
            stream,
            defer,
        }
    }
}

/// What leaves, in order; what that costs the event loop; and the reply
/// held for the offset one past its write.
#[derive(Default)]
pub(crate) struct Plan {
    pub frames: Vec<OutFrame>,
    /// CPU before jitter.
    pub cpu: SimDuration,
    pub wrs: u32,
    /// Doorbells rung; each draws one post stall.
    pub doorbells: u32,
    pub held: Option<(u64, OutFrame)>,
}

/// Frames leaving together at one instant.
pub(crate) type Batch = (SimTime, Vec<OutFrame>);

/// The master's egress plan.
pub struct Egress {
    cfg: ClusterConfig,
    /// Monotonic floor for stream departures: shard cores finish out of
    /// order, but the stream must leave in backlog-offset order.
    floor: SimTime,
    spare: Vec<Vec<OutFrame>>,
}

impl Egress {
    /// The egress of a server configured by `cfg`.
    pub(crate) fn new(cfg: &ClusterConfig) -> Self {
        let (cfg, floor, spare) = (cfg.clone(), SimTime::ZERO, Vec::new());
        Egress { cfg, floor, spare }
    }

    /// The plan for one command. `nic` is asked only for a replicated SKV
    /// write; `slaves` is walked only when the master fans out itself.
    pub(crate) fn command(
        &mut self,
        pool: &FramePool,
        cmd: Command<'_>,
        nic: impl FnOnce() -> Option<usize>,
        slaves: impl Iterator<Item = usize>,
    ) -> Plan {
        let mut plan = self.plan();
        plan.cpu = self.cmd_cpu(cmd.req_len) + cmd.cross_cost;
        let payload = pool.build(|out| {
            if let Some(cookie) = cmd.fwd {
                out.extend_from_slice(&cookie.to_le_bytes());
            }
            cmd.reply.encode_into(out);
        });
        let len = payload.len();
        let reply_tag = cmd.fwd.map_or(tag::REPLY, |_| tag::FWD_REPLY);
        let reply = self.out(cmd.conn, reply_tag, payload);
        let Some((span, bytes)) = cmd.stream else {
            self.reply_row(&mut plan, len);
            plan.frames.push(reply);
            return plan;
        };
        // One send-ring buffer; every recipient clones the Frame, so an
        // N-slave fan-out is N refcount bumps of it.
        let stream = pool.build(|out| {
            out.extend_from_slice(&span.start.to_le_bytes());
            out.extend_from_slice(bytes);
        });
        self.fan_out(&mut plan, stream, nic, slaves);
        match (cmd.defer, cmd.fwd) {
            // Quorum: posted, and charged, when its write commits.
            (true, _) => plan.held = Some((span.end, reply)),
            // A direct reply leaves ahead of the stream, a post of its own.
            (false, None) => {
                self.reply_row(&mut plan, len);
                plan.frames.insert(0, reply);
            }
            // A forwarded write's ack chases its own stream frame to the
            // SoC, which invalidates off the stream before it relays acks.
            // It rides the stream's post list, but is charged a post of
            // its own (ROADMAP item 4 B, DESIGN.md §34.2).
            (false, Some(_)) => {
                self.reply_row(&mut plan, len);
                plan.frames.push(reply);
            }
        }
        plan
    }

    /// A release pass: the held `replies` leave in the order given, each
    /// charged the reply row.
    pub(crate) fn release(&mut self, replies: impl Iterator<Item = OutFrame>) -> Plan {
        let mut plan = self.plan();
        for reply in replies {
            self.reply_row(&mut plan, reply.payload.len());
            plan.frames.push(reply);
        }
        plan
    }

    /// When a plan's frames leave, once its core is `done`: the batch that
    /// leaves first and, if the batch splits, the stream frames behind the
    /// floor. A batch leaves whole when it need not wait, or when it is all
    /// stream or carries a `FWD_REPLY` (an ack trails its own stream
    /// frame). One core finishes its work in order, so at one shard the
    /// floor never passes `done` and every batch leaves whole.
    pub(crate) fn depart(&mut self, done: SimTime, out: Vec<OutFrame>) -> (Batch, Option<Batch>) {
        if !out.iter().any(|f| f.tag == tag::REPL_STREAM) {
            return ((done, out), None);
        }
        let at = done.max(self.floor);
        self.floor = at;
        let whole = out.iter().all(|f| f.tag == tag::REPL_STREAM)
            || out.iter().any(|f| f.tag == tag::FWD_REPLY);
        if at == done || whole {
            return ((at, out), None);
        }
        let (stream, other) = out.into_iter().partition(|f| f.tag == tag::REPL_STREAM);
        ((done, other), Some((at, stream)))
    }

    /// An empty plan on a recycled frame list.
    fn plan(&mut self) -> Plan {
        let frames = self.spare.pop().unwrap_or_default();
        Plan {
            frames,
            ..Plan::default()
        }
    }

    /// Keep an emptied frame list for the next plan.
    pub(crate) fn recycle(&mut self, frames: Vec<OutFrame>) {
        if self.spare.len() < SPARE_LISTS {
            self.spare.push(frames);
        }
    }

    /// The stream frame's fan-out: one WR to Nic-KV (SKV, Fig. 9 ①), one
    /// TCP send per synced slave (Redis), or one linked list over the
    /// synced slaves under one doorbell (RDMA-Redis, and SKV with no live
    /// Nic-KV channel, so that writes keep replicating).
    fn fan_out(
        &self,
        plan: &mut Plan,
        stream: Frame,
        nic: impl FnOnce() -> Option<usize>,
        slaves: impl Iterator<Item = usize>,
    ) {
        if let Some(nic) = (self.cfg.mode == Mode::Skv).then(nic).flatten() {
            plan.frames.push(self.out(nic, tag::REPL_STREAM, stream));
            return self.post(plan, 1);
        }
        let (len, before) = (stream.len(), plan.frames.len());
        let fanned = slaves.map(|slave| self.out(slave, tag::REPL_STREAM, stream.clone()));
        plan.frames.extend(fanned);
        let n = plan.frames.len() - before;
        if self.cfg.mode.uses_rdma() {
            self.post(plan, n);
        } else {
            plan.cpu += self.cfg.net.tcp_send_cost(len) * n as u64;
        }
    }

    /// Parsing and executing a request of `len` bytes; over TCP, receiving
    /// it too. Over RDMA its completion is charged where the CQ is polled.
    fn cmd_cpu(&self, len: usize) -> SimDuration {
        let (costs, net) = (&self.cfg.costs, &self.cfg.net);
        let cpu = costs.cmd_base + costs.cmd_per_kib.mul_f64(len as f64 / 1024.0);
        match self.cfg.mode {
            Mode::TcpRedis => cpu + net.tcp_recv_cost(len),
            Mode::RdmaRedis | Mode::Skv => cpu,
        }
    }

    /// The reply row: one WR under its own doorbell over RDMA, one kernel
    /// send of `len` bytes over TCP.
    fn reply_row(&self, plan: &mut Plan, len: usize) {
        if self.cfg.mode.uses_rdma() {
            self.post(plan, 1);
        } else {
            plan.cpu += self.cfg.net.tcp_send_cost(len);
        }
    }

    /// `n` WRs linked under one doorbell (`post_list_cpu(1)` is one post).
    fn post(&self, plan: &mut Plan, n: usize) {
        plan.cpu += self.cfg.net.post_list_cpu(n);
        plan.wrs += u32::try_from(n).unwrap_or(u32::MAX);
        plan.doorbells += u32::from(n > 0);
    }

    /// A frame for `conn`. Every channel of a server has its mode's
    /// transport. Over RDMA, stream frames and cookie replies ride the
    /// linked list: a cookie reply keeps its place behind its stream frame
    /// (the list keeps per-QP order; a send of its own would overtake it).
    fn out(&self, conn: usize, tag: u32, payload: Frame) -> OutFrame {
        let listed = tag == tag::REPL_STREAM || tag == tag::FWD_REPLY;
        let listed = listed && self.cfg.mode.uses_rdma();
        OutFrame {
            conn,
            tag,
            listed,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The connection a client's command came in on, and Nic-KV's (which
    /// also carries the SoC front end's forwards).
    const CLIENT: usize = 9;
    const NIC: usize = 0;

    /// `SET k v`, fed at backlog offset 100.
    const WRITE: &[u8] = b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n";

    fn egress(mode: Mode) -> Egress {
        Egress::new(&ClusterConfig::for_mode(mode))
    }

    fn plan(
        e: &mut Egress,
        cmd: Command<'_>,
        nic: impl FnOnce() -> Option<usize>,
        slaves: impl Iterator<Item = usize>,
    ) -> Plan {
        e.command(&FramePool::new(256, 8), cmd, nic, slaves)
    }

    /// A read (or refused command) answered `OK`.
    fn read(conn: usize, fwd: Option<u64>, reply: &Resp) -> Command<'_> {
        Command::reply(conn, WRITE.len(), fwd, reply)
    }

    /// The `SET`; a forwarded one came in on Nic-KV's connection.
    fn write(fwd: Option<u64>, defer: bool, reply: &Resp) -> Command<'_> {
        let conn = if fwd.is_some() { NIC } else { CLIENT };
        let span = 100..100 + WRITE.len() as u64;
        let stream = Some((span, WRITE));
        Command {
            stream,
            defer,
            ..read(conn, fwd, reply)
        }
    }

    fn no_nic() -> Option<usize> {
        unreachable!("Nic-KV asked")
    }

    fn no_slaves() -> impl Iterator<Item = usize> {
        std::iter::from_fn(|| unreachable!("slaves walked"))
    }

    /// `(conn, tag, listed)` of each frame, in order.
    fn shape(frames: &[OutFrame]) -> Vec<(usize, u32, bool)> {
        frames.iter().map(|f| (f.conn, f.tag, f.listed)).collect()
    }

    /// What a plan charges: `(cpu, wrs, doorbells)`.
    fn charged(plan: &Plan) -> (SimDuration, u32, u32) {
        (plan.cpu, plan.wrs, plan.doorbells)
    }

    /// The command's own CPU, plus `posts` WR posts of a doorbell each.
    fn with_posts(e: &Egress, posts: u32) -> (SimDuration, u32, u32) {
        let cpu = e.cmd_cpu(WRITE.len()) + e.cfg.net.wr_post_cpu * u64::from(posts);
        (cpu, posts, posts)
    }

    #[test]
    fn a_direct_reply_over_rdma_is_one_post_of_its_own() {
        for mode in [Mode::RdmaRedis, Mode::Skv] {
            let mut e = egress(mode);
            let ok = Resp::ok();
            let plan = plan(&mut e, read(CLIENT, None, &ok), no_nic, no_slaves());
            assert_eq!(shape(&plan.frames), vec![(CLIENT, tag::REPLY, false)]);
            assert_eq!(charged(&plan), with_posts(&e, 1), "{mode:?}");
            assert!(plan.held.is_none());
        }
    }

    #[test]
    fn a_reply_over_tcp_costs_a_receive_and_a_send_and_no_wr() {
        let mut e = egress(Mode::TcpRedis);
        let ok = Resp::ok();
        let plan = plan(&mut e, read(CLIENT, None, &ok), no_nic, no_slaves());
        assert_eq!(shape(&plan.frames), vec![(CLIENT, tag::REPLY, false)]);
        let (costs, net) = (&e.cfg.costs, &e.cfg.net);
        let len = WRITE.len();
        let cpu = costs.cmd_base + costs.cmd_per_kib.mul_f64(len as f64 / 1024.0);
        let cpu = cpu + net.tcp_recv_cost(len) + net.tcp_send_cost(plan.frames[0].payload.len());
        assert_eq!(charged(&plan), (cpu, 0, 0));
    }

    #[test]
    fn a_forwarded_reply_rides_a_list_of_one() {
        let mut e = egress(Mode::Skv);
        let ok = Resp::ok();
        let plan = plan(&mut e, read(NIC, Some(7), &ok), no_nic, no_slaves());
        assert_eq!(shape(&plan.frames), vec![(NIC, tag::FWD_REPLY, true)]);
        assert_eq!(
            plan.frames[0].payload.get(..8),
            Some(&7u64.to_le_bytes()[..])
        );
        assert_eq!(charged(&plan), with_posts(&e, 1));
    }

    #[test]
    fn an_offloaded_write_is_one_post_to_nic_kv_behind_its_reply() {
        let mut e = egress(Mode::Skv);
        let ok = Resp::ok();
        let plan = plan(&mut e, write(None, false, &ok), || Some(NIC), no_slaves());
        let want = vec![(CLIENT, tag::REPLY, false), (NIC, tag::REPL_STREAM, true)];
        assert_eq!(shape(&plan.frames), want);
        // The stream frame leads with the offset of its first byte.
        let stream = &plan.frames[1].payload;
        assert_eq!(stream.get(..8), Some(&100u64.to_le_bytes()[..]));
        assert_eq!(stream.get(8..), Some(WRITE));
        assert_eq!(charged(&plan), with_posts(&e, 2));
    }

    #[test]
    fn a_host_fan_out_is_one_list_over_the_synced_slaves() {
        // RDMA-Redis never asks for Nic-KV; SKV without a live channel to
        // it (degraded, or not up yet) fans out the same way.
        for (mode, nic) in [(Mode::RdmaRedis, None), (Mode::Skv, Some(None))] {
            for slaves in [0, 3] {
                let mut e = egress(mode);
                let ok = Resp::ok();
                let ask = || nic.unwrap_or_else(no_nic);
                let plan = plan(&mut e, write(None, false, &ok), ask, 1..=slaves);
                let mut want = vec![(CLIENT, tag::REPLY, false)];
                want.extend((1..=slaves).map(|s| (s, tag::REPL_STREAM, true)));
                assert_eq!(shape(&plan.frames), want, "{mode:?}");
                // One reply post, and a list that rings nothing when empty.
                let (cpu, ..) = with_posts(&e, 1);
                let n = u32::try_from(slaves).unwrap_or(0);
                let list = (e.cfg.net.post_list_cpu(slaves), n, u32::from(n > 0));
                let want = (cpu + list.0, 1 + list.1, 1 + list.2);
                assert_eq!(charged(&plan), want, "{mode:?} {slaves}");
            }
        }
    }

    #[test]
    fn a_tcp_fan_out_is_one_send_per_synced_slave() {
        let mut e = egress(Mode::TcpRedis);
        let ok = Resp::ok();
        let plan = plan(&mut e, write(None, false, &ok), no_nic, [3, 4].into_iter());
        let want = vec![
            (CLIENT, tag::REPLY, false),
            (3, tag::REPL_STREAM, false),
            (4, tag::REPL_STREAM, false),
        ];
        assert_eq!(shape(&plan.frames), want);
        let net = &e.cfg.net;
        let (reply, stream) = (plan.frames[0].payload.len(), plan.frames[1].payload.len());
        let cpu = e.cmd_cpu(WRITE.len()) + net.tcp_send_cost(reply) + net.tcp_send_cost(stream) * 2;
        assert_eq!(charged(&plan), (cpu, 0, 0));
    }

    /// ROADMAP item 4 B's row: the `FWD_REPLY` trails its stream frame on
    /// one post list (one doorbell rung), but is charged a post of its own:
    /// 2 doorbells charged, 1 list.
    #[test]
    fn known_a_forwarded_write_is_charged_two_doorbells_for_one_list() {
        let mut e = egress(Mode::Skv);
        let ok = Resp::ok();
        let plan = plan(
            &mut e,
            write(Some(7), false, &ok),
            || Some(NIC),
            no_slaves(),
        );
        let want = vec![(NIC, tag::REPL_STREAM, true), (NIC, tag::FWD_REPLY, true)];
        assert_eq!(shape(&plan.frames), want);
        assert_eq!(charged(&plan), with_posts(&e, 2));
    }

    #[test]
    fn a_held_reply_costs_nothing_until_its_release() {
        for fwd in [None, Some(7)] {
            let mut e = egress(Mode::Skv);
            let ok = Resp::ok();
            let plan = plan(&mut e, write(fwd, true, &ok), || Some(NIC), no_slaves());
            assert_eq!(shape(&plan.frames), vec![(NIC, tag::REPL_STREAM, true)]);
            assert_eq!(charged(&plan), with_posts(&e, 1));
            let (end, held) = plan.held.expect("held");
            assert_eq!(end, 100 + WRITE.len() as u64);
            let want = if fwd.is_some() {
                (NIC, tag::FWD_REPLY, true)
            } else {
                (CLIENT, tag::REPLY, false)
            };
            assert_eq!((held.conn, held.tag, held.listed), want);
        }
    }

    #[test]
    fn a_release_charges_each_reply_its_reply_row_in_order() {
        let held = |conn, tag, listed| {
            let payload = Frame::from(vec![0u8; 5]);
            OutFrame {
                conn,
                tag,
                listed,
                payload,
            }
        };
        let order = [
            (1, tag::REPLY, false),
            (2, tag::FWD_REPLY, true),
            (3, tag::REPLY, false),
        ];
        let mut e = egress(Mode::Skv);
        let plan = e.release(order.iter().map(|&(c, t, l)| held(c, t, l)));
        assert_eq!(shape(&plan.frames), order.to_vec());
        assert_eq!(charged(&plan), (e.cfg.net.wr_post_cpu * 3, 3, 3));
        let mut tcp = egress(Mode::TcpRedis);
        let plan = tcp.release(std::iter::once(held(1, tag::REPLY, false)));
        assert_eq!(charged(&plan), (tcp.cfg.net.tcp_send_cost(5), 0, 0));
    }

    /// The `listed` flag sits in the padding beside the `u32` tag: a frame
    /// list is no larger than it was without it.
    #[test]
    fn the_listed_flag_costs_a_frame_nothing() {
        let without = std::mem::size_of::<(usize, u32, Frame)>();
        assert_eq!(std::mem::size_of::<OutFrame>(), without);
    }

    fn frame(tag: u32) -> OutFrame {
        let payload = Frame::default();
        OutFrame {
            conn: 1,
            tag,
            listed: false,
            payload,
        }
    }

    fn tags((at, frames): &Batch) -> (SimTime, Vec<u32>) {
        (*at, frames.iter().map(|f| f.tag).collect())
    }

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn a_batch_without_stream_leaves_when_its_core_is_done() {
        let mut e = egress(Mode::Skv);
        e.floor = at(50);
        let (first, rest) = e.depart(at(10), vec![frame(tag::REPLY)]);
        assert_eq!(tags(&first), (at(10), vec![tag::REPLY]));
        assert!(rest.is_none());
        assert_eq!(e.floor, at(50), "the floor is the stream's");
    }

    #[test]
    fn a_stream_batch_at_or_past_the_floor_leaves_whole_and_raises_it() {
        let mut e = egress(Mode::Skv);
        e.floor = at(5);
        let (first, rest) = e.depart(at(10), vec![frame(tag::REPLY), frame(tag::REPL_STREAM)]);
        assert_eq!(tags(&first), (at(10), vec![tag::REPLY, tag::REPL_STREAM]));
        assert!(rest.is_none());
        assert_eq!(e.floor, at(10));
    }

    #[test]
    fn a_batch_behind_the_floor_sends_its_reply_ahead() {
        let mut e = egress(Mode::Skv);
        e.floor = at(50);
        let (first, rest) = e.depart(at(10), vec![frame(tag::REPLY), frame(tag::REPL_STREAM)]);
        assert_eq!(tags(&first), (at(10), vec![tag::REPLY]));
        assert_eq!(
            tags(&rest.expect("split")),
            (at(50), vec![tag::REPL_STREAM])
        );
    }

    #[test]
    fn a_batch_behind_the_floor_that_is_all_stream_or_carries_an_ack_waits_whole() {
        for batch in [
            vec![tag::REPL_STREAM, tag::REPL_STREAM],
            vec![tag::REPL_STREAM, tag::FWD_REPLY],
            vec![tag::REPLY, tag::REPL_STREAM, tag::FWD_REPLY],
        ] {
            let mut e = egress(Mode::Skv);
            e.floor = at(50);
            let (first, rest) = e.depart(at(10), batch.iter().map(|&t| frame(t)).collect());
            assert_eq!(tags(&first), (at(50), batch));
            assert!(rest.is_none());
        }
    }

    /// One command drawn for the model: whether Nic-KV is live, the synced
    /// slaves, what the command does, when its core is done, and whether a
    /// release pass follows it.
    #[derive(Debug, Clone)]
    struct Draw {
        nic: bool,
        slaves: usize,
        replicate: bool,
        defer: bool,
        fwd: bool,
        req_len: usize,
        done_us: u64,
        release: bool,
    }

    fn draw() -> impl Strategy<Value = Draw> {
        let facts = (
            any::<bool>(),
            0..5usize,
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
        );
        (facts, 0..9000usize, 0..200u64, any::<bool>()).prop_map(
            |((nic, slaves, replicate, defer, fwd), req_len, done_us, release)| Draw {
                nic,
                slaves,
                replicate,
                defer: defer && replicate,
                fwd,
                req_len,
                done_us,
                release,
            },
        )
    }

    /// The rules every plan keeps, whatever its row: a frame is listed
    /// exactly when it is a stream frame or cookie reply on an RDMA
    /// connection, and WRs = frames posted over RDMA.
    fn check_posts(mode: Mode, plan: &Plan) -> Result<(), TestCaseError> {
        let rdma = mode.uses_rdma();
        for f in &plan.frames {
            let list_tag = f.tag == tag::REPL_STREAM || f.tag == tag::FWD_REPLY;
            prop_assert_eq!(f.listed, rdma && list_tag, "tag {}", f.tag);
        }
        let over_rdma = if rdma { plan.frames.len() } else { 0 };
        prop_assert_eq!(plan.wrs as usize, over_rdma, "WRs = frames over RDMA");
        prop_assert!(plan.doorbells <= plan.wrs);
        Ok(())
    }

    /// A master's egress in a world of its own.
    struct World {
        mode: Mode,
        egress: Egress,
        pool: FramePool,
        held: Vec<OutFrame>,
        /// When the last stream frame left.
        last_stream: SimTime,
    }

    impl World {
        /// Plan one command, then let its frames (and, on a release pass,
        /// every held reply) depart.
        fn step(&mut self, d: &Draw) -> Result<(), TestCaseError> {
            let (mode, e) = (self.mode, &mut self.egress);
            let reply = Resp::Bulk(vec![b'v'; d.req_len % 700]);
            let bytes = vec![b'w'; d.req_len];
            let stream = || Some((0..d.req_len as u64, &bytes[..]));
            let cmd = Command {
                stream: if d.replicate { stream() } else { None },
                defer: d.defer,
                ..Command::reply(CLIENT, d.req_len, d.fwd.then_some(7), &reply)
            };
            let nic = || d.nic.then_some(NIC);
            let mut plan = e.command(&self.pool, cmd, nic, 1..=d.slaves);
            check_posts(mode, &plan)?;
            let ack = plan.frames.iter().position(|f| f.tag == tag::FWD_REPLY);
            let mut streams = plan.frames.iter().enumerate();
            if d.replicate && d.fwd && !d.defer {
                // A forwarded dirty write's ack never precedes its stream.
                let ack = ack.expect("the ack leaves with its command");
                let ahead = |(i, f): (usize, &OutFrame)| f.tag != tag::REPL_STREAM || i < ack;
                prop_assert!(streams.all(ahead), "ack ahead of its stream");
            }
            if let Some((_, reply_frame)) = plan.held.take() {
                // A held reply costs nothing at command time: the same
                // write answered directly costs exactly its reply row more.
                let direct = Command {
                    stream: stream(),
                    ..Command::reply(CLIENT, d.req_len, None, &reply)
                };
                let direct = e.command(&self.pool, direct, nic, 1..=d.slaves);
                let mut row = Plan::default();
                e.reply_row(&mut row, direct.frames[0].payload.len());
                let with_reply = (plan.cpu + row.cpu, plan.wrs + row.wrs);
                prop_assert_eq!(with_reply, (direct.cpu, direct.wrs));
                prop_assert_eq!(plan.doorbells + row.doorbells, direct.doorbells);
                self.held.push(reply_frame);
            }
            let done = at(d.done_us);
            let (first, rest) = e.depart(done, plan.frames);
            // ... nor leaves before it.
            let batches = [Some(&first), rest.as_ref()];
            let when = |t| {
                batches
                    .iter()
                    .flatten()
                    .find(|b| b.1.iter().any(|f| f.tag == t))
            };
            if let (Some(ack), Some(stream)) = (when(tag::FWD_REPLY), when(tag::REPL_STREAM)) {
                prop_assert!(ack.0 >= stream.0, "ack left ahead of its stream");
            }
            self.left(done, first)?;
            if let Some(stream) = rest {
                self.left(done, stream)?;
            }
            if d.release && !self.held.is_empty() {
                // ... and exactly its reply row at release.
                let mut rows = Plan::default();
                for r in &self.held {
                    self.egress.reply_row(&mut rows, r.payload.len());
                }
                let released = self.egress.release(self.held.drain(..));
                prop_assert_eq!(charged(&released), charged(&rows));
                check_posts(mode, &released)?;
                let (first, rest) = self.egress.depart(done, released.frames);
                prop_assert!(rest.is_none() && first.0 == done, "replies do not wait");
            }
            Ok(())
        }

        /// A batch left: never before its core was done, and stream frames
        /// in the order they were fed.
        fn left(&mut self, done: SimTime, (when, frames): Batch) -> Result<(), TestCaseError> {
            prop_assert!(when >= done);
            if frames.iter().any(|f| f.tag == tag::REPL_STREAM) {
                prop_assert!(when >= self.last_stream, "stream out of feed order");
                self.last_stream = when;
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over any sequence of commands in any row, on cores that finish
        /// out of order, with held replies released at any pass: a frame is
        /// listed exactly when it is a stream frame or cookie reply on an
        /// RDMA connection; WRs = frames posted over RDMA; a forwarded
        /// dirty write's `FWD_REPLY` never precedes its stream frame; a held
        /// reply costs nothing at command time and exactly its reply row at
        /// release; and stream frames leave in feed order, never before
        /// their core is done.
        #[test]
        fn every_plan_keeps_the_egress_rules(
            mode in prop_oneof![Just(Mode::TcpRedis), Just(Mode::RdmaRedis), Just(Mode::Skv)],
            draws in prop::collection::vec(draw(), 1..40),
        ) {
            let (egress, pool) = (egress(mode), FramePool::new(256, 8));
            let last_stream = SimTime::ZERO;
            let mut w = World { mode, egress, pool, held: Vec::new(), last_stream };
            for mut d in draws {
                // Only SKV has a cache front end that forwards, and only
                // SKV runs quorum (`ClusterConfig::validate`).
                if mode != Mode::Skv {
                    (d.defer, d.fwd) = (false, false);
                }
                w.step(&d)?;
            }
        }
    }
}
