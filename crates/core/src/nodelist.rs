//! # Who keeps Nic-KV's node list (§III-C, §III-D)
//!
//! Nic-KV keeps "a node list storing the corresponding relationship
//! between the master node and the slave node", and on top of it the
//! paper's failure detector: probes every `probe_interval`, a node that
//! leaves a probe unanswered for `waiting-time` is flagged invalid, a
//! failed master is replaced by the best valid slave and that slave is
//! demoted when the original master returns, and the master hears how
//! many slaves are valid (`min-slaves`).
//!
//! [`NodeList`] owns every decision of that policy: the entries, the probe
//! sequence, the promoted slave, the last slave-set update sent, and the
//! detection and recovery records. It does no IO and reads no clock:
//! [`crate::nickv::NicKv`] passes in what only it knows — which channel
//! carried a registration and which one closed, the master's stream
//! offset, `now` — and carries the answers out: it sends, charges the ARM
//! cores and counts. Every close is reported, so an entry's channel is an
//! open one. The same split as [`crate::hostlinks::HostLinks`] (DESIGN.md
//! §32).

use skv_netsim::SocketAddr;
use skv_simcore::{SimDuration, SimTime};

use crate::config::ClusterConfig;
use crate::protocol::NodeMsg;
use crate::replsource::MAX_SLAVE_LAG;

/// An entry in the node list.
#[derive(Debug, Clone)]
pub struct NodeEntry {
    /// The node's server address.
    pub addr: SocketAddr,
    /// Whether this entry is the master.
    pub is_master: bool,
    /// Replication offset as last reported; 0 while unknown.
    pub offset: u64,
    /// The invalid flag (§III-D), inverted: cleared while the node answers
    /// probes.
    pub valid: bool,
    /// When the node's `waiting-time` clock started: the oldest unanswered
    /// probe, or the instant its channel closed.
    pub pending_probe_since: Option<SimTime>,
    /// Connection index, while the node has a channel to Nic-KV.
    conn: Option<usize>,
}

/// One probe round's decisions, carried out in field order.
pub(crate) struct Round {
    /// The master failed: send `Promote` on this slave's channel.
    pub promote: Option<usize>,
    /// The sequence number this round's probes carry.
    pub seq: u64,
}

/// Nic-KV's node list and failure detector.
#[derive(Default)]
pub struct NodeList {
    entries: Vec<NodeEntry>,
    probe_seq: u64,
    /// The slave promoted during a master failover, if any.
    promoted: Option<SocketAddr>,
    /// Last `(available, lagging)` pair pushed to the master.
    last_update: Option<(u32, bool)>,
    /// Instants at which a node was declared failed.
    pub detections: Vec<(SimTime, SocketAddr)>,
    /// Instants at which a node declared failed was seen alive again.
    pub recoveries: Vec<(SimTime, SocketAddr)>,
    /// How long a node's clock may run before it is flagged failed.
    waiting_time: SimDuration,
}

impl NodeList {
    /// The node list of a Nic-KV configured by `cfg`.
    pub(crate) fn new(cfg: &ClusterConfig) -> Self {
        NodeList {
            waiting_time: cfg.waiting_time,
            ..NodeList::default()
        }
    }

    /// Every entry, in registration order.
    pub fn entries(&self) -> &[NodeEntry] {
        &self.entries
    }

    /// Currently valid slaves.
    pub fn available_slaves(&self) -> usize {
        self.valid_slaves().count()
    }

    fn valid_slaves(&self) -> impl Iterator<Item = &NodeEntry> {
        self.entries.iter().filter(|n| !n.is_master && n.valid)
    }

    fn index_of(&self, addr: SocketAddr) -> Option<usize> {
        self.entries.iter().position(|n| n.addr == addr)
    }

    /// The channel of the node at `addr`, if it has one.
    pub(crate) fn conn_of(&self, addr: SocketAddr) -> Option<usize> {
        self.entries.iter().find(|n| n.addr == addr)?.conn
    }

    /// The node whose channel `conn` is.
    pub(crate) fn addr_of(&self, conn: usize) -> Option<SocketAddr> {
        Some(self.entries.iter().find(|n| n.conn == Some(conn))?.addr)
    }

    /// The master's channel, if it has one.
    pub(crate) fn master_conn(&self) -> Option<usize> {
        self.entries.iter().find(|n| n.is_master)?.conn
    }

    /// The targets of one replicated write: valid slaves with a channel,
    /// in list order, as `(connection, address)`.
    pub(crate) fn targets(&self) -> impl Iterator<Item = (usize, SocketAddr)> + '_ {
        self.valid_slaves()
            .filter_map(|n| n.conn.map(|c| (c, n.addr)))
    }

    /// The node answered: its clock stops, and a node flagged failed is
    /// valid again, with an offset unknown until it reports progress.
    fn revalidate(&mut self, i: usize, now: SimTime) -> bool {
        let e = &mut self.entries[i];
        e.pending_probe_since = None;
        let back = !std::mem::replace(&mut e.valid, true);
        if back {
            e.offset = 0;
            self.recoveries.push((now, e.addr));
        }
        back
    }

    /// A registered master: the promoted slave's channel, to send `Demote`
    /// on (§III-D: the original master continues as master).
    fn demote(&mut self) -> Option<usize> {
        let promoted = self.promoted.take()?;
        self.conn_of(promoted)
    }

    /// `Hello`, or a slave's `SyncRequest`: the node joins the list, or is
    /// revalidated on its new channel `conn`, with its offset unknown until
    /// it reports progress — a registration's position is where a resync
    /// starts, not what the node holds, and under async no progress report
    /// ever corrects it. A master that registers forgets the last
    /// slave-set update, so the next one goes out whatever it says, and
    /// demotes whoever was promoted in its absence: the channel to send
    /// `Demote` on.
    pub(crate) fn register(
        &mut self,
        now: SimTime,
        addr: SocketAddr,
        is_master: bool,
        conn: usize,
    ) -> Option<usize> {
        let i = self.index_of(addr).unwrap_or_else(|| {
            self.entries.push(NodeEntry {
                addr,
                is_master,
                offset: 0,
                valid: true,
                pending_probe_since: None,
                conn: None,
            });
            self.entries.len() - 1
        });
        self.revalidate(i, now);
        let e = &mut self.entries[i];
        e.conn = Some(conn);
        e.is_master |= is_master;
        e.offset = 0;
        if is_master {
            // The master hears the slave-set update afresh: the last one
            // may have been lost with its old channel.
            self.last_update = None;
            self.demote()
        } else {
            None
        }
    }

    /// A progress report: the slave applied up to `offset`.
    pub(crate) fn progress(&mut self, addr: SocketAddr, offset: u64) {
        if let Some(i) = self.index_of(addr) {
            let e = &mut self.entries[i];
            e.offset = e.offset.max(offset);
        }
    }

    /// A probe reply from `from`: whether it was flagged failed (the
    /// master hears the new count), and, when it is the original master
    /// back, the promoted slave's channel to send `Demote` on.
    pub(crate) fn probe_reply(&mut self, now: SimTime, from: SocketAddr) -> (bool, Option<usize>) {
        let Some(i) = self.index_of(from) else {
            return (false, None);
        };
        let back = self.revalidate(i, now);
        let demote = (back && self.entries[i].is_master).then(|| self.demote());
        (back, demote.flatten())
    }

    /// A probe round at `now`: a valid node whose clock started more than
    /// `waiting-time` ago is flagged failed; a failed master with no
    /// promoted slave yet is replaced by the valid slave with the highest
    /// offset (§III-D: "one of the available slave nodes is selected as
    /// the master node"), if that slave has a channel. The probes follow,
    /// through [`NodeList::next_probe`].
    pub(crate) fn probe_round(&mut self, now: SimTime) -> Round {
        self.probe_seq += 1;
        let mut master_failed = false;
        for e in &mut self.entries {
            let overdue = e
                .pending_probe_since
                .is_some_and(|t| now.saturating_since(t) > self.waiting_time);
            if e.valid && overdue {
                e.valid = false;
                self.detections.push((now, e.addr));
                master_failed |= e.is_master;
            }
        }
        let mut promote = None;
        if master_failed && self.promoted.is_none() {
            let best = self
                .valid_slaves()
                .max_by_key(|n| (n.offset, std::cmp::Reverse(n.addr)));
            if let Some((addr, Some(conn))) = best.map(|n| (n.addr, n.conn)) {
                self.promoted = Some(addr);
                promote = Some(conn);
            }
        }
        Round {
            seq: self.probe_seq,
            promote,
        }
    }

    /// The next node from `*at` on with a channel: probe it, and start its
    /// clock unless a probe is already unanswered.
    pub(crate) fn next_probe(&mut self, at: &mut usize, now: SimTime) -> Option<usize> {
        while let Some(e) = self.entries.get_mut(*at) {
            *at += 1;
            if let Some(conn) = e.conn {
                e.pending_probe_since.get_or_insert(now);
                return Some(conn);
            }
        }
        None
    }

    /// Channel `conn` closed: its node loses it until it registers again,
    /// and its clock starts as an unanswered probe's would — nothing is
    /// probed without a channel. Whether it was the master's.
    pub(crate) fn closed(&mut self, now: SimTime, conn: usize) -> bool {
        let mut master = false;
        for e in self.entries.iter_mut().filter(|e| e.conn == Some(conn)) {
            e.conn = None;
            e.pending_probe_since.get_or_insert(now);
            master |= e.is_master;
        }
        master
    }

    /// The slave-set update for the master, when `(available, lagging)`
    /// changed since the last one sent and the master has a channel: a
    /// valid slave lags when it is more than [`MAX_SLAVE_LAG`] behind
    /// `master_offset`.
    pub(crate) fn update(&mut self, master_offset: u64) -> Option<(usize, NodeMsg)> {
        let available = u32::try_from(self.available_slaves()).unwrap_or(u32::MAX);
        let lagging = self
            .valid_slaves()
            .any(|n| n.offset > 0 && master_offset.saturating_sub(n.offset) > MAX_SLAVE_LAG);
        if self.last_update == Some((available, lagging)) {
            return None;
        }
        let conn = self.master_conn()?;
        self.last_update = Some((available, lagging));
        Some((conn, NodeMsg::SlaveSetUpdate { available, lagging }))
    }

    /// The SoC restarted: the list is rebuilt from the master's `Hello`
    /// and the slaves' re-registrations, and nothing else survives.
    pub(crate) fn restart(&mut self) {
        *self = NodeList {
            waiting_time: self.waiting_time,
            ..NodeList::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use skv_netsim::NodeId;

    use crate::config::Mode;

    const fn addr(node: u32) -> SocketAddr {
        SocketAddr {
            node: NodeId(node),
            port: 6379,
        }
    }

    const MASTER: SocketAddr = addr(1);
    const SLAVES: [SocketAddr; 3] = [addr(2), addr(3), addr(4)];

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    /// 200 ms probes, 400 ms `waiting-time`, three slaves.
    fn cfg() -> ClusterConfig {
        let mut cfg = ClusterConfig::for_mode(Mode::Skv);
        cfg.num_slaves = 3;
        cfg.probe_interval = SimDuration::from_millis(200);
        cfg.waiting_time = SimDuration::from_millis(400);
        cfg
    }

    /// A master on channel 0 and three slaves on 1..=3, registered at
    /// `t = 0`, that reported offsets 10, 30, 30.
    fn cluster() -> NodeList {
        let mut nodes = NodeList::new(&cfg());
        assert_eq!(nodes.register(ms(0), MASTER, true, 0), None);
        for (i, (slave, offset)) in SLAVES.into_iter().zip([10, 30, 30]).enumerate() {
            assert_eq!(nodes.register(ms(0), slave, false, i + 1), None);
            nodes.progress(slave, offset);
        }
        nodes
    }

    fn entry(nodes: &NodeList, addr: SocketAddr) -> &NodeEntry {
        let i = nodes.index_of(addr).expect("registered");
        &nodes.entries[i]
    }

    /// Every channel a probe round at `now` probes, in list order.
    fn probes(nodes: &mut NodeList, now: SimTime) -> Vec<usize> {
        let mut at = 0;
        std::iter::from_fn(|| nodes.next_probe(&mut at, now)).collect()
    }

    /// Every slave with a channel answers its probes at `now`.
    fn slaves_answer(nodes: &mut NodeList, now: SimTime) {
        for slave in SLAVES {
            if nodes.conn_of(slave).is_some() {
                nodes.probe_reply(now, slave);
            }
        }
    }

    /// A probe round at `now`, with its probes sent.
    fn round(nodes: &mut NodeList, now: SimTime) -> Round {
        let round = nodes.probe_round(now);
        probes(nodes, now);
        round
    }

    /// Whether the list is as `NodeList::new` left it: nothing survived.
    fn forgotten(nodes: &NodeList) -> bool {
        nodes.entries.is_empty()
            && nodes.probe_seq == 0
            && nodes.promoted.is_none()
            && nodes.last_update.is_none()
            && nodes.detections.is_empty()
            && nodes.recoveries.is_empty()
    }

    #[test]
    fn a_registration_adds_the_node_or_revalidates_it_on_its_new_channel() {
        let mut nodes = cluster();
        assert_eq!(nodes.available_slaves(), 3);
        assert_eq!(nodes.conn_of(SLAVES[0]), Some(1));
        assert_eq!(entry(&nodes, SLAVES[0]).offset, 10);
        // A valid node re-registering is no recovery; its clock stops and
        // its offset is unknown until it reports again.
        probes(&mut nodes, ms(200));
        nodes.register(ms(250), SLAVES[0], false, 7);
        let e = entry(&nodes, SLAVES[0]);
        assert!(e.valid && e.pending_probe_since.is_none() && e.offset == 0);
        assert_eq!(nodes.addr_of(7), Some(SLAVES[0]));
        assert!(nodes.recoveries.is_empty());
        // A failed one comes back on its new channel: one recovery.
        nodes.closed(ms(300), 7);
        round(&mut nodes, ms(800));
        assert!(!entry(&nodes, SLAVES[0]).valid);
        nodes.register(ms(900), SLAVES[0], false, 8);
        assert_eq!(nodes.recoveries, vec![(ms(900), SLAVES[0])]);
        nodes.progress(SLAVES[0], 50);
        assert_eq!(entry(&nodes, SLAVES[0]).offset, 50);
        assert_eq!(nodes.entries().len(), 4, "one entry per address");
    }

    #[test]
    fn a_registering_master_demotes_the_promoted_slave() {
        let mut nodes = cluster();
        nodes.closed(ms(100), 0);
        let r = round(&mut nodes, ms(600));
        assert_eq!(r.promote, Some(2), "slave 1: highest offset, lower address");
        // The master's `Hello`: the promoted slave's channel, once.
        assert_eq!(nodes.register(ms(700), MASTER, true, 9), Some(2));
        assert_eq!(nodes.register(ms(710), MASTER, true, 9), None);
        assert!(entry(&nodes, MASTER).valid);
        assert_eq!(nodes.master_conn(), Some(9));
        // A slave's registration demotes nobody.
        slaves_answer(&mut nodes, ms(800));
        nodes.closed(ms(800), 9);
        assert_eq!(round(&mut nodes, ms(1_300)).promote, Some(2));
        assert_eq!(nodes.register(ms(1_350), SLAVES[0], false, 10), None);
        assert_eq!(nodes.promoted, Some(SLAVES[1]));
    }

    #[test]
    fn progress_only_moves_the_offset_forward() {
        let mut nodes = cluster();
        nodes.progress(SLAVES[0], 25);
        nodes.progress(SLAVES[0], 20);
        assert_eq!(entry(&nodes, SLAVES[0]).offset, 25);
        nodes.progress(addr(99), 5);
        assert_eq!(nodes.entries().len(), 4, "progress registers nobody");
    }

    #[test]
    fn a_probe_reply_stops_the_clock_and_a_returning_master_demotes() {
        let mut nodes = cluster();
        probes(&mut nodes, ms(200));
        assert_eq!(nodes.probe_reply(ms(210), SLAVES[2]), (false, None));
        assert_eq!(entry(&nodes, SLAVES[2]).pending_probe_since, None);
        assert_eq!(entry(&nodes, SLAVES[1]).pending_probe_since, Some(ms(200)));
        assert_eq!(nodes.probe_reply(ms(210), addr(99)), (false, None));
        slaves_answer(&mut nodes, ms(210));
        // The master misses its probes and is replaced; its late reply
        // revalidates it and demotes the promoted slave.
        assert_eq!(round(&mut nodes, ms(800)).promote, Some(2));
        assert_eq!(nodes.detections, vec![(ms(800), MASTER)]);
        assert_eq!(nodes.probe_reply(ms(810), MASTER), (true, Some(2)));
        assert_eq!(nodes.recoveries, vec![(ms(810), MASTER)]);
        // A slave's return demotes nobody, and forgets its stale offset.
        let r = round(&mut nodes, ms(1_400));
        assert!(r.promote.is_none(), "the master answered");
        assert_eq!(nodes.detections.len(), 4, "the three silent slaves");
        assert_eq!(nodes.probe_reply(ms(1_410), SLAVES[0]), (true, None));
        assert_eq!(entry(&nodes, SLAVES[0]).offset, 0);
    }

    #[test]
    fn a_probe_round_flags_overdue_nodes_and_picks_the_best_slave() {
        let mut nodes = cluster();
        let first = nodes.probe_round(ms(200));
        assert!(first.seq == 1 && first.promote.is_none());
        assert_eq!(probes(&mut nodes, ms(200)), vec![0, 1, 2, 3]);
        // The oldest unanswered probe keeps the clock.
        assert_eq!(nodes.probe_round(ms(400)).seq, 2);
        probes(&mut nodes, ms(400));
        assert_eq!(entry(&nodes, MASTER).pending_probe_since, Some(ms(200)));
        // Overdue means more than `waiting-time`.
        round(&mut nodes, ms(600));
        assert!(nodes.detections.is_empty());
        slaves_answer(&mut nodes, ms(700));
        let r = round(&mut nodes, ms(800));
        assert_eq!(nodes.detections, vec![(ms(800), MASTER)]);
        assert_eq!(r.promote, Some(2), "offset 30 ties: the lower address wins");
        // No second promotion while one stands.
        slaves_answer(&mut nodes, ms(900));
        assert_eq!(round(&mut nodes, ms(1_400)).promote, None);

        // The best slave has no channel: nobody is promoted.
        let mut nodes = cluster();
        nodes.progress(SLAVES[2], 99);
        nodes.closed(ms(100), 3);
        nodes.closed(ms(100), 0);
        nodes.register(ms(400), SLAVES[2], false, 3);
        nodes.progress(SLAVES[2], 99);
        nodes.closed(ms(450), 3);
        let r = round(&mut nodes, ms(600));
        assert_eq!(r.promote, None);
        assert_eq!(nodes.promoted, None);
    }

    #[test]
    fn a_closed_channel_starts_the_clock_and_the_node_is_declared_failed() {
        let mut nodes = cluster();
        // Slave 0 answered its last probe, then its channel broke: it is
        // never probed again, and fails `waiting-time` after the close.
        probes(&mut nodes, ms(200));
        nodes.probe_reply(ms(201), SLAVES[0]);
        assert!(!nodes.closed(ms(250), 1), "not the master's channel");
        assert_eq!(nodes.conn_of(SLAVES[0]), None);
        assert_eq!(probes(&mut nodes, ms(400)), vec![0, 2, 3]);
        // Everybody else answers.
        for t in [ms(500), ms(700)] {
            slaves_answer(&mut nodes, t);
            nodes.probe_reply(t, MASTER);
            round(&mut nodes, t + SimDuration::from_millis(100));
            let detected = !nodes.detections.is_empty();
            assert_eq!(detected, t == ms(700), "550 ms after the close, not 350");
        }
        assert_eq!(nodes.detections, vec![(ms(800), SLAVES[0])]);
        assert_eq!(nodes.targets().count(), 2);
        // A close keeps an older probe's clock; the master's is reported.
        assert!(nodes.closed(ms(900), 0));
        assert_eq!(entry(&nodes, MASTER).pending_probe_since, Some(ms(800)));
        assert_eq!(nodes.master_conn(), None);
        assert!(!nodes.closed(ms(900), 42), "an unknown channel");
    }

    #[test]
    fn the_slave_set_update_is_sent_only_on_change() {
        let mut nodes = NodeList::new(&cfg());
        nodes.register(ms(0), SLAVES[0], false, 1);
        nodes.progress(SLAVES[0], 1);
        assert_eq!(nodes.update(0), None, "no master channel: nothing sent");
        nodes.register(ms(0), MASTER, true, 0);
        let set = |available, lagging| Some((0, NodeMsg::SlaveSetUpdate { available, lagging }));
        assert_eq!(nodes.update(0), set(1, false), "not recorded while unsent");
        assert_eq!(nodes.update(0), None);
        assert_eq!(nodes.update(MAX_SLAVE_LAG + 2), set(1, true));
        nodes.register(ms(0), SLAVES[1], false, 2);
        assert_eq!(nodes.update(MAX_SLAVE_LAG + 2), set(2, true));
        // A slave at offset 0 has reported nothing yet: it does not lag.
        nodes.progress(SLAVES[0], MAX_SLAVE_LAG);
        assert_eq!(nodes.update(MAX_SLAVE_LAG + 2), set(2, false));
    }

    #[test]
    fn a_registration_is_not_a_progress_report() {
        // Under async no slave reports progress to Nic-KV. A slave that
        // comes back re-registers from its old position, and the master
        // runs on past it: were that position taken for the slave's
        // offset, the lag verdict would judge it frozen and say `lagging`
        // for good once the master is `MAX_SLAVE_LAG` past it.
        let mut nodes = NodeList::new(&cfg());
        nodes.register(ms(0), MASTER, true, 0);
        nodes.register(ms(0), SLAVES[0], false, 1);
        let set = |lagging| {
            Some((
                0,
                NodeMsg::SlaveSetUpdate {
                    available: 1,
                    lagging,
                },
            ))
        };
        assert_eq!(nodes.update(0), set(false));
        nodes.progress(SLAVES[0], 10);
        // Its channel breaks and it registers again: what it reported
        // before is forgotten, and nobody lags.
        nodes.closed(ms(100), 1);
        nodes.register(ms(150), SLAVES[0], false, 2);
        assert_eq!(entry(&nodes, SLAVES[0]).offset, 0);
        assert_eq!(nodes.update(MAX_SLAVE_LAG + 20), None, "still not lagging");
        // Once it reports, its lag is real.
        nodes.progress(SLAVES[0], 15);
        assert_eq!(nodes.update(MAX_SLAVE_LAG + 20), set(true));
    }

    #[test]
    fn a_master_that_registers_again_hears_the_update_again() {
        let mut nodes = cluster();
        let set = |conn| {
            Some((
                conn,
                NodeMsg::SlaveSetUpdate {
                    available: 3,
                    lagging: false,
                },
            ))
        };
        assert_eq!(nodes.update(30), set(0));
        assert_eq!(nodes.update(30), None);
        // The master's channel breaks and it registers on a new one: the
        // unchanged update goes out again, on the new channel.
        assert!(nodes.closed(ms(100), 0));
        nodes.register(ms(150), MASTER, true, 7);
        assert_eq!(nodes.update(30), set(7));
        assert_eq!(nodes.update(30), None);
        // A slave's registration does not repeat it.
        nodes.register(ms(200), SLAVES[0], false, 8);
        assert_eq!(nodes.update(30), None);
    }

    #[test]
    fn a_restart_forgets_everything() {
        let mut nodes = cluster();
        nodes.closed(ms(0), 0);
        round(&mut nodes, ms(600));
        nodes.update(0);
        assert!(!forgotten(&nodes));
        nodes.restart();
        assert!(forgotten(&nodes));
        // The list rebuilds from zero.
        nodes.register(ms(700), SLAVES[0], false, 5);
        assert_eq!((nodes.entries().len(), nodes.available_slaves()), (1, 1));
        assert_eq!(
            nodes.waiting_time,
            cfg().waiting_time,
            "configuration stays"
        );
    }

    /// A Nic-KV's node list in a world of its own: the master and three
    /// slaves, each on a channel or not, probe rounds every
    /// `probe_interval`, and the answers carried out the way `NicKv` does.
    struct World {
        nodes: NodeList,
        now: SimTime,
        next_round: SimTime,
        /// Each node's channel, and when it lost the last one.
        chan: [Option<usize>; 4],
        chanless_since: [Option<SimTime>; 4],
        next_conn: usize,
        sent: Option<NodeMsg>,
        /// Each node's last record: `Some(true)` a detection.
        last_record: [Option<bool>; 4],
        seen: (usize, usize),
    }

    const NODES: [SocketAddr; 4] = [MASTER, SLAVES[0], SLAVES[1], SLAVES[2]];

    impl World {
        fn new() -> Self {
            World {
                nodes: NodeList::new(&cfg()),
                now: ms(0),
                next_round: ms(200),
                chan: [None; 4],
                chanless_since: [None; 4],
                next_conn: 0,
                sent: None,
                last_record: [None; 4],
                seen: (0, 0),
            }
        }

        fn index(addr: SocketAddr) -> usize {
            NODES.iter().position(|&a| a == addr).expect("a known node")
        }

        fn register(&mut self, i: usize) {
            let conn = self.next_conn;
            self.next_conn += 1;
            self.nodes.register(self.now, NODES[i], i == 0, conn);
            if i == 0 {
                // A new master channel: nothing has been sent on it yet.
                self.sent = None;
            }
            self.chan[i] = Some(conn);
            self.chanless_since[i] = None;
        }

        fn close(&mut self, i: usize) {
            if let Some(conn) = self.chan[i].take() {
                self.nodes.closed(self.now, conn);
                self.chanless_since[i] = Some(self.now);
            }
        }

        fn round(&mut self) -> Result<(), TestCaseError> {
            self.now = self.next_round;
            self.next_round = self.now + cfg().probe_interval;
            let was_promoted = self.nodes.promoted.is_some();
            let round = self.nodes.probe_round(self.now);
            if let Some(conn) = round.promote {
                prop_assert!(!was_promoted, "a second promotion");
                let e = self.nodes.entries.iter().find(|e| e.conn == Some(conn));
                prop_assert!(e.is_some_and(|e| e.valid && !e.is_master));
            }
            let mut at = 0;
            while let Some(conn) = self.nodes.next_probe(&mut at, self.now) {
                prop_assert!(self.chan.contains(&Some(conn)), "probed a closed channel");
            }
            Ok(())
        }

        fn notify(&mut self, master_offset: u64) -> Result<(), TestCaseError> {
            if let Some((conn, msg)) = self.nodes.update(master_offset) {
                prop_assert_eq!(Some(conn), self.chan[0]);
                let msg = Some(msg);
                prop_assert!(msg != self.sent, "an unchanged update on one channel");
                self.sent = msg;
            }
            Ok(())
        }

        fn restart(&mut self) {
            self.nodes.restart();
            self.chan = [None; 4];
            self.chanless_since = [None; 4];
            self.sent = None;
            self.last_record = [None; 4];
            self.seen = (0, 0);
        }

        fn step(&mut self, op: u8, node: usize, arg: u64) -> Result<(), TestCaseError> {
            let i = node % 4;
            if op % 8 != 4 {
                self.now = (self.now + SimDuration::from_millis(arg % 60)).min(self.next_round);
            }
            match op % 8 {
                0 => self.register(i),
                1 => self.nodes.progress(NODES[i], arg),
                2 if self.chan[i].is_some() => {
                    self.nodes.probe_reply(self.now, NODES[i]);
                }
                3 => self.close(i),
                4 | 5 => self.round()?,
                6 => self.notify(arg)?,
                7 if arg < 24 => self.restart(),
                _ => {}
            }
            self.check()
        }

        /// The records alternate per node, starting with a detection, and
        /// a valid node without a channel fails within `waiting-time` plus
        /// one round.
        fn check(&mut self) -> Result<(), TestCaseError> {
            let (d, r) = self.seen;
            for &(_, addr) in &self.nodes.detections[d..] {
                let last = &mut self.last_record[Self::index(addr)];
                prop_assert!(*last != Some(true), "two detections of {:?}", addr);
                *last = Some(true);
            }
            for &(_, addr) in &self.nodes.recoveries[r..] {
                let last = &mut self.last_record[Self::index(addr)];
                prop_assert!(*last == Some(true), "a recovery of {:?} never failed", addr);
                *last = Some(false);
            }
            self.seen = (self.nodes.detections.len(), self.nodes.recoveries.len());
            let deadline = cfg().waiting_time + cfg().probe_interval;
            for e in &self.nodes.entries {
                let since = self.chanless_since[Self::index(e.addr)];
                let late = since.is_some_and(|t| self.now.saturating_since(t) > deadline);
                prop_assert!(
                    !(e.valid && late),
                    "{:?} valid without a channel since {:?} at {:?}",
                    e.addr,
                    since,
                    self.now
                );
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever happened before — registrations on new channels,
        /// progress, probe replies, closed channels, probe rounds,
        /// slave-set updates, SoC restarts — a node that lost its channel
        /// is declared failed in time unless it registered again, the
        /// records alternate, at most one valid slave with a channel is
        /// promoted, an update goes out only when it changed since the
        /// last one on the master's channel, and nothing survives a
        /// restart.
        #[test]
        fn the_detector_keeps_its_promises(
            ops in prop::collection::vec((any::<u8>(), 0..4usize, 0..120u64), 0..160),
        ) {
            let mut w = World::new();
            for (op, node, arg) in ops {
                w.step(op, node, arg)?;
                if op % 8 == 7 && arg < 24 {
                    prop_assert!(forgotten(&w.nodes));
                }
            }
            // Every valid node without a channel is flagged by the rounds
            // that follow.
            for _ in 0..4 {
                w.round()?;
                w.check()?;
            }
            for e in &w.nodes.entries {
                let chanless = w.chan[World::index(e.addr)].is_none();
                prop_assert!(!(e.valid && chanless), "{:?} never detected", e.addr);
            }
        }
    }
}
