//! # Who gates the master's writes and holds its replies (§III-C, §III-D)
//!
//! The paper's master refuses writes while fewer than `min-slaves` slaves
//! are valid, or while one lags more than
//! [`crate::replsource::MAX_SLAVE_LAG`] behind. Under quorum replication
//! it also holds each write's reply until the stream offset that covers
//! it commits.
//!
//! [`CommitGate`] owns every decision of those two policies: Nic-KV's
//! verdict and the master's own, which of them stands, the commit point
//! Nic-KV reported, and the held replies. It does no IO and reads no
//! clock: [`crate::server::KvServer`] passes in what only it knows —
//! whether it is a master, whether it is degraded, its own slave census
//! and commit census, which connections are open — and carries the
//! answers out: it replies `NOREPLICAS`, charges and posts the released
//! replies, and counts. The same split as
//! [`crate::nodelist::NodeList`] (DESIGN.md §33).
//!
//! There is no `crash` entry. A crashed master keeps its store and its
//! backlog; a reply whose connection broke is dropped by the next release;
//! and Nic-KV does not resend an unchanged verdict, so a verdict forgotten
//! on a crash would keep `min-slaves` closed after the master recovers.

use std::collections::VecDeque;

use skv_netsim::Frame;

use crate::config::{ClusterConfig, Mode};

/// A frame bound for one connection: a staged send, or a held reply.
pub(crate) struct OutFrame {
    pub conn: usize,
    pub tag: u32,
    pub payload: Frame,
}

impl OutFrame {
    pub(crate) fn new(conn: usize, tag: u32, payload: Frame) -> Self {
        OutFrame { conn, tag, payload }
    }
}

/// The master's write gate and its held replies.
#[derive(Default)]
pub struct CommitGate {
    /// `min-slaves`: writes are refused below this many valid slaves (0:
    /// never).
    min_slaves: usize,
    /// SKV: Nic-KV's verdict stands while the master is not degraded.
    offloaded: bool,
    /// Quorum: a replicated write's reply waits for its commit.
    defers: bool,
    /// Nic-KV's last `SlaveSetUpdate`: valid slaves, and whether one lags.
    nic: (usize, bool),
    /// The master's own verdict: does one of its replicas lag?
    own_lag: bool,
    /// The highest offset Nic-KV reported committed.
    committed: u64,
    /// Held replies, each with the offset one past its write, in push
    /// order (the backlog only grows, so that is offset order).
    held: VecDeque<(u64, OutFrame)>,
}

impl CommitGate {
    /// The gate of a server configured by `cfg`.
    pub(crate) fn new(cfg: &ClusterConfig) -> Self {
        CommitGate {
            min_slaves: cfg.min_slaves,
            offloaded: cfg.mode == Mode::Skv,
            defers: cfg.repl_mode.defers_replies(),
            ..CommitGate::default()
        }
    }

    /// Nic-KV's `SlaveSetUpdate`.
    pub(crate) fn nic_verdict(&mut self, available: u32, lagging: bool) {
        self.nic = (available as usize, lagging);
    }

    /// The master's own lag verdict, from its replicas' progress.
    pub(crate) fn own_verdict(&mut self, lagging: bool) {
        self.own_lag = lagging;
    }

    /// Nic-KV's `WriteCommitted`: the commit point only moves forward.
    pub(crate) fn committed(&mut self, upto: u64) {
        self.committed = self.committed.max(upto);
    }

    /// Is a write refused? Only a `master` refuses (the paper's slaves
    /// serve reads). Nic-KV's verdict stands in SKV while the master is not
    /// `degraded`; otherwise both halves are the master's own, and
    /// `own_slaves` (its synced slave channels) is counted only when
    /// `min-slaves` is on.
    pub(crate) fn blocked(
        &self,
        master: bool,
        degraded: bool,
        own_slaves: impl FnOnce() -> usize,
    ) -> bool {
        let trusted = self.offloaded && !degraded;
        let lagging = if trusted { self.nic.1 } else { self.own_lag };
        let short = self.min_slaves > 0
            && (if trusted { self.nic.0 } else { own_slaves() }) < self.min_slaves;
        master && (short || lagging)
    }

    /// Does a replicated write's reply wait for its commit (quorum, at a
    /// `master`)?
    pub(crate) fn defers(&self, master: bool) -> bool {
        master && self.defers
    }

    /// Hold `reply` until the offset `end` commits.
    pub(crate) fn hold(&mut self, end: u64, reply: OutFrame) {
        self.held.push_back((end, reply));
    }

    /// Is a release pass worth its census: a `master` holding replies?
    pub(crate) fn holding(&self, master: bool) -> bool {
        master && !self.held.is_empty()
    }

    /// One release pass: every held reply whose connection is not `open`
    /// is dropped, then those covered by `max(commit point, census)` leave
    /// in push order.
    pub(crate) fn release(
        &mut self,
        census: u64,
        open: impl Fn(usize) -> bool,
    ) -> impl Iterator<Item = OutFrame> + '_ {
        self.held.retain(|(_, reply)| open(reply.conn));
        let upto = self.committed.max(census);
        let ready = self.held.iter().take_while(|(end, _)| *end <= upto).count();
        self.held.drain(..ready).map(|(_, reply)| reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    use crate::replmode::ReplModeKind;

    /// SKV, quorum, `min-slaves` 2.
    fn gate() -> CommitGate {
        let mut cfg = ClusterConfig::for_mode(Mode::Skv);
        cfg.repl_mode = ReplModeKind::Quorum;
        cfg.min_slaves = 2;
        CommitGate::new(&cfg)
    }

    /// A reply on `conn`, told apart by `tag`.
    fn reply(conn: usize, tag: u32) -> OutFrame {
        OutFrame::new(conn, tag, Frame::from(vec![0u8; 4]))
    }

    fn tags(released: impl Iterator<Item = OutFrame>) -> Vec<u32> {
        released.map(|r| r.tag).collect()
    }

    #[test]
    fn a_slave_never_refuses_a_write() {
        let mut g = gate();
        g.nic_verdict(0, true);
        g.own_verdict(true);
        assert!(!g.blocked(false, false, || 0));
        assert!(!g.blocked(false, true, || 0));
        assert!(g.blocked(true, false, || 0));
    }

    #[test]
    fn an_offloaded_master_takes_both_halves_from_nic_kv() {
        let mut g = gate();
        g.own_verdict(true);
        g.nic_verdict(2, false);
        assert!(!g.blocked(true, false, || 0), "own census and lag ignored");
        g.nic_verdict(1, false);
        assert!(g.blocked(true, false, || 2), "too few valid slaves");
        g.nic_verdict(3, true);
        assert!(g.blocked(true, false, || 3), "one lags");
    }

    #[test]
    fn a_degraded_master_takes_both_halves_from_its_own_view() {
        let mut g = gate();
        // A Nic-KV that reported a lagging slave and then died: its
        // verdict no longer refuses every write.
        g.nic_verdict(3, true);
        assert!(!g.blocked(true, true, || 2));
        assert!(g.blocked(true, true, || 1), "own census below min-slaves");
        // A stale "nobody lags" does not switch the guard off either.
        g.nic_verdict(3, false);
        g.own_verdict(true);
        assert!(g.blocked(true, true, || 2));
        // Re-offloaded, Nic-KV's verdict stands again.
        assert!(!g.blocked(true, false, || 0));
    }

    #[test]
    fn the_baselines_take_both_halves_from_the_masters_own_view() {
        let mut cfg = ClusterConfig::for_mode(Mode::RdmaRedis);
        cfg.min_slaves = 1;
        let mut g = CommitGate::new(&cfg);
        g.nic_verdict(3, true);
        assert!(!g.blocked(true, false, || 1));
        assert!(g.blocked(true, false, || 0));
        g.own_verdict(true);
        assert!(g.blocked(true, false, || 1));
    }

    #[test]
    fn without_min_slaves_the_census_is_not_counted() {
        let mut cfg = ClusterConfig::for_mode(Mode::TcpRedis);
        cfg.min_slaves = 0;
        let mut g = CommitGate::new(&cfg);
        assert!(!g.blocked(true, false, || unreachable!("counted")));
        g.own_verdict(true);
        assert!(g.blocked(true, false, || unreachable!("counted")));
    }

    #[test]
    fn only_a_quorum_master_holds_replies() {
        assert!(gate().defers(true));
        assert!(!gate().defers(false));
        let async_cfg = ClusterConfig::for_mode(Mode::Skv);
        assert!(!CommitGate::new(&async_cfg).defers(true));
    }

    #[test]
    fn a_release_frees_the_covered_prefix_in_push_order() {
        let mut g = gate();
        assert!(!g.holding(true), "nothing held: no census");
        for (tag, end) in [(1, 10), (2, 20), (3, 20), (4, 30)] {
            g.hold(end, reply(0, tag));
        }
        assert!(g.holding(true) && !g.holding(false));
        assert_eq!(tags(g.release(5, |_| true)), Vec::<u32>::new());
        // The census alone covers a prefix.
        assert_eq!(tags(g.release(20, |_| true)), vec![1, 2, 3]);
        // Nic-KV's commit point covers it when the census lags.
        g.committed(30);
        assert_eq!(tags(g.release(0, |_| true)), vec![4]);
        assert!(!g.holding(true));
    }

    #[test]
    fn the_commit_point_only_moves_forward() {
        let mut g = gate();
        g.committed(30);
        g.committed(10);
        g.hold(25, reply(0, 1));
        assert_eq!(tags(g.release(0, |_| true)), vec![1]);
    }

    #[test]
    fn replies_on_closed_connections_leave_in_the_same_pass() {
        let mut g = gate();
        for (tag, conn, end) in [(1, 0, 10), (2, 1, 10), (3, 1, 50), (4, 0, 60)] {
            g.hold(end, reply(conn, tag));
        }
        // Connection 1 closed: its covered reply is not released, and its
        // uncovered one leaves the queue too.
        assert_eq!(tags(g.release(10, |c| c != 1)), vec![1]);
        assert_eq!(g.held.len(), 1);
        assert_eq!(tags(g.release(60, |_| true)), vec![4]);
    }

    /// A master's gate in a world of its own: six client connections that
    /// close for good, writes whose replies are held, Nic-KV's commit
    /// point and verdicts, the master's own verdict and census, and
    /// degrade / re-offload.
    struct World {
        gate: CommitGate,
        open: [bool; 6],
        /// Each held reply by tag: `(end offset, connection)`.
        pushed: Vec<(u64, usize)>,
        /// What became of each: `Some(true)` released, `Some(false)`
        /// dropped.
        fate: Vec<Option<bool>>,
        end: u64,
        committed: u64,
        nic: (u32, bool),
        own: (usize, bool),
        degraded: bool,
    }

    impl World {
        fn new() -> Self {
            World {
                gate: gate(),
                open: [true; 6],
                pushed: Vec::new(),
                fate: Vec::new(),
                end: 0,
                committed: 0,
                nic: (0, false),
                own: (0, false),
                degraded: false,
            }
        }

        fn release(&mut self, census: u64) -> Result<(), TestCaseError> {
            let upto = self.committed.max(census);
            let open = self.open;
            let released: Vec<u32> = tags(self.gate.release(census, |c| open[c]));
            let mut last = self.fate.iter().rposition(|f| *f == Some(true));
            for tag in released {
                let i = tag as usize;
                let (end, conn) = self.pushed[i];
                prop_assert!(end <= upto, "reply {} at {} released at {}", i, end, upto);
                prop_assert!(self.open[conn], "reply {} released on a closed conn", i);
                prop_assert!(last.is_none_or(|l| l < i), "reply {} out of order", i);
                prop_assert_eq!(self.fate[i], None, "reply {} left twice", i);
                self.fate[i] = Some(true);
                last = Some(i);
            }
            // Whatever else left the queue was dropped, on a closed conn.
            let queued: Vec<usize> = self.gate.held.iter().map(|(_, r)| r.tag as usize).collect();
            for i in 0..self.pushed.len() {
                let conn = self.pushed[i].1;
                if queued.contains(&i) {
                    prop_assert!(self.open[conn], "reply {} kept on a closed conn", i);
                } else if self.fate[i].is_none() {
                    prop_assert!(!self.open[conn], "reply {} dropped on an open conn", i);
                    self.fate[i] = Some(false);
                }
            }
            // Offsets are pushed in order, so nothing covered stays held.
            let next = self.gate.held.front().map(|(end, _)| *end);
            prop_assert!(
                next.is_none_or(|end| end > upto),
                "{:?} held at {}",
                next,
                upto
            );
            Ok(())
        }

        fn step(&mut self, op: u8, arg: u64) -> Result<(), TestCaseError> {
            let conn = usize::try_from(arg % 6).unwrap_or(0);
            match op % 7 {
                0 => {
                    self.end += arg % 3;
                    let tag = u32::try_from(self.pushed.len()).unwrap_or(u32::MAX);
                    self.gate.hold(self.end, reply(conn, tag));
                    self.pushed.push((self.end, conn));
                    self.fate.push(None);
                }
                1 => {
                    let upto = self.end.saturating_sub(arg % 8);
                    self.gate.committed(upto);
                    self.committed = self.committed.max(upto);
                }
                2 => self.release(self.end.saturating_sub(arg % 8))?,
                3 => self.open[conn] = false,
                4 => {
                    self.nic = (u32::try_from(arg % 4).unwrap_or(0), arg.is_multiple_of(5));
                    self.gate.nic_verdict(self.nic.0, self.nic.1);
                }
                5 => {
                    self.own = (usize::try_from(arg % 4).unwrap_or(0), arg.is_multiple_of(5));
                    self.gate.own_verdict(self.own.1);
                }
                _ => self.degraded = !self.degraded,
            }
            // Both halves from one source: Nic-KV's unless degraded.
            let (available, lagging) = if self.degraded {
                self.own
            } else {
                (self.nic.0 as usize, self.nic.1)
            };
            let want = available < 2 || lagging;
            prop_assert_eq!(self.gate.blocked(true, self.degraded, || self.own.0), want);
            prop_assert!(!self.gate.blocked(false, self.degraded, || self.own.0));
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever happened before — held writes, commit points, release
        /// passes at any census, closed connections, verdicts from Nic-KV
        /// and from the master, degrade and re-offload — a reply leaves
        /// only when `max(commit point, census)` covers it, in push order,
        /// never on a closed connection, and none that is covered stays; a
        /// reply on a closed connection leaves the queue at the next pass;
        /// every reply leaves exactly once; and the verdict that refuses
        /// writes is Nic-KV's exactly while the master is not degraded.
        #[test]
        fn the_gate_keeps_its_promises(
            ops in prop::collection::vec((any::<u8>(), 0..64u64), 0..160),
        ) {
            let mut w = World::new();
            for (op, arg) in ops {
                w.step(op, arg)?;
            }
            w.release(u64::MAX)?;
            prop_assert!(w.gate.held.is_empty());
            prop_assert!(w.fate.iter().all(Option::is_some));
        }
    }
}
