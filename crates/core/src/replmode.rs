//! # Replication modes — async stream and majority quorum (§III-C +)
//!
//! SKV's paper protocol is Redis-style *asynchronous* primary-backup: the
//! master acks the client as soon as the command applies locally and the
//! NIC fans the stream out to slaves on its own time. That is the fastest
//! arm but offers no guarantee while faults are in flight — a crashed
//! slave silently lags until resync. "Reliable Replication Protocols on
//! SmartNICs" shows that a stronger protocol fits on the same NIC-core +
//! one-sided-WR substrate as a small state machine over the same
//! post/ack/commit layer, which is the shape here: [`ReplModeKind`] names
//! the protocol, [`Tracker`] is quorum's IO-free state machine, and the
//! transport under it ([`crate::conns`]) is the same for both.
//!
//! * `Async` — the paper's offloaded stream. Replies release immediately;
//!   slaves converge eventually. Nothing is tracked.
//! * `Quorum` — ABD-style majority writes. The NIC fans each stream
//!   segment to every slave, tracks acks keyed on WR completions (and
//!   cumulative `ProgressReport` offsets as the resync backstop), and the
//!   master releases the client reply only once master + ⌈(N+1)/2⌉−1
//!   slave copies exist. Any majority of the N+1 replicas then intersects
//!   every write quorum.
//!
//! The mode is selected by `ClusterConfig::repl_mode` and never changes
//! at runtime. Quorum sizes are computed against the *configured* slave
//! count, not the currently-live set: shrinking the ack universe to the
//! live nodes would silently break the quorum-intersection invariant that
//! the proptest in `tests/tests/replmode.rs` pins down.

use std::collections::VecDeque;
use std::fmt;

use skv_netsim::{DetMap, Frame, QpId, SocketAddr};
use skv_simcore::stats::CounterSet;

use crate::metrics::catalog::NicStat;

/// Which replication protocol the cluster runs. Carried by
/// `ClusterConfig` and asked once per node: by the master's
/// [`crate::commitgate::CommitGate`] (does a reply wait?), by Nic-KV's
/// fan-out (launch now, or hand the write to a [`Tracker`]) and by a
/// slave's cron (report progress to Nic-KV too?).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ReplModeKind {
    /// Asynchronous stream fan-out (the paper's protocol; default).
    #[default]
    Async,
    /// ABD-style majority-quorum writes.
    Quorum,
}

impl ReplModeKind {
    /// Stable label used in reports, bench rows and CLI arms.
    pub fn label(self) -> &'static str {
        match self {
            ReplModeKind::Async => "async",
            ReplModeKind::Quorum => "quorum",
        }
    }

    /// All modes, in ablation-sweep order.
    pub const ALL: [ReplModeKind; 2] = [ReplModeKind::Async, ReplModeKind::Quorum];

    /// True when the master must hold client replies until the covering
    /// offset is committed (quorum); false for the async stream, which
    /// acks as soon as the master applies.
    pub fn defers_replies(self) -> bool {
        self == ReplModeKind::Quorum
    }
}

/// Quorum's commit rule, defined once: the highest stream offset
/// replicated, given the cumulative offsets `held` by the slaves heard
/// from — the k-th largest (it is on k slaves, k = [`quorum_slave_acks`]),
/// 0 while fewer than k slaves are heard from. Only quorum asks: the
/// async stream commits nothing it waits for. Reorders `held`.
pub fn commit_frontier(configured_slaves: usize, held: &mut [u64]) -> u64 {
    let k = quorum_slave_acks(configured_slaves);
    if k == 0 {
        return u64::MAX; // the master is the whole quorum
    }
    held.sort_unstable_by(|a, b| b.cmp(a));
    held.get(k - 1).copied().unwrap_or(0)
}

impl fmt::Display for ReplModeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Slave acks needed so that master + acks form a majority of the
/// `configured_slaves + 1` replicas: ⌈(N+1)/2⌉ total copies, minus the
/// master's implicit one.
///
/// `N = 1 → 1`, `N = 2 → 1`, `N = 3 → 2`, `N = 4 → 2`, `N = 5 → 3`.
pub fn quorum_slave_acks(configured_slaves: usize) -> usize {
    configured_slaves.div_ceil(2)
}

/// In-flight window for quorum writes: how many replicated segments the
/// NIC tracks concurrently before parking further launches behind
/// commits. Deep enough that the replmode ablation never queues behind
/// it; a sweep would measure the queue, not the protocol.
pub const REPL_WINDOW: usize = 256;

/// One in-flight tracked write. The frame is kept for retransmission
/// until the write commits.
struct PendingWrite {
    /// Launch sequence number — the `wr_acks` / timer correlation key.
    seq: u64,
    /// Master backlog offset right *after* this write's bytes: a slave
    /// whose cumulative applied offset reaches this value holds the write.
    end_offset: u64,
    /// The replication stream frame (`[from_offset][RESP]`).
    frame: Frame,
    /// Slaves that acked this write (WR completion or cumulative
    /// `ProgressReport` coverage). Deduplicated.
    acked: Vec<SocketAddr>,
}

/// What the owner of a [`Tracker`] must do next, in the order decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// A write entered the window: launch it as an async write is
    /// launched — parse, per-slave work, one doorbell — with each WR
    /// armed under `seq`.
    Fanout {
        /// Launch sequence of the write.
        seq: u64,
        /// The write's stream frame.
        frame: Frame,
    },
    /// [`Tracker::committed_upto`] advanced: tell the master.
    Committed,
}

/// Quorum's tracked-write state machine, free of IO: it consumes
/// launches, acks and errors, and queues the [`Step`]s its owner (Nic-KV)
/// must carry out — which costs CPU where, and what a post looks like on
/// the wire, is the owner's business.
pub struct Tracker {
    configured_slaves: usize,
    window: usize,
    /// Launch sequence counter.
    write_seq: u64,
    /// In-flight writes, oldest first (offsets ascend with launch order,
    /// so commit release pops from the front).
    pending: VecDeque<PendingWrite>,
    /// Outstanding tracked WR → `(seq, slave)`; resolved by the send-side
    /// completion.
    wr_acks: DetMap<(QpId, u64), (u64, SocketAddr)>,
    /// Writes waiting for a window slot, with their end offsets.
    parked: VecDeque<(Frame, u64)>,
    /// Highest backlog offset committed.
    committed_upto: u64,
    steps: VecDeque<Step>,
    /// Scratch for the commit rule's offset list.
    held: Vec<u64>,
    /// Commits, as a `nic.*` slot.
    pub(crate) stats: CounterSet<NicStat>,
    /// Per-commit ack sets `(end_offset, acked slaves)`, once
    /// [`Tracker::record_commits`] was called (the quorum-intersection proptest reads these).
    pub committed_acks: Vec<(u64, Vec<SocketAddr>)>,
    record_acks: bool,
}

impl Tracker {
    /// A tracker over `configured_slaves` slaves that keeps at most
    /// `window` writes in flight.
    pub fn new(configured_slaves: usize, window: usize) -> Self {
        Tracker {
            configured_slaves,
            window: window.max(1),
            write_seq: 0,
            pending: VecDeque::new(),
            wr_acks: DetMap::new(),
            parked: VecDeque::new(),
            committed_upto: 0,
            steps: VecDeque::new(),
            held: Vec::new(),
            stats: CounterSet::default(),
            committed_acks: Vec::new(),
            record_acks: false,
        }
    }

    /// Keep every commit's ack set in [`Tracker::committed_acks`] from now
    /// on (`Cluster::record_history`).
    pub fn record_commits(&mut self) {
        self.record_acks = true;
    }

    /// Highest backlog offset committed (0 under the async stream, which
    /// never tracks commits).
    pub fn committed_upto(&self) -> u64 {
        self.committed_upto
    }

    /// Writes still awaiting their commit condition.
    pub fn pending_writes(&self) -> usize {
        self.pending.len()
    }

    /// The next thing the owner must do, oldest decision first.
    pub fn next_step(&mut self) -> Option<Step> {
        self.steps.pop_front()
    }

    /// One replicated write ending at `end_offset` arrived: launch it, or
    /// park it when the in-flight window is full.
    pub fn admit(&mut self, frame: Frame, end_offset: u64) {
        if self.pending.len() >= self.window {
            self.parked.push_back((frame, end_offset));
        } else {
            self.launch(frame, end_offset);
        }
    }

    fn launch(&mut self, frame: Frame, end_offset: u64) {
        self.write_seq += 1;
        let seq = self.write_seq;
        self.steps.push_back(Step::Fanout {
            seq,
            frame: frame.clone(),
        });
        self.pending.push_back(PendingWrite {
            seq,
            end_offset,
            frame,
            acked: Vec::new(),
        });
        // N = 0 commits immediately (master is the whole quorum).
        self.check_commits();
    }

    /// The frame of write `seq`, while it is still uncommitted.
    pub fn frame_of(&self, seq: u64) -> Option<Frame> {
        self.pending
            .iter()
            .find(|p| p.seq == seq)
            .map(|p| p.frame.clone())
    }

    /// A WR carrying write `seq` to `slave` is about to be posted under
    /// completion key `key`: its send-side completion is this write's ack.
    pub fn arm(&mut self, key: (QpId, u64), seq: u64, slave: SocketAddr) {
        self.wr_acks.insert(key, (seq, slave));
    }

    /// The fabric rejected the WR armed under `key`; no completion comes.
    pub fn disarm(&mut self, key: (QpId, u64)) {
        self.wr_acks.remove(&key);
    }

    /// The send-side completion of the WR posted under `key` arrived.
    /// Success means `slave` holds the write's bytes (RC semantics): an
    /// ack. A failed WR is just a lost ack — the slave's resync progress
    /// is the backstop.
    pub fn on_wr_done(&mut self, key: (QpId, u64), ok: bool) {
        let Some((seq, slave)) = self.wr_acks.remove(&key) else {
            return;
        };
        if !ok {
            return;
        }
        if let Some(p) = self.pending.iter_mut().find(|p| p.seq == seq) {
            if !p.acked.contains(&slave) {
                p.acked.push(slave);
            }
        }
        self.check_commits();
    }

    /// Fold a slave's cumulative applied offset (NIC-side
    /// `ProgressReport`, or re-registration position) into every pending
    /// write it covers. The cumulative form makes lost per-WR acks and
    /// resync-delivered bytes converge on the same commit bookkeeping.
    pub fn on_progress(&mut self, slave: SocketAddr, upto: u64) {
        if self.pending.is_empty() {
            return;
        }
        for p in &mut self.pending {
            if p.end_offset > upto {
                break;
            }
            if !p.acked.contains(&slave) {
                p.acked.push(slave);
            }
        }
        self.check_commits();
    }

    /// Pop every front write the commit rule covers, then refill the
    /// window from the parked writes, FIFO.
    fn check_commits(&mut self) {
        let mut committed = false;
        while let Some(p) = self.pending.front() {
            // An acked slave holds all of the write.
            self.held.clear();
            self.held.extend(p.acked.iter().map(|_| p.end_offset));
            let frontier = commit_frontier(self.configured_slaves, &mut self.held);
            if frontier < p.end_offset {
                break;
            }
            let Some(p) = self.pending.pop_front() else {
                break;
            };
            self.committed_upto = self.committed_upto.max(p.end_offset);
            self.stats.inc(NicStat::Commits);
            if self.record_acks {
                self.committed_acks.push((p.end_offset, p.acked));
            }
            committed = true;
        }
        if committed {
            self.steps.push_back(Step::Committed);
            while self.pending.len() < self.window {
                let Some((frame, end_offset)) = self.parked.pop_front() else {
                    break;
                };
                self.launch(frame, end_offset);
            }
        }
    }

    /// The writes a re-registering `slave` has not acked — each is
    /// re-posted to it. Duplicate delivery is harmless (slave-side offset
    /// dedupe); the completions repair acks lost to a broken QP.
    pub fn unacked_by(&self, slave: SocketAddr) -> Vec<u64> {
        self.pending
            .iter()
            .filter(|p| !p.acked.contains(&slave))
            .map(|p| p.seq)
            .collect()
    }

    /// The owning process restarted: tracked state is process state and is
    /// gone. The master re-replicates unacked bytes through resync;
    /// uncommitted writes surface as client timeouts.
    pub fn reset(&mut self) {
        self.pending.clear();
        self.wr_acks.clear();
        self.parked.clear();
        self.steps.clear();
        self.committed_upto = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_math_is_majority_of_replica_set() {
        // master + acks must exceed half of (slaves + 1) replicas
        for n in 0..=16usize {
            let acks = quorum_slave_acks(n);
            assert!(acks <= n.max(1), "cannot need more acks than slaves");
            let copies = 1 + acks; // master + acked slaves
            assert!(
                2 * copies > n + 1,
                "{copies} copies is not a majority of {} replicas",
                n + 1
            );
            // ...and it is the *minimum* such count.
            if acks > 0 {
                assert!(2 * acks <= n + 1, "quorum over-sized for N={n}");
            }
        }
        assert_eq!(quorum_slave_acks(1), 1);
        assert_eq!(quorum_slave_acks(2), 1);
        assert_eq!(quorum_slave_acks(3), 2);
        assert_eq!(quorum_slave_acks(4), 2);
        assert_eq!(quorum_slave_acks(5), 3);
    }

    #[test]
    fn two_quorums_always_intersect() {
        // Any two (master + quorum_slave_acks) subsets of {master} ∪ slaves
        // overlap: both contain > half of the replica set.
        for n in 1..=9usize {
            let q = 1 + quorum_slave_acks(n);
            assert!(
                2 * q > n + 1,
                "quorums of size {q} may miss each other at N={n}"
            );
        }
    }

    #[test]
    fn labels_roundtrip() {
        for kind in ReplModeKind::ALL {
            assert_eq!(format!("{kind}"), kind.label());
        }
        assert_eq!(
            ReplModeKind::ALL.map(ReplModeKind::label),
            ["async", "quorum"]
        );
    }

    #[test]
    fn mode_contracts() {
        assert!(!ReplModeKind::Async.defers_replies());
        assert!(ReplModeKind::Quorum.defers_replies());
        assert_eq!(ReplModeKind::default(), ReplModeKind::Async);
    }

    // -- Tracker: driven with plain inputs, judged by its steps ---------------

    fn slave(port: u16) -> SocketAddr {
        SocketAddr::new(skv_netsim::NodeId(0), port)
    }

    fn frame(text: &str) -> Frame {
        Frame::copy_from_slice(text.as_bytes())
    }

    /// Completion key of the WR carrying write `seq` to the slave on `port`.
    fn key(seq: u64, port: u16) -> (QpId, u64) {
        (QpId(u32::from(port)), seq)
    }

    fn steps(t: &mut Tracker) -> Vec<Step> {
        std::iter::from_fn(|| t.next_step()).collect()
    }

    fn fanout(seq: u64, text: &str) -> Step {
        Step::Fanout {
            seq,
            frame: frame(text),
        }
    }

    /// Admit a write and arm one WR per live slave, as the NIC's poster does.
    fn admit_armed(t: &mut Tracker, seq: u64, end_offset: u64, live: &[SocketAddr]) {
        t.admit(frame("w"), end_offset);
        for s in live {
            t.arm(key(seq, s.port), seq, *s);
        }
    }

    #[test]
    fn quorum_commits_in_offset_order_at_exactly_the_quorum() {
        let live = [slave(1), slave(2), slave(3)];
        assert_eq!(quorum_slave_acks(live.len()), 2);
        let mut t = Tracker::new(live.len(), 8);
        t.record_commits();
        admit_armed(&mut t, 1, 100, &live);
        admit_armed(&mut t, 2, 200, &live);
        assert_eq!(steps(&mut t), [fanout(1, "w"), fanout(2, "w")]);
        // Write 2 reaches its quorum first, but the stream commits in
        // offset order: nothing moves while write 1 is short.
        t.on_wr_done(key(2, 1), true);
        t.on_wr_done(key(2, 2), true);
        assert_eq!((t.committed_upto(), t.pending_writes()), (0, 2));
        // One ack is not a quorum, and the same slave acking again — by
        // cumulative progress this time — is still one ack.
        t.on_wr_done(key(1, 1), true);
        t.on_progress(slave(1), 100);
        // A failed WR is no ack at all.
        t.on_wr_done(key(1, 3), false);
        assert_eq!((t.committed_upto(), t.stats.get(NicStat::Commits)), (0, 0));
        assert!(steps(&mut t).is_empty());
        // The second distinct slave commits write 1, and write 2 behind it.
        t.on_wr_done(key(1, 2), true);
        assert_eq!(steps(&mut t), [Step::Committed]);
        assert_eq!((t.committed_upto(), t.pending_writes()), (200, 0));
        assert_eq!(
            t.committed_acks,
            [
                (100, vec![slave(1), slave(2)]),
                (200, vec![slave(1), slave(2)])
            ]
        );
        // A straggler's ack for a committed write changes nothing.
        t.on_wr_done(key(2, 3), true);
        assert_eq!((t.stats.get(NicStat::Commits), steps(&mut t)), (2, vec![]));
    }

    #[test]
    fn window_parks_and_refills_fifo() {
        let mut t = Tracker::new(1, 2);
        for (i, text) in ["a", "b", "c", "d"].into_iter().enumerate() {
            t.admit(frame(text), 100 * (i as u64 + 1));
        }
        // Two launched, two parked: no step, no sequence number yet.
        assert_eq!(t.pending_writes(), 2);
        assert_eq!(steps(&mut t), [fanout(1, "a"), fanout(2, "b")]);
        assert_eq!(t.frame_of(3), None);
        // Each commit frees one slot for the oldest parked write.
        t.on_progress(slave(1), 100);
        assert_eq!(steps(&mut t), [Step::Committed, fanout(3, "c")]);
        assert_eq!(t.frame_of(1), None, "committed");
        assert_eq!(t.frame_of(3), Some(frame("c")));
        t.on_progress(slave(1), 200);
        assert_eq!(steps(&mut t), [Step::Committed, fanout(4, "d")]);
        assert_eq!(t.frame_of(4), Some(frame("d")));
        t.on_progress(slave(1), 400);
        assert_eq!(steps(&mut t), [Step::Committed]);
        assert_eq!((t.committed_upto(), t.pending_writes()), (400, 0));
    }

    #[test]
    fn commit_frontier_is_the_kth_largest() {
        let q = |n, held: &[u64]| commit_frontier(n, &mut held.to_vec());
        assert_eq!(q(3, &[10, 30, 20]), 20, "2nd largest of 3 slaves");
        assert_eq!(q(5, &[10, 30, 20]), 10, "3rd largest of 5 slaves");
        assert_eq!(q(3, &[30]), 0, "fewer reports than the quorum");
        assert_eq!(q(0, &[]), u64::MAX, "no slaves: the master alone");
    }

    #[test]
    fn a_tracker_that_admitted_nothing_does_nothing() {
        // The async stream never admits a write, yet Nic-KV hands its
        // tracker every progress report, send completion and master
        // registration in either mode: none of them may decide anything.
        let mut t = Tracker::new(3, REPL_WINDOW);
        t.record_commits();
        t.on_progress(slave(1), 100);
        t.on_wr_done(key(1, 1), true);
        t.on_wr_done(key(1, 2), false);
        assert!(steps(&mut t).is_empty());
        assert!(t.wr_acks.is_empty() && t.pending_writes() == 0);
        // A master that registers again is sent the frontier only past
        // the 0 it was last sent.
        assert_eq!(t.committed_upto(), 0);
        // A slave that registers again is sent nothing.
        assert!(t.unacked_by(slave(1)).is_empty());
        assert!(t.committed_acks.is_empty());
        assert_eq!(t.stats.get(NicStat::Commits), 0);
    }
}
