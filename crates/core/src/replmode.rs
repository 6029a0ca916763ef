//! # Replication modes — async stream, majority quorum, chain (§III-C +)
//!
//! SKV's paper protocol is Redis-style *asynchronous* primary-backup: the
//! master acks the client as soon as the command applies locally and the
//! NIC fans the stream out to slaves on its own time. That is the fastest
//! arm but offers no guarantee while faults are in flight — a crashed
//! slave silently lags until resync. "Reliable Replication Protocols on
//! SmartNICs" shows that stronger protocols fit on the same NIC-core +
//! one-sided-WR substrate as small state machines over one shared
//! post/ack/commit layer, which is the shape here: [`ReplModeKind`] names
//! the protocol, [`Tracker`] is its IO-free state machine, and the
//! transport under it ([`crate::conns`]) is the same for all three.
//!
//! * `Async` — the paper's offloaded stream. Replies release immediately;
//!   slaves converge eventually. Nothing is tracked.
//! * `Quorum` — ABD-style majority writes. The NIC fans each stream
//!   segment to every slave, tracks acks keyed on WR completions (and
//!   cumulative `ProgressReport`/`WriteAck` offsets as the resync
//!   backstop), and the master releases the client reply only once
//!   master + ⌈(N+1)/2⌉−1 slave copies exist. Any majority of the N+1
//!   replicas then intersects every write quorum.
//! * `Chain` — head→mid→tail forwarding on the NIC cores. A segment is
//!   posted to hop 0 only; each hop's *applied* ack (a `WriteAck` node
//!   message, not just the WR completion) advances the chain, and the
//!   tail ack commits the write. Node failure triggers chain repair: the
//!   dead hop is spliced out of every in-flight chain.
//!
//! The mode is selected by `ClusterConfig::repl_mode`. Quorum sizes are
//! computed against the *configured* slave count, not the currently-live
//! set: shrinking the ack universe to the live nodes would silently break
//! the quorum-intersection invariant that the proptest in
//! `tests/tests/replmode.rs` pins down.

use std::collections::VecDeque;
use std::fmt;

use skv_netsim::{DetMap, Frame, QpId, SocketAddr};
use skv_simcore::stats::CounterSet;

use crate::metrics::catalog::NicStat;

/// Which replication protocol the cluster runs. Carried by
/// `ClusterConfig` and consulted by the master (`server.rs` reply
/// deferral and census) and the Nic-KV actor (through its [`Tracker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ReplModeKind {
    /// Asynchronous stream fan-out (the paper's protocol; default).
    #[default]
    Async,
    /// ABD-style majority-quorum writes.
    Quorum,
    /// Chain replication: head→mid→tail with tail-ack commit.
    Chain,
}

impl ReplModeKind {
    /// Stable label used in reports, bench rows and CLI arms.
    pub fn label(self) -> &'static str {
        match self {
            ReplModeKind::Async => "async",
            ReplModeKind::Quorum => "quorum",
            ReplModeKind::Chain => "chain",
        }
    }

    /// All modes, in ablation-sweep order.
    pub const ALL: [ReplModeKind; 3] = [
        ReplModeKind::Async,
        ReplModeKind::Quorum,
        ReplModeKind::Chain,
    ];

    /// Parse a CLI label; `None` for unknown strings.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "async" => Some(ReplModeKind::Async),
            "quorum" => Some(ReplModeKind::Quorum),
            "chain" => Some(ReplModeKind::Chain),
            _ => None,
        }
    }

    /// Stable wire code for `NodeMsg::ModeChange` frames. Part of the
    /// node protocol: never renumber.
    pub fn code(self) -> u8 {
        match self {
            ReplModeKind::Async => 0,
            ReplModeKind::Quorum => 1,
            ReplModeKind::Chain => 2,
        }
    }

    /// Decode a wire code; `None` for unknown bytes.
    pub fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(ReplModeKind::Async),
            1 => Some(ReplModeKind::Quorum),
            2 => Some(ReplModeKind::Chain),
            _ => None,
        }
    }

    /// True when the master must hold client replies until the covering
    /// offset is committed (quorum and chain); false for the async stream,
    /// which acks as soon as the master applies.
    pub fn defers_replies(self) -> bool {
        self != ReplModeKind::Async
    }

    /// How many *slave* acks commit a write, given the configured slave
    /// count. `0` means "ack count is not the commit condition" (async
    /// commits immediately; chain commits when the hop list empties).
    pub fn slave_acks_required(self, configured_slaves: usize) -> usize {
        match self {
            ReplModeKind::Quorum => quorum_slave_acks(configured_slaves),
            ReplModeKind::Async | ReplModeKind::Chain => 0,
        }
    }

    /// The commit rule, defined once: the highest stream offset this mode
    /// considers replicated, given the cumulative offsets `held` by the
    /// slaves that count — every slave heard from under quorum (the k-th
    /// largest offset is on k slaves, k = [`quorum_slave_acks`]), every
    /// hop still in the chain under chain (the minimum is on all of
    /// them). `None` means chain has no hop left to wait for; the NIC
    /// reads that as "every hop acked or was spliced out" (committed), the
    /// master's census as "no slave in sight proves nothing" (offset 0).
    /// Reorders `held`.
    pub fn commit_frontier(self, configured_slaves: usize, held: &mut [u64]) -> Option<u64> {
        match self {
            ReplModeKind::Async => Some(u64::MAX),
            ReplModeKind::Quorum => {
                let k = self.slave_acks_required(configured_slaves);
                if k == 0 {
                    return Some(u64::MAX); // the master is the whole quorum
                }
                if held.len() < k {
                    return Some(0);
                }
                held.sort_unstable_by(|a, b| b.cmp(a));
                held.get(k - 1).copied()
            }
            ReplModeKind::Chain => held.iter().copied().min(),
        }
    }
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

/// In-flight window for the deferred modes: how many replicated segments
/// the NIC tracks concurrently before parking further launches behind
/// commits. Deep enough that the replmode ablation never queues behind
/// it; a sweep would measure the queue, not the protocol.
pub const REPL_WINDOW: usize = 256;

/// One in-flight tracked write (quorum or chain mode). The frame is kept
/// for retransmission until the write commits.
struct PendingWrite {
    /// Launch sequence number — the `wr_acks` / timer correlation key.
    seq: u64,
    /// Master backlog offset right *after* this write's bytes: a slave
    /// whose cumulative applied offset reaches this value holds the write.
    end_offset: u64,
    /// The replication stream frame (`[from_offset][RESP]`).
    frame: Frame,
    /// Slaves that acked this write (WR completion, `WriteAck`, or
    /// cumulative `ProgressReport` coverage). Deduplicated.
    acked: Vec<SocketAddr>,
    /// Remaining chain hops, head first (chain mode; empty in quorum).
    hops: VecDeque<SocketAddr>,
    /// Whether a post to the current head hop is scheduled or awaiting
    /// its applied ack.
    hop_inflight: bool,
}

/// What the owner of a [`Tracker`] must do next, in the order decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A write entered the window: charge the request-parse cost.
    Parse,
    /// Quorum: post write `seq` to every live slave under one doorbell.
    Fanout {
        /// Launch sequence of the write.
        seq: u64,
    },
    /// Chain: post write `seq` to its current head hop.
    Hop {
        /// Launch sequence of the write.
        seq: u64,
    },
    /// [`Tracker::committed_upto`] advanced: tell the master.
    Committed,
}

/// The tracked-write state machine of the deferred modes, free of IO: it
/// consumes launches, acks, errors and the live-slave set, and queues the
/// [`Step`]s its owner (Nic-KV) must carry out — which costs CPU where,
/// and what a post looks like on the wire, is the owner's business. Every
/// entry point takes `live`, the valid slaves with an open channel in
/// node-list order: the hops of a new chain, and who counts as alive when
/// a chain is repaired.
pub struct Tracker {
    /// The mode in force (async while a quorum cluster is degraded).
    mode: ReplModeKind,
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
    /// Highest backlog offset committed under the active mode.
    committed_upto: u64,
    steps: VecDeque<Step>,
    /// Scratch for the commit rule's offset list.
    held: Vec<u64>,
    /// Commits, chain repairs and chain rejoins, as `nic.*` slots. A
    /// rejoin splices a re-registering slave back onto the tail of
    /// in-flight chains (only the writes its cumulative offset does not
    /// already cover — no overlapping window).
    pub(crate) stats: CounterSet<NicStat>,
    /// Per-commit ack sets `(end_offset, acked slaves)`, when recording
    /// was requested (the quorum-intersection proptest reads these).
    pub committed_acks: Vec<(u64, Vec<SocketAddr>)>,
    record_acks: bool,
}

impl Tracker {
    /// A tracker for `mode` over `configured_slaves` slaves that keeps at
    /// most `window` writes in flight.
    pub fn new(
        mode: ReplModeKind,
        configured_slaves: usize,
        window: usize,
        record_acks: bool,
    ) -> Self {
        Tracker {
            mode,
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
            record_acks,
        }
    }

    /// The replication mode in force.
    pub fn mode(&self) -> ReplModeKind {
        self.mode
    }

    /// Highest backlog offset committed under the active mode (async
    /// never tracks commits and reports 0 until a degrade declares one).
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
    pub fn admit(&mut self, frame: Frame, end_offset: u64, live: &[SocketAddr]) {
        if self.pending.len() >= self.window {
            self.parked.push_back((frame, end_offset));
        } else {
            self.launch(frame, end_offset, live);
        }
    }

    fn launch(&mut self, frame: Frame, end_offset: u64, live: &[SocketAddr]) {
        self.steps.push_back(Step::Parse);
        self.write_seq += 1;
        let seq = self.write_seq;
        let chain = self.mode == ReplModeKind::Chain;
        self.pending.push_back(PendingWrite {
            seq,
            end_offset,
            frame,
            acked: Vec::new(),
            hops: if chain {
                live.iter().copied().collect()
            } else {
                VecDeque::new()
            },
            hop_inflight: false,
        });
        if chain {
            self.advance_chain(seq, live);
        } else {
            self.steps.push_back(Step::Fanout { seq });
            // N = 0 commits immediately (master is the whole quorum).
            self.check_commits(live);
        }
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

    /// Chain: where write `seq` goes next, `(head hop, frame)`. `None`
    /// when the write is gone or no hop is left (which may commit it).
    pub fn hop_target(&mut self, seq: u64, live: &[SocketAddr]) -> Option<(SocketAddr, Frame)> {
        let p = self.pending.iter_mut().find(|p| p.seq == seq)?;
        if let Some(&target) = p.hops.front() {
            return Some((target, p.frame.clone()));
        }
        p.hop_inflight = false;
        self.check_commits(live);
        None
    }

    /// Chain: the post of write `seq` to its head hop did not go out.
    pub fn hop_unposted(&mut self, seq: u64) {
        if let Some(p) = self.pending.iter_mut().find(|p| p.seq == seq) {
            p.hop_inflight = false;
        }
    }

    /// Chain: prune dead head hops of write `seq`, then ask for a post to
    /// the current head if none is in flight.
    fn advance_chain(&mut self, seq: u64, live: &[SocketAddr]) {
        let Some(p) = self.pending.iter_mut().find(|p| p.seq == seq) else {
            return;
        };
        while p.hops.front().is_some_and(|next| !live.contains(next)) {
            p.hops.pop_front();
            p.hop_inflight = false;
            self.stats.inc(NicStat::ChainRepairs);
        }
        if p.hops.is_empty() {
            self.check_commits(live);
        } else if !p.hop_inflight {
            p.hop_inflight = true;
            self.steps.push_back(Step::Hop { seq });
        }
    }

    /// The send-side completion of the WR posted under `key` arrived.
    /// Success means `slave` holds the write's bytes (RC semantics): a
    /// quorum ack. Chain hops advance on the slave's *applied* ack
    /// instead, so for them only a failure matters — the dead hop is
    /// spliced out and the write moves along. Quorum just loses a failed
    /// ack (the slave's resync progress is the backstop).
    pub fn on_wr_done(&mut self, key: (QpId, u64), ok: bool, live: &[SocketAddr]) {
        let Some((seq, slave)) = self.wr_acks.remove(&key) else {
            return;
        };
        match (self.mode, ok) {
            (ReplModeKind::Quorum, true) => {
                if let Some(p) = self.pending.iter_mut().find(|p| p.seq == seq) {
                    if !p.acked.contains(&slave) {
                        p.acked.push(slave);
                    }
                }
                self.check_commits(live);
            }
            (ReplModeKind::Chain, false) => {
                let mut advance = false;
                if let Some(p) = self.pending.iter_mut().find(|p| p.seq == seq) {
                    if p.hops.front() == Some(&slave) {
                        p.hops.pop_front();
                        p.hop_inflight = false;
                    } else {
                        p.hops.retain(|h| *h != slave);
                    }
                    self.stats.inc(NicStat::ChainRepairs);
                    advance = !p.hops.is_empty();
                }
                if advance {
                    self.advance_chain(seq, live);
                }
                self.check_commits(live);
            }
            _ => {}
        }
    }

    /// Fold a slave's cumulative applied offset (`WriteAck`, NIC-side
    /// `ProgressReport`, or re-registration position) into every pending
    /// write it covers. The cumulative form makes lost per-WR acks and
    /// resync-delivered bytes converge on the same commit bookkeeping.
    pub fn on_progress(&mut self, slave: SocketAddr, upto: u64, live: &[SocketAddr]) {
        if self.pending.is_empty() {
            return;
        }
        let chain = self.mode == ReplModeKind::Chain;
        let mut advance: Vec<u64> = Vec::new();
        for p in &mut self.pending {
            if p.end_offset > upto {
                break;
            }
            if !p.acked.contains(&slave) {
                p.acked.push(slave);
            }
            if chain {
                if p.hops.front() == Some(&slave) {
                    p.hops.pop_front();
                    p.hop_inflight = false;
                    if !p.hops.is_empty() {
                        advance.push(p.seq);
                    }
                } else {
                    // Covered out of order (a resync ran ahead of the
                    // chain): drop the hop wherever it sits.
                    p.hops.retain(|h| *h != slave);
                }
            }
        }
        for seq in advance {
            self.advance_chain(seq, live);
        }
        self.check_commits(live);
    }

    /// Pop every front write the commit rule covers, then refill the
    /// window from the parked writes, FIFO.
    fn check_commits(&mut self, live: &[SocketAddr]) {
        if !self.mode.defers_replies() {
            return;
        }
        let mut committed = false;
        while let Some(p) = self.pending.front() {
            // What each slave that counts holds of this write: an acked
            // slave holds all of it; a hop still listed has not applied it.
            self.held.clear();
            if self.mode == ReplModeKind::Chain {
                self.held.extend(p.hops.iter().map(|_| 0));
            } else {
                self.held.extend(p.acked.iter().map(|_| p.end_offset));
            }
            let frontier = self
                .mode
                .commit_frontier(self.configured_slaves, &mut self.held);
            if frontier.is_some_and(|upto| upto < p.end_offset) {
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
                self.launch(frame, end_offset, live);
            }
        }
    }

    /// Quorum: the writes a re-registering `slave` has not acked — each
    /// is re-posted to it. Duplicate delivery is harmless (slave-side
    /// offset dedupe); the completions repair acks lost to a broken QP.
    pub fn unacked_by(&self, slave: SocketAddr) -> Vec<u64> {
        self.pending
            .iter()
            .filter(|p| !p.acked.contains(&slave))
            .map(|p| p.seq)
            .collect()
    }

    /// Chain: splice every hop that is no longer live out of every
    /// in-flight chain and re-drive stalled writes. Run after anything
    /// that can tear a connection down or invalidate a node.
    pub fn repair(&mut self, live: &[SocketAddr]) {
        let mut advance: Vec<u64> = Vec::new();
        let mut repaired = false;
        for p in &mut self.pending {
            let before = p.hops.len();
            let front = p.hops.front().copied();
            p.hops.retain(|h| live.contains(h));
            if p.hops.len() != before {
                repaired = true;
                if p.hops.front().copied() != front {
                    p.hop_inflight = false;
                }
            }
            if !p.hop_inflight && !p.hops.is_empty() {
                advance.push(p.seq);
            }
        }
        if repaired {
            self.stats.inc(NicStat::ChainRepairs);
        }
        for seq in advance {
            self.advance_chain(seq, live);
        }
        self.check_commits(live);
    }

    /// Chain: splice a re-registering slave back into the hop order. The
    /// slave resumes at the *tail* of every in-flight chain — never
    /// mid-chain, which would reorder hops under writes already past it —
    /// and only for writes its cumulative applied offset does not cover.
    /// The historical bug was re-adding the slave to every pending write:
    /// writes below its resync offset were then delivered twice, once by
    /// the master's resync stream and once by the replayed chain hop, and
    /// the chain stalled waiting for an applied ack the slave's offset
    /// dedupe had already swallowed. Returns the number of chains spliced.
    pub fn rejoin(&mut self, slave: SocketAddr, acked_upto: u64) -> usize {
        let mut spliced = 0;
        for p in &mut self.pending {
            // `end_offset <= acked_upto`: the resync stream already
            // carried these bytes — replaying the hop would open an
            // overlapping delivery window.
            if p.end_offset <= acked_upto
                || p.acked.contains(&slave)
                || p.hops.contains(&slave)
                // A chain whose hop list already drained is committed (or
                // about to be); un-committing it would regress the
                // frontier announced to the master.
                || p.hops.is_empty()
            {
                continue;
            }
            p.hops.push_back(slave);
            spliced += 1;
        }
        if spliced > 0 {
            self.stats.inc(NicStat::ChainRejoins);
        }
        spliced
    }

    /// Degrade to the async stream (`mode_failover`): every byte streamed
    /// so far (`stream_upto`) is re-declared committed under async
    /// semantics and tracked state is dropped. Returns the parked frames,
    /// once, for the owner to flush through the async path so no write is
    /// lost in the transition.
    pub fn degrade(&mut self, stream_upto: u64) -> Vec<Frame> {
        self.mode = ReplModeKind::Async;
        self.committed_upto = self.committed_upto.max(stream_upto);
        self.pending.clear();
        self.wr_acks.clear();
        self.parked.drain(..).map(|(frame, _)| frame).collect()
    }

    /// Re-promote to `mode`. The async interlude's bytes commit by the
    /// semantics they were written under; tracking starts fresh at the
    /// current stream frontier.
    pub fn promote(&mut self, mode: ReplModeKind, stream_upto: u64) {
        self.mode = mode;
        self.committed_upto = self.committed_upto.max(stream_upto);
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
            assert_eq!(ReplModeKind::parse(kind.label()), Some(kind));
            assert_eq!(format!("{kind}"), kind.label());
        }
        assert_eq!(ReplModeKind::parse("paxos"), None);
    }

    #[test]
    fn wire_codes_roundtrip_and_are_pinned() {
        for kind in ReplModeKind::ALL {
            assert_eq!(ReplModeKind::from_code(kind.code()), Some(kind));
        }
        // Protocol constants — renumbering breaks mixed-version decode.
        assert_eq!(ReplModeKind::Async.code(), 0);
        assert_eq!(ReplModeKind::Quorum.code(), 1);
        assert_eq!(ReplModeKind::Chain.code(), 2);
        assert_eq!(ReplModeKind::from_code(3), None);
    }

    #[test]
    fn mode_contracts() {
        assert!(!ReplModeKind::Async.defers_replies());
        assert!(ReplModeKind::Quorum.defers_replies());
        assert!(ReplModeKind::Chain.defers_replies());
        assert_eq!(ReplModeKind::Quorum.slave_acks_required(3), 2);
        assert_eq!(ReplModeKind::Chain.slave_acks_required(3), 0);
        assert_eq!(ReplModeKind::Async.slave_acks_required(3), 0);
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

    /// Admit a write and arm one WR per live slave, as the NIC's poster does.
    fn admit_armed(t: &mut Tracker, seq: u64, end_offset: u64, live: &[SocketAddr]) {
        t.admit(frame("w"), end_offset, live);
        for s in live {
            t.arm(key(seq, s.port), seq, *s);
        }
    }

    #[test]
    fn quorum_commits_in_offset_order_at_exactly_the_quorum() {
        let live = [slave(1), slave(2), slave(3)];
        assert_eq!(quorum_slave_acks(live.len()), 2);
        let mut t = Tracker::new(ReplModeKind::Quorum, live.len(), 8, true);
        admit_armed(&mut t, 1, 100, &live);
        admit_armed(&mut t, 2, 200, &live);
        assert_eq!(
            steps(&mut t),
            [
                Step::Parse,
                Step::Fanout { seq: 1 },
                Step::Parse,
                Step::Fanout { seq: 2 }
            ]
        );
        // Write 2 reaches its quorum first, but the stream commits in
        // offset order: nothing moves while write 1 is short.
        t.on_wr_done(key(2, 1), true, &live);
        t.on_wr_done(key(2, 2), true, &live);
        assert_eq!((t.committed_upto(), t.pending_writes()), (0, 2));
        // One ack is not a quorum, and the same slave acking again — by
        // cumulative progress this time — is still one ack.
        t.on_wr_done(key(1, 1), true, &live);
        t.on_progress(slave(1), 100, &live);
        // A failed WR is no ack at all.
        t.on_wr_done(key(1, 3), false, &live);
        assert_eq!((t.committed_upto(), t.stats.get(NicStat::Commits)), (0, 0));
        assert!(steps(&mut t).is_empty());
        // The second distinct slave commits write 1, and write 2 behind it.
        t.on_wr_done(key(1, 2), true, &live);
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
        t.on_wr_done(key(2, 3), true, &live);
        assert_eq!((t.stats.get(NicStat::Commits), steps(&mut t)), (2, vec![]));
    }

    #[test]
    fn window_parks_and_refills_fifo() {
        let live = [slave(1)];
        let mut t = Tracker::new(ReplModeKind::Quorum, 1, 2, false);
        for (i, text) in ["a", "b", "c", "d"].into_iter().enumerate() {
            t.admit(frame(text), 100 * (i as u64 + 1), &live);
        }
        // Two launched, two parked: no step, no sequence number yet.
        assert_eq!(t.pending_writes(), 2);
        assert_eq!(
            steps(&mut t),
            [
                Step::Parse,
                Step::Fanout { seq: 1 },
                Step::Parse,
                Step::Fanout { seq: 2 }
            ]
        );
        assert_eq!(t.frame_of(3), None);
        // Each commit frees one slot for the oldest parked write.
        t.on_progress(slave(1), 100, &live);
        assert_eq!(
            steps(&mut t),
            [Step::Committed, Step::Parse, Step::Fanout { seq: 3 }]
        );
        assert_eq!(t.frame_of(3), Some(frame("c")));
        t.on_progress(slave(1), 200, &live);
        assert_eq!(
            steps(&mut t),
            [Step::Committed, Step::Parse, Step::Fanout { seq: 4 }]
        );
        assert_eq!(t.frame_of(4), Some(frame("d")));
        t.on_progress(slave(1), 400, &live);
        assert_eq!(steps(&mut t), [Step::Committed]);
        assert_eq!((t.committed_upto(), t.pending_writes()), (400, 0));
    }

    #[test]
    fn chain_posts_head_only_and_advances_on_applied_acks() {
        let live = [slave(1), slave(2), slave(3)];
        let mut t = Tracker::new(ReplModeKind::Chain, 3, 8, false);
        t.admit(frame("w"), 100, &live);
        assert_eq!(steps(&mut t), [Step::Parse, Step::Hop { seq: 1 }]);
        assert_eq!(t.hop_target(1, &live), Some((slave(1), frame("w"))));
        t.arm(key(1, 1), 1, slave(1));
        // Delivery to the head's ring is not application: no next hop yet.
        t.on_wr_done(key(1, 1), true, &live);
        assert!(steps(&mut t).is_empty());
        // The head's applied ack moves the write to the middle hop.
        t.on_progress(slave(1), 100, &live);
        assert_eq!(steps(&mut t), [Step::Hop { seq: 1 }]);
        assert_eq!(t.hop_target(1, &live).map(|(s, _)| s), Some(slave(2)));
        // The middle hop dies before acking: repair splices it out and
        // re-drives the write at the tail.
        let live = [slave(1), slave(3)];
        t.repair(&live);
        assert_eq!(
            (steps(&mut t), t.stats.get(NicStat::ChainRepairs)),
            (vec![Step::Hop { seq: 1 }], 1)
        );
        assert_eq!(t.hop_target(1, &live).map(|(s, _)| s), Some(slave(3)));
        // The tail's applied ack commits.
        t.on_progress(slave(3), 100, &live);
        assert_eq!(steps(&mut t), [Step::Committed]);
        assert_eq!((t.committed_upto(), t.pending_writes()), (100, 0));

        // A head whose WR fails is spliced out on the error completion.
        t.admit(frame("x"), 200, &live);
        assert_eq!(steps(&mut t), [Step::Parse, Step::Hop { seq: 2 }]);
        t.arm(key(2, 1), 2, slave(1));
        t.on_wr_done(key(2, 1), false, &[slave(3)]);
        assert_eq!(steps(&mut t), [Step::Hop { seq: 2 }]);
        assert_eq!(t.hop_target(2, &[slave(3)]).map(|(s, _)| s), Some(slave(3)));
        // With no hop left alive the write commits on the master alone.
        t.hop_unposted(2);
        t.repair(&[]);
        assert_eq!(steps(&mut t), [Step::Committed]);
        assert_eq!(t.committed_upto(), 200);
    }

    #[test]
    fn chain_rejoin_splices_at_the_tail_without_overlap() {
        let (s1, s2, rejoiner) = (slave(1), slave(2), slave(3));
        let mut t = Tracker::new(ReplModeKind::Chain, 3, 8, false);
        // Covered by the rejoiner's resync offset: must NOT be replayed.
        t.admit(frame("1"), 100, &[s1]);
        // Past the offset with live hops: rejoiner appends at the tail.
        t.admit(frame("2"), 200, &[s1, s2]);
        // Chain already drained (committing): must stay empty.
        t.admit(frame("3"), 300, &[]);
        // Rejoiner already listed (registered twice): no duplicate hop.
        t.admit(frame("4"), 400, &[s1, rejoiner]);
        let hops = |t: &Tracker, i: usize| Vec::from_iter(t.pending[i].hops.iter().copied());

        assert_eq!(t.rejoin(rejoiner, 150), 1, "only the uncovered live chain");
        assert_eq!(hops(&t, 0), [s1], "covered write untouched");
        assert_eq!(
            hops(&t, 1),
            [s1, s2, rejoiner],
            "rejoiner resumes at the tail, after every existing hop"
        );
        assert!(hops(&t, 2).is_empty(), "committed chain stays committed");
        assert_eq!(
            hops(&t, 3),
            [s1, rejoiner],
            "no duplicate hop for a double registration"
        );
        assert_eq!(t.stats.get(NicStat::ChainRejoins), 1);

        // A second registration at a higher offset covers writes 1–2 and
        // adds nothing new.
        assert_eq!(t.rejoin(rejoiner, 250), 0);
        assert_eq!(t.stats.get(NicStat::ChainRejoins), 1);
    }

    #[test]
    fn degrade_flushes_parked_frames_once() {
        let live = [slave(1), slave(2), slave(3)];
        let mut t = Tracker::new(ReplModeKind::Quorum, 3, 1, false);
        admit_armed(&mut t, 1, 100, &live);
        t.admit(frame("b"), 200, &live);
        t.admit(frame("c"), 300, &live);
        assert_eq!(steps(&mut t), [Step::Parse, Step::Fanout { seq: 1 }]);
        // Everything streamed so far commits under async semantics; the
        // parked frames come back, in order, for the async path to send.
        assert_eq!(t.degrade(300), [frame("b"), frame("c")]);
        assert_eq!(t.mode(), ReplModeKind::Async);
        assert_eq!((t.committed_upto(), t.pending_writes()), (300, 0));
        assert!(t.degrade(300).is_empty());
        // Completions of the dropped writes find nothing to ack.
        t.on_wr_done(key(1, 1), true, &live);
        t.on_wr_done(key(1, 2), true, &live);
        assert_eq!((t.stats.get(NicStat::Commits), steps(&mut t)), (0, vec![]));
        // Re-promotion starts tracking afresh at the stream frontier.
        t.promote(ReplModeKind::Quorum, 450);
        assert_eq!((t.mode(), t.committed_upto()), (ReplModeKind::Quorum, 450));
    }

    #[test]
    fn commit_frontier_is_the_kth_largest_or_the_chain_minimum() {
        let q = |n, held: &[u64]| ReplModeKind::Quorum.commit_frontier(n, &mut held.to_vec());
        assert_eq!(q(3, &[10, 30, 20]), Some(20), "2nd largest of 3 slaves");
        assert_eq!(q(5, &[10, 30, 20]), Some(10), "3rd largest of 5 slaves");
        assert_eq!(q(3, &[30]), Some(0), "fewer reports than the quorum");
        assert_eq!(q(0, &[]), Some(u64::MAX), "no slaves: the master alone");
        let c = |held: &[u64]| ReplModeKind::Chain.commit_frontier(3, &mut held.to_vec());
        assert_eq!(c(&[10, 30, 20]), Some(10));
        assert_eq!(c(&[]), None, "no hop left to wait for");
        assert_eq!(
            ReplModeKind::Async.commit_frontier(3, &mut [1]),
            Some(u64::MAX)
        );
    }
}
