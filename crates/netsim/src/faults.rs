//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] describes everything that goes wrong during a run —
//! probabilistic message loss, latency spikes, link flaps, and
//! partitions — as *data*, installed once via [`crate::Net::set_fault_plan`].
//! Every message the fabric carries is submitted to [`FaultPlan::judge`],
//! which returns a [`Verdict`] drawn from a dedicated RNG seeded by the
//! plan. Identical plans therefore replay byte-identically, which is what
//! lets chaos tests assert both convergence *and* determinism.
//!
//! How verdicts map onto transport semantics (see `rdma.rs` / `tcp.rs`):
//!
//! * **RDMA + `Drop`** — reliable-connection retransmits exhaust: the
//!   sender receives a completion with [`crate::WcStatus::RetryExceeded`]
//!   after `RC_RETRY_LATENCY` (500 µs, `rdma.rs`) and the QP transitions to
//!   the error state (subsequent posts fail with
//!   [`crate::PostError::QpError`]). Nothing arrives at the peer.
//! * **RDMA + `Delay`** — the retransmit succeeded; the message is late
//!   but intact.
//! * **Linked post lists** (`post_send_list` / `post_send_batch`) — the
//!   verdict is drawn *per WR*, not per doorbell: each WR in a chain is
//!   judged independently, so a `Drop` on WR *k* errors the QP mid-chain
//!   and the next linked WR on that QP fails to post at its own index
//!   (verbs `bad_wr` semantics).
//! * **TCP + `Drop`** — the kernel retransmits: delivery is delayed by
//!   `TCP_RTO` (200 ms, `tcp.rs`), never lost (the stream stays reliable).
//! * **Connection management + `Drop`** — the connect attempt fails; the
//!   caller is expected to back off and retry.
//!
//! The SmartNIC SoC is an ordinary node, so crashing *only* the SoC (while
//! the host beneath it keeps serving) is expressed at the cluster layer by
//! sending the Nic-KV actor a crash control and marking the SoC node down —
//! no special case is needed here.

use skv_simcore::{DetRng, SimDuration, SimTime};

use crate::types::NodeId;

/// A half-open activity window `[from, until)` in simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWindow {
    /// First instant the window is active.
    pub from: SimTime,
    /// First instant the window is no longer active.
    pub until: SimTime,
}

impl TimeWindow {
    /// Construct a window covering `[from, until)`.
    pub fn new(from: SimTime, until: SimTime) -> Self {
        TimeWindow { from, until }
    }

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// Probabilistic impairments on one *directional* link.
#[derive(Debug, Clone)]
pub struct LinkFault {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Probability that a message on this link is dropped.
    pub drop_prob: f64,
    /// Probability that a (delivered) message suffers a latency spike.
    pub delay_prob: f64,
    /// Size of the latency spike.
    pub delay: SimDuration,
    /// When the impairment is active; `None` means the whole run.
    pub window: Option<TimeWindow>,
}

impl LinkFault {
    fn matches(&self, now: SimTime, src: NodeId, dst: NodeId) -> bool {
        self.src == src && self.dst == dst && self.window.is_none_or(|w| w.contains(now))
    }
}

/// A bidirectional partition between two node groups during a window.
/// Messages crossing the cut are dropped deterministically; traffic inside
/// either group is untouched. A *link flap* is the special case where one
/// group is a single node.
#[derive(Debug, Clone)]
pub struct Partition {
    /// One side of the cut.
    pub a: Vec<NodeId>,
    /// The other side.
    pub b: Vec<NodeId>,
    /// When the partition holds.
    pub window: TimeWindow,
}

impl Partition {
    /// Whether a `src → dst` message crosses the cut.
    pub fn separates(&self, src: NodeId, dst: NodeId) -> bool {
        (self.a.contains(&src) && self.b.contains(&dst))
            || (self.b.contains(&src) && self.a.contains(&dst))
    }
}

/// The fate of one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver normally.
    Deliver,
    /// The message never arrives.
    Drop,
    /// The message arrives late by the given amount.
    Delay(SimDuration),
}

/// A complete fault schedule for a run.
///
/// `default_*` fields apply to every inter-node link; `links` entries
/// override them for specific `(src, dst)` pairs; `partitions` (including
/// flaps) drop crossing traffic outright during their windows. Loopback
/// traffic (`src == dst`) is never faulted.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the plan's private RNG (kept separate from the simulation
    /// RNG so installing a plan never perturbs unrelated draws).
    pub seed: u64,
    /// Baseline drop probability on every inter-node link.
    pub default_loss: f64,
    /// Baseline latency-spike probability on every inter-node link.
    pub default_delay_prob: f64,
    /// Baseline latency-spike size.
    pub default_delay: SimDuration,
    /// Per-link overrides.
    pub links: Vec<LinkFault>,
    /// Partitions and link flaps.
    pub partitions: Vec<Partition>,
}

impl FaultPlan {
    /// An empty plan (nothing goes wrong) with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_loss: 0.0,
            default_delay_prob: 0.0,
            default_delay: SimDuration::ZERO,
            links: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// True when the plan can never produce anything but `Deliver`; lets
    /// the fabric skip the judge (and its RNG draws) entirely.
    pub fn is_noop(&self) -> bool {
        self.default_loss <= 0.0
            && self.default_delay_prob <= 0.0
            && self.links.is_empty()
            && self.partitions.is_empty()
    }

    /// Decide the fate of one `src → dst` message at instant `now`.
    pub fn judge(&self, now: SimTime, src: NodeId, dst: NodeId, rng: &mut DetRng) -> Verdict {
        if src == dst {
            return Verdict::Deliver;
        }
        for p in &self.partitions {
            if p.window.contains(now) && p.separates(src, dst) {
                return Verdict::Drop;
            }
        }
        let (mut drop_p, mut delay_p, mut delay) = (
            self.default_loss,
            self.default_delay_prob,
            self.default_delay,
        );
        for l in &self.links {
            if l.matches(now, src, dst) {
                drop_p = l.drop_prob;
                delay_p = l.delay_prob;
                delay = l.delay;
            }
        }
        if drop_p > 0.0 && rng.chance(drop_p) {
            return Verdict::Drop;
        }
        if delay_p > 0.0 && rng.chance(delay_p) {
            return Verdict::Delay(delay);
        }
        Verdict::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_plan_is_noop_and_always_delivers() {
        let plan = FaultPlan::new(1);
        assert!(plan.is_noop());
        let mut rng = DetRng::new(1);
        for _ in 0..100 {
            assert_eq!(
                plan.judge(SimTime::from_secs(1), n(0), n(1), &mut rng),
                Verdict::Deliver
            );
        }
    }

    #[test]
    fn partition_drops_only_crossing_traffic_inside_window() {
        let mut plan = FaultPlan::new(2);
        plan.partitions.push(Partition {
            a: vec![n(0), n(1)],
            b: vec![n(2)],
            window: TimeWindow::new(SimTime::from_secs(1), SimTime::from_secs(2)),
        });
        let mut rng = DetRng::new(2);
        let inside = SimTime::from_millis(1_500);
        let outside = SimTime::from_millis(2_500);
        assert_eq!(plan.judge(inside, n(0), n(2), &mut rng), Verdict::Drop);
        assert_eq!(plan.judge(inside, n(2), n(1), &mut rng), Verdict::Drop);
        assert_eq!(plan.judge(inside, n(0), n(1), &mut rng), Verdict::Deliver);
        assert_eq!(plan.judge(outside, n(0), n(2), &mut rng), Verdict::Deliver);
    }

    #[test]
    fn loss_rate_roughly_matches_probability() {
        let mut plan = FaultPlan::new(3);
        plan.default_loss = 0.10;
        let mut rng = DetRng::new(3);
        let drops = (0..10_000)
            .filter(|_| plan.judge(SimTime::ZERO, n(0), n(1), &mut rng) == Verdict::Drop)
            .count();
        assert!((800..1200).contains(&drops), "drops {drops}");
    }

    #[test]
    fn loopback_is_never_faulted() {
        let mut plan = FaultPlan::new(4);
        plan.default_loss = 1.0;
        let mut rng = DetRng::new(4);
        assert_eq!(
            plan.judge(SimTime::ZERO, n(3), n(3), &mut rng),
            Verdict::Deliver
        );
        assert_eq!(
            plan.judge(SimTime::ZERO, n(3), n(4), &mut rng),
            Verdict::Drop
        );
    }

    #[test]
    fn link_override_beats_default_and_respects_direction() {
        let mut plan = FaultPlan::new(5);
        plan.default_loss = 1.0;
        plan.links.push(LinkFault {
            src: n(0),
            dst: n(1),
            drop_prob: 0.0,
            delay_prob: 1.0,
            delay: SimDuration::from_micros(50),
            window: None,
        });
        let mut rng = DetRng::new(5);
        assert_eq!(
            plan.judge(SimTime::ZERO, n(0), n(1), &mut rng),
            Verdict::Delay(SimDuration::from_micros(50))
        );
        // The reverse direction still sees the default.
        assert_eq!(
            plan.judge(SimTime::ZERO, n(1), n(0), &mut rng),
            Verdict::Drop
        );
    }

    #[test]
    fn same_seed_same_verdict_sequence() {
        let mut plan = FaultPlan::new(6);
        plan.default_loss = 0.3;
        plan.default_delay_prob = 0.3;
        plan.default_delay = SimDuration::from_micros(10);
        let run = |seed| {
            let mut rng = DetRng::new(seed);
            (0..256)
                .map(|i| plan.judge(SimTime::from_millis(i), n(0), n(1), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(6), run(6));
        assert_ne!(run(6), run(7));
    }
}
