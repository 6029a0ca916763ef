//! The completion path's one owner: how an event loop drains a CQ, and
//! when the CQ is armed again.
//!
//! Every event-driven actor in the system (server, Nic-KV, bench client)
//! used to drain its CQ with a private unbounded loop — poll 64, repeat
//! until empty — which made a large completion burst monopolize one
//! event-loop turn and charged the polling CPU nothing. These helpers
//! give every call site one budgeted, *costed* drain:
//!
//! * at most `budget` work completions are polled per pass;
//! * the drain's CPU cost — `cq_poll_cpu` per poll call plus
//!   `wc_handle_cpu` per WC ([`skv_netsim::NetParams`]) — is returned to
//!   the caller, who charges it to its own core pool (the crate
//!   convention: the fabric and channels never charge CPU, the owning
//!   actor accounts for its work);
//! * when the budget was exhausted with completions still queued, the
//!   caller schedules a continuation `CqNotify` to itself *after* the
//!   charged cost, so timers and other messages interleave with the
//!   drain — this is what lets a slow Nic-KV ARM core back-pressure
//!   realistically instead of absorbing any burst in zero sim time;
//! * otherwise the CQ is re-armed — unless the pass queued work on a
//!   core (`ParkedCqs`): then it stays un-armed, and the event that ends
//!   that work polls it again, so completions that land while the core
//!   is busy are taken in one poll (DESIGN.md §12.3).
//!
//! Arming is this file's alone (`skv-analyze` rule `armcq`): a CQ starts
//! armed ([`create_armed`]) and is re-armed only by a pass that comes
//! back with nothing left behind.

use skv_netsim::{CqId, Net, Wc};
use skv_simcore::{Context, SimDuration, SimTime};

/// Completions drained per pass by every actor's event loop. A constant,
/// not a knob: one value was ever in use, and any budget from 3 to 256
/// reads the same throughput (DESIGN.md §12.3). A deeper burst continues
/// in a follow-up after the drain's CPU cost, so it cannot monopolize an
/// event-loop turn.
pub const POLL_BUDGET: usize = 64;

/// Create a CQ for the calling actor, armed: its first completion
/// notifies. Every CQ an event loop drains starts here.
pub fn create_armed(net: &Net, ctx: &mut Context<'_>) -> CqId {
    let cq = net.create_cq(ctx.id());
    net.req_notify_cq(ctx, cq);
    cq
}

/// What one budgeted drain pass did; see [`drain_budgeted`].
#[derive(Debug, Clone, Copy)]
pub struct DrainOutcome {
    /// Work completions polled and dispatched this pass.
    pub polled: usize,
    /// True when the budget ran out with completions still queued. The CQ
    /// was *not* re-armed; the caller must schedule a continuation
    /// `CqNotify` to itself at the time its core finishes `cpu_cost`.
    pub more: bool,
    /// Reference-core CPU cost of this pass: one `cq_poll_cpu` plus
    /// `wc_handle_cpu` per polled WC. The caller charges this to its own
    /// core pool (or documents why it has none to charge).
    pub cpu_cost: SimDuration,
}

/// Drain up to `budget` completions from `cq`, dispatching each through
/// `on_wc`, and report what happened — for a caller whose handlers queue
/// no work behind the poll.
///
/// When the queue is exhausted within budget the CQ is re-armed here
/// (atomically with the poll in simulation time, so no completion can
/// slip between poll and arm). When the budget runs out first, the CQ is
/// left un-armed and [`DrainOutcome::more`] tells the caller to schedule
/// its continuation — re-arming in that state would fire a fresh notify
/// immediately and defeat the budget.
///
/// `scratch` is the caller's WC array (verbs-style): it is polled into and
/// emptied again before returning, so an actor that keeps one around
/// drains every notify without allocating.
pub fn drain_budgeted(
    net: &Net,
    ctx: &mut Context<'_>,
    cq: CqId,
    budget: usize,
    scratch: &mut Vec<Wc>,
    mut on_wc: impl FnMut(&mut Context<'_>, Wc),
) -> DrainOutcome {
    let budget = budget.max(1);
    let polled = begin_drain(net, cq, budget, scratch);
    for wc in scratch.drain(..) {
        on_wc(ctx, wc);
    }
    finish_drain(net, ctx, cq, budget, polled)
}

/// The two halves of [`drain_budgeted`], for a caller that dispatches the
/// completions between them itself: poll at most `budget` into `scratch`
/// (returning how many), then re-arm or report `more`, and cost the pass.
pub fn begin_drain(net: &Net, cq: CqId, budget: usize, scratch: &mut Vec<Wc>) -> usize {
    net.poll_cq_into(cq, budget, scratch)
}

/// See [`begin_drain`]: the end of a pass that queued no work.
pub fn finish_drain(
    net: &Net,
    ctx: &mut Context<'_>,
    cq: CqId,
    budget: usize,
    polled: usize,
) -> DrainOutcome {
    let more = polled == budget && net.cq_depth(cq) > 0;
    if !more {
        net.req_notify_cq(ctx, cq);
    }
    DrainOutcome {
        polled,
        more,
        cpu_cost: poll_cost(net, polled),
    }
}

/// See [`begin_drain`]: the end of a pass, polled with [`POLL_BUDGET`],
/// whose handlers may have queued work — `queued` is when the last of it
/// ends. [`ParkedCqs::settle`] decides; a parked CQ stays un-armed until
/// [`ParkedCqs::take_due`] hands it back for its next poll. A poll that
/// finds nothing is the terminating poll of the pass before it and costs
/// nothing.
pub(crate) fn finish_parked(
    net: &Net,
    ctx: &mut Context<'_>,
    cq: CqId,
    parked: &mut ParkedCqs,
    polled: usize,
    queued: Option<SimTime>,
) -> DrainOutcome {
    let more = polled == POLL_BUDGET && net.cq_depth(cq) > 0;
    let next = parked.settle(cq, more, queued);
    if next == Next::Arm {
        net.req_notify_cq(ctx, cq);
    }
    let cpu_cost = if polled == 0 {
        SimDuration::ZERO
    } else {
        poll_cost(net, polled)
    };
    DrainOutcome {
        polled,
        more,
        cpu_cost,
    }
}

/// One poll call that returned `polled` completions, in reference-core
/// time.
fn poll_cost(net: &Net, polled: usize) -> SimDuration {
    net.with_params(|p| p.cq_poll_cpu + p.wc_handle_cpu.mul_f64(polled as f64))
}

/// How a drain pass leaves its CQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Next {
    /// Nothing left behind: arm, so the next completion notifies.
    Arm,
    /// The budget ran out with completions queued: the caller continues
    /// the drain once its core has done the pass.
    Continue,
    /// The pass queued work on a core: the CQ stays un-armed, and the
    /// event that ends the work polls it again.
    Park,
}

/// The CQs an event loop has left un-armed behind work it queued, each
/// with the instant that work ends (IO-free: the decisions of
/// [`finish_parked`], as values).
///
/// A parked CQ has exactly one way back: the caller's event at or after
/// its `due` takes it out ([`ParkedCqs::take_due`]) and polls it. A
/// process that crashes loses those events, so it clears the list
/// ([`ParkedCqs::clear`]) and re-arms on recovery ([`recover_drain`]).
#[derive(Debug, Default)]
pub(crate) struct ParkedCqs {
    /// `(cq, due)`, one entry per CQ, in parking order.
    cqs: Vec<(CqId, SimTime)>,
}

impl ParkedCqs {
    /// Decide how the pass that just polled `cq` leaves it. The pass
    /// answers for any earlier park of `cq` (it polled it), so at most
    /// one entry per CQ exists: the one of its latest pass.
    pub fn settle(&mut self, cq: CqId, more: bool, queued: Option<SimTime>) -> Next {
        self.cqs.retain(|&(c, _)| c != cq);
        match (more, queued) {
            (true, _) => Next::Continue,
            (false, None) => Next::Arm,
            (false, Some(due)) => {
                self.cqs.push((cq, due));
                Next::Park
            }
        }
    }

    /// Take out one CQ whose queued work has ended by `now`, oldest park
    /// first; the caller polls it.
    pub fn take_due(&mut self, now: SimTime) -> Option<CqId> {
        let i = self.cqs.iter().position(|&(_, due)| due <= now)?;
        Some(self.cqs.remove(i).0)
    }

    /// Forget every parked CQ: the process crashed, and the events that
    /// would have polled them are lost with it.
    pub fn clear(&mut self) {
        self.cqs.clear();
    }
}

/// Drain a CQ completely during connection recovery, routing every stale
/// completion through `on_wc`, then re-arm. Returns how many were
/// drained.
///
/// Recovery must not discard WCs blindly: receive completions still
/// carry the `wr_id` of a consumed receive slot, and only the channel's
/// `on_wc` replenishes it — a silent `while !poll().is_empty() {}` leaks
/// receive credits on every surviving connection. This is a rare
/// control-path event, so it is deliberately unbudgeted and uncharged.
pub fn recover_drain(
    net: &Net,
    ctx: &mut Context<'_>,
    cq: CqId,
    scratch: &mut Vec<Wc>,
    mut on_wc: impl FnMut(&mut Context<'_>, Wc),
) -> usize {
    let mut drained = 0;
    while net.poll_cq_into(cq, POLL_BUDGET, scratch) > 0 {
        drained += scratch.len();
        for wc in scratch.drain(..) {
            on_wc(ctx, wc);
        }
    }
    net.req_notify_cq(ctx, cq);
    drained
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // test values are tiny literals
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use skv_netsim::{Net, NetEvent, NetParams, QpId, SendWr, SocketAddr, Topology};
    use skv_simcore::{CorePool, FnActor, SimTime, Simulation};

    /// Periodic heartbeat message for the starvation test.
    struct Tick;

    /// Arms the receiver's CQ once the whole burst has landed, so the
    /// drain machinery faces a deep queue rather than tracking arrivals.
    struct StartDrain;

    struct DrainLog {
        /// `(sim time, polled)` per drain pass.
        passes: Vec<(SimTime, usize)>,
        /// Sim times at which the tick timer fired.
        ticks: Vec<SimTime>,
    }

    /// Raw-verbs world: a receiver that drains with `drain_budgeted`,
    /// charging a single-core pool, while a tick timer competes for the
    /// same event loop. Returns the log after `n_wrs` tiny writes land.
    fn run_burst(n_wrs: usize, budget: usize, tick_every: SimDuration) -> DrainLog {
        let mut sim = Simulation::new(5);
        let mut topo = Topology::new();
        let a = topo.add_host();
        let b = topo.add_host();
        let net = Net::install(&mut sim, topo, NetParams::default());
        let mr = net.register_mr(b, 1 << 20);
        let addr = SocketAddr::new(b, 6379);

        let log = Rc::new(RefCell::new(DrainLog {
            passes: Vec::new(),
            ticks: Vec::new(),
        }));
        let client_qp: Rc<RefCell<Option<QpId>>> = Rc::default();

        let n = net.clone();
        let l = log.clone();
        let cpu = RefCell::new(CorePool::new(1, 1.0));
        let server_cq: Rc<RefCell<Option<skv_netsim::CqId>>> = Rc::default();
        let scq = server_cq.clone();
        let server = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
            let msg = match msg.downcast::<Tick>() {
                Ok(_) => {
                    l.borrow_mut().ticks.push(ctx.now());
                    // Self-limiting so the simulation can quiesce: the
                    // burst drains within a few ms of sim time.
                    if ctx.now() < SimTime::ZERO + SimDuration::from_millis(20) {
                        ctx.timer(tick_every, Tick);
                    }
                    return;
                }
                Err(msg) => msg,
            };
            let msg = match msg.downcast::<StartDrain>() {
                Ok(_) => {
                    // The burst is fully queued: arming now fires one
                    // notify into a deep CQ.
                    let cq = scq.borrow().expect("connected");
                    n.req_notify_cq(ctx, cq);
                    return;
                }
                Err(msg) => msg,
            };
            let Ok(ev) = msg.downcast::<NetEvent>() else {
                return;
            };
            match *ev {
                NetEvent::CmConnectRequest { req, .. } => {
                    let cq = n.create_cq(ctx.id());
                    let qp = n.rdma_accept(ctx, req, cq).expect("fresh CM request");
                    for i in 0..n_wrs {
                        n.post_recv(qp, i as u64).unwrap();
                    }
                    *scq.borrow_mut() = Some(cq);
                    ctx.timer(SimDuration::from_millis(5), StartDrain);
                    ctx.timer(tick_every, Tick);
                }
                NetEvent::CqNotify { cq } => {
                    let out = drain_budgeted(&n, ctx, cq, budget, &mut Vec::new(), |_ctx, _wc| {});
                    l.borrow_mut().passes.push((ctx.now(), out.polled));
                    let done = cpu.borrow_mut().run_on(0, ctx.now(), out.cpu_cost).finished;
                    if out.more {
                        ctx.timer_at(done, NetEvent::CqNotify { cq });
                    }
                }
                _ => {}
            }
        })));
        net.rdma_listen(addr, server);

        let n = net.clone();
        let cqp = client_qp.clone();
        let client = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
            let Ok(ev) = msg.downcast::<NetEvent>() else {
                return;
            };
            match *ev {
                NetEvent::CmEstablished { qp, .. } => {
                    *cqp.borrow_mut() = Some(qp);
                    // The whole burst in one turn: the receiver must not
                    // absorb it in one event either.
                    for i in 0..n_wrs {
                        let wr = SendWr::write_imm(i as u64, mr, 0, i as u32, vec![0u8; 8]);
                        n.post_send(ctx, qp, wr).unwrap();
                    }
                }
                NetEvent::CqNotify { cq } => {
                    n.poll_cq_into(cq, usize::MAX, &mut Vec::new());
                    n.req_notify_cq(ctx, cq);
                }
                _ => {}
            }
        })));
        let n = net.clone();
        let starter = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
            let cq = n.create_cq(client);
            n.req_notify_cq(ctx, cq);
            n.rdma_connect(ctx, a, client, cq, addr);
        })));
        sim.schedule(SimTime::ZERO, starter, ());
        sim.run_to_completion();
        let out = log.borrow();
        DrainLog {
            passes: out.passes.clone(),
            ticks: out.ticks.clone(),
        }
    }

    #[test]
    fn burst_respects_budget_and_loses_nothing() {
        let budget = 16;
        let log = run_burst(10_000, budget, SimDuration::from_micros(50));
        let total: usize = log.passes.iter().map(|(_, p)| p).sum();
        assert_eq!(total, 10_000, "budgeted drain must not drop completions");
        assert!(
            log.passes.iter().all(|(_, p)| *p <= budget),
            "no pass may exceed the poll budget"
        );
        // 10k WCs at 16/pass is ~625 passes: the burst really was spread
        // over many event-loop turns, not absorbed in one.
        assert!(log.passes.len() >= 10_000 / budget);
    }

    #[test]
    fn burst_does_not_starve_timer_events() {
        // Regression: with unbounded drains a 10k-WC burst ran inside a
        // single event and the tick timer saw none of it. Budgeted drains
        // charge CPU per pass, so sim time advances and ticks interleave.
        let log = run_burst(10_000, 16, SimDuration::from_micros(50));
        let first = log.passes.first().expect("drained something").0;
        let last = log.passes.last().expect("drained something").0;
        assert!(
            last - first >= SimDuration::from_micros(200),
            "burst must take real sim time to drain"
        );
        let interleaved = log
            .ticks
            .iter()
            .filter(|t| **t > first && **t < last)
            .count();
        assert!(
            interleaved >= 4,
            "tick timer starved: only {interleaved} ticks fired during the \
             drain window {first:?}..{last:?}"
        );
    }

    #[test]
    fn exhausted_queue_rearms_for_the_next_burst() {
        // Two bursts with the same world: the helper's re-arm at the end
        // of burst one is what lets burst two notify at all.
        let log = run_burst(40, 16, SimDuration::from_micros(50));
        let total: usize = log.passes.iter().map(|(_, p)| p).sum();
        assert_eq!(total, 40);
        // 40 WCs at budget 16: passes of 16, 16, 8 — the final sub-budget
        // pass re-armed (and a fresh notify would find an empty queue).
        assert_eq!(log.passes.last().unwrap().1, 8);
    }

    // -- the parked list: a CQ is never left silent -------------------------

    fn cq(id: u32) -> CqId {
        CqId(id)
    }

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn a_pass_with_queued_work_parks_until_the_work_ends() {
        let mut parked = ParkedCqs::default();
        assert_eq!(parked.settle(cq(0), false, Some(at(10))), Next::Park);
        // Not before its work ends ...
        assert_eq!(parked.take_due(at(9)), None);
        // ... then exactly once.
        assert_eq!(parked.take_due(at(10)), Some(cq(0)));
        assert_eq!(parked.take_due(at(10)), None);
    }

    #[test]
    fn a_pass_without_queued_work_arms_and_an_exhausted_budget_continues() {
        let mut parked = ParkedCqs::default();
        assert_eq!(parked.settle(cq(0), false, None), Next::Arm);
        // A continuation polls the CQ itself: nothing to park, whatever
        // the pass queued.
        assert_eq!(parked.settle(cq(1), true, Some(at(5))), Next::Continue);
        assert_eq!(parked.settle(cq(2), true, None), Next::Continue);
        assert_eq!(parked.take_due(at(100)), None);
    }

    #[test]
    fn due_cqs_come_back_oldest_park_first_and_keyed_by_cq() {
        // Two CQs of one event loop, parked behind work on different
        // cores: each comes back on its own due, and neither is confused
        // with the other (the list is keyed by CQ, not by core).
        let mut parked = ParkedCqs::default();
        parked.settle(cq(3), false, Some(at(20)));
        parked.settle(cq(1), false, Some(at(10)));
        parked.settle(cq(2), false, Some(at(10)));
        assert_eq!(parked.take_due(at(15)), Some(cq(1)));
        assert_eq!(parked.take_due(at(15)), Some(cq(2)));
        assert_eq!(parked.take_due(at(15)), None);
        assert_eq!(parked.take_due(at(25)), Some(cq(3)));
        assert_eq!(parked.take_due(at(100)), None);
    }

    #[test]
    fn a_second_park_on_one_cq_replaces_the_first() {
        let mut parked = ParkedCqs::default();
        parked.settle(cq(0), false, Some(at(10)));
        // The CQ was polled again before that work ended; the new pass's
        // work is what the next poll waits for — one entry, not two.
        parked.settle(cq(0), false, Some(at(30)));
        assert_eq!(parked.take_due(at(10)), None);
        assert_eq!(parked.take_due(at(30)), Some(cq(0)));
        assert_eq!(parked.take_due(at(100)), None);
        // A pass that queues nothing un-parks it and arms.
        parked.settle(cq(0), false, Some(at(40)));
        assert_eq!(parked.settle(cq(0), false, None), Next::Arm);
        assert_eq!(parked.take_due(at(100)), None);
    }

    #[test]
    fn a_crash_clears_every_park() {
        let mut parked = ParkedCqs::default();
        parked.settle(cq(0), false, Some(at(10)));
        parked.settle(cq(1), false, Some(at(10)));
        parked.clear();
        assert_eq!(parked.take_due(at(100)), None);
    }
}
