//! The simulation driver.
//!
//! [`Simulation`] owns the actors, the event queue, the clock, and the root
//! RNG, and advances the world by repeatedly popping the earliest event and
//! dispatching it to its destination actor. Actors are temporarily removed
//! from their slot during dispatch, which lets them schedule new events
//! (including to themselves) without aliasing.
//!
//! A handler may also name the *continuation* of its event with
//! [`Context::handoff`]: a message the engine dispatches right after the
//! handler returns, without a queue entry, when it would have been the next
//! pop anyway. A dispatch is therefore either an event (popped from the
//! queue) or a handoff, and the two are counted apart.

use std::any::Any;

use crate::actor::{Actor, ActorId, Context, Handoff};
use crate::event::{EventQueue, Payload};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Outcome of a [`Simulation::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the deadline.
    Drained,
    /// The deadline was reached with events still pending.
    DeadlineReached,
    /// An actor called [`Context::halt`].
    Halted,
    /// The dispatch budget was exhausted (runaway protection).
    BudgetExhausted,
}

/// A deterministic discrete-event simulation.
pub struct Simulation {
    actors: Vec<Option<Box<dyn Actor>>>,
    queue: EventQueue,
    now: SimTime,
    rng: DetRng,
    halt: bool,
    /// Events popped plus handoffs: what `event_budget` bounds.
    dispatches: u64,
    handoffs: u64,
    /// The continuation of the event dispatched last, if its handler named
    /// one: the next thing to run, ahead of anything in the queue.
    handoff: Option<Handoff>,
    /// Safety valve against runaway event loops; `u64::MAX` by default.
    event_budget: u64,
}

impl Simulation {
    /// Create a simulation with the given root seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            actors: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: DetRng::new(seed),
            halt: false,
            dispatches: 0,
            handoffs: 0,
            handoff: None,
            event_budget: u64::MAX,
        }
    }

    /// Cap the total number of dispatches — events plus handoffs — this
    /// simulation may make, so a same-instant handoff cycle ends in
    /// [`RunOutcome::BudgetExhausted`] like any other runaway loop.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Register an actor and immediately run its [`Actor::on_start`] hook at
    /// the current simulated time.
    pub fn add_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        let raw = u32::try_from(self.actors.len()).expect("actor id space exhausted");
        let id = ActorId::from_raw(raw);
        self.actors.push(Some(actor));
        // Run on_start with a full context so the actor can set timers.
        let mut slot = self.actors[id.index()].take();
        if let Some(actor) = slot.as_mut() {
            let mut ctx = Context {
                now: self.now,
                self_id: id,
                queue: &mut self.queue,
                rng: &mut self.rng,
                halt: &mut self.halt,
                handoff: None,
            };
            actor.on_start(&mut ctx);
        }
        self.actors[id.index()] = slot;
        id
    }

    /// Schedule a message from the outside world (source =
    /// [`ActorId::SYSTEM`]) for delivery at absolute time `at`.
    pub fn schedule<M: Any>(&mut self, at: SimTime, to: ActorId, msg: M) {
        let at = at.max(self.now);
        self.queue.push(at, to, ActorId::SYSTEM, Box::new(msg));
    }

    /// Schedule a message from the outside world after `delay`.
    pub fn schedule_in<M: Any>(&mut self, delay: SimDuration, to: ActorId, msg: M) {
        let at = self.now + delay;
        self.queue.push(at, to, ActorId::SYSTEM, Box::new(msg));
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events popped from the queue and dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.dispatches - self.handoffs
    }

    /// Total messages dispatched as the continuation of an event instead of
    /// through the queue ([`Context::handoff`]). Every dispatch is one or
    /// the other: `dispatches = events_processed + handoffs`.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Number of events waiting in the queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Borrow an actor by id, downcast to its concrete type.
    ///
    /// Panics if `id` is out of range; returns `None` if the type does not
    /// match or the actor is mid-dispatch (it never is between `run` calls).
    pub fn actor_mut<T: Actor>(&mut self, id: ActorId) -> Option<&mut T> {
        self.actors[id.index()]
            .as_mut()
            .and_then(|a| a.downcast_mut::<T>())
    }

    /// Borrow an actor by id (shared), downcast to its concrete type.
    pub fn actor_ref<T: Actor>(&self, id: ActorId) -> Option<&T> {
        self.actors[id.index()]
            .as_ref()
            .and_then(|a| a.downcast_ref::<T>())
    }

    /// Run until the queue drains or `deadline` passes. Events scheduled
    /// exactly at the deadline are processed.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        loop {
            // A pending handoff is the rest of the current event, so it runs
            // before a halt takes effect. A chain of them is this loop, not
            // recursion, and the budget bounds it like everything else.
            if self.halt && self.handoff.is_none() {
                self.halt = false;
                return RunOutcome::Halted;
            }
            if self.dispatches >= self.event_budget {
                return RunOutcome::BudgetExhausted;
            }
            let (to, from, payload) = match self.handoff.take() {
                Some(handoff) => {
                    self.handoffs += 1;
                    handoff
                }
                None => {
                    let Some(next_time) = self.queue.peek_time() else {
                        return RunOutcome::Drained;
                    };
                    if next_time > deadline {
                        self.now = deadline;
                        return RunOutcome::DeadlineReached;
                    }
                    let ev = self.queue.pop().expect("peeked event must exist");
                    debug_assert!(ev.time >= self.now, "time must not run backwards");
                    self.now = ev.time;
                    (ev.to, ev.from, ev.payload)
                }
            };
            self.dispatches += 1;
            self.dispatch(to, from, payload);
        }
    }

    /// Run until the event queue is completely drained.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    fn dispatch(&mut self, to: ActorId, from: ActorId, payload: Payload) {
        if to == ActorId::SYSTEM || to.index() >= self.actors.len() {
            return; // message to nowhere: dropped
        }
        let mut slot = self.actors[to.index()].take();
        if let Some(actor) = slot.as_mut() {
            let mut ctx = Context {
                now: self.now,
                self_id: to,
                queue: &mut self.queue,
                rng: &mut self.rng,
                halt: &mut self.halt,
                handoff: Some(&mut self.handoff),
            };
            actor.on_message(&mut ctx, from, payload);
        }
        self.actors[to.index()] = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Sends itself `count` ticks spaced `gap` apart, recording fire times.
    struct Ticker {
        gap: SimDuration,
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    struct Tick;

    impl Actor for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if self.remaining > 0 {
                ctx.timer(self.gap, Tick);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, msg: Payload) {
            if msg.downcast::<Tick>().is_ok() {
                self.fired_at.push(ctx.now());
                self.remaining -= 1;
                if self.remaining > 0 {
                    ctx.timer(self.gap, Tick);
                }
            }
        }
    }

    #[test]
    fn timers_fire_on_schedule() {
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Box::new(Ticker {
            gap: SimDuration::from_micros(10),
            remaining: 3,
            fired_at: Vec::new(),
        }));
        assert_eq!(sim.run_to_completion(), RunOutcome::Drained);
        let t = sim.actor_ref::<Ticker>(id).unwrap();
        assert_eq!(
            t.fired_at,
            vec![
                SimTime::from_micros(10),
                SimTime::from_micros(20),
                SimTime::from_micros(30)
            ]
        );
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn deadline_stops_mid_run() {
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Box::new(Ticker {
            gap: SimDuration::from_micros(10),
            remaining: 100,
            fired_at: Vec::new(),
        }));
        assert_eq!(
            sim.run_until(SimTime::from_micros(25)),
            RunOutcome::DeadlineReached
        );
        assert_eq!(sim.now(), SimTime::from_micros(25));
        assert_eq!(sim.actor_ref::<Ticker>(id).unwrap().fired_at.len(), 2);
        // Resume to completion.
        assert_eq!(sim.run_to_completion(), RunOutcome::Drained);
        assert_eq!(sim.actor_ref::<Ticker>(id).unwrap().fired_at.len(), 100);
    }

    #[test]
    fn event_at_deadline_is_processed() {
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Box::new(Ticker {
            gap: SimDuration::from_micros(10),
            remaining: 2,
            fired_at: Vec::new(),
        }));
        sim.run_until(SimTime::from_micros(10));
        assert_eq!(sim.actor_ref::<Ticker>(id).unwrap().fired_at.len(), 1);
    }

    struct Halter;
    struct Go;
    impl Actor for Halter {
        fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, _msg: Payload) {
            ctx.halt();
        }
    }

    #[test]
    fn halt_stops_the_run() {
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Box::new(Halter));
        sim.schedule(SimTime::from_micros(5), id, Go);
        sim.schedule(SimTime::from_micros(6), id, Go);
        assert_eq!(sim.run_to_completion(), RunOutcome::Halted);
        assert_eq!(sim.now(), SimTime::from_micros(5));
        // The halt flag is cleared; the rest of the queue can still run.
        assert_eq!(sim.run_to_completion(), RunOutcome::Halted);
    }

    #[test]
    fn budget_protects_against_runaway() {
        struct Looper;
        struct Spin;
        impl Actor for Looper {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.timer(SimDuration::ZERO, Spin);
            }
            fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, _msg: Payload) {
                ctx.timer(SimDuration::ZERO, Spin);
            }
        }
        let mut sim = Simulation::new(1);
        sim.set_event_budget(1000);
        sim.add_actor(Box::new(Looper));
        assert_eq!(sim.run_to_completion(), RunOutcome::BudgetExhausted);
        assert_eq!(sim.events_processed(), 1000);
    }

    #[test]
    fn messages_to_unknown_actor_are_dropped() {
        let mut sim = Simulation::new(1);
        sim.schedule(SimTime::from_micros(1), ActorId::from_raw(99), Go);
        assert_eq!(sim.run_to_completion(), RunOutcome::Drained);
    }

    /// Logs the tags it receives; tag 1 answers with a zero-delay send of
    /// tag 9 to itself.
    fn logger(sim: &mut Simulation) -> (ActorId, Rc<RefCell<Vec<u32>>>) {
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let seen = log.clone();
        let id = sim.add_actor(Box::new(crate::actor::FnActor::new(
            move |ctx, _from, msg| {
                let tag = *msg.downcast::<u32>().expect("u32 tag");
                seen.borrow_mut().push(tag);
                if tag == 1 {
                    let me = ctx.id();
                    ctx.send(me, 9u32);
                }
            },
        )));
        (id, log)
    }

    #[test]
    fn zero_delay_send_fires_after_queued_events_of_the_same_instant() {
        let mut sim = Simulation::new(1);
        let (id, log) = logger(&mut sim);
        let t = SimTime::from_micros(5);
        sim.schedule(t, id, 1u32);
        sim.schedule(t, id, 2u32); // queued before tag 1 runs: lower seq than tag 9
        sim.schedule(t + SimDuration::from_nanos(1), id, 3u32);
        assert_eq!(sim.run_to_completion(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), vec![1, 2, 9, 3]);
    }

    #[test]
    fn events_scheduled_at_a_reached_deadline_keep_their_order() {
        let mut sim = Simulation::new(1);
        let (id, log) = logger(&mut sim);
        sim.schedule(SimTime::from_micros(9), id, 4u32);
        // Nothing pops: `now` moves to the deadline, the queue's clock does
        // not, so pushes at `now` must not jump the queue.
        assert_eq!(
            sim.run_until(SimTime::from_micros(5)),
            RunOutcome::DeadlineReached
        );
        sim.schedule(SimTime::from_micros(9), id, 5u32);
        sim.schedule(sim.now(), id, 1u32);
        sim.schedule(sim.now(), id, 2u32);
        assert_eq!(sim.run_to_completion(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), vec![1, 2, 9, 4, 5]);
    }

    /// Logs the tags it receives. Tag 1 hands tag 9 off to itself and then
    /// sends tag 8; tag 2 asks for two handoffs (tags 6 and 7); tag 3 hands
    /// tag 3 off again, forever; tag 4 halts and hands off tag 9.
    fn handoff_logger(sim: &mut Simulation) -> (ActorId, Rc<RefCell<Vec<u32>>>) {
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let seen = log.clone();
        let id = sim.add_actor(Box::new(crate::actor::FnActor::new(
            move |ctx, _from, msg| {
                let tag = *msg.downcast::<u32>().expect("u32 tag");
                seen.borrow_mut().push(tag);
                let me = ctx.id();
                match tag {
                    1 => {
                        ctx.handoff(me, 9u32);
                        ctx.send(me, 8u32);
                    }
                    2 => {
                        ctx.handoff(me, 6u32);
                        ctx.handoff(me, 7u32);
                    }
                    3 => ctx.handoff(me, 3u32),
                    4 => {
                        ctx.halt();
                        ctx.handoff(me, 9u32);
                    }
                    _ => {}
                }
            },
        )));
        (id, log)
    }

    #[test]
    fn handoff_runs_inside_the_event_when_nothing_else_is_due() {
        let mut sim = Simulation::new(1);
        let (id, log) = handoff_logger(&mut sim);
        sim.schedule(SimTime::from_micros(5), id, 1u32);
        sim.schedule(SimTime::from_micros(6), id, 2u32);
        assert_eq!(sim.run_to_completion(), RunOutcome::Drained);
        // Tag 8 was pushed after the handoff call and fires after it; of
        // two handoffs from one handler the second is a plain send.
        assert_eq!(*log.borrow(), vec![1, 9, 8, 2, 6, 7]);
        assert_eq!((sim.events_processed(), sim.handoffs()), (4, 2));
    }

    #[test]
    fn handoff_is_a_send_when_the_instant_has_something_queued() {
        let mut sim = Simulation::new(1);
        let (id, log) = handoff_logger(&mut sim);
        let t = SimTime::from_micros(5);
        sim.schedule(t, id, 1u32);
        sim.schedule(t, id, 5u32); // queued before tag 1 runs: fires before tag 9
        assert_eq!(sim.run_to_completion(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), vec![1, 5, 9, 8]);
        assert_eq!((sim.events_processed(), sim.handoffs()), (4, 0));
    }

    #[test]
    fn handoff_cycle_exhausts_the_budget_without_recursing() {
        let mut sim = Simulation::new(1);
        let (id, log) = handoff_logger(&mut sim);
        sim.schedule(SimTime::from_micros(5), id, 3u32);
        // Deep enough that one stack frame per link would overflow.
        sim.set_event_budget(1_000_000);
        assert_eq!(sim.run_to_completion(), RunOutcome::BudgetExhausted);
        assert_eq!((sim.events_processed(), sim.handoffs()), (1, 999_999));
        assert_eq!(sim.now(), SimTime::from_micros(5));
        // The link that did not fit is kept, not lost: it runs first when
        // the budget is raised.
        sim.set_event_budget(1_000_002);
        assert_eq!(sim.run_to_completion(), RunOutcome::BudgetExhausted);
        assert_eq!(log.borrow().len(), 1_000_002);
    }

    #[test]
    fn handoff_requested_with_a_halt_is_delivered_before_the_run_stops() {
        let mut sim = Simulation::new(1);
        let (id, log) = handoff_logger(&mut sim);
        sim.schedule(SimTime::from_micros(5), id, 4u32);
        sim.schedule(SimTime::from_micros(6), id, 5u32);
        assert_eq!(sim.run_to_completion(), RunOutcome::Halted);
        assert_eq!(*log.borrow(), vec![4, 9]);
        assert_eq!(sim.run_to_completion(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), vec![4, 9, 5]);
    }

    #[test]
    fn handoff_outside_an_event_or_to_nowhere_behaves_as_send() {
        struct Starter {
            got: u32,
        }
        impl Actor for Starter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let me = ctx.id();
                ctx.handoff(me, Go);
            }
            fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, _msg: Payload) {
                self.got += 1;
                ctx.handoff(ActorId::SYSTEM, Go);
                ctx.handoff(ActorId::from_raw(99), Go);
            }
        }
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Box::new(Starter { got: 0 }));
        // on_start has no event to continue: its handoff waits in the queue.
        assert_eq!((sim.pending_events(), sim.handoffs()), (1, 0));
        assert_eq!(sim.run_to_completion(), RunOutcome::Drained);
        assert_eq!(sim.actor_ref::<Starter>(id).unwrap().got, 1);
        // Both messages to nowhere were dispatched and dropped.
        assert_eq!(sim.events_processed() + sim.handoffs(), 3);
    }

    /// What a handler of the order-equivalence property does with one tag:
    /// `(handoff?, delay_ns, to, tag)` per message it emits, in order. An
    /// emission marked `handoff` is the primitive under test and has no
    /// delay; the others are `send_in(delay_ns)`, zero included.
    type Script = Vec<Vec<(bool, u64, u32, u32)>>;

    const SCRIPT_ACTORS: u32 = 3;

    /// Tag `i` emits up to three messages carrying higher tags, so every
    /// run ends.
    fn script() -> impl Strategy<Value = Script> {
        let emit = (any::<bool>(), 0u64..3, 0..SCRIPT_ACTORS, 1u32..12);
        prop::collection::vec(prop::collection::vec(emit, 0..4), 24..25).prop_map(|mut script| {
            for (tag, emits) in script.iter_mut().enumerate() {
                for e in emits.iter_mut() {
                    e.3 += u32::try_from(tag).expect("a script has 24 tags");
                }
            }
            script
        })
    }

    /// Run `script` from `kicks` (`(time_ns, to, tag)`), with the emissions
    /// marked `handoff` going through [`Context::handoff`] or, in the
    /// reference run, through [`Context::send`]. Returns the dispatch log
    /// and the engine's two counters.
    fn run_script(
        script: &Rc<Script>,
        kicks: &[(u64, u32, u32)],
        use_handoff: bool,
    ) -> (Vec<(SimTime, ActorId, u32)>, u64, u64) {
        let mut sim = Simulation::new(1);
        let log: Rc<RefCell<Vec<(SimTime, ActorId, u32)>>> = Rc::default();
        for _ in 0..SCRIPT_ACTORS {
            let (script, seen) = (script.clone(), log.clone());
            sim.add_actor(Box::new(crate::actor::FnActor::new(
                move |ctx, _from, msg| {
                    let tag = *msg.downcast::<u32>().expect("u32 tag");
                    seen.borrow_mut().push((ctx.now(), ctx.id(), tag));
                    for &(handoff, delay, to, tag) in script.get(tag as usize).into_iter().flatten()
                    {
                        let to = ActorId::from_raw(to);
                        match (handoff, use_handoff) {
                            (true, true) => ctx.handoff(to, tag),
                            (true, false) => ctx.send(to, tag),
                            (false, _) => ctx.send_in(SimDuration::from_nanos(delay), to, tag),
                        }
                    }
                },
            )));
        }
        for &(at, to, tag) in kicks {
            sim.schedule(SimTime::from_nanos(at), ActorId::from_raw(to), tag);
        }
        // Fan-out is up to 3 per tag: cut deep scripts off at the same
        // dispatch in both runs.
        sim.set_event_budget(3_000);
        sim.run_to_completion();
        let log = log.borrow().clone();
        (log, sim.events_processed(), sim.handoffs())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `handoff` is `send` in every way a simulation can observe: one
        /// schedule — same-instant collisions, chains, self-handoffs, two
        /// handoffs from one handler, pushes made after the handoff call —
        /// dispatches the same `(time, actor, tag)` sequence either way.
        #[test]
        fn prop_handoff_dispatches_in_send_order(
            script in script(),
            kicks in prop::collection::vec((0u64..4, 0..SCRIPT_ACTORS, 0u32..6), 1..6),
        ) {
            let script = Rc::new(script);
            let (sent, sent_events, none) = run_script(&script, &kicks, false);
            let (handed, events, handoffs) = run_script(&script, &kicks, true);
            prop_assert_eq!(none, 0);
            prop_assert_eq!(events + handoffs, sent_events);
            prop_assert_eq!(handed, sent);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        fn run() -> Vec<SimTime> {
            let mut sim = Simulation::new(77);
            let id = sim.add_actor(Box::new(Ticker {
                gap: SimDuration::from_micros(3),
                remaining: 50,
                fired_at: Vec::new(),
            }));
            sim.run_to_completion();
            sim.actor_ref::<Ticker>(id).unwrap().fired_at.clone()
        }
        assert_eq!(run(), run());
    }
}
