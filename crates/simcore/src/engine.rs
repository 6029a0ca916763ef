//! The simulation driver.
//!
//! [`Simulation`] owns the actors, the event queue, the clock, and the root
//! RNG, and advances the world by repeatedly popping the earliest event and
//! dispatching it to its destination actor. Actors are temporarily removed
//! from their slot during dispatch, which lets them schedule new events
//! (including to themselves) without aliasing.

use std::any::Any;

use crate::actor::{Actor, ActorId, Context};
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
    /// The event budget was exhausted (runaway protection).
    BudgetExhausted,
}

/// A deterministic discrete-event simulation.
pub struct Simulation {
    actors: Vec<Option<Box<dyn Actor>>>,
    queue: EventQueue,
    now: SimTime,
    rng: DetRng,
    halt: bool,
    events_processed: u64,
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
            events_processed: 0,
            event_budget: u64::MAX,
        }
    }

    /// Cap the total number of events this simulation may process.
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

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
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
            if self.halt {
                self.halt = false;
                return RunOutcome::Halted;
            }
            if self.events_processed >= self.event_budget {
                return RunOutcome::BudgetExhausted;
            }
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
            self.events_processed += 1;
            self.dispatch(ev.to, ev.from, ev.payload);
        }
    }

    /// Run for `d` simulated time from now.
    pub fn run_for(&mut self, d: SimDuration) -> RunOutcome {
        let deadline = self.now + d;
        self.run_until(deadline)
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
            };
            actor.on_message(&mut ctx, from, payload);
        }
        self.actors[to.index()] = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        fn name(&self) -> &str {
            "ticker"
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
