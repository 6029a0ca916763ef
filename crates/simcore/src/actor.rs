//! The actor abstraction.
//!
//! Every active component of the simulated system — a key-value server, a
//! SmartNIC SoC service, a benchmark client — is an [`Actor`]. Actors never
//! hold references to each other; all interaction happens by scheduling
//! message events through the [`Context`], which the engine delivers in
//! deterministic time order.

use std::any::Any;
use std::fmt;

use crate::event::{EventQueue, Payload};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Identifies an actor within one [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(u32);

impl ActorId {
    /// The pseudo-actor used as the source of externally scheduled events
    /// (initial kicks, injected failures).
    pub const SYSTEM: ActorId = ActorId(u32::MAX);

    /// Construct from a raw index. Exposed for tests and id maps.
    pub const fn from_raw(raw: u32) -> Self {
        ActorId(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Index usable for slab storage.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ActorId::SYSTEM {
            write!(f, "actor(system)")
        } else {
            write!(f, "actor({})", self.0)
        }
    }
}

/// A component of the simulated system.
///
/// Implementors must also be `Any` (automatic for `'static` types), which
/// lets harness code downcast actors for setup and inspection via
/// [`crate::Simulation::actor_mut`].
pub trait Actor: Any {
    /// Called once, at the simulated instant the actor is started.
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called for every message delivered to this actor.
    fn on_message(&mut self, ctx: &mut Context<'_>, from: ActorId, msg: Payload);
}

impl dyn Actor {
    /// Downcast a dynamic actor to a concrete type.
    pub fn downcast_mut<T: Actor>(&mut self) -> Option<&mut T> {
        let any: &mut dyn Any = self;
        any.downcast_mut::<T>()
    }

    /// Downcast a dynamic actor to a concrete type (shared).
    pub fn downcast_ref<T: Actor>(&self) -> Option<&T> {
        let any: &dyn Any = self;
        any.downcast_ref::<T>()
    }
}

/// A message handed off as the continuation of the event being dispatched:
/// destination, source, payload. See [`Context::handoff`].
pub(crate) type Handoff = (ActorId, ActorId, Payload);

/// The actor's handle to the engine while processing an event.
pub struct Context<'a> {
    pub(crate) now: SimTime,
    pub(crate) self_id: ActorId,
    pub(crate) queue: &'a mut EventQueue,
    pub(crate) rng: &'a mut DetRng,
    pub(crate) halt: &'a mut bool,
    /// Where a handoff waits for the current handler to return; `None`
    /// outside an event ([`Actor::on_start`]), where there is nothing to
    /// continue.
    pub(crate) handoff: Option<&'a mut Option<Handoff>>,
}

impl Context<'_> {
    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's id.
    #[inline]
    pub fn id(&self) -> ActorId {
        self.self_id
    }

    /// Deliver `msg` to `to` at the current instant (processed after the
    /// current event, in scheduling order).
    pub fn send<M: Any>(&mut self, to: ActorId, msg: M) {
        self.queue.push(self.now, to, self.self_id, Box::new(msg));
    }

    /// Deliver `msg` to `to` at the current instant as the *continuation of
    /// the current event* when nothing else could come first: if the queue
    /// holds no event for this instant and no handoff is already pending,
    /// the engine dispatches `msg` right after the current handler returns,
    /// without a queue entry. Otherwise this is exactly [`Context::send`].
    ///
    /// In the taken case a sent `msg` would have been the very next pop —
    /// everything queued is later, everything pushed after this call has a
    /// higher sequence number — so both cases fire in the same total order
    /// and the choice is invisible to the simulation. A message to nowhere
    /// is dropped at dispatch, as a sent one is.
    pub fn handoff<M: Any>(&mut self, to: ActorId, msg: M) {
        self.handoff_boxed(to, Box::new(msg));
    }

    /// [`Context::handoff`] for a payload that is already boxed, so a
    /// caller can reuse the allocation of the message it is handling.
    pub fn handoff_boxed(&mut self, to: ActorId, msg: Payload) {
        let nothing_first = self.queue.peek_time().is_none_or(|t| t > self.now);
        match &mut self.handoff {
            Some(slot) if slot.is_none() && nothing_first => {
                **slot = Some((to, self.self_id, msg));
            }
            _ => self.queue.push(self.now, to, self.self_id, msg),
        }
    }

    /// Deliver `msg` to `to` after `delay`.
    pub fn send_in<M: Any>(&mut self, delay: SimDuration, to: ActorId, msg: M) {
        self.queue
            .push(self.now + delay, to, self.self_id, Box::new(msg));
    }

    /// Deliver `msg` to `to` at the absolute instant `at` (clamped to now).
    pub fn send_at<M: Any>(&mut self, at: SimTime, to: ActorId, msg: M) {
        let at = at.max(self.now);
        self.queue.push(at, to, self.self_id, Box::new(msg));
    }

    /// Schedule a message to self after `delay` (a timer).
    pub fn timer<M: Any>(&mut self, delay: SimDuration, msg: M) {
        let to = self.self_id;
        self.send_in(delay, to, msg);
    }

    /// Schedule a message to self at the absolute instant `at`.
    pub fn timer_at<M: Any>(&mut self, at: SimTime, msg: M) {
        let to = self.self_id;
        self.send_at(at, to, msg);
    }

    /// The engine-wide deterministic RNG.
    ///
    /// Actors that draw frequently should [`DetRng::split`] a private stream
    /// at start-up instead, so their draws do not interleave with other
    /// actors' draws.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Request that the simulation stop after the current event.
    pub fn halt(&mut self) {
        *self.halt = true;
    }
}

/// An actor defined by a closure — convenient for tests and small glue
/// components that don't warrant a named type.
///
/// The closure receives the context, the sender, and the payload, exactly
/// like [`Actor::on_message`].
pub struct FnActor {
    handler: FnActorHandler,
}

/// Boxed handler signature for [`FnActor`].
pub type FnActorHandler = Box<dyn FnMut(&mut Context<'_>, ActorId, Payload) + 'static>;

impl FnActor {
    /// Wrap a closure as an actor.
    pub fn new(handler: impl FnMut(&mut Context<'_>, ActorId, Payload) + 'static) -> Self {
        FnActor {
            handler: Box::new(handler),
        }
    }
}

impl Actor for FnActor {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: ActorId, msg: Payload) {
        (self.handler)(ctx, from, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy {
        hits: u32,
    }
    impl Actor for Dummy {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ActorId, _msg: Payload) {
            self.hits += 1;
        }
    }

    #[test]
    fn downcast_roundtrip() {
        let mut boxed: Box<dyn Actor> = Box::new(Dummy { hits: 3 });
        assert!(boxed.downcast_ref::<Dummy>().is_some());
        assert_eq!(boxed.downcast_ref::<Dummy>().unwrap().hits, 3);
        boxed.downcast_mut::<Dummy>().unwrap().hits = 9;
        assert_eq!(boxed.downcast_ref::<Dummy>().unwrap().hits, 9);
    }

    #[test]
    fn actor_id_display() {
        assert_eq!(ActorId::from_raw(4).to_string(), "actor(4)");
        assert_eq!(ActorId::SYSTEM.to_string(), "actor(system)");
    }
}
