//! # skv-simcore — deterministic discrete-event simulation engine
//!
//! The foundation of the SKV reproduction. The paper evaluates SKV on real
//! hardware (Xeon hosts, 100 Gb RoCE NICs, a Mellanox BlueField SmartNIC);
//! this workspace replaces that testbed with a deterministic discrete-event
//! simulation, and this crate supplies the machinery:
//!
//! * [`SimTime`] / [`SimDuration`] — the nanosecond-resolution clock,
//! * [`Simulation`] — the event loop that owns actors and advances time,
//! * [`Actor`] / [`Context`] — the unit of concurrency; servers, SmartNIC
//!   services and benchmark clients are all actors exchanging messages,
//! * [`CorePool`] — serialized CPU cores with speed factors, the resource
//!   whose contention the paper's offloading argument is about,
//! * [`DetRng`] — splittable deterministic randomness,
//! * [`stats`] — histograms (p50/p95/p99), time series, counters.
//!
//! ## Example
//!
//! ```
//! use skv_simcore::{Actor, ActorId, Context, Payload, SimDuration, Simulation};
//!
//! struct Ping { peer: Option<ActorId>, bounces: u32 }
//! struct Ball;
//!
//! impl Actor for Ping {
//!     fn on_message(&mut self, ctx: &mut Context<'_>, from: ActorId, msg: Payload) {
//!         if msg.downcast::<Ball>().is_ok() && self.bounces > 0 {
//!             self.bounces -= 1;
//!             let to = self.peer.unwrap_or(from);
//!             ctx.send_in(SimDuration::from_micros(2), to, Ball);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let a = sim.add_actor(Box::new(Ping { peer: None, bounces: 10 }));
//! let b = sim.add_actor(Box::new(Ping { peer: Some(a), bounces: 10 }));
//! sim.actor_mut::<Ping>(a).unwrap().peer = Some(b);
//! sim.schedule(skv_simcore::SimTime::ZERO, a, Ball);
//! sim.run_to_completion();
//! assert_eq!(sim.now(), skv_simcore::SimTime::from_micros(40));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

mod actor;
mod cpu;
mod engine;
mod event;
pub mod frame;
pub mod pool;
mod rng;
pub mod stats;
mod time;

pub use actor::{Actor, ActorId, Context, FnActor};
pub use cpu::{CorePool, WorkDone};
pub use engine::{RunOutcome, Simulation};
pub use event::{Event, EventQueue, Payload};
pub use frame::Frame;
pub use pool::FramePool;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
