//! Fixture: rule `sync-in-sim` — thread synchronisation in a crate that
//! runs on one thread. The `Rc`/`Cell` twins below are what it wants; the
//! `handoff` call is clean because `simcore` defines the primitive.

use std::sync::{Arc, Mutex};
use std::sync::atomic::AtomicU64;
use std::rc::Rc;
use std::cell::{Cell, RefCell};

fn f(ctx: &mut Context<'_>, to: ActorId) {
    let _shared: std::sync::RwLock<u8> = Default::default();
    ctx.handoff(to, Tick);
}
