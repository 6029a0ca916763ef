//! Fixture: rule `io-free` — an IO-free state machine reaching for the
//! network, the event context, the connection table, the CPU model or a
//! channel. Time as a value and plain data from the same crates are fine.

use skv_netsim::{Frame, Net, NetEvent};
fn send(net: &Net, ctx: &mut Context<'_>, conns: &mut ConnTable<()>) {}
fn charge(cpu: &mut CorePool, ch: &Channel) {}
fn step(now: SimTime, frame: &Frame, ev: &NetEvent, msg: &ChannelMsg) -> bool {
    // A Context in prose is not a Context in code.
    now > SimTime::ZERO
}
