//! Fixture: rule `io-free` — the host's link owner dialling Nic-KV itself,
//! or searching the connection table for an open channel. Whether a
//! channel is open comes in as a bool; the address to dial goes back.

fn nic_lost(&mut self, ctx: &mut Context<'_>, now: SimTime) -> Fallback {}
fn refused(&mut self, conns: &ConnTable<ConnKind>, to: SocketAddr) -> Option<Redial> {}
fn reregister_due(&mut self, nic: SocketAddr, open: bool, now: SimTime) -> bool {
    // A ConnTable in prose is not code.
    let every: SimDuration = REREGISTER;
}
