//! Fixture: rule `io-free` — the master-side sync state machine reaching
//! for the connection table to find its open replicas, or for the event
//! context and the CPU model to charge a persist. An iterator of
//! addresses, a frame list and the store's plain data are fine.

fn commit_census(&mut self, conns: &ConnTable<ConnKind>) -> u64 {}
fn persist(&mut self, ctx: &mut Context<'_>, cpu: &mut CorePool) {}
fn census(&mut self, open: impl Iterator<Item = SocketAddr>) -> u64 {
    // Context and CorePool in prose are not code.
    let backlog: &Backlog = &self.backlog;
    let frames: Vec<(u32, Frame)> = Vec::new();
}
