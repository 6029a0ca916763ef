//! Fixture: rule `io-free` — the master's write gate looking a held reply's
//! connection up in the connection table, or posting the reply itself.
//! Whether a connection is open comes in as a predicate; the replies go back.

fn release(&mut self, conns: &ConnTable<ConnKind>, census: u64) {}
fn committed(&mut self, ctx: &mut Context<'_>, upto: u64) {}
fn blocked(&self, master: bool, degraded: bool, own_slaves: impl FnOnce() -> usize) -> bool {
    // A ConnTable in prose is not code.
    let held: VecDeque<(u64, OutFrame)> = VecDeque::new();
}
