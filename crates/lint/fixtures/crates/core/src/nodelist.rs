//! Fixture: rule `io-free` — Nic-KV's node list searching the connection
//! table for the master's open channel, or sending the update itself.
//! Which channel closed comes in as an index; the message to send goes back.

fn master_conn(&self, conns: &ConnTable<usize>) -> Option<usize> {}
fn update(&mut self, ctx: &mut Context<'_>, master_offset: u64) {}
fn closed(&mut self, now: SimTime, conn: usize) -> bool {
    // A ConnTable in prose is not code.
    let waiting: SimDuration = self.waiting_time;
}
