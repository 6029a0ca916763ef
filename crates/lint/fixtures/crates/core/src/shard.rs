//! Fixture: rule `io-free` — the host's command front end charging its
//! own hop cost to a core, or timing a snapshot off the event context.
//! The hop count and the key count go back to the actor, which charges.

fn execute(&mut self, cpu: &mut CorePool, now_ms: u64) -> ExecResult {}
fn save(&self, ctx: &mut Context<'_>) -> Vec<u8> {}
fn load(&mut self, snapshot: &[u8], seed: u64) -> Result<usize, RdbError> {
    // A CorePool in prose is not code.
    let hop: SimDuration = CROSS_SHARD_HOP;
}
