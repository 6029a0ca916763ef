//! Fixture: rule `io-free` — the master's egress plan asking the channel
//! for its QP to decide list membership, or charging and posting the plan
//! itself. The mode's transport comes in as a fact; the plan goes back.

fn listed(&self, conns: &ConnTable<ConnKind>, f: &OutFrame) -> bool {}
fn command(&mut self, cpu: &mut CorePool, ctx: &mut Context<'_>, cmd: Command<'_>) {}
fn depart(&mut self, done: SimTime, frames: Vec<OutFrame>) -> (Batch, Option<Batch>) {
    // A Channel in prose is not code.
    let floor: SimTime = self.floor.max(done);
}
