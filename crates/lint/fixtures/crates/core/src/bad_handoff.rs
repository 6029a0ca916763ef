//! Fixture: rule `handoff-site` — the engine's handoff primitive called
//! outside the fabric's notify site. `send` is what endpoint code uses.

fn f(ctx: &mut Context<'_>, to: ActorId) {
    ctx.handoff(to, Tick);
    ctx.send(to, Tick);
}
