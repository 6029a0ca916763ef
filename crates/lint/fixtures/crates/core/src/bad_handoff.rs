//! Fixture: rule `handoff-site` — the engine's handoff primitive called
//! outside the fabric's notify site. `send` is what endpoint code uses.

fn f(ctx: &mut Context<'_>, to: ActorId, boxed: Payload) {
    ctx.handoff(to, Tick);
    ctx.handoff_boxed(to, boxed);
    ctx.send(to, Tick);
}
