//! Fixture: the fabric's `fire_cq_notify` is the one legitimate handoff
//! call site — rule `handoff-site` must exempt this file.

fn fire_cq_notify(ctx: &mut Context<'_>, owner: ActorId, notify: Payload) {
    ctx.handoff_boxed(owner, notify);
}
