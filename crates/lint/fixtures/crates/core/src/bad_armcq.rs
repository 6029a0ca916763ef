//! Fixture: rule `armcq` — a CQ armed outside `cqdrain`.

fn f(net: &Net, ctx: &mut Context<'_>, cq: CqId) {
    net.req_notify_cq(ctx, cq);
}

fn g(net: &Net, ctx: &mut Context<'_>) -> CqId {
    // Near miss: the one creation helper is how an event loop arms.
    cqdrain::create_armed(net, ctx)
}
