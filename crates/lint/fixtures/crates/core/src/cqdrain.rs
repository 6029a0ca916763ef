//! Fixture: the budgeted-drain helper is the one legitimate raw
//! `poll_cq` and `req_notify_cq` call site — rules `pollcq` and `armcq`
//! must exempt this file.

fn drain(net: &Net, ctx: &mut Context<'_>, cq: CqId) {
    let _wcs = net.poll_cq(cq, 8);
    net.req_notify_cq(ctx, cq);
}
