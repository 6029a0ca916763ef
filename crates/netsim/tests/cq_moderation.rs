//! CQ interrupt moderation: `cq_notify_threshold` / `cq_notify_timer`
//! coalescing semantics.
//!
//! The harness mirrors `rdma_flow.rs`: two scripted endpoints on a raw
//! verbs connection, with the receive side logging the simulation time at
//! which every completion is polled. Comparing a moderated run against an
//! unmoderated run of the same post schedule gives an *exact* bound: the
//! fabric delivery schedule does not depend on CQ arming, so a completion
//! polled at `t` unmoderated must be polled by `t + cq_notify_timer`
//! moderated — the no-stranding guarantee.

// Test payloads and loop counters are tiny literals; casts cannot truncate.
#![allow(clippy::cast_possible_truncation)]
use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use skv_netsim::{MrId, Net, NetEvent, NetParams, QpId, SendWr, SocketAddr, Topology};
use skv_simcore::{FnActor, SimDuration, SimTime, Simulation};

struct World {
    sim: Simulation,
    net: Net,
    a: skv_netsim::NodeId,
    b: skv_netsim::NodeId,
}

fn world_with(params: NetParams) -> World {
    let mut sim = Simulation::new(11);
    let mut topo = Topology::new();
    let a = topo.add_host();
    let b = topo.add_host();
    let net = Net::install(&mut sim, topo, params);
    World { sim, net, a, b }
}

type PollLog = Rc<RefCell<Vec<(u64, SimTime)>>>;

/// Establish a QP pair. The server posts `recvs` receives up front and
/// logs `(wr_id, poll time)` for every completion it drains; both sides
/// re-arm after each drain, so moderation governs when drains happen.
fn establish_logged(w: &mut World, recvs: usize) -> (QpId, MrId, PollLog) {
    let server_mr = w.net.register_mr(w.b, 1 << 20);
    let addr = SocketAddr::new(w.b, 6379);
    let server_log: PollLog = Rc::default();
    let client_qp: Rc<RefCell<Option<QpId>>> = Rc::default();

    let net = w.net.clone();
    let log = server_log.clone();
    let server = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
            let Ok(ev) = msg.downcast::<NetEvent>() else {
                return;
            };
            match *ev {
                NetEvent::CmConnectRequest { req, .. } => {
                    let cq = net.create_cq(ctx.id());
                    let qp = net.rdma_accept(ctx, req, cq).expect("fresh CM request");
                    for i in 0..recvs {
                        net.post_recv(qp, 1000 + i as u64).unwrap();
                    }
                    net.req_notify_cq(ctx, cq);
                }
                NetEvent::CqNotify { cq } => {
                    let now = ctx.now();
                    log.borrow_mut()
                        .extend(net.poll_cq(cq, 64).into_iter().map(|wc| (wc.wr_id, now)));
                    net.req_notify_cq(ctx, cq);
                }
                _ => {}
            }
        })));
    w.net.rdma_listen(addr, server);

    let net = w.net.clone();
    let cqp = client_qp.clone();
    let client = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
            let Ok(ev) = msg.downcast::<NetEvent>() else {
                return;
            };
            match *ev {
                NetEvent::CmEstablished { qp, .. } => {
                    *cqp.borrow_mut() = Some(qp);
                }
                NetEvent::CqNotify { cq } => {
                    net.poll_cq(cq, 64);
                    net.req_notify_cq(ctx, cq);
                }
                _ => {}
            }
        })));
    let net = w.net.clone();
    let a = w.a;
    let starter = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
            let cq = net.create_cq(client);
            net.req_notify_cq(ctx, cq);
            net.rdma_connect(ctx, a, client, cq, addr);
        })));
    w.sim.schedule(SimTime::ZERO, starter, ());
    w.sim.run_to_completion();

    let qp = client_qp.borrow().expect("connection must establish");
    (qp, server_mr, server_log)
}

/// Schedule one WriteImm per entry of `offsets_us` (microseconds after the
/// current sim time), each from its own one-shot helper, then run the
/// simulation to quiescence.
fn post_schedule(w: &mut World, qp: QpId, mr: MrId, offsets_us: &[u64]) {
    let base = w.sim.now();
    for (i, off) in offsets_us.iter().enumerate() {
        let net = w.net.clone();
        let wr = SendWr::write_imm(i as u64, mr, 64 * i, i as u32, vec![i as u8; 8]);
        let helper = w
            .sim
            .add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
                net.post_send(ctx, qp, wr.clone()).unwrap();
            })));
        w.sim
            .schedule(base + SimDuration::from_micros(*off), helper, ());
    }
    w.sim.run_to_completion();
}

/// Run one post schedule under `params`; returns the receive-side poll log
/// (sorted by wr_id) and the finished world for counter inspection.
fn run_case(params: NetParams, offsets_us: &[u64]) -> (Vec<(u64, SimTime)>, World) {
    let mut w = world_with(params);
    let (qp, mr, log) = establish_logged(&mut w, offsets_us.len().max(1) + 8);
    post_schedule(&mut w, qp, mr, offsets_us);
    let mut polled = log.borrow().clone();
    polled.sort_unstable_by_key(|(wr_id, _)| *wr_id);
    drop(log);
    (polled, w)
}

fn moderated(threshold: usize, timer: SimDuration) -> NetParams {
    NetParams {
        cq_notify_threshold: threshold,
        cq_notify_timer: timer,
        ..NetParams::default()
    }
}

#[test]
fn defaults_are_unmoderated_and_notify_per_completion() {
    let params = NetParams::default();
    assert!(!params.cq_moderation_active());

    // Four posts spaced far apart: each completion is a fresh notify on
    // each side, so the two counters stay 1:1.
    let (polled, w) = run_case(params, &[0, 100, 200, 300]);
    assert_eq!(polled.len(), 4);
    assert_eq!(
        w.net.counters().get("rdma.cq_notifies"),
        w.net.counters().get("rdma.wcs_polled"),
        "unmoderated spaced completions are one notify per WC"
    );
    assert_eq!(w.net.counters().get("rdma.wcs_polled"), 8, "both sides");
}

#[test]
fn burst_collapses_notifies_below_wcs_polled() {
    let n = 16u64;
    let threshold = 4usize;
    let offsets = vec![0u64; n as usize];
    let (polled, w) = run_case(moderated(threshold, SimDuration::from_millis(1)), &offsets);

    assert_eq!(polled.len(), n as usize, "moderation loses nothing");
    let notifies = w.net.counters().get("rdma.cq_notifies");
    let wcs = w.net.counters().get("rdma.wcs_polled");
    assert_eq!(wcs, 2 * n, "sender + receiver completions all polled");
    assert!(
        notifies < wcs,
        "the point of moderation: {notifies} notifies for {wcs} WCs"
    );
    // Both CQs collapse toward one notify per threshold-sized batch; allow
    // one trailing timer flush per side.
    let per_side_budget = n / threshold as u64 + 1;
    assert!(
        notifies <= 2 * per_side_budget,
        "{notifies} notifies exceeds coalescing budget {}",
        2 * per_side_budget
    );
}

#[test]
fn lone_completion_is_flushed_exactly_at_the_timer() {
    let timer = SimDuration::from_micros(50);
    // Threshold 8 with a single post: only the coalescing timer can flush.
    let (polled_mod, _) = run_case(moderated(8, timer), &[0]);
    let (polled_raw, _) = run_case(NetParams::default(), &[0]);
    assert_eq!(polled_mod.len(), 1);
    assert_eq!(polled_raw.len(), 1);
    assert_eq!(
        polled_mod[0].1,
        polled_raw[0].1 + timer,
        "a sub-threshold completion waits the full deadline and no longer"
    );
}

#[test]
fn req_notify_fires_immediately_when_backlog_meets_threshold() {
    // With a pre-armed CQ the drain handler re-arms *after* polling, so a
    // backlog at/above threshold at re-arm time must fire without waiting
    // for the timer — depth-triggered, not edge-triggered. A large burst
    // against a tiny timer exercises that path: total time to drain must
    // not be n/threshold timer periods.
    let timer = SimDuration::from_micros(40);
    let offsets = vec![0u64; 32];
    let (polled, _) = run_case(moderated(2, timer), &offsets);
    assert_eq!(polled.len(), 32);
    let first = polled.iter().map(|(_, t)| *t).min().unwrap();
    let last = polled.iter().map(|(_, t)| *t).max().unwrap();
    assert!(
        last - first < SimDuration::from_micros(40 * 16),
        "threshold firing must not serialize the burst on the timer"
    );
}

proptest! {
    /// No completion is ever stranded past `cq_notify_timer`: against the
    /// identical post schedule, the moderated poll time of every WC is
    /// bounded by its unmoderated poll time plus the coalescing deadline
    /// (delivery times are independent of CQ arming, so the unmoderated
    /// run *is* the arrival schedule).
    #[test]
    fn moderation_never_strands_a_completion(
        threshold in 2usize..9,
        timer_us in 1u64..51,
        gaps in prop::collection::vec(0u64..31, 1..11),
    ) {
        let mut offsets = Vec::with_capacity(gaps.len());
        let mut t = 0u64;
        for g in &gaps {
            t += g;
            offsets.push(t);
        }
        let timer = SimDuration::from_micros(timer_us);
        let (polled_mod, w) = run_case(moderated(threshold, timer), &offsets);
        let (polled_raw, _) = run_case(NetParams::default(), &offsets);

        prop_assert_eq!(polled_mod.len(), offsets.len(), "every WC polled");
        prop_assert_eq!(polled_raw.len(), offsets.len());
        for ((id_m, t_m), (id_r, t_r)) in polled_mod.iter().zip(polled_raw.iter()) {
            prop_assert_eq!(id_m, id_r);
            prop_assert!(
                *t_m <= *t_r + timer,
                "wr {} stranded: moderated {:?} > arrival {:?} + {:?}",
                id_m, t_m, t_r, timer
            );
        }
        // Quiescence really drained everything: nothing left on either CQ.
        prop_assert_eq!(
            w.net.counters().get("rdma.wcs_polled"),
            2 * offsets.len() as u64
        );
    }
}
