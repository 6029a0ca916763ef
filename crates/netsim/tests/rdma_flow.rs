//! End-to-end behaviour of the simulated RDMA verbs.

// Test payloads and loop counters are tiny literals; casts cannot truncate.
#![allow(clippy::cast_possible_truncation)]

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use skv_netsim::{
    Frame, MrId, Net, NetEvent, NetParams, NodeId, PostError, QpId, SendOp, SendWr, SocketAddr,
    Topology, Wc, WcOpcode, WcStatus,
};
use skv_simcore::stats::Counters;
use skv_simcore::{FnActor, SimTime, Simulation};

struct World {
    sim: Simulation,
    net: Net,
    a: NodeId,
    b: NodeId,
    /// Name-keyed tally of what the scripted endpoints saw the fabric do
    /// (notifies received, completions polled); see
    /// `counters_snapshot_matches_a_name_keyed_tally`.
    tally: Rc<RefCell<Counters>>,
    /// Whether the server endpoint re-arms its CQ after a poll (it does
    /// unless a test wants to see an arrival on an un-armed CQ).
    server_rearms: Rc<Cell<bool>>,
}

fn world() -> World {
    let mut sim = Simulation::new(3);
    let mut topo = Topology::new();
    let a = topo.add_host();
    let b = topo.add_host();
    let net = Net::install(&mut sim, topo, NetParams::default());
    World {
        sim,
        net,
        a,
        b,
        tally: Rc::default(),
        server_rearms: Rc::new(Cell::new(true)),
    }
}

/// Establish a QP pair between two scripted endpoints and return the
/// handles. The server posts `server_recvs` receives up front.
type SharedQp = Rc<RefCell<Option<QpId>>>;
type SharedWcs = Rc<RefCell<Vec<Wc>>>;

fn establish(
    w: &mut World,
    server_recvs: usize,
) -> (SharedQp, SharedQp, SharedWcs, SharedWcs, MrId) {
    let server_mr = w.net.register_mr(w.b, 1 << 20);
    let addr = SocketAddr::new(w.b, 6379);

    let server_qp: Rc<RefCell<Option<QpId>>> = Rc::default();
    let client_qp: Rc<RefCell<Option<QpId>>> = Rc::default();
    let server_wcs: Rc<RefCell<Vec<Wc>>> = Rc::default();
    let client_wcs: Rc<RefCell<Vec<Wc>>> = Rc::default();

    // Server: accept, post receives, then drain completions forever.
    let net = w.net.clone();
    let sq = server_qp.clone();
    let swc = server_wcs.clone();
    let server_cq: Rc<RefCell<Option<skv_netsim::CqId>>> = Rc::default();
    let scq = server_cq.clone();
    let tally = w.tally.clone();
    let rearms = w.server_rearms.clone();
    let server = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
            let Ok(ev) = msg.downcast::<NetEvent>() else {
                return;
            };
            match *ev {
                NetEvent::CmConnectRequest { req, .. } => {
                    let cq = net.create_cq(ctx.id());
                    *scq.borrow_mut() = Some(cq);
                    let qp = net.rdma_accept(ctx, req, cq).expect("fresh CM request");
                    for i in 0..server_recvs {
                        net.post_recv(qp, 1000 + i as u64).unwrap();
                    }
                    *sq.borrow_mut() = Some(qp);
                    net.req_notify_cq(ctx, cq);
                }
                NetEvent::CqNotify { cq } => {
                    let wcs = net.poll_cq(cq, 64);
                    tally.borrow_mut().inc("rdma.cq_notifies");
                    tally.borrow_mut().add("rdma.wcs_polled", wcs.len() as u64);
                    swc.borrow_mut().extend(wcs);
                    if rearms.get() {
                        net.req_notify_cq(ctx, cq);
                    }
                }
                _ => {}
            }
        })));
    w.net.rdma_listen(addr, server);

    // Client: connect and record its QP / completions.
    let net = w.net.clone();
    let cqp = client_qp.clone();
    let cwc = client_wcs.clone();
    let a = w.a;
    let tally = w.tally.clone();
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
                    let wcs = net.poll_cq(cq, 64);
                    tally.borrow_mut().inc("rdma.cq_notifies");
                    tally.borrow_mut().add("rdma.wcs_polled", wcs.len() as u64);
                    cwc.borrow_mut().extend(wcs);
                    net.req_notify_cq(ctx, cq);
                }
                _ => {}
            }
        })));
    let net = w.net.clone();
    let starter = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
            let cq = net.create_cq(client);
            net.req_notify_cq(ctx, cq);
            net.rdma_connect(ctx, a, client, cq, addr);
        })));
    w.sim.schedule(SimTime::ZERO, starter, ());
    w.sim.run_to_completion();

    assert!(server_qp.borrow().is_some(), "connection must establish");
    assert!(client_qp.borrow().is_some(), "connection must establish");
    (client_qp, server_qp, client_wcs, server_wcs, server_mr)
}

/// Post a WR from a one-shot helper actor, run to completion, and return
/// the post result.
fn try_post(w: &mut World, qp: QpId, wr: SendWr) -> Result<(), PostError> {
    let result: Rc<RefCell<Option<Result<(), PostError>>>> = Rc::default();
    let r2 = result.clone();
    let net = w.net.clone();
    let helper = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
            *r2.borrow_mut() = Some(net.post_send(ctx, qp, wr.clone()));
        })));
    w.sim.schedule(w.sim.now(), helper, ());
    w.sim.run_to_completion();
    let r = result.borrow().expect("helper ran");
    r
}

/// [`try_post`] on a QP that must accept the WR.
fn post_from_helper(w: &mut World, qp: QpId, wr: SendWr) {
    try_post(w, qp, wr).unwrap();
}

#[test]
fn cm_establishes_qp_pair() {
    let mut w = world();
    let (cqp, sqp, _, _, _) = establish(&mut w, 0);
    let c = cqp.borrow().unwrap();
    let s = sqp.borrow().unwrap();
    assert_eq!(w.net.qp_node(c), w.a);
    assert_eq!(w.net.qp_node(s), w.b);
    assert_eq!(w.net.qp_peer_addr(c), SocketAddr::new(w.b, 6379));
    assert_eq!(w.net.counters().get("rdma.connections"), 1);
}

#[test]
fn write_imm_moves_real_bytes_and_completes_both_sides() {
    let mut w = world();
    let (cqp, _sqp, cwcs, swcs, server_mr) = establish(&mut w, 4);
    let c = cqp.borrow().unwrap();

    post_from_helper(
        &mut w,
        c,
        SendWr::write_imm(7, server_mr, 128, 0xDEAD, b"replicate me".to_vec()),
    );

    // Receiver side: completion consumed a posted recv, reports offset/imm.
    let swcs = swcs.borrow();
    assert_eq!(swcs.len(), 1);
    let rwc = &swcs[0];
    assert_eq!(rwc.opcode, WcOpcode::RecvRdmaWithImm);
    assert_eq!(rwc.status, WcStatus::Success);
    assert_eq!(rwc.imm, 0xDEAD);
    assert_eq!(rwc.mr_offset, 128);
    assert_eq!(rwc.wr_id, 1000);
    assert_eq!(rwc.byte_len, 12);
    // The bytes physically landed in the MR.
    assert_eq!(w.net.mr_read(server_mr, 128, 12), b"replicate me");

    // Sender side: RDMA_WRITE completion.
    let cwcs = cwcs.borrow();
    assert_eq!(cwcs.len(), 1);
    assert_eq!(cwcs[0].opcode, WcOpcode::RdmaWrite);
    assert_eq!(cwcs[0].wr_id, 7);
}

#[test]
fn plain_write_generates_no_receiver_completion() {
    let mut w = world();
    let (cqp, _sqp, cwcs, swcs, server_mr) = establish(&mut w, 4);
    let c = cqp.borrow().unwrap();

    post_from_helper(
        &mut w,
        c,
        SendWr::new(
            1,
            SendOp::Write {
                remote_mr: server_mr,
                remote_offset: 0,
            },
            vec![9, 9, 9],
        ),
    );
    assert_eq!(swcs.borrow().len(), 0, "one-sided write is silent at peer");
    assert_eq!(cwcs.borrow().len(), 1);
    assert_eq!(w.net.mr_read(server_mr, 0, 3), vec![9, 9, 9]);
}

#[test]
fn send_recv_carries_payload() {
    let mut w = world();
    let (cqp, _sqp, _cwcs, swcs, _mr) = establish(&mut w, 2);
    let c = cqp.borrow().unwrap();

    post_from_helper(
        &mut w,
        c,
        SendWr::new(2, SendOp::Send, b"mr-info-exchange".to_vec()),
    );
    let swcs = swcs.borrow();
    assert_eq!(swcs.len(), 1);
    assert_eq!(swcs[0].opcode, WcOpcode::Recv);
    assert_eq!(swcs[0].data, b"mr-info-exchange");
}

#[test]
fn read_fetches_remote_bytes() {
    let mut w = world();
    let (cqp, _sqp, cwcs, _swcs, server_mr) = establish(&mut w, 0);
    let c = cqp.borrow().unwrap();
    w.net.mr_write(server_mr, 64, b"snapshot-bytes");

    post_from_helper(&mut w, c, SendWr::read(3, server_mr, 64, 14));
    let cwcs = cwcs.borrow();
    assert_eq!(cwcs.len(), 1);
    assert_eq!(cwcs[0].opcode, WcOpcode::RdmaRead);
    assert_eq!(cwcs[0].data, b"snapshot-bytes");
}

#[test]
fn missing_recv_reports_rnr() {
    let mut w = world();
    let (cqp, _sqp, _cwcs, swcs, server_mr) = establish(&mut w, 0);
    let c = cqp.borrow().unwrap();

    post_from_helper(&mut w, c, SendWr::write_imm(4, server_mr, 0, 1, vec![1]));
    let swcs = swcs.borrow();
    assert_eq!(swcs.len(), 1);
    assert_eq!(swcs[0].status, WcStatus::ReceiverNotReady);
    assert_eq!(swcs[0].wr_id, skv_netsim::RNR_WR_ID);
    assert_eq!(w.net.counters().get("rdma.rnr"), 1);
}

#[test]
fn write_to_down_node_errors_at_sender() {
    let mut w = world();
    let (cqp, _sqp, cwcs, swcs, server_mr) = establish(&mut w, 4);
    let c = cqp.borrow().unwrap();
    w.net.set_node_up(w.b, false);

    post_from_helper(&mut w, c, SendWr::write_imm(5, server_mr, 0, 0, vec![42]));
    assert_eq!(swcs.borrow().len(), 0, "down node receives nothing");
    let cwcs = cwcs.borrow();
    assert_eq!(cwcs.len(), 1);
    assert_eq!(cwcs[0].status, WcStatus::RemoteUnreachable);
    // The payload must NOT have been placed.
    assert_eq!(w.net.mr_read(server_mr, 0, 1), vec![0]);
}

/// `(rdma.cq_notifies, rdma.wcs_polled)` fabric snapshot.
fn completion_counts(w: &World) -> (u64, u64) {
    let c = w.net.counters();
    (c.get("rdma.cq_notifies"), c.get("rdma.wcs_polled"))
}

/// Selective signaling: an unsignaled WRITE_WITH_IMM is the same transfer
/// — bytes in the MR, a receive completion at the peer — minus everything
/// on the sender's side of a success: no completion, no notify, no poll.
#[test]
fn unsignaled_write_imm_delivers_but_leaves_the_senders_cq_silent() {
    let mut w = world();
    let (cqp, _sqp, cwcs, swcs, server_mr) = establish(&mut w, 4);
    let c = cqp.borrow().unwrap();

    let (notifies0, polled0) = completion_counts(&w);
    let wr = SendWr::write_imm(7, server_mr, 128, 0xDEAD, b"replicate me".to_vec());
    post_from_helper(&mut w, c, wr.clone().unsignaled());
    {
        let swcs = swcs.borrow();
        assert_eq!(swcs.len(), 1);
        assert_eq!(swcs[0].opcode, WcOpcode::RecvRdmaWithImm);
        assert_eq!(swcs[0].status, WcStatus::Success);
        assert_eq!(swcs[0].imm, 0xDEAD);
        assert_eq!(swcs[0].data, b"replicate me");
    }
    assert_eq!(w.net.mr_read(server_mr, 128, 12), b"replicate me");
    assert!(cwcs.borrow().is_empty(), "nobody asked for this completion");
    let (notifies1, polled1) = completion_counts(&w);
    assert_eq!(
        (notifies1 - notifies0, polled1 - polled0),
        (1, 1),
        "the receiver's completion only"
    );

    // The same WR signaled completes on both sides.
    post_from_helper(&mut w, c, wr);
    assert_eq!(cwcs.borrow().len(), 1);
    assert_eq!(cwcs.borrow()[0].wr_id, 7);
    let (notifies2, polled2) = completion_counts(&w);
    assert_eq!((notifies2 - notifies1, polled2 - polled1), (2, 2));
}

/// Failure detection does not depend on the flag: an unsignaled WR that
/// does not succeed completes with its error status exactly like a
/// signaled one, and moves the QP to the error state where a signaled
/// one would.
#[test]
fn unsignaled_wr_that_fails_still_completes_at_the_sender() {
    use skv_netsim::{FaultPlan, Partition, TimeWindow};

    let unsignaled = |mr, offset| write_imm_wr(9, mr, offset, 1, 5).unsignaled();
    // What the sender sees of one failed unsignaled WR, and what the next
    // post on the same QP returns.
    let outcome = |w: &mut World, c: QpId, cwcs: &SharedWcs, wr: SendWr| {
        post_from_helper(w, c, wr.clone());
        let status = {
            let cwcs = cwcs.borrow();
            assert_eq!(cwcs.len(), 1, "the error completes");
            assert_eq!((cwcs[0].wr_id, cwcs[0].opcode), (9, WcOpcode::RdmaWrite));
            cwcs[0].status
        };
        (status, try_post(w, c, wr))
    };

    // A fault-plan drop: RC retries exhaust.
    let mut w = world();
    let (cqp, _sqp, cwcs, swcs, mr) = establish(&mut w, 4);
    let c = cqp.borrow().unwrap();
    let mut plan = FaultPlan::new(7);
    plan.partitions.push(Partition {
        a: vec![w.a],
        b: vec![w.b],
        window: TimeWindow::new(w.sim.now(), SimTime::from_secs(3600)),
    });
    w.net.set_fault_plan(plan);
    assert_eq!(
        outcome(&mut w, c, &cwcs, unsignaled(mr, 0)),
        (WcStatus::RetryExceeded, Err(PostError::QpError))
    );
    assert!(swcs.borrow().is_empty());

    // A crashed destination node.
    let mut w = world();
    let (cqp, _sqp, cwcs, swcs, mr) = establish(&mut w, 4);
    let c = cqp.borrow().unwrap();
    w.net.set_node_up(w.b, false);
    assert_eq!(
        outcome(&mut w, c, &cwcs, unsignaled(mr, 0)),
        (WcStatus::RemoteUnreachable, Err(PostError::QpError))
    );
    assert!(swcs.borrow().is_empty());

    // A destination QP the peer tore down while the WR was in flight.
    let mut w = world();
    let (cqp, sqp, cwcs, _swcs, mr) = establish(&mut w, 4);
    let (c, s) = (cqp.borrow().unwrap(), sqp.borrow().unwrap());
    let net = w.net.clone();
    let closer = w
        .sim
        .add_actor(Box::new(FnActor::new(move |_ctx, _from, _msg| {
            net.destroy_qp(s);
        })));
    // Posted first, so the WR is on the wire when the peer closes.
    let net = w.net.clone();
    let wr = unsignaled(mr, 0);
    let poster = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
            net.post_send(ctx, c, wr.clone()).unwrap();
        })));
    w.sim.schedule(w.sim.now(), poster, ());
    w.sim.schedule(w.sim.now(), closer, ());
    w.sim.run_to_completion();
    assert_eq!(cwcs.borrow().len(), 1);
    assert_eq!(cwcs.borrow()[0].status, WcStatus::RemoteUnreachable);
    assert_eq!(
        try_post(&mut w, c, unsignaled(mr, 0)),
        Err(PostError::QpError)
    );

    // A range outside the target MR: the requester's protocol error. As
    // for a signaled WR, it completes but leaves the QP usable.
    let mut w = world();
    let (cqp, _sqp, cwcs, swcs, mr) = establish(&mut w, 4);
    let c = cqp.borrow().unwrap();
    assert_eq!(
        outcome(&mut w, c, &cwcs, unsignaled(mr, usize::MAX - 4)),
        (WcStatus::RemoteAccessError, Ok(()))
    );
    assert!(
        swcs.borrow().is_empty(),
        "nothing landed, no receive consumed"
    );
    assert_eq!(w.net.counters().get("rdma.access_errors"), 2);
}

// -- a receive ring registered without contents -------------------------------

/// A 1 KiB ring on the server node that keeps no copy of what lands in it.
fn contents_free_ring(w: &World) -> MrId {
    w.net.register_mr_without_contents(w.b, 1 << 10)
}

/// The receiver reads a ring message from its completion alone: the WC
/// carries the posted bytes, where they landed and the tag, and a plain
/// WRITE into the ring completes like one into a full region.
#[test]
fn a_contents_free_ring_delivers_the_posted_bytes_in_the_completion() {
    let mut w = world();
    let (cqp, _sqp, cwcs, swcs, _mr) = establish(&mut w, 4);
    let c = cqp.borrow().unwrap();
    let ring = contents_free_ring(&w);
    let payload: Vec<u8> = (0..=255u8).cycle().take(300).collect();

    post_from_helper(
        &mut w,
        c,
        SendWr::write_imm(7, ring, 1024 - 300, 0xBEEF, payload.clone()),
    );
    {
        let swcs = swcs.borrow();
        assert_eq!(swcs.len(), 1);
        let rwc = &swcs[0];
        assert_eq!(
            (rwc.opcode, rwc.status),
            (WcOpcode::RecvRdmaWithImm, WcStatus::Success)
        );
        assert_eq!((rwc.imm, rwc.mr_offset, rwc.byte_len), (0xBEEF, 724, 300));
        assert_eq!(&rwc.data[..], &payload[..], "the completion is the message");
    }
    let write = SendWr::new(
        8,
        SendOp::Write {
            remote_mr: ring,
            remote_offset: 0,
        },
        vec![1; 16],
    );
    post_from_helper(&mut w, c, write);
    let statuses: Vec<_> = cwcs.borrow().iter().map(|wc| wc.status).collect();
    assert_eq!(statuses, [WcStatus::Success; 2]);
    assert_eq!(w.net.counters().get("rdma.access_errors"), 0);
}

/// The ring still has its bounds: a WRITE_WITH_IMM past its end is the
/// requester's error, consumes no receive, and leaves the QP usable.
#[test]
fn an_out_of_range_write_imm_into_a_contents_free_ring_fails_and_the_qp_lives() {
    let mut w = world();
    let (cqp, _sqp, cwcs, swcs, _mr) = establish(&mut w, 4);
    let c = cqp.borrow().unwrap();
    let ring = contents_free_ring(&w);

    post_from_helper(&mut w, c, SendWr::write_imm(1, ring, 1020, 5, vec![0; 8]));
    assert_eq!(cwcs.borrow().len(), 1);
    assert_eq!(cwcs.borrow()[0].status, WcStatus::RemoteAccessError);
    assert!(
        swcs.borrow().is_empty(),
        "nothing landed, no receive consumed"
    );
    assert_eq!(w.net.counters().get("rdma.access_errors"), 1);

    // The very next post on the same QP goes through and is delivered.
    post_from_helper(&mut w, c, SendWr::write_imm(2, ring, 1016, 6, vec![3; 8]));
    assert_eq!(cwcs.borrow()[1].status, WcStatus::Success);
    let swcs = swcs.borrow();
    assert_eq!(swcs.len(), 1);
    assert_eq!((swcs[0].wr_id, swcs[0].imm), (1000, 6));
    assert_eq!(swcs[0].data, vec![3; 8]);
}

/// There is nothing to read: a READ of the ring fails, in range or not.
#[test]
fn a_read_of_a_contents_free_ring_fails() {
    let mut w = world();
    let (cqp, _sqp, cwcs, _swcs, _mr) = establish(&mut w, 0);
    let c = cqp.borrow().unwrap();
    let ring = contents_free_ring(&w);

    post_from_helper(&mut w, c, SendWr::read(3, ring, 0, 16));
    let cwcs = cwcs.borrow();
    assert_eq!(cwcs.len(), 1);
    assert_eq!(
        (cwcs[0].opcode, cwcs[0].status),
        (WcOpcode::RdmaRead, WcStatus::RemoteAccessError)
    );
    assert!(cwcs[0].data.is_empty());
    assert_eq!(w.net.counters().get("rdma.access_errors"), 1);
}

/// A READ's completion is its result: the flag cannot suppress it.
#[test]
fn read_posted_unsignaled_still_completes_with_its_data() {
    let mut w = world();
    let (cqp, _sqp, cwcs, _swcs, server_mr) = establish(&mut w, 0);
    let c = cqp.borrow().unwrap();
    w.net.mr_write(server_mr, 64, b"snapshot-bytes");

    post_from_helper(&mut w, c, SendWr::read(3, server_mr, 64, 14).unsignaled());
    let cwcs = cwcs.borrow();
    assert_eq!(cwcs.len(), 1);
    assert_eq!(cwcs[0].opcode, WcOpcode::RdmaRead);
    assert_eq!(cwcs[0].status, WcStatus::Success);
    assert_eq!(cwcs[0].data, b"snapshot-bytes");
}

#[test]
fn figure3_rdma_write_latency_ordering() {
    // Host→host, remote-host→SmartNIC, and local-host→SmartNIC WRITE
    // latencies must reproduce Figure 3's ordering.
    let mut sim = Simulation::new(9);
    let mut topo = Topology::new();
    let master = topo.add_host();
    let remote = topo.add_host();
    let soc = topo.add_smartnic(master);
    let net = Net::install(&mut sim, topo, NetParams::default());

    let l_hh = net.base_latency(master, remote);
    let l_local = net.base_latency(master, soc);
    let l_remote = net.base_latency(remote, soc);
    assert!(l_local < l_hh);
    assert_eq!(l_remote, l_hh);
}

#[test]
fn connect_to_unbound_rdma_port_fails() {
    let mut w = world();
    let failed: Rc<RefCell<u32>> = Rc::default();
    let f2 = failed.clone();
    let client = w
        .sim
        .add_actor(Box::new(FnActor::new(move |_ctx, _from, msg| {
            if let Ok(ev) = msg.downcast::<NetEvent>() {
                if matches!(*ev, NetEvent::CmConnectFailed { .. }) {
                    *f2.borrow_mut() += 1;
                }
            }
        })));
    let net = w.net.clone();
    let a = w.a;
    let b = w.b;
    let starter = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
            let cq = net.create_cq(client);
            net.rdma_connect(ctx, a, client, cq, SocketAddr::new(b, 12345));
        })));
    w.sim.schedule(SimTime::ZERO, starter, ());
    w.sim.run_to_completion();
    assert_eq!(*failed.borrow(), 1);
}

#[test]
fn rejected_connection_reports_failure() {
    let mut w = world();
    let addr = SocketAddr::new(w.b, 6380);
    let net = w.net.clone();
    let server = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
            if let Ok(ev) = msg.downcast::<NetEvent>() {
                if let NetEvent::CmConnectRequest { req, .. } = *ev {
                    net.rdma_reject(ctx, req).expect("fresh CM request");
                }
            }
        })));
    w.net.rdma_listen(addr, server);

    let failed: Rc<RefCell<u32>> = Rc::default();
    let f2 = failed.clone();
    let client = w
        .sim
        .add_actor(Box::new(FnActor::new(move |_ctx, _from, msg| {
            if let Ok(ev) = msg.downcast::<NetEvent>() {
                if matches!(*ev, NetEvent::CmConnectFailed { .. }) {
                    *f2.borrow_mut() += 1;
                }
            }
        })));
    let net = w.net.clone();
    let a = w.a;
    let starter = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
            let cq = net.create_cq(client);
            net.rdma_connect(ctx, a, client, cq, addr);
        })));
    w.sim.schedule(SimTime::ZERO, starter, ());
    w.sim.run_to_completion();
    assert_eq!(*failed.borrow(), 1);
}

#[test]
fn destroyed_qp_rejects_posts() {
    let mut w = world();
    let (cqp, _sqp, _cwcs, _swcs, _mr) = establish(&mut w, 0);
    let c = cqp.borrow().unwrap();
    w.net.destroy_qp(c);

    let result = try_post(&mut w, c, SendWr::new(0, SendOp::Send, Frame::new()));
    assert_eq!(result, Err(PostError::QpClosed));
}

/// Post a doorbell batch from a one-shot helper actor, run to completion,
/// and return one outcome per WR.
fn post_batch_from_helper(
    w: &mut World,
    mut wrs: Vec<(QpId, SendWr)>,
) -> Vec<Result<(), PostError>> {
    let outcomes: Rc<RefCell<Vec<Result<(), PostError>>>> = Rc::default();
    let out2 = outcomes.clone();
    let net = w.net.clone();
    let helper = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
            net.post_send_batch(ctx, &mut wrs, &mut out2.borrow_mut());
        })));
    w.sim.schedule(w.sim.now(), helper, ());
    w.sim.run_to_completion();
    outcomes.take()
}

fn write_imm_wr(wr_id: u64, mr: MrId, offset: usize, imm: u32, byte: u8) -> SendWr {
    SendWr::write_imm(wr_id, mr, offset, imm, vec![byte; 8])
}

#[test]
fn one_qp_batch_rings_one_doorbell_for_many_wrs() {
    let mut w = world();
    let (cqp, _sqp, cwcs, swcs, server_mr) = establish(&mut w, 8);
    let c = cqp.borrow().unwrap();
    let base_doorbells = w.net.counters().get("rdma.doorbells");
    let base_wrs = w.net.counters().get("rdma.wrs_posted");

    let wrs: Vec<(QpId, SendWr)> = (0..3)
        .map(|i| {
            (
                c,
                write_imm_wr(10 + i, server_mr, 64 * i as usize, i as u32, i as u8),
            )
        })
        .collect();
    assert_eq!(post_batch_from_helper(&mut w, wrs), vec![Ok(()); 3]);

    assert_eq!(
        w.net.counters().get("rdma.doorbells") - base_doorbells,
        1,
        "a batch is one doorbell"
    );
    assert_eq!(w.net.counters().get("rdma.wrs_posted") - base_wrs, 3);
    let swcs = swcs.borrow();
    assert_eq!(swcs.len(), 3, "every batched WR delivers");
    assert!(swcs.iter().all(|wc| wc.status == WcStatus::Success));
    let cwcs = cwcs.borrow();
    assert_eq!(cwcs.len(), 3, "every batched WR completes at the sender");
    assert!(cwcs.iter().all(|wc| wc.status == WcStatus::Success));
}

#[test]
fn faulted_wr_mid_batch_errors_its_qp_and_fails_the_next_wr() {
    use skv_netsim::{FaultPlan, Partition, TimeWindow};

    let mut w = world();
    let (cqp, _sqp, cwcs, swcs, server_mr) = establish(&mut w, 8);
    let c = cqp.borrow().unwrap();

    // A clean batch first: both WRs deliver and complete successfully.
    let clean: Vec<(QpId, SendWr)> = (0..2)
        .map(|i| {
            (
                c,
                write_imm_wr(100 + i, server_mr, 64 * i as usize, i as u32, 1),
            )
        })
        .collect();
    assert_eq!(post_batch_from_helper(&mut w, clean), vec![Ok(()); 2]);
    assert_eq!(swcs.borrow().len(), 2);
    assert_eq!(cwcs.borrow().len(), 2);

    // Partition the hosts: every packet from here on is dropped, so the
    // first WR of the next batch draws a Drop verdict deterministically.
    let mut plan = FaultPlan::new(7);
    plan.partitions.push(Partition {
        a: vec![w.a],
        b: vec![w.b],
        window: TimeWindow::new(w.sim.now(), SimTime::from_secs(3600)),
    });
    w.net.set_fault_plan(plan);
    let base_doorbells = w.net.counters().get("rdma.doorbells");
    let base_wrs = w.net.counters().get("rdma.wrs_posted");

    let faulted: Vec<(QpId, SendWr)> = (0..3)
        .map(|i| {
            (
                c,
                write_imm_wr(200 + i, server_mr, 64 * i as usize, i as u32, 2),
            )
        })
        .collect();
    // WR 0 was posted (RC retries exhaust, erroring the QP), so every
    // later WR on that QP fails to post.
    assert_eq!(
        post_batch_from_helper(&mut w, faulted),
        vec![Ok(()), Err(PostError::QpError), Err(PostError::QpError)]
    );
    assert_eq!(
        w.net.counters().get("rdma.wrs_posted") - base_wrs,
        1,
        "only the dropped WR was posted"
    );
    assert_eq!(
        w.net.counters().get("rdma.doorbells") - base_doorbells,
        1,
        "a partially posted batch still rang its doorbell"
    );

    // The posted WR completes — with an error status at the sender — and
    // nothing from the faulted batch reaches the receiver.
    let cwcs = cwcs.borrow();
    assert_eq!(cwcs.len(), 3, "two clean completions plus the retry error");
    assert_eq!(cwcs[2].wr_id, 200);
    assert_eq!(cwcs[2].status, WcStatus::RetryExceeded);
    assert_eq!(swcs.borrow().len(), 2, "receiver saw only the clean batch");
    assert_eq!(w.net.counters().get("rdma.qp_errors"), 1);
}

/// The batch form takes the caller's staging vectors: `wrs` is drained and
/// keeps its capacity, `outcomes` is overwritten in input order with one
/// independent verdict per entry, and a batch rings one doorbell — or
/// none, when nothing in it posts.
#[test]
fn post_batch_reuses_the_callers_staging_buffers() {
    use PostError;

    let mut w = world();
    let (cqp, sqp, _cwcs, _swcs, server_mr) = establish(&mut w, 8);
    let (c, s) = (cqp.borrow().unwrap(), sqp.borrow().unwrap());
    let base_doorbells = w.net.counters().get("rdma.doorbells");
    let base_wrs = w.net.counters().get("rdma.wrs_posted");

    type Outcomes = Vec<Result<(), PostError>>;
    let seen: Rc<RefCell<Vec<(usize, usize, Outcomes)>>> = Rc::default();
    let seen2 = seen.clone();
    let net = w.net.clone();
    let helper = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
            let mut wrs = Vec::with_capacity(8);
            // Stale outcomes of an earlier, longer batch must not survive.
            let mut outcomes: Outcomes = vec![Err(PostError::QpError); 5];
            for round in 0..2u64 {
                wrs.push((c, write_imm_wr(10 * round, server_mr, 0, 1, 1)));
                wrs.push((s, SendWr::new(10 * round + 1, SendOp::Send, Frame::new())));
                wrs.push((c, write_imm_wr(10 * round + 2, server_mr, 64, 3, 3)));
                net.post_send_batch(ctx, &mut wrs, &mut outcomes);
                seen2
                    .borrow_mut()
                    .push((wrs.len(), wrs.capacity(), outcomes.clone()));
                // After round 0 the client tears its QP down: it is closed,
                // and the server's end has no peer left.
                net.destroy_qp(c);
            }
            // Nothing staged: nothing posted.
            net.post_send_batch(ctx, &mut wrs, &mut outcomes);
            seen2
                .borrow_mut()
                .push((wrs.len(), wrs.capacity(), outcomes.clone()));
        })));
    w.sim.schedule(w.sim.now(), helper, ());
    w.sim.run_to_completion();

    let seen = seen.borrow();
    assert_eq!(seen[0], (0, 8, vec![Ok(()); 3]), "drained, capacity kept");
    assert_eq!(
        seen[1],
        (
            0,
            8,
            vec![
                Err(PostError::QpClosed),
                Err(PostError::NotConnected),
                Err(PostError::QpClosed)
            ]
        ),
        "same buffers, one verdict per entry"
    );
    assert_eq!(seen[2], (0, 8, Vec::new()));
    assert_eq!(
        w.net.counters().get("rdma.doorbells") - base_doorbells,
        1,
        "one doorbell for the batch that posted, none for the two that did not"
    );
    assert_eq!(
        w.net.counters().get("rdma.wrs_posted") - base_wrs,
        3,
        "only round 0 reached the fabric"
    );
}

/// `poll_cq_into` appends to the caller's array, honours `max`, and counts
/// what it returns — the same completions `poll_cq` would have returned.
#[test]
fn poll_cq_into_fills_the_callers_array() {
    let mut w = world();
    let mr = w.net.register_mr(w.b, 1 << 10);
    let addr = SocketAddr::new(w.b, 6379);
    // A server that accepts and posts receives but never polls: its CQ
    // keeps every completion for the test to drain by hand.
    let server_cq: Rc<RefCell<Option<skv_netsim::CqId>>> = Rc::default();
    let scq = server_cq.clone();
    let net = w.net.clone();
    let server = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
            if let Ok(ev) = msg.downcast::<NetEvent>() {
                if let NetEvent::CmConnectRequest { req, .. } = *ev {
                    let cq = net.create_cq(ctx.id());
                    *scq.borrow_mut() = Some(cq);
                    let qp = net.rdma_accept(ctx, req, cq).expect("fresh CM request");
                    for i in 0..8 {
                        net.post_recv(qp, i).unwrap();
                    }
                }
            }
        })));
    w.net.rdma_listen(addr, server);
    let net = w.net.clone();
    let a = w.a;
    let client = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
            if let Ok(ev) = msg.downcast::<NetEvent>() {
                if let NetEvent::CmEstablished { qp, .. } = *ev {
                    for i in 0..5 {
                        net.post_send(ctx, qp, write_imm_wr(i, mr, 0, i as u32, 0))
                            .unwrap();
                    }
                }
            }
        })));
    let net = w.net.clone();
    let starter = w
        .sim
        .add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
            let cq = net.create_cq(client);
            net.rdma_connect(ctx, a, client, cq, addr);
        })));
    w.sim.schedule(SimTime::ZERO, starter, ());
    w.sim.run_to_completion();

    let cq = server_cq.borrow().expect("server accepted");
    assert_eq!(w.net.cq_depth(cq), 5);
    let polled_before = w.net.counters().get("rdma.wcs_polled");
    let mut wcs: Vec<Wc> = Vec::with_capacity(16);
    assert_eq!(w.net.poll_cq_into(cq, 2, &mut wcs), 2);
    assert_eq!(w.net.poll_cq_into(cq, 64, &mut wcs), 3, "appends the rest");
    assert_eq!(w.net.poll_cq_into(cq, 64, &mut wcs), 0);
    assert_eq!(wcs.capacity(), 16, "the caller's buffer, not a new one");
    let imms: Vec<u32> = wcs.iter().map(|wc| wc.imm).collect();
    assert_eq!(imms, vec![0, 1, 2, 3, 4], "queue order");
    assert!(wcs
        .iter()
        .all(|wc| wc.opcode == WcOpcode::RecvRdmaWithImm && wc.status == WcStatus::Success));
    assert_eq!(w.net.counters().get("rdma.wcs_polled") - polled_before, 5);
    assert!(
        w.net.poll_cq(cq, 64).is_empty(),
        "the wrapper sees it drained"
    );
}

/// The fabric keeps its counters in fixed slots; the snapshot must still
/// read exactly like a name-keyed map incremented at the same sites.
#[test]
fn counters_snapshot_matches_a_name_keyed_tally() {
    let mut w = world();
    assert_eq!(w.net.counters().iter().count(), 0, "nothing written yet");
    let (cqp, _sqp, _cwcs, _swcs, server_mr) = establish(&mut w, 2);
    let c = cqp.borrow().unwrap();
    w.tally.borrow_mut().inc("rdma.connections");

    let post = |w: &mut World, name: &'static str, wr: SendWr| {
        let mut tally = w.tally.borrow_mut();
        tally.inc(name);
        tally.inc("rdma.wrs_posted");
        tally.add("rdma.bytes", wr.data.len() as u64);
        tally.inc("rdma.doorbells");
        drop(tally);
        post_from_helper(w, c, wr);
    };
    post(
        &mut w,
        "rdma.write_imm",
        write_imm_wr(1, server_mr, 0, 7, 1),
    );
    let send = |wr_id, len: usize| SendWr::new(wr_id, SendOp::Send, vec![2u8; len]);
    post(&mut w, "rdma.sends", send(2, 24));
    // Both posted receives are consumed: this one finds none.
    post(&mut w, "rdma.sends", send(3, 0));
    w.tally.borrow_mut().inc("rdma.rnr");
    let write = |remote_offset| {
        SendWr::new(
            4,
            SendOp::Write {
                remote_mr: server_mr,
                remote_offset,
            },
            vec![3u8; 16],
        )
    };
    post(&mut w, "rdma.writes", write(128));
    post(&mut w, "rdma.writes", write(usize::MAX - 8)); // outside the MR
    w.tally.borrow_mut().inc("rdma.access_errors");
    // An unsignaled success is a posted WR like any other, but nobody is
    // notified of it and nobody polls it.
    let completions = completion_counts(&w);
    post(&mut w, "rdma.writes", write(512).unsignaled());
    assert_eq!(completion_counts(&w), completions);
    let read = SendWr::read(5, server_mr, 0, 8);
    post(&mut w, "rdma.reads", read);
    // A batch is one doorbell for all its WRs.
    let list: Vec<(QpId, SendWr)> = (0..3).map(|i| (c, write(256 + 16 * i))).collect();
    {
        let mut tally = w.tally.borrow_mut();
        tally.add("rdma.writes", 3);
        tally.add("rdma.wrs_posted", 3);
        tally.add("rdma.bytes", 48);
        tally.inc("rdma.doorbells");
    }
    assert_eq!(post_batch_from_helper(&mut w, list), vec![Ok(()); 3]);

    let got: Vec<_> = w.net.counters().iter().collect();
    let want: Vec<_> = w.tally.borrow().iter().collect();
    assert_eq!(got, want);
    assert!(w.net.counters().get("rdma.cq_notifies") > 0);
    assert_eq!(w.net.counters().get("tcp.messages"), 0);
}

#[test]
fn deterministic_event_counts() {
    fn run() -> (u64, u64) {
        let mut w = world();
        let (cqp, _s, _cw, _sw, mr) = establish(&mut w, 8);
        let c = cqp.borrow().unwrap();
        for i in 0..8 {
            post_from_helper(
                &mut w,
                c,
                SendWr::write_imm(i, mr, (i as usize) * 64, i as u32, vec![i as u8; 64]),
            );
        }
        (w.sim.events_processed(), w.net.counters().get("rdma.bytes"))
    }
    assert_eq!(run(), run());
}

// -- one event per delivered completion ------------------------------------
//
// A completion that reaches an armed CQ used to cost two queue entries: the
// arrival at the fabric actor and a zero-delay `CqNotify` to the owner. The
// notify is now handed off inside the arrival event unless something else
// is due at the same instant (DESIGN.md §24). These arms count engine
// dispatches; the one-shot posting helper is one event of its own.

/// `(events popped, handoffs, notifies fired)` so far.
fn dispatch_counts(w: &World) -> (u64, u64, u64) {
    let notifies = w.net.counters().get("rdma.cq_notifies");
    (w.sim.events_processed(), w.sim.handoffs(), notifies)
}

#[test]
fn a_delivery_is_one_event_with_the_notify_inside_it_when_the_cq_is_armed() {
    let mut w = world();
    let (cqp, _sqp, _cwcs, swcs, server_mr) = establish(&mut w, 4);
    let c = cqp.borrow().unwrap();
    let wr = |wr_id| write_imm_wr(wr_id, server_mr, 0, 1, 7).unsignaled();

    let (events0, handoffs0, notifies0) = dispatch_counts(&w);
    post_from_helper(&mut w, c, wr(1));
    let (events1, handoffs1, notifies1) = dispatch_counts(&w);
    assert_eq!(events1 - events0, 2, "the helper and the arrival");
    assert_eq!((handoffs1 - handoffs0, notifies1 - notifies0), (1, 1));
    assert_eq!(swcs.borrow().len(), 1, "the notify ran and polled");

    // The owner polls the next one but leaves its CQ un-armed ...
    w.server_rearms.set(false);
    post_from_helper(&mut w, c, wr(2));
    assert_eq!(swcs.borrow().len(), 2);
    // ... so the one after is an arrival and nothing else: one event, no
    // notify, the completion waits in the CQ.
    let (events2, handoffs2, notifies2) = dispatch_counts(&w);
    post_from_helper(&mut w, c, wr(3));
    let (events3, handoffs3, notifies3) = dispatch_counts(&w);
    assert_eq!(events3 - events2, 2);
    assert_eq!((handoffs3 - handoffs2, notifies3 - notifies2), (0, 0));
    assert_eq!(swcs.borrow().len(), 2);
}

/// The case an unconditional fold would get wrong: two writers on
/// different hosts post at the same instant, so both arrivals land on the
/// server's one CQ in the same nanosecond. The first arrival fires the
/// notify; run inside that event it would poll one completion, re-arm, and
/// the second arrival would fire a second notify. Queued behind the second
/// arrival, as it always was, one notify polls both.
#[test]
fn two_arrivals_in_one_nanosecond_are_still_polled_by_one_notify() {
    let mut sim = Simulation::new(3);
    let mut topo = Topology::new();
    let (a, b, c) = (topo.add_host(), topo.add_host(), topo.add_host());
    let net = Net::install(&mut sim, topo, NetParams::default());
    let mr = net.register_mr(c, 4096);
    let addr = SocketAddr::new(c, 6379);

    // Server: one CQ for every accepted QP; records the size of each poll.
    let polls: Rc<RefCell<Vec<usize>>> = Rc::default();
    let server = sim.add_actor(Box::new(FnActor::new({
        let (net, polls) = (net.clone(), polls.clone());
        let mut the_cq = None;
        move |ctx, _from, msg| {
            let Ok(ev) = msg.downcast::<NetEvent>() else {
                return;
            };
            match *ev {
                NetEvent::CmConnectRequest { req, .. } => {
                    let cq = *the_cq.get_or_insert_with(|| net.create_cq(ctx.id()));
                    let qp = net.rdma_accept(ctx, req, cq).expect("fresh CM request");
                    net.post_recv(qp, 1).unwrap();
                    net.req_notify_cq(ctx, cq);
                }
                NetEvent::CqNotify { cq } => {
                    polls.borrow_mut().push(net.poll_cq(cq, 64).len());
                    net.req_notify_cq(ctx, cq);
                }
                _ => {}
            }
        }
    })));
    net.rdma_listen(addr, server);

    // One writer actor holding a QP on each of the two other hosts.
    let qps: Rc<RefCell<Vec<QpId>>> = Rc::default();
    let writer = sim.add_actor(Box::new(FnActor::new({
        let qps = qps.clone();
        move |_ctx, _from, msg| {
            if let Ok(ev) = msg.downcast::<NetEvent>() {
                if let NetEvent::CmEstablished { qp, .. } = *ev {
                    qps.borrow_mut().push(qp);
                }
            }
        }
    })));
    let script = sim.add_actor(Box::new(FnActor::new({
        let (net, qps) = (net.clone(), qps.clone());
        move |ctx, _from, msg| {
            if msg.downcast::<&str>().is_ok_and(|m| *m == "connect") {
                let cq = net.create_cq(writer);
                net.rdma_connect(ctx, a, writer, cq, addr);
                net.rdma_connect(ctx, b, writer, cq, addr);
            } else {
                for (i, &qp) in qps.borrow().iter().enumerate() {
                    let wr = write_imm_wr(i as u64, mr, 64 * i, 0, 9).unsignaled();
                    net.post_send(ctx, qp, wr).unwrap();
                }
            }
        }
    })));
    sim.schedule(SimTime::ZERO, script, "connect");
    sim.run_to_completion();
    assert_eq!(qps.borrow().len(), 2, "both connections must establish");

    let notifies = net.counters().get("rdma.cq_notifies");
    let (events, handoffs) = (sim.events_processed(), sim.handoffs());
    sim.schedule(sim.now(), script, "post");
    sim.run_to_completion();
    assert_eq!(*polls.borrow(), vec![2], "one notify, both completions");
    assert_eq!(net.counters().get("rdma.cq_notifies") - notifies, 1);
    // The script, two arrivals, and the notify as an event of its own.
    assert_eq!(sim.events_processed() - events, 4);
    assert_eq!(sim.handoffs(), handoffs, "nothing was folded");
}

/// In-flight wire records wait in a slab that grows to the peak number in
/// flight and no further, and every record leaves it when its event fires —
/// also when the arrival finds the destination gone.
#[test]
fn in_flight_records_are_parked_until_they_arrive_and_never_after() {
    let mut w = world();
    let (cqp, sqp, cwcs, _swcs, server_mr) = establish(&mut w, 16);
    let (c, s) = (cqp.borrow().unwrap(), sqp.borrow().unwrap());
    assert_eq!(w.net.in_flight(), 0);
    assert_eq!(w.net.in_flight_peak(), 2, "the two CM established hops");

    // Post five WRs and stop the clock before any of them lands.
    let post_five = |w: &mut World| {
        let net = w.net.clone();
        let helper = w
            .sim
            .add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
                let mut wrs = (0..5)
                    .map(|i| (c, write_imm_wr(i, server_mr, 0, 0, 1)))
                    .collect();
                let mut outcomes = Vec::new();
                net.post_send_batch(ctx, &mut wrs, &mut outcomes);
                assert_eq!(outcomes, vec![Ok(()); 5]);
            })));
        w.sim.schedule(w.sim.now(), helper, ());
        w.sim.run_until(w.sim.now());
    };
    post_five(&mut w);
    assert_eq!((w.net.in_flight(), w.net.in_flight_peak()), (5, 5));
    w.sim.run_to_completion();
    assert_eq!(
        cwcs.borrow().len(),
        5,
        "sender completions were records too"
    );
    assert_eq!((w.net.in_flight(), w.net.in_flight_peak()), (0, 5));

    // The freed slots are reused: the same load does not grow the slab.
    post_five(&mut w);
    w.sim.run_to_completion();
    assert_eq!((w.net.in_flight(), w.net.in_flight_peak()), (0, 5));

    // The peer QP is destroyed with five WRs in flight, and (below) a node
    // crashes: the arrivals are discarded, their error completions are
    // delivered, and nothing stays parked.
    post_five(&mut w);
    w.net.destroy_qp(s);
    w.sim.run_to_completion();
    assert_eq!(cwcs.borrow().len(), 15);
    assert_eq!(
        cwcs.borrow().last().unwrap().status,
        WcStatus::RemoteUnreachable
    );
    assert_eq!((w.net.in_flight(), w.net.in_flight_peak()), (0, 5));

    let mut w = world();
    let (cqp, _sqp, cwcs, _swcs, server_mr) = establish(&mut w, 4);
    w.net.set_node_up(w.b, false);
    post_from_helper(
        &mut w,
        cqp.borrow().unwrap(),
        write_imm_wr(21, server_mr, 0, 0, 1),
    );
    assert_eq!(cwcs.borrow()[0].status, WcStatus::RemoteUnreachable);
    assert_eq!((w.net.in_flight(), w.net.in_flight_peak()), (0, 2));
}

/// `tcp-baseline` allocates one `NetEvent` per delivery: the variant that
/// names an in-flight record must not grow the type.
#[test]
fn net_event_stays_32_bytes() {
    assert_eq!(std::mem::size_of::<NetEvent>(), 32);
}
