//! `ClientLink`'s lifecycle against a scripted server, with no `Cluster`:
//! refused dials and their backoff, a dial answered twice, replies, a
//! burst deeper than one drain's budget, and losing the connection —
//! over RDMA and over TCP.

use std::cell::RefCell;
use std::rc::Rc;

use skv_core::channel::{Channel, RING_SIZE};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::conns::{ConnEvent, ConnTable};
use skv_core::cqdrain::{self, POLL_BUDGET};
use skv_core::link::{ClientLink, LinkEvent};
use skv_core::protocol::tag;
use skv_netsim::{Net, NetEvent, NetParams, SocketAddr, TcpConnId, Topology};
use skv_simcore::{FnActor, SimDuration, SimTime, Simulation};

/// To the owner: dial; send this many commands; sit on `CqNotify`s
/// until released.
struct Dial;
struct Send(usize);
struct Hold(bool);

/// To the scripted server: start listening; send this many unasked
/// replies; close the TCP connection.
struct Listen;
struct Burst(usize);
struct HangUp;

fn ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// What the owner saw, as `(instant, what)`: `up`, `lost` /
/// `lost by peer`, `refused <delay>`, and `<n> replies` once per
/// accepted transport message that carried any.
type Log = Rc<RefCell<Vec<(SimTime, String)>>>;

fn said(log: &Log, what: &str) -> Vec<SimTime> {
    let log = log.borrow();
    let hits = log.iter().filter(|(_, w)| w.starts_with(what));
    hits.map(|(at, _)| *at).collect()
}

/// A link owned by a bare actor — it closes on `Lost`, redials after a
/// refusal's delay, and logs — against a server that answers each
/// command with its own bytes, over the transport `mode` uses.
fn lifecycle(mode: Mode) -> (Log, ClusterConfig) {
    let cfg = ClusterConfig::for_mode(mode);
    let mut sim = Simulation::new(23);
    let mut topo = Topology::new();
    let client_node = topo.add_host();
    let server_node = topo.add_host();
    let net = Net::install(&mut sim, topo, NetParams::default());
    let addr = SocketAddr::new(server_node, 6379);

    let log: Log = Rc::default();
    let mut link = ClientLink::new(net.clone(), cfg.clone(), client_node, addr, None);
    let (l, mut holding, mut held) = (log.clone(), false, Vec::new());
    let owner = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
        let mut inputs = vec![];
        match msg.downcast::<Dial>() {
            Ok(_) => return link.dial(ctx),
            Err(msg) => match msg.downcast::<Send>() {
                Ok(n) => return (0..n.0).for_each(|_| link.send(ctx, b"PING".to_vec())),
                Err(msg) => match msg.downcast::<Hold>() {
                    Ok(hold) => {
                        holding = hold.0;
                        inputs.append(&mut held);
                    }
                    Err(msg) if holding && msg.is::<NetEvent>() => return held.push(msg),
                    Err(msg) => inputs.push(msg),
                },
            },
        }
        for msg in inputs {
            link.accept(ctx, msg);
            let mut replies = 0;
            while let Some(ev) = link.next_event(ctx) {
                let what = match ev {
                    LinkEvent::Up => "up".to_string(),
                    LinkEvent::Reply(p) => {
                        assert_eq!(&p[..], b"PING");
                        replies += 1;
                        continue;
                    }
                    LinkEvent::Lost { by_peer } => {
                        link.close(ctx);
                        assert!(!link.connected() && !link.broken());
                        if by_peer { "lost by peer" } else { "lost" }.to_string()
                    }
                    LinkEvent::Refused(delay) => {
                        ctx.timer(delay, Dial);
                        format!("refused {delay:?}")
                    }
                };
                l.borrow_mut().push((ctx.now(), what));
            }
            if replies > 0 {
                l.borrow_mut()
                    .push((ctx.now(), format!("{replies} replies")));
            }
        }
    })));

    let n = net.clone();
    let mut conns: ConnTable<()> = ConnTable::new(None);
    let mut tcps: Vec<TcpConnId> = Vec::new();
    let server = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
        let msg = match msg.downcast::<Listen>() {
            Ok(_) => {
                n.rdma_listen(addr, ctx.id());
                return n.tcp_listen(addr, ctx.id());
            }
            Err(msg) => msg,
        };
        let msg = match msg.downcast::<Burst>() {
            Ok(burst) => {
                for _ in 0..burst.0 {
                    conns.send(&n, ctx, 0, tag::REPLY, b"PING".to_vec());
                }
                return;
            }
            Err(msg) => msg,
        };
        let msg = match msg.downcast::<HangUp>() {
            Ok(_) => return tcps.drain(..).for_each(|tcp| n.tcp_close(ctx, tcp)),
            Err(msg) => msg,
        };
        let Ok(ev) = msg.downcast::<NetEvent>() else {
            return;
        };
        let mut cmds = Vec::new();
        match *ev {
            NetEvent::CmConnectRequest { req, .. } => {
                let cq = n.create_cq(ctx.id());
                n.req_notify_cq(ctx, cq);
                n.rdma_accept(ctx, req, cq).expect("fresh CM request");
            }
            NetEvent::CmEstablished { qp, .. } => {
                conns.add(Channel::rdma(&n, ctx, server_node, qp, RING_SIZE), (), None);
            }
            NetEvent::TcpAccepted { conn, .. } => {
                tcps.push(conn);
                conns.add(Channel::tcp(conn), (), None);
            }
            NetEvent::CqNotify { cq } => {
                let mut wcs = conns.take_wcs();
                cqdrain::drain_budgeted(&n, ctx, cq, POLL_BUDGET, &mut wcs, |ctx, wc| {
                    let conn = conns.conn_of_qp(wc.qp).expect("known QP");
                    if let ConnEvent::Msg(m) = conns.on_wc(&n, ctx, conn, &wc) {
                        cmds.push((conn, m));
                    }
                });
                conns.put_wcs(wcs);
            }
            NetEvent::TcpDelivered { conn, bytes } => {
                let conn = conns.conn_of_tcp(conn).expect("known connection");
                let mut msgs = conns.on_tcp_bytes(conn, bytes);
                cmds.extend(msgs.drain(..).map(|m| (conn, m)));
                conns.put_msgs(msgs);
            }
            _ => {}
        }
        for (conn, m) in cmds {
            assert_eq!(m.tag, tag::CMD);
            conns.send(&n, ctx, conn, tag::REPLY, m.payload);
        }
    })));

    // Nobody listens for 65 ms: three refusals, 10 + 20 + 40 ms apart.
    sim.schedule(ms(0), owner, Dial);
    sim.schedule(ms(65), server, Listen);
    // The fourth dial (at 70.12 ms) connects — and over RDMA so does
    // a fifth, made before the fourth was answered.
    if mode.uses_rdma() {
        let before_the_answer = SimTime::ZERO + SimDuration::from_micros(70_130);
        sim.schedule(before_the_answer, owner, Dial);
    }
    sim.schedule(ms(100), owner, Send(2));
    // A burst deeper than one drain's budget, all queued before the
    // owner lets the link see its notify.
    sim.schedule(ms(110), owner, Hold(true));
    sim.schedule(ms(111), server, Burst(100));
    sim.schedule(ms(120), owner, Hold(false));
    // The server hangs up (TCP) and its machine dies: three more
    // commands run into that, and the redial is refused — from the
    // base delay again.
    sim.schedule(ms(130), server, HangUp);
    let (n, down) = (net.clone(), server_node);
    let crash = sim.add_actor(Box::new(FnActor::new(move |_, _, _| {
        n.set_node_up(down, false);
    })));
    sim.schedule(ms(135), crash, ());
    sim.schedule(ms(140), owner, Send(3));
    sim.schedule(ms(160), owner, Dial);
    sim.run_until(ms(165));
    (log, cfg)
}

fn assert_common(log: &Log, cfg: &ClusterConfig) {
    // Refusals back off along `client_dial_delay`, and the count
    // starts over once a dial has connected.
    let delays: Vec<String> = [1, 2, 3, 1]
        .map(|attempt| format!("refused {:?}", cfg.client_dial_delay(attempt)))
        .to_vec();
    let log = log.borrow();
    let refused: Vec<&String> = log
        .iter()
        .map(|(_, what)| what)
        .filter(|w| w.starts_with("refused"))
        .collect();
    assert_eq!(refused, delays.iter().collect::<Vec<_>>(), "{log:?}");
    assert_eq!(cfg.client_dial_delay(3), SimDuration::from_millis(40));
}

#[test]
fn rdma_link_lifecycle() {
    let (log, cfg) = lifecycle(Mode::Skv);
    assert_common(&log, &cfg);
    // The QP of the second established dial is left unused.
    assert_eq!(said(&log, "up").len(), 1, "{log:?}");
    assert_eq!(
        said(&log, "2 replies").len() + said(&log, "1 replies").len(),
        2
    );
    // 100 queued completions: one budget's worth, then the rest in a
    // continuation at the same instant.
    let (first, rest) = (said(&log, "64 replies"), said(&log, "36 replies"));
    assert_eq!((first.len(), rest.len()), (1, 1), "{log:?}");
    assert_eq!(first, rest, "the continuation does not wait");
    assert!(first[0] >= ms(120));
    // Three commands into a dead QP are three error completions and
    // one loss.
    assert_eq!(said(&log, "lost").len(), 1, "{log:?}");
    assert!(said(&log, "lost by peer").is_empty());
}

#[test]
fn tcp_link_lifecycle() {
    let (log, cfg) = lifecycle(Mode::TcpRedis);
    assert_common(&log, &cfg);
    assert_eq!(said(&log, "up").len(), 1, "{log:?}");
    // One delivery per frame: no CQ, no budget.
    assert_eq!(said(&log, "1 replies").len(), 2 + 100, "{log:?}");
    // The server's close is reported once; commands sent after it go
    // nowhere and report nothing.
    assert_eq!(said(&log, "lost by peer").len(), 1, "{log:?}");
    assert_eq!(said(&log, "lost").len(), 1);
}
