//! `ClientLink`'s lifecycle against a scripted server, with no `Cluster`:
//! refused dials and their backoff, a dial answered twice, replies, a
//! burst deeper than one drain's budget, and losing the connection —
//! over RDMA and over TCP. Then one link to two scripted servers on its
//! one CQ: replies tagged with their target, a refused target beside a
//! live one, and closing one target. Last, a history probe's read of
//! three such servers: when it completes and what it observes.

use std::cell::RefCell;
use std::rc::Rc;

use skv_core::channel::{Channel, RING_SIZE};
use skv_core::client::{BenchClient, Probe, Workload};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::conns::{ConnEvent, ConnTable};
use skv_core::cqdrain::{self, POLL_BUDGET};
use skv_core::histcheck::{self, OpRecord};
use skv_core::link::{ClientLink, LinkEvent};
use skv_core::metrics::MetricsHub;
use skv_core::protocol::tag;
use skv_netsim::{Net, NetEvent, NetParams, NodeId, SocketAddr, TcpConnId, Topology};
use skv_simcore::{ActorId, FnActor, SimDuration, SimTime, Simulation};

/// To the owner: dial; send this many commands; sit on `CqNotify`s
/// until released; close one target.
struct Dial;
struct Send(usize);
struct Hold(bool);
struct Close(usize);

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
    let mut link = ClientLink::new(net.clone(), cfg.clone(), client_node, &[addr], None);
    let (l, mut holding, mut held) = (log.clone(), false, Vec::new());
    let owner = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
        let mut inputs = vec![];
        match msg.downcast::<Dial>() {
            Ok(_) => return link.dial_all(ctx),
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
            while let Some((target, ev)) = link.next_event(ctx) {
                assert_eq!(target, 0);
                let what = match ev {
                    LinkEvent::Up => "up".to_string(),
                    LinkEvent::Reply(p) => {
                        assert_eq!(&p[..], b"PING");
                        replies += 1;
                        continue;
                    }
                    LinkEvent::Lost { by_peer } => {
                        link.close(ctx);
                        assert!(!link.connected(0) && !link.broken());
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

    let server = scripted_server(&mut sim, &net, server_node, addr, b"PING", None);

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

/// A server at `addr` that, once told to [`Listen`], answers each command
/// with `answer` (or, without one, the command's own bytes) — keeping its
/// answers while told to [`Hold`] —, sends `burst` unasked on its first
/// connection per [`Burst`], and closes its TCP connections on [`HangUp`].
fn scripted_server(
    sim: &mut Simulation,
    net: &Net,
    server_node: NodeId,
    addr: SocketAddr,
    burst: &'static [u8],
    answer: Option<&'static [u8]>,
) -> ActorId {
    let n = net.clone();
    let mut conns: ConnTable<()> = ConnTable::new(None);
    let mut tcps: Vec<TcpConnId> = Vec::new();
    let (mut holding, mut held) = (false, Vec::new());
    sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
        let msg = match msg.downcast::<Listen>() {
            Ok(_) => {
                n.rdma_listen(addr, ctx.id());
                return n.tcp_listen(addr, ctx.id());
            }
            Err(msg) => msg,
        };
        let msg = match msg.downcast::<Burst>() {
            Ok(count) => {
                for _ in 0..count.0 {
                    conns.send(&n, ctx, 0, tag::REPLY, burst.to_vec());
                }
                return;
            }
            Err(msg) => msg,
        };
        let msg = match msg.downcast::<HangUp>() {
            Ok(_) => return tcps.drain(..).for_each(|tcp| n.tcp_close(ctx, tcp)),
            Err(msg) => msg,
        };
        let mut cmds = Vec::new();
        let ev = match msg.downcast::<Hold>() {
            Ok(hold) => {
                holding = hold.0;
                cmds.append(&mut held);
                None
            }
            Err(msg) => msg.downcast::<NetEvent>().ok(),
        };
        if let Some(ev) = ev {
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
        }
        if holding {
            return held.append(&mut cmds);
        }
        for (conn, m) in cmds {
            assert_eq!(m.tag, tag::CMD);
            let reply = answer.map_or(m.payload, |a| a.to_vec().into());
            conns.send(&n, ctx, conn, tag::REPLY, reply);
        }
    })))
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

/// One link to two servers, all on the link's one CQ. Server 1 listens
/// only from 30 ms, so its first dial is refused while server 0 serves;
/// both then answer one command each and burst unasked into one held
/// drain; then target 0 is closed and target 1 keeps serving.
#[test]
fn two_targets_share_one_cq() {
    let cfg = ClusterConfig::for_mode(Mode::Skv);
    let mut sim = Simulation::new(29);
    let mut topo = Topology::new();
    let client_node = topo.add_host();
    let nodes = [topo.add_host(), topo.add_host()];
    let net = Net::install(&mut sim, topo, NetParams::default());
    let addrs = nodes.map(|n| SocketAddr::new(n, 6379));

    // `(instant, target, what)`, one entry per event.
    let log: Rc<RefCell<Vec<(SimTime, usize, String)>>> = Rc::default();
    let mut link = ClientLink::new(net.clone(), cfg.clone(), client_node, &addrs, None);
    let (l, mut holding, mut held) = (log.clone(), false, Vec::new());
    let owner = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
        let mut inputs = vec![];
        match msg.downcast::<Dial>() {
            Ok(_) => return link.dial_all(ctx),
            Err(msg) => match msg.downcast::<Send>() {
                Ok(n) => return (0..n.0).for_each(|_| link.send(ctx, b"PING".to_vec())),
                Err(msg) => match msg.downcast::<Close>() {
                    Ok(t) => return link.close_target(ctx, t.0),
                    Err(msg) => match msg.downcast::<Hold>() {
                        Ok(hold) => {
                            holding = hold.0;
                            inputs.append(&mut held);
                        }
                        Err(msg) if holding && msg.is::<NetEvent>() => return held.push(msg),
                        Err(msg) => inputs.push(msg),
                    },
                },
            },
        }
        for msg in inputs {
            link.accept(ctx, msg);
            while let Some((target, ev)) = link.next_event(ctx) {
                let what = match ev {
                    LinkEvent::Up => "up".to_string(),
                    LinkEvent::Reply(p) => String::from_utf8_lossy(&p).into_owned(),
                    LinkEvent::Lost { .. } => "lost".to_string(),
                    // Redial every 10 ms until server 1 listens.
                    LinkEvent::Refused(_) => {
                        ctx.timer(SimDuration::from_millis(10), Dial);
                        "refused".to_string()
                    }
                };
                l.borrow_mut().push((ctx.now(), target, what));
            }
        }
    })));
    let servers = [
        scripted_server(&mut sim, &net, nodes[0], addrs[0], b"from 0", None),
        scripted_server(&mut sim, &net, nodes[1], addrs[1], b"from 1", None),
    ];

    sim.schedule(ms(0), servers[0], Listen);
    sim.schedule(ms(0), owner, Dial);
    sim.schedule(ms(30), servers[1], Listen);
    // Target 1 is still refused: only target 0 answers.
    sim.schedule(ms(5), owner, Send(2));
    // Both up: one command reaches both; then both burst into one drain.
    sim.schedule(ms(50), owner, Send(1));
    sim.schedule(ms(60), owner, Hold(true));
    sim.schedule(ms(61), servers[1], Burst(3));
    sim.schedule(ms(62), servers[0], Burst(2));
    sim.schedule(ms(70), owner, Hold(false));
    // Target 0 closed: its burst reaches nobody, target 1's still lands.
    sim.schedule(ms(80), owner, Close(0));
    sim.schedule(ms(85), owner, Send(1));
    sim.schedule(ms(90), servers[0], Burst(2));
    sim.schedule(ms(95), servers[1], Burst(1));
    sim.run_until(ms(100));

    let log = log.borrow();
    let between = |from: u64, to: u64| -> Vec<(usize, &str)> {
        let window = log
            .iter()
            .filter(|(at, ..)| *at >= ms(from) && *at < ms(to));
        window.map(|(_, t, w)| (*t, w.as_str())).collect()
    };
    let early = between(0, 30);
    assert!(
        early.contains(&(0, "up")) && early.contains(&(1, "refused")),
        "{log:?}"
    );
    assert_eq!(
        early.iter().filter(|e| e.1 == "PING").collect::<Vec<_>>(),
        [&(0, "PING"), &(0, "PING")],
        "{log:?}"
    );
    assert!(between(30, 50).contains(&(1, "up")), "{log:?}");
    let mut both = between(50, 60);
    both.sort_unstable();
    assert_eq!(both, [(0, "PING"), (1, "PING")], "{log:?}");
    // One drain, in completion order, each tagged with its target.
    let drained = between(60, 80);
    let expected = [
        (1, "from 1"),
        (1, "from 1"),
        (1, "from 1"),
        (0, "from 0"),
        (0, "from 0"),
    ];
    assert_eq!(drained, expected, "{log:?}");
    assert_eq!(between(80, 100), [(1, "PING"), (1, "from 1")], "{log:?}");
}

/// A reader probe of three servers with a read quorum of 2, whose targets
/// answer every GET with stamps 5 (the anchor), 7 and 9; `held` keeps its
/// answers until 30 ms. The anchor listens only from 1 ms, so the first
/// read waits for its redial although both peers were up. Returns the
/// first read and the servers' addresses.
fn first_quorum_read(held: usize) -> (OpRecord, [SocketAddr; 3]) {
    let cfg = ClusterConfig::for_mode(Mode::Skv);
    let mut sim = Simulation::new(31);
    let mut topo = Topology::new();
    let client_node = topo.add_host();
    let nodes = [topo.add_host(), topo.add_host(), topo.add_host()];
    let net = Net::install(&mut sim, topo, NetParams::default());
    let addrs = nodes.map(|n| SocketAddr::new(n, 6379));
    let stamps: [&'static [u8]; 3] = [b"$1\r\n5\r\n", b"$1\r\n7\r\n", b"$1\r\n9\r\n"];
    for i in 0..3 {
        let server = scripted_server(&mut sim, &net, nodes[i], addrs[i], b"", Some(stamps[i]));
        sim.schedule(ms(u64::from(i == 0)), server, Listen);
        if i == held {
            sim.schedule(ms(0), server, Hold(true));
            sim.schedule(ms(30), server, Hold(false));
        }
    }
    let workload = Workload {
        pipeline: 1,
        set_ratio: 0.0,
        mset_keys: 0,
        key_space: 1,
        value_size: 0,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
        start_at: ms(0),
        stop_at: ms(35),
    };
    let probe = Probe {
        key_base: 0,
        peers: addrs[1..].to_vec(),
        read_quorum: 2,
    };
    let metrics = MetricsHub::new(ms(0), ms(40));
    let mut reader = BenchClient::new(
        net.clone(),
        cfg,
        client_node,
        addrs[0],
        workload,
        metrics,
        Some(probe),
    );
    let history = histcheck::new_history();
    reader.record_into(0, history.clone());
    sim.add_actor(Box::new(reader));
    sim.run_until(ms(40));
    let first = history.borrow().ops.first().cloned().expect("a read");
    (first, addrs)
}

#[test]
fn a_quorum_read_waits_for_the_anchor_and_observes_the_max() {
    // Both peers answer at once (a quorum of two), but the held anchor
    // decides: the read completes when it answers, with all three.
    let (read, addrs) = first_quorum_read(0);
    assert!(
        read.invoked >= ms(10),
        "issued before the anchor was up: {read:?}"
    );
    assert!(read.completed.is_some_and(|at| at >= ms(30)), "{read:?}");
    assert_eq!(
        (read.ok, read.seq, read.read_set),
        (true, 9, addrs.to_vec())
    );
    // Peer 2 held: the anchor and peer 1 are the quorum, long before
    // peer 2 answers, and the read observes the larger of their stamps.
    let (read, addrs) = first_quorum_read(2);
    assert!(read.completed.is_some_and(|at| at < ms(30)), "{read:?}");
    assert_eq!(
        (read.ok, read.seq, read.read_set),
        (true, 7, addrs[..2].to_vec())
    );
}
