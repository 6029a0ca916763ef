//! Layer replays: after a workload's reps, call each layer's public
//! functions directly with inputs drawn from the workload's own op mix (key
//! format, value size, SET ratio, Zipf θ, same seed) and time them from
//! outside the program.
//!
//! Every replay runs for at least [`MIN_RUN`]; a calibration pass sits
//! between consecutive replays, and each result is reported raw (`*_ns`,
//! host nanoseconds per call) and calibration-normalised (`*_ucal`,
//! millionths of a calibration pass per call).
//!
//! What cannot be replayed is the actor glue inside `server.rs`,
//! `nickv.rs` and `client.rs`: it has no public entry point. The part of a
//! measured window the replays do account for is `bench.replay_share`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use skv_core::channel::Channel;
use skv_core::client::{Workload as ClientMix, WorkloadGen};
use skv_core::cluster::RunSpec;
use skv_core::hotcache::{CachePolicyKind, HotCache};
use skv_core::protocol::{key_hash_slot, tag, NodeMsg};
use skv_core::shard::ShardRouter;
use skv_netsim::{
    Frame, Net, NetEvent, NetParams, NodeId, SocketAddr, TcpConnId, Topology, WcOpcode,
};
use skv_simcore::{
    Actor, ActorId, Context, DetRng, FnActor, Payload, SimDuration, SimTime, Simulation,
};
use skv_store::backlog::Backlog;
use skv_store::db::Db;
use skv_store::engine::Engine;
use skv_store::rdb;
use skv_store::resp::{Decoded, Resp};

use crate::cal;
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Shortest time one replay is measured for.
const MIN_RUN: Duration = Duration::from_millis(50);
/// Commands drawn from the workload's generator for the replays.
const SAMPLE: usize = 1024;

/// One replayed function: host time per call.
pub struct Replay {
    /// One of `metrics::REPLAYS`: `<crate>.<module>.<function>_{}`, where
    /// `{}` becomes `ns` or `ucal` in the metric name.
    pub name: &'static str,
    pub calls: u64,
    pub ns: f64,
    pub ucal: f64,
}

/// All replays of one workload.
pub struct Replays {
    pub all: Vec<Replay>,
    /// Engine events one post→poll round / one TCP send costs, so the
    /// event-loop floor is not counted twice in `bench.replay_share`.
    pub events_per_post_poll: f64,
    pub events_per_tcp_send: f64,
}

impl Replays {
    pub fn ns(&self, name: &str) -> f64 {
        self.all
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.ns)
    }
}

/// Inputs in the workload's own shape.
struct Inputs {
    /// Generated commands, in issue order (the workload's SET/GET mix).
    commands: Vec<Resp>,
    /// The same commands on the wire.
    encoded: Vec<Vec<u8>>,
    /// The same commands as argument lists.
    args: Vec<Vec<Vec<u8>>>,
    /// The key of each command, then a SET and a GET of that key.
    keys: Vec<Vec<u8>>,
    sets: Vec<Vec<Vec<u8>>>,
    gets: Vec<Vec<Vec<u8>>>,
    /// One SET on the wire: the replication stream's unit, and the payload
    /// of the fabric replays.
    set_wire: Vec<u8>,
    value: Vec<u8>,
}

impl Inputs {
    fn draw(spec: &RunSpec) -> Inputs {
        let mix = ClientMix {
            pipeline: spec.pipeline,
            set_ratio: spec.set_ratio,
            mset_keys: spec.mset_keys,
            key_space: spec.key_space,
            value_size: spec.value_size,
            zipf_theta: spec.zipf_theta,
            zipf_shift_every: spec.zipf_shift_every,
            start_at: SimTime::ZERO,
            stop_at: SimTime::MAX,
        };
        let mut gen = WorkloadGen::new(&mix, DetRng::new(spec.seed));
        let value = vec![b'x'; spec.value_size];
        let mut inputs = Inputs {
            commands: Vec::new(),
            encoded: Vec::new(),
            args: Vec::new(),
            keys: Vec::new(),
            sets: Vec::new(),
            gets: Vec::new(),
            set_wire: Vec::new(),
            value,
        };
        for _ in 0..SAMPLE {
            let (cmd, _is_write, keys) = gen.next_command_stamped(None);
            let key = keys[0].clone().into_bytes();
            inputs.encoded.push(cmd.encode());
            inputs.args.push(
                cmd.clone()
                    .into_command_args()
                    .expect("generated commands are arrays of bulks"),
            );
            inputs.commands.push(cmd);
            inputs
                .sets
                .push(vec![b"SET".to_vec(), key.clone(), inputs.value.clone()]);
            inputs.gets.push(vec![b"GET".to_vec(), key.clone()]);
            inputs.keys.push(key);
        }
        inputs.set_wire = Resp::command(inputs.sets[0].iter().map(Vec::as_slice)).encode();
        inputs
    }
}

/// Runs replays one after another with a calibration pass between them.
struct Runner<'a> {
    tr: &'a mut Tracer,
    last_cal: Duration,
    done: Vec<Replay>,
}

impl Runner<'_> {
    /// Time `batch` (which returns how many calls it made) over and over
    /// until [`MIN_RUN`] has passed.
    fn run(&mut self, name: &'static str, mut batch: impl FnMut() -> u64) {
        self.run_prepared(name, &mut (), |()| {}, |()| batch());
    }

    /// Like [`Runner::run`], with an untimed `prepare` step before every
    /// timed batch; both work on `state`.
    fn run_prepared<S>(
        &mut self,
        name: &'static str,
        state: &mut S,
        mut prepare: impl FnMut(&mut S),
        mut batch: impl FnMut(&mut S) -> u64,
    ) {
        let span = self.tr.open(|| format!("replay {name}"));
        let (mut calls, mut timed) = (0, Duration::ZERO);
        while timed < MIN_RUN {
            prepare(state);
            let start = Instant::now();
            calls += batch(state);
            timed += start.elapsed();
        }
        self.tr.close(span);
        let cal_after = cal::traced_pass(self.tr);
        let ns = timed.as_nanos() as f64 / calls.max(1) as f64;
        let cal_ns = 0.5 * (self.last_cal.as_nanos() + cal_after.as_nanos()) as f64;
        self.last_cal = cal_after;
        self.done.push(Replay {
            name,
            calls,
            ns,
            ucal: ns / cal_ns * 1e6,
        });
    }
}

// ---------------------------------------------------------------------------
// fabric worlds
// ---------------------------------------------------------------------------

const REPLAY_PORT: u16 = 6379;
const RING_SIZE: usize = 1 << 20;

/// Driver → endpoint: send `n` messages.
struct Burst(u64);
/// Driver → RDMA client: dial the server.
struct Dial(SocketAddr);

/// One end of an RDMA [`Channel`]. The client keeps one `WRITE_WITH_IMM`
/// in flight: each send completion it polls posts the next message.
struct RdmaPeer {
    net: Net,
    node: NodeId,
    channel: Option<Channel>,
    payload: Frame,
    to_send: u64,
    received: u64,
}

impl RdmaPeer {
    fn new(net: Net, node: NodeId, payload: Frame) -> RdmaPeer {
        RdmaPeer {
            net,
            node,
            channel: None,
            payload,
            to_send: 0,
            received: 0,
        }
    }

    fn send_one(&mut self, ctx: &mut Context<'_>) {
        if let Some(ch) = &mut self.channel {
            self.to_send -= 1;
            ch.send(&self.net, ctx, tag::CMD, self.payload.clone());
        }
    }
}

impl Actor for RdmaPeer {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, msg: Payload) {
        let msg = match msg.downcast::<NetEvent>() {
            Ok(ev) => {
                match *ev {
                    NetEvent::CmConnectRequest { req, .. } => {
                        let cq = self.net.create_cq(ctx.id());
                        self.net.req_notify_cq(ctx, cq);
                        let _ = self.net.rdma_accept(ctx, req, cq);
                    }
                    // Both ends wrap the QP once it is established, so each
                    // has posted receives before the other's MR handshake
                    // lands (as `KvServer` does).
                    NetEvent::CmEstablished { qp, .. } => {
                        self.channel =
                            Some(Channel::rdma(&self.net, ctx, self.node, qp, RING_SIZE));
                    }
                    NetEvent::CqNotify { cq } => {
                        for wc in self.net.poll_cq(cq, 64) {
                            let Some(ch) = &mut self.channel else {
                                continue;
                            };
                            if ch.on_wc(&self.net, ctx, &wc).is_some() {
                                self.received += 1;
                            } else if wc.opcode == WcOpcode::RdmaWrite && self.to_send > 0 {
                                self.send_one(ctx);
                            }
                        }
                        self.net.req_notify_cq(ctx, cq);
                    }
                    _ => {}
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<Dial>() {
            Ok(dial) => {
                let cq = self.net.create_cq(ctx.id());
                self.net.req_notify_cq(ctx, cq);
                self.net.rdma_connect(ctx, self.node, ctx.id(), cq, dial.0);
                return;
            }
            Err(other) => other,
        };
        if let Ok(burst) = msg.downcast::<Burst>() {
            self.to_send = burst.0;
            self.send_one(ctx);
        }
    }
}

struct RdmaWorld {
    sim: Simulation,
    client: ActorId,
    server: ActorId,
}

impl RdmaWorld {
    fn connect(payload: &[u8]) -> RdmaWorld {
        let mut sim = Simulation::new(1);
        let mut topo = Topology::new();
        let (a, b) = (topo.add_host(), topo.add_host());
        let net = Net::install(&mut sim, topo, NetParams::default());
        let payload = Frame::from(payload.to_vec());
        let server = sim.add_actor(Box::new(RdmaPeer::new(net.clone(), b, payload.clone())));
        let client = sim.add_actor(Box::new(RdmaPeer::new(net.clone(), a, payload)));
        let addr = SocketAddr::new(b, REPLAY_PORT);
        net.rdma_listen(addr, server);
        sim.schedule(SimTime::ZERO, client, Dial(addr));
        sim.run_to_completion();
        RdmaWorld {
            sim,
            client,
            server,
        }
    }

    fn received(&self) -> u64 {
        self.sim
            .actor_ref::<RdmaPeer>(self.server)
            .map_or(0, |p| p.received)
    }

    /// Send `n` messages client → server, one in flight at a time.
    fn burst(&mut self, n: u64) -> u64 {
        let before = self.received();
        self.sim.schedule(self.sim.now(), self.client, Burst(n));
        self.sim.run_to_completion();
        assert_eq!(self.received() - before, n, "RDMA replay lost messages");
        n
    }
}

struct TcpWorld {
    sim: Simulation,
    sender: ActorId,
    delivered: std::rc::Rc<std::cell::Cell<u64>>,
}

impl TcpWorld {
    fn connect(payload: &[u8]) -> TcpWorld {
        let mut sim = Simulation::new(1);
        let mut topo = Topology::new();
        let (a, b) = (topo.add_host(), topo.add_host());
        let net = Net::install(&mut sim, topo, NetParams::default());
        let delivered = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let seen = delivered.clone();
        let receiver = sim.add_actor(Box::new(FnActor::new(move |_ctx, _from, msg| {
            if let Ok(ev) = msg.downcast::<NetEvent>() {
                if let NetEvent::TcpDelivered { .. } = *ev {
                    seen.set(seen.get() + 1);
                }
            }
        })));
        let addr = SocketAddr::new(b, REPLAY_PORT);
        net.tcp_listen(addr, receiver);
        let payload = Frame::from(payload.to_vec());
        let mut conn: Option<TcpConnId> = None;
        let sender_net = net.clone();
        let sender = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
            let msg = match msg.downcast::<NetEvent>() {
                Ok(ev) => {
                    if let NetEvent::TcpConnected { conn: c, .. } = *ev {
                        conn = Some(c);
                    }
                    return;
                }
                Err(other) => other,
            };
            if let (Ok(burst), Some(c)) = (msg.downcast::<Burst>(), conn) {
                for _ in 0..burst.0 {
                    sender_net.tcp_send(ctx, c, payload.clone());
                }
            }
        })));
        let dialer_net = net.clone();
        let dialer = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, _msg| {
            dialer_net.tcp_connect(ctx, a, sender, addr);
        })));
        sim.schedule(SimTime::ZERO, dialer, ());
        sim.run_to_completion();
        TcpWorld {
            sim,
            sender,
            delivered,
        }
    }

    fn burst(&mut self, n: u64) -> u64 {
        let before = self.delivered.get();
        self.sim.schedule(self.sim.now(), self.sender, Burst(n));
        self.sim.run_to_completion();
        assert_eq!(self.delivered.get() - before, n, "TCP replay lost messages");
        n
    }
}

// ---------------------------------------------------------------------------
// the replays
// ---------------------------------------------------------------------------

/// Length-prefixed channel framing of `payloads`, as `Channel::send` puts
/// them on a TCP stream.
fn tcp_wire(payloads: &[Vec<u8>]) -> Frame {
    let mut wire = Vec::new();
    for p in payloads {
        wire.extend_from_slice(&tag::CMD.to_le_bytes());
        wire.extend_from_slice(
            &u32::try_from(p.len())
                .expect("command fits u32")
                .to_le_bytes(),
        );
        wire.extend_from_slice(p);
    }
    Frame::from(wire)
}

/// The master's dataset: the preload set, or one SET per key of the key
/// space when the workload has none.
fn dataset(wl: &Workload, spec: &RunSpec, value: &[u8]) -> Engine {
    let mut engine = Engine::new(spec.seed);
    let preload = wl.preload_commands(spec.value_size);
    if preload.is_empty() {
        for k in 0..spec.key_space {
            let key = format!("key:{k:012}").into_bytes();
            engine.execute(0, &[b"SET".to_vec(), key, value.to_vec()]);
        }
    } else {
        for cmd in preload {
            let args: Vec<Vec<u8>> = cmd.into_iter().map(String::into_bytes).collect();
            engine.execute(0, &args);
        }
    }
    engine
}

/// Run every replay for `wl`.
pub fn run(wl: &Workload, seed: u64, tr: &mut Tracer) -> Replays {
    let all = tr.open(|| "replays".into());
    let spec = wl.spec(seed, 1);
    let inputs = Inputs::draw(&spec);
    let n = SAMPLE as u64;
    let last_cal = cal::traced_pass(tr);
    let mut r = Runner {
        tr,
        last_cal,
        done: Vec::new(),
    };

    // simcore: a bare timer chain, the floor under every event.
    r.run("simcore.engine.loop_{}_per_event", || {
        const EVENTS: u64 = 50_000;
        let mut sim = Simulation::new(7);
        let actor = sim.add_actor(Box::new(FnActor::new(|ctx, _from, msg| {
            if let Ok(left) = msg.downcast::<u64>() {
                if *left > 0 {
                    ctx.timer(SimDuration::from_nanos(100), *left - 1);
                }
            }
        })));
        sim.schedule(SimTime::ZERO, actor, EVENTS - 1);
        sim.run_to_completion();
        black_box(sim.now());
        sim.events_processed()
    });

    // netsim + channel over RDMA: post_send → fabric → poll_cq on both ends.
    let mut rdma = RdmaWorld::connect(&inputs.set_wire);
    let events_before = rdma.sim.events_processed();
    r.run("netsim.rdma.post_poll_{}", || rdma.burst(1000));
    let post_polls = r.done.last().map_or(1, |d| d.calls);
    let events_per_post_poll =
        (rdma.sim.events_processed() - events_before) as f64 / post_polls as f64;
    let payload = Frame::from(inputs.set_wire.clone());
    r.run("core.channel.build_wr_{}", || {
        let peer = rdma
            .sim
            .actor_mut::<RdmaPeer>(rdma.client)
            .expect("client is an RdmaPeer");
        let ch = peer.channel.as_mut().expect("channel is established");
        for _ in 0..n {
            black_box(ch.build_wr(tag::CMD, payload.clone()));
        }
        n
    });

    // netsim + channel over TCP.
    let mut tcp = TcpWorld::connect(&inputs.set_wire);
    let events_before = tcp.sim.events_processed();
    r.run("netsim.tcp.send_{}", || tcp.burst(1000));
    let sends = r.done.last().map_or(1, |d| d.calls);
    let events_per_tcp_send = (tcp.sim.events_processed() - events_before) as f64 / sends as f64;
    let wire = tcp_wire(&inputs.encoded);
    r.run("core.channel.tcp_reassembly_{}", || {
        const MSS: usize = 1460;
        let mut rx = Channel::tcp(TcpConnId(1));
        let mut frames = 0;
        let mut at = 0;
        while at < wire.len() {
            let end = (at + MSS).min(wire.len());
            frames += rx.on_tcp_bytes(wire.slice(at..end)).len() as u64;
            at = end;
        }
        assert_eq!(frames, n, "reassembly lost frames");
        frames
    });

    // store: RESP codec, command execution, snapshots, backlog.
    r.run("store.resp.decode_{}", || {
        for wire in &inputs.encoded {
            if let Decoded::Frame(frame, _) = Resp::decode(wire) {
                black_box(frame.into_command_args().ok());
            }
        }
        n
    });
    r.run("store.resp.encode_{}", || {
        for cmd in &inputs.commands {
            black_box(cmd.encode());
        }
        n
    });
    let mut engine = dataset(wl, &spec, &inputs.value);
    r.run("store.engine.exec_set_{}", || {
        for args in &inputs.sets {
            black_box(engine.execute(0, args));
        }
        n
    });
    r.run("store.engine.exec_get_{}", || {
        for args in &inputs.gets {
            black_box(engine.execute(0, args));
        }
        n
    });
    let keys = engine.db().len() as u64;
    r.run("store.rdb.save_{}_per_key", || {
        black_box(rdb::save(engine.db()));
        keys
    });
    let snapshot = rdb::save(engine.db());
    r.run("store.rdb.load_{}_per_key", || {
        let mut db = Db::new();
        let loaded = rdb::load(&mut db, &snapshot, spec.seed).expect("own snapshot loads");
        black_box(&db);
        loaded as u64
    });
    let mut backlog = Backlog::new(spec.cfg.backlog_size);
    r.run("store.backlog.feed_{}", || {
        for _ in 0..n {
            backlog.feed(&inputs.set_wire);
        }
        n
    });
    r.run("store.backlog.range_from_{}", || {
        // A slave 64 KiB behind asks for the tail, as in a partial sync.
        let from = backlog.offset() - (backlog.histlen() as u64).min(64 << 10);
        for _ in 0..64 {
            black_box(backlog.range_from(from));
        }
        64
    });

    // core: coordination codec, slot hashing, shard planning, hot cache.
    let here = SocketAddr::new(NodeId(1), REPLAY_PORT);
    let node_msgs = [
        NodeMsg::Replicate {
            from_offset: 1 << 20,
        },
        NodeMsg::ProgressReport {
            slave: here,
            offset: 1 << 20,
        },
        NodeMsg::WriteAck {
            slave: here,
            offset: 1 << 20,
        },
        NodeMsg::WriteCommitted { upto: 1 << 20 },
    ];
    r.run("core.protocol.nodemsg_codec_{}", || {
        for _ in 0..n / 4 {
            for m in &node_msgs {
                black_box(NodeMsg::decode(&m.encode()));
            }
        }
        n
    });
    r.run("core.protocol.key_hash_slot_{}", || {
        for key in &inputs.keys {
            black_box(key_hash_slot(key));
        }
        n
    });
    let router = ShardRouter::new(spec.cfg.num_shards);
    r.run("core.shard.plan_{}", || {
        for args in &inputs.args {
            black_box(router.plan(args));
        }
        n
    });
    // The workload's cache if it has one, else the benchmark's 64 KiB lru.
    let budget = match spec.cfg.hot_cache_bytes {
        0 => 64 << 10,
        b => b,
    };
    let policy = CachePolicyKind::parse(&spec.cfg.hot_cache_policy).unwrap_or(CachePolicyKind::Lru);
    let mut cache = HotCache::new(budget, policy);
    let reply = Frame::from(Resp::Bulk(inputs.value.clone()).encode());
    r.run("core.hotcache.admit_{}", || {
        for (version, key) in inputs.keys.iter().enumerate() {
            black_box(cache.admit(key, reply.clone(), version as u64));
        }
        n
    });
    r.run("core.hotcache.get_{}", || {
        for key in &inputs.keys {
            cache.touch(key);
            black_box(cache.get(key));
        }
        n
    });
    r.run_prepared(
        "core.hotcache.invalidate_{}",
        &mut cache,
        |cache| {
            for (version, key) in inputs.keys.iter().enumerate() {
                cache.admit(key, reply.clone(), version as u64);
            }
        },
        |cache| {
            for key in &inputs.keys {
                black_box(cache.invalidate(key));
            }
            n
        },
    );

    let done = r.done;
    tr.close(all);
    Replays {
        all: done,
        events_per_post_poll,
        events_per_tcp_send,
    }
}
