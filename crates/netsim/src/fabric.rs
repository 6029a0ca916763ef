//! The simulated fabric: shared state, the fabric actor, and timing.
//!
//! [`Net`] is a cheaply cloneable handle that endpoint actors use to drive
//! the network synchronously (post a WR, poll a CQ, send on a TCP stream).
//! Deliveries and completions come back asynchronously as
//! [`crate::NetEvent`] messages scheduled through the simulation queue.
//!
//! Wire-level arrivals that must mutate fabric state at a *future* instant
//! (placing RDMA-written bytes into a memory region, pushing a work
//! completion) are routed through a hidden [`FabricActor`] registered in the
//! simulation. The record of what arrives ([`FabricMsg`]) waits in a slab
//! inside [`NetInner`]; the scheduled event is a boxed
//! [`NetEvent::InFlight`] naming its slot. The fabric actor opens that box
//! ([`Context::open`]) before it applies the record, so when the arrival
//! makes a completion visible on an armed CQ, the [`NetEvent::CqNotify`]
//! handed to the CQ's owner as the continuation of the arrival event
//! ([`Context::handoff`]) travels in the same box, and the owner opens it
//! in turn: one queue entry per delivered completion and, once the event
//! queue's free lists are warm, no allocation.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use skv_simcore::stats::{CounterSet, Counters};
use skv_simcore::{Actor, ActorId, Context, DetRng, Payload, SimDuration, SimTime, Simulation};

use crate::counters::FabricStat;
use crate::det::DetMap;
use crate::faults::{FaultPlan, Verdict};
use crate::params::NetParams;
use crate::topology::{NodeKind, Topology};
use crate::types::*;

/// Receive WR id reported when a `Send`/`WriteImm` arrives with no posted
/// receive (the simulator's stand-in for an RNR situation).
pub const RNR_WR_ID: u64 = u64::MAX;

// ---------------------------------------------------------------------------
// state records
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) struct TcpConnState {
    pub(crate) node: NodeId,
    pub(crate) actor: ActorId,
    pub(crate) peer: Option<TcpConnId>,
    /// Earliest instant the next in-order delivery may occur.
    pub(crate) next_delivery: SimTime,
    pub(crate) open: bool,
}

#[derive(Debug)]
pub(crate) struct QpState {
    pub(crate) node: NodeId,
    pub(crate) cq: CqId,
    pub(crate) peer: Option<QpId>,
    pub(crate) peer_addr: SocketAddr,
    pub(crate) recv_queue: VecDeque<u64>,
    pub(crate) open: bool,
    /// QP error state (entered on retry exhaustion / unreachable peer);
    /// posting to an errored QP fails until it is re-established.
    pub(crate) error: bool,
}

#[derive(Debug)]
pub(crate) struct CqState {
    pub(crate) owner: ActorId,
    pub(crate) queue: VecDeque<Wc>,
    pub(crate) armed: bool,
}

#[derive(Debug)]
pub(crate) struct MrState {
    pub(crate) node: NodeId,
    /// Registered length: the bound every remote access is checked against.
    pub(crate) len: usize,
    /// The region's bytes; `None` for a registration without contents.
    pub(crate) buf: Option<Vec<u8>>,
}

#[derive(Debug)]
pub(crate) struct CmRequest {
    pub(crate) from_actor: ActorId,
    pub(crate) from_node: NodeId,
    pub(crate) from_cq: CqId,
    pub(crate) from_addr: SocketAddr,
    pub(crate) listener_addr: SocketAddr,
}

/// Wire records the fabric actor applies at their arrival instants.
pub(crate) enum FabricMsg {
    /// An RDMA operation reaches the destination NIC.
    RdmaArrive {
        src_qp: QpId,
        dst_qp: QpId,
        wr: SendWr,
        /// One-way path latency (for scheduling the sender's ack/completion).
        path_latency: SimDuration,
    },
    /// A completion becomes visible in a sender-side CQ.
    PushWc { cq: CqId, wc: Wc },
    /// An RDMA_CM connection request reaches a listener.
    CmRequestArrive { req: CmReqId },
    /// An accepted connection's establishment notification reaches a side.
    CmEstablishedArrive {
        actor: ActorId,
        qp: QpId,
        peer: SocketAddr,
    },
}

/// The wire records in flight, parked from launch until their arrival
/// event fires. Slots are reused last-freed-first, so the slab grows to
/// the peak number of records in flight at once and no further.
#[derive(Default)]
pub(crate) struct Parked {
    slots: Vec<Option<FabricMsg>>,
    free: Vec<u32>,
}

impl Parked {
    fn park(&mut self, msg: FabricMsg) -> InFlightId {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(None);
                next_id(self.slots.len() - 1)
            }
        };
        self.slots[slot as usize] = Some(msg);
        InFlightId(slot)
    }

    fn take(&mut self, id: InFlightId) -> Option<FabricMsg> {
        let msg = self.slots.get_mut(id.0 as usize)?.take()?;
        self.free.push(id.0);
        Some(msg)
    }
}

// ---------------------------------------------------------------------------
// NetInner
// ---------------------------------------------------------------------------

pub(crate) struct NetInner {
    pub(crate) topo: Topology,
    pub(crate) params: NetParams,
    pub(crate) fabric_actor: ActorId,
    pub(crate) node_up: Vec<bool>,
    /// Per-node egress serialization: instant the NIC's TX port frees up.
    pub(crate) egress_free: Vec<SimTime>,
    pub(crate) tcp_listeners: DetMap<SocketAddr, ActorId>,
    pub(crate) tcp_conns: Vec<TcpConnState>,
    pub(crate) cm_listeners: DetMap<SocketAddr, ActorId>,
    pub(crate) cm_requests: Vec<Option<CmRequest>>,
    pub(crate) qps: Vec<QpState>,
    pub(crate) cqs: Vec<CqState>,
    pub(crate) mrs: Vec<MrState>,
    pub(crate) next_ephemeral: u16,
    pub(crate) counters: CounterSet<FabricStat>,
    /// Installed fault schedule (empty plan = nothing goes wrong).
    pub(crate) faults: FaultPlan,
    /// RNG dedicated to fault verdicts, reseeded when a plan is installed.
    pub(crate) fault_rng: DetRng,
    parked: Parked,
}

impl NetInner {
    fn new(topo: Topology, params: NetParams) -> Self {
        let n = topo.len();
        NetInner {
            topo,
            params,
            fabric_actor: ActorId::SYSTEM,
            node_up: vec![true; n],
            egress_free: vec![SimTime::ZERO; n],
            tcp_listeners: DetMap::new(),
            tcp_conns: Vec::new(),
            cm_listeners: DetMap::new(),
            cm_requests: Vec::new(),
            qps: Vec::new(),
            cqs: Vec::new(),
            mrs: Vec::new(),
            next_ephemeral: 50_000,
            counters: CounterSet::default(),
            faults: FaultPlan::new(0),
            fault_rng: DetRng::new(0),
            parked: Parked::default(),
        }
    }

    /// Put `msg` in flight: it reaches the fabric actor at `at`.
    pub(crate) fn launch(&mut self, ctx: &mut Context<'_>, at: SimTime, msg: FabricMsg) {
        let id = self.parked.park(msg);
        ctx.send_at(at, self.fabric_actor, NetEvent::InFlight(id));
    }

    pub(crate) fn alloc_ephemeral(&mut self) -> u16 {
        let p = self.next_ephemeral;
        self.next_ephemeral = self.next_ephemeral.wrapping_add(1).max(50_000);
        p
    }

    pub(crate) fn up(&self, node: NodeId) -> bool {
        self.node_up[node.0 as usize]
    }

    /// Compute when `bytes` sent from `src` arrive at `dst`'s NIC, charging
    /// the sender's egress port. Returns `(arrival, one_way_latency)`.
    pub(crate) fn wire(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
    ) -> (SimTime, SimDuration) {
        let lat = self.topo.base_latency(src, dst, &self.params);
        let tx_ready = now + self.params.nic_tx_delay;
        let start = tx_ready.max(self.egress_free[src.0 as usize]);
        let end = start + self.params.serialize_time(bytes);
        self.egress_free[src.0 as usize] = end;
        (end + lat, lat)
    }

    /// Decide the fate of one `src → dst` message under the installed
    /// fault plan.
    pub(crate) fn judge(&mut self, now: SimTime, src: NodeId, dst: NodeId) -> Verdict {
        if self.faults.is_noop() {
            return Verdict::Deliver;
        }
        self.faults.judge(now, src, dst, &mut self.fault_rng)
    }

    /// Append a WC to a CQ and, if the CQ is armed, fire its completion
    /// channel.
    pub(crate) fn push_wc(&mut self, ctx: &mut Context<'_>, cq: CqId, wc: Wc) {
        let state = &mut self.cqs[cq.0 as usize];
        state.queue.push_back(wc);
        if state.armed {
            self.fire_cq_notify(ctx, cq);
        }
    }

    /// Fire `CqNotify` at a CQ's owner, disarming the completion channel.
    /// Every notify the fabric ever emits goes through here, so
    /// `rdma.cq_notifies` counts them all.
    ///
    /// The notify is handed off: it runs inside the current event unless
    /// something else is due at this instant — a second arrival on the same
    /// CQ, say, which one notify must still cover — and is then an ordinary
    /// zero-delay send. Same firing order either way.
    pub(crate) fn fire_cq_notify(&mut self, ctx: &mut Context<'_>, cq: CqId) {
        let state = &mut self.cqs[cq.0 as usize];
        state.armed = false;
        let owner = state.owner;
        self.counters.inc(FabricStat::RdmaCqNotifies);
        ctx.handoff(owner, NetEvent::CqNotify { cq });
    }
}

// ---------------------------------------------------------------------------
// Net handle
// ---------------------------------------------------------------------------

/// Handle to the simulated network fabric.
///
/// Clone freely; all clones share state. Methods that produce asynchronous
/// outcomes take the calling actor's [`Context`] so deliveries can be
/// scheduled.
#[derive(Clone)]
pub struct Net {
    pub(crate) inner: Rc<RefCell<NetInner>>,
}

impl Net {
    /// Build a fabric over `topo` and register its internal actor in `sim`.
    pub fn install(sim: &mut Simulation, topo: Topology, params: NetParams) -> Net {
        let inner = Rc::new(RefCell::new(NetInner::new(topo, params)));
        let actor_inner = inner.clone();
        let id = sim.add_actor(Box::new(FabricActor { net: actor_inner }));
        inner.borrow_mut().fabric_actor = id;
        Net { inner }
    }

    /// The calibration parameters in force.
    pub fn params(&self) -> NetParams {
        self.with_params(NetParams::clone)
    }

    /// Read the calibration parameters in place — [`Net::params`] without
    /// the clone, for callers on a per-event path.
    pub fn with_params<R>(&self, read: impl FnOnce(&NetParams) -> R) -> R {
        read(&self.inner.borrow().params)
    }

    /// Number of nodes in the topology.
    pub fn num_nodes(&self) -> usize {
        self.inner.borrow().topo.len()
    }

    /// Node kind lookup.
    pub fn node_kind(&self, node: NodeId) -> NodeKind {
        self.inner.borrow().topo.kind(node)
    }

    /// Whether `node` is currently up.
    pub fn node_up(&self, node: NodeId) -> bool {
        self.inner.borrow().up(node)
    }

    /// Bring a node up or down. While down, nothing it sends is accepted
    /// and arrivals addressed to it are discarded.
    pub fn set_node_up(&self, node: NodeId, up: bool) {
        self.inner.borrow_mut().node_up[node.0 as usize] = up;
    }

    /// Snapshot of the fabric counters written so far (messages, bytes,
    /// drops, RNRs, faults), under their [`FabricStat`] names.
    pub fn counters(&self) -> Counters {
        let mut out = Counters::new();
        self.inner.borrow().counters.export_written(&mut out);
        out
    }

    /// Wire records in flight right now: posted or scheduled, not yet
    /// arrived.
    pub fn in_flight(&self) -> usize {
        let parked = &self.inner.borrow().parked;
        parked.slots.len() - parked.free.len()
    }

    /// The most wire records that have ever been in flight at once — the
    /// size the fabric's record slab has grown to.
    pub fn in_flight_peak(&self) -> usize {
        self.inner.borrow().parked.slots.len()
    }

    /// Install a fault schedule. The plan's private RNG is reseeded from
    /// `plan.seed`, so installing the same plan twice replays identically.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut inner = self.inner.borrow_mut();
        inner.fault_rng = DetRng::new(plan.seed);
        inner.faults = plan;
    }

    /// One-way base latency between two nodes under the current parameters.
    pub fn base_latency(&self, a: NodeId, b: NodeId) -> SimDuration {
        let inner = self.inner.borrow();
        inner.topo.base_latency(a, b, &inner.params)
    }
}

// ---------------------------------------------------------------------------
// fabric actor
// ---------------------------------------------------------------------------

/// Hidden actor that applies wire arrivals to fabric state.
struct FabricActor {
    net: Rc<RefCell<NetInner>>,
}

impl Actor for FabricActor {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, msg: Payload) {
        let Ok(ev) = msg.downcast::<NetEvent>() else {
            return;
        };
        // Opened first: the notify this record causes reuses the box.
        let NetEvent::InFlight(id) = ctx.open(ev) else {
            return;
        };
        let mut net = self.net.borrow_mut();
        let Some(record) = net.parked.take(id) else {
            return;
        };
        match record {
            FabricMsg::RdmaArrive {
                src_qp,
                dst_qp,
                wr,
                path_latency,
            } => {
                crate::rdma::handle_arrival(&mut net, ctx, src_qp, dst_qp, wr, path_latency);
            }
            FabricMsg::PushWc { cq, wc } => {
                net.push_wc(ctx, cq, wc);
            }
            FabricMsg::CmRequestArrive { req } => {
                crate::rdma::handle_cm_request_arrival(&mut net, ctx, req);
            }
            FabricMsg::CmEstablishedArrive { actor, qp, peer } => {
                ctx.send(actor, NetEvent::CmEstablished { qp, peer });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> (Simulation, Net, NodeId, NodeId) {
        let mut sim = Simulation::new(7);
        let mut topo = Topology::new();
        let a = topo.add_host();
        let b = topo.add_host();
        let net = Net::install(&mut sim, topo, NetParams::default());
        (sim, net, a, b)
    }

    #[test]
    fn install_creates_handle() {
        let (_sim, net, a, _b) = fabric();
        assert_eq!(net.num_nodes(), 2);
        assert!(net.node_up(a));
        assert_eq!(net.node_kind(a), NodeKind::Host);
    }

    #[test]
    fn node_up_toggles() {
        let (_sim, net, a, _b) = fabric();
        net.set_node_up(a, false);
        assert!(!net.node_up(a));
        net.set_node_up(a, true);
        assert!(net.node_up(a));
    }

    #[test]
    fn egress_serializes_back_to_back_sends() {
        let (_sim, net, a, b) = fabric();
        let mut inner = net.inner.borrow_mut();
        let now = SimTime::ZERO;
        // Two 125_000-byte transfers: 10us serialization each at 100 Gb/s.
        let (arr1, _) = inner.wire(now, a, b, 125_000);
        let (arr2, _) = inner.wire(now, a, b, 125_000);
        assert_eq!(
            arr2.as_nanos() - arr1.as_nanos(),
            10_000,
            "second transfer must queue behind the first"
        );
    }

    #[test]
    fn ephemeral_ports_are_unique() {
        let (_sim, net, _a, _b) = fabric();
        let mut inner = net.inner.borrow_mut();
        let p1 = inner.alloc_ephemeral();
        let p2 = inner.alloc_ephemeral();
        assert_ne!(p1, p2);
        assert!(p1 >= 50_000 && p2 >= 50_000);
    }
}
