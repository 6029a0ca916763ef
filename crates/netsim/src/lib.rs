//! # skv-netsim — simulated network fabric for the SKV reproduction
//!
//! The SKV paper runs on 100 Gb RoCE hardware with a Mellanox BlueField
//! SmartNIC; this crate substitutes a deterministic software model with the
//! properties the paper's design reacts to:
//!
//! * [`Topology`] — hosts and off-path SmartNIC SoCs; a SoC is "almost a
//!   separate endpoint" (paper Figure 3), so its path to the co-located
//!   host costs nearly a full network hop,
//! * a TCP-like transport with kernel-stack latency and per-message CPU
//!   cost (the original-Redis baseline of Figure 10),
//! * RDMA verbs — QPs, MRs holding real bytes, SEND/RECV, WRITE,
//!   WRITE_WITH_IMM, READ, CQs with completion-event-channel semantics,
//!   and RDMA_CM connection management,
//! * calibration constants in [`NetParams`] / [`MachineParams`].
//!
//! Endpoint actors drive the fabric through the cloneable [`Net`] handle
//! and receive [`NetEvent`] messages back from the simulation engine.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

mod counters;
mod det;
mod fabric;
mod faults;
mod params;
mod rdma;
mod tcp;
mod topology;
mod types;

pub use det::{DetMap, DetSet};
pub use fabric::{Net, RNR_WR_ID};
pub use faults::{FaultPlan, LinkFault, Partition, TimeWindow, Verdict};
pub use params::{MachineParams, NetParams};
pub use rdma::{CmError, PostError, PostListError};
pub use skv_simcore::Frame;
pub use topology::{NodeKind, Topology};
pub use types::{
    CmReqId, CqId, InFlightId, MrId, NetEvent, NodeId, QpId, SendOp, SendWr, SocketAddr, TcpConnId,
    Wc, WcOpcode, WcStatus,
};
