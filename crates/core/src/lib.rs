//! # skv-core — SKV: a SmartNIC-offloaded distributed key-value store
//!
//! Reproduction of *"SKV: A SmartNIC-Offloaded Distributed Key-Value
//! Store"* (CLUSTER 2022) over the `skv-netsim` fabric and `skv-store`
//! engine:
//!
//! * [`server::KvServer`] — Host-KV: single-threaded command execution,
//!   replication backlog, initial synchronization (Figure 8), and
//!   per-mode write propagation,
//! * [`replsource::ReplSource`] — the master's side of that
//!   synchronization as an IO-free state machine (backlog, replication id,
//!   reported offsets; serve / repair / census decisions as values),
//! * [`replsink::ReplSink`] — the replica's side of that synchronization
//!   as an IO-free state machine (phase, snapshot, stash, applied offset),
//! * [`nickv::NicKv`] — the SmartNIC-resident component: node list,
//!   steady-state replication fan-out (Figure 9), `thread-num`
//!   multi-threading, and probe-based failure detection with failover,
//! * [`commitgate::CommitGate`] — the master's `min-slaves` / lag write
//!   gate and quorum's held replies as an IO-free state machine (which
//!   verdict stands, the commit point, the replies a release frees),
//! * [`nodelist::NodeList`] — Nic-KV's node list and failure detector as
//!   an IO-free state machine (registration, probes, `waiting-time`,
//!   failover, the slave-set update),
//! * [`client::BenchClient`] — closed-loop load generation à la
//!   `redis-benchmark`, over a [`link::ClientLink`] (what a client's
//!   connection is: dial, backoff, input step, teardown),
//! * [`histcheck`] — client-visible operation histories and the
//!   linearizability checker ([`probes`]: the actors that record one
//!   beside the workload),
//! * [`cluster`] — the harness that assembles testbeds and produces
//!   [`metrics::RunReport`]s,
//! * three run modes ([`config::Mode`]): original **Redis** over TCP,
//!   **RDMA-Redis**, and **SKV** — the paper's baselines and contribution.
//!
//! ```
//! use skv_core::cluster::{Cluster, RunSpec};
//! use skv_core::config::{ClusterConfig, Mode};
//! use skv_simcore::SimDuration;
//!
//! let mut cfg = ClusterConfig::for_mode(Mode::Skv);
//! cfg.num_slaves = 2;
//! let mut cluster = Cluster::build(RunSpec {
//!     cfg,
//!     num_clients: 2,
//!     measure: SimDuration::from_millis(300),
//!     warmup: SimDuration::from_millis(100),
//!     ..Default::default()
//! });
//! let report = cluster.run();
//! assert!(report.ops > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod channel;
pub mod client;
pub mod cluster;
pub mod commitgate;
pub mod config;
pub mod conns;
pub mod cqdrain;
pub mod histcheck;
pub mod hostlinks;
pub mod hotcache;
pub mod link;
pub mod metrics;
pub mod nickv;
pub mod nodelist;
pub mod probes;
pub mod protocol;
pub mod replmode;
pub mod replsink;
pub mod replsource;
pub mod server;
pub mod shard;
