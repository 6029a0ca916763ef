//! The physical topology: hosts, SmartNIC SoCs, and the paths between them.
//!
//! The testbed in the paper is a handful of servers on one 100 Gb switch,
//! with a BlueField SmartNIC installed in the master. An *off-path*
//! SmartNIC's SoC behaves like a separate network endpoint behind the NIC
//! switch (paper §II-A2, Figure 3), so the topology models it as its own
//! node whose path to the co-located host is only slightly cheaper than a
//! full host-to-host hop.

use skv_simcore::SimDuration;

use crate::params::NetParams;
use crate::types::{next_id, NodeId};

/// What kind of machine a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A regular server (Xeon host).
    Host,
    /// The ARM SoC of an off-path SmartNIC installed in `host`.
    SmartNicSoc {
        /// The host the SmartNIC is plugged into.
        host: NodeId,
    },
}

/// A static description of all nodes.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    kinds: Vec<NodeKind>,
}

impl Topology {
    /// Create an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a host node.
    pub fn add_host(&mut self) -> NodeId {
        let id = NodeId(next_id(self.kinds.len()));
        self.kinds.push(NodeKind::Host);
        id
    }

    /// Add a SmartNIC SoC installed in `host`.
    ///
    /// # Panics
    /// Panics if `host` is not an existing host node.
    pub fn add_smartnic(&mut self, host: NodeId) -> NodeId {
        assert!(
            matches!(self.kind(host), NodeKind::Host),
            "SmartNICs install into hosts"
        );
        let id = NodeId(next_id(self.kinds.len()));
        self.kinds.push(NodeKind::SmartNicSoc { host });
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The kind of `node`.
    ///
    /// # Panics
    /// Panics if `node` does not exist.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.0 as usize]
    }

    /// True if `a` and `b` are a host and its own SmartNIC SoC (either way).
    pub fn is_local_pcie_pair(&self, a: NodeId, b: NodeId) -> bool {
        match (self.kind(a), self.kind(b)) {
            (NodeKind::SmartNicSoc { host }, _) if host == b => true,
            (_, NodeKind::SmartNicSoc { host }) if host == a => true,
            _ => false,
        }
    }

    /// One-way base latency between two nodes (excludes serialization).
    ///
    /// * same node: a cheap loopback,
    /// * host ↔ its own SmartNIC SoC: `local_soc_factor ×` host-host
    ///   (Figure 3: "only a little lower" than two hosts),
    /// * anything else (two hosts, a remote SmartNIC, two SmartNICs):
    ///   the full host-host path through the switch.
    pub fn base_latency(&self, a: NodeId, b: NodeId, p: &NetParams) -> SimDuration {
        if a == b {
            return SimDuration::from_nanos(300);
        }
        if self.is_local_pcie_pair(a, b) {
            p.host_host_latency.mul_f64(p.local_soc_factor)
        } else {
            p.host_host_latency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_hosts_and_nics() {
        let mut t = Topology::new();
        let h0 = t.add_host();
        let h1 = t.add_host();
        let nic = t.add_smartnic(h0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.kind(h0), NodeKind::Host);
        assert_eq!(t.kind(nic), NodeKind::SmartNicSoc { host: h0 });
        assert!(t.is_local_pcie_pair(h0, nic));
        assert!(t.is_local_pcie_pair(nic, h0));
        assert!(!t.is_local_pcie_pair(h1, nic));
        assert!(!t.is_local_pcie_pair(h0, h1));
    }

    #[test]
    #[should_panic(expected = "install into hosts")]
    fn nic_must_attach_to_host() {
        let mut t = Topology::new();
        let h = t.add_host();
        let nic = t.add_smartnic(h);
        let _ = t.add_smartnic(nic);
    }

    #[test]
    fn figure3_latency_ordering() {
        // The paper's Figure 3: local-host→SmartNIC < host→host, and
        // remote-host→SmartNIC ≈ host→host.
        let mut t = Topology::new();
        let master = t.add_host();
        let remote = t.add_host();
        let nic = t.add_smartnic(master);
        let p = NetParams::default();

        let host_host = t.base_latency(master, remote, &p);
        let local_soc = t.base_latency(master, nic, &p);
        let remote_soc = t.base_latency(remote, nic, &p);

        assert!(local_soc < host_host);
        assert_eq!(remote_soc, host_host);
        // "only a little lower"
        assert!(local_soc.as_nanos() * 10 > host_host.as_nanos() * 7);
    }

    #[test]
    fn loopback_is_cheap() {
        let mut t = Topology::new();
        let h = t.add_host();
        let p = NetParams::default();
        assert!(t.base_latency(h, h, &p) < p.host_host_latency);
    }
}
