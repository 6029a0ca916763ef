//! The fabric's own counters as fixed slots.
//!
//! Every work request touches eight of these, so the hot path adds to a
//! `u64` array indexed by [`FabricStat`] instead of looking a name up in a
//! map. `Net::counters` exports the written slots only: a `faults.*` or
//! `tcp.*` name appears once it has been written, even if only ever by
//! zero, which is exactly what the pinned digests hash.

skv_simcore::counter_slots! {
    /// One fabric counter, with its exported name.
    pub enum FabricStat {
        /// RDMA_CM connection requests a fault plan dropped.
        FaultsCmDropped => "faults.cm_dropped",
        /// RDMA messages a fault plan delayed.
        FaultsRdmaDelayed => "faults.rdma_delayed",
        /// RDMA messages a fault plan lost.
        FaultsRdmaDropped => "faults.rdma_dropped",
        /// TCP connects a fault plan dropped.
        FaultsTcpConnectDropped => "faults.tcp_connect_dropped",
        /// TCP messages a fault plan delayed.
        FaultsTcpDelayed => "faults.tcp_delayed",
        /// TCP segments that cost a retransmission timeout.
        FaultsTcpRetrans => "faults.tcp_retrans",
        /// RDMA READs / WRITEs outside a registered MR's contents.
        RdmaAccessErrors => "rdma.access_errors",
        /// Payload bytes carried by RDMA work requests.
        RdmaBytes => "rdma.bytes",
        /// RDMA_CM connections established.
        RdmaConnections => "rdma.connections",
        /// Completion-channel notifications fired.
        RdmaCqNotifies => "rdma.cq_notifies",
        /// Doorbells rung (one per posted batch).
        RdmaDoorbells => "rdma.doorbells",
        /// RDMA messages NAKed by a gone destination (crashed node, closed or errored QP).
        RdmaDrops => "rdma.drops",
        /// QPs moved to the error state.
        RdmaQpErrors => "rdma.qp_errors",
        /// RDMA READs posted.
        RdmaReads => "rdma.reads",
        /// Receiver-not-ready events (no posted receive).
        RdmaRnr => "rdma.rnr",
        /// RDMA SENDs posted.
        RdmaSends => "rdma.sends",
        /// Work completions polled off CQs.
        RdmaWcsPolled => "rdma.wcs_polled",
        /// RDMA WRITE_WITH_IMMs posted.
        RdmaWriteImm => "rdma.write_imm",
        /// RDMA WRITEs posted.
        RdmaWrites => "rdma.writes",
        /// Work requests posted.
        RdmaWrsPosted => "rdma.wrs_posted",
        /// Bytes carried over TCP.
        TcpBytes => "tcp.bytes",
        /// TCP connections established.
        TcpConnects => "tcp.connects",
        /// TCP messages to a closed connection or a down node.
        TcpDrops => "tcp.drops",
        /// Messages sent over TCP.
        TcpMessages => "tcp.messages",
    }
}
