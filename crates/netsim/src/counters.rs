//! The fabric's own counters as fixed slots.
//!
//! Every work request touches eight of these, so the hot path adds to a
//! `u64` array indexed by [`Slot`] instead of looking a name up in a map.
//! [`FabricCounters::snapshot`] materialises the string-keyed
//! [`Counters`] that `Net::counters` has always returned: the same names,
//! the same values, and — as with the map — a name appears once it has
//! been written, even if only ever by zero.

use skv_simcore::stats::Counters;

macro_rules! slots {
    ($($slot:ident => $name:literal,)*) => {
        /// Index of one fabric counter.
        #[derive(Debug, Clone, Copy)]
        pub(crate) enum Slot { $($slot,)* }

        /// Exported name of each slot, in `Slot` order.
        const NAMES: &[&str] = &[$($name,)*];
    };
}

slots! {
    FaultsCmDropped => "faults.cm_dropped",
    FaultsRdmaDelayed => "faults.rdma_delayed",
    FaultsRdmaDropped => "faults.rdma_dropped",
    FaultsTcpConnectDropped => "faults.tcp_connect_dropped",
    FaultsTcpDelayed => "faults.tcp_delayed",
    FaultsTcpRetrans => "faults.tcp_retrans",
    RdmaAccessErrors => "rdma.access_errors",
    RdmaBytes => "rdma.bytes",
    RdmaConnections => "rdma.connections",
    RdmaCqNotifies => "rdma.cq_notifies",
    RdmaDoorbells => "rdma.doorbells",
    RdmaDrops => "rdma.drops",
    RdmaQpErrors => "rdma.qp_errors",
    RdmaReads => "rdma.reads",
    RdmaRnr => "rdma.rnr",
    RdmaSends => "rdma.sends",
    RdmaWcsPolled => "rdma.wcs_polled",
    RdmaWriteImm => "rdma.write_imm",
    RdmaWrites => "rdma.writes",
    RdmaWrsPosted => "rdma.wrs_posted",
    TcpBytes => "tcp.bytes",
    TcpConnects => "tcp.connects",
    TcpDrops => "tcp.drops",
    TcpMessages => "tcp.messages",
}

/// One `u64` per [`Slot`], plus which slots have been written.
#[derive(Debug, Default)]
pub(crate) struct FabricCounters {
    values: [u64; NAMES.len()],
    written: u32,
}

impl FabricCounters {
    /// Add `delta` to `slot`.
    #[inline]
    pub(crate) fn add(&mut self, slot: Slot, delta: u64) {
        self.values[slot as usize] += delta;
        self.written |= 1 << slot as u32;
    }

    /// Increment `slot` by one.
    #[inline]
    pub(crate) fn inc(&mut self, slot: Slot) {
        self.add(slot, 1);
    }

    /// The written slots as a name-keyed counter set.
    pub(crate) fn snapshot(&self) -> Counters {
        let mut out = Counters::new();
        for (i, (&name, &value)) in NAMES.iter().zip(&self.values).enumerate() {
            if self.written & (1 << i) != 0 {
                out.add(name, value);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_lists_written_slots_only_zero_adds_included() {
        let mut c = FabricCounters::default();
        assert_eq!(c.snapshot().iter().count(), 0);
        c.inc(Slot::RdmaDoorbells);
        c.add(Slot::RdmaBytes, 64);
        c.add(Slot::RdmaWcsPolled, 0);
        c.inc(Slot::TcpMessages);
        let got: Vec<_> = c.snapshot().iter().collect();
        assert_eq!(
            got,
            vec![
                ("rdma.bytes", 64),
                ("rdma.doorbells", 1),
                ("rdma.wcs_polled", 0),
                ("tcp.messages", 1),
            ]
        );
    }

    #[test]
    fn every_slot_has_a_distinct_name_and_fits_the_mask() {
        assert!(NAMES.len() <= 32, "`written` is a u32 mask");
        assert_eq!(Slot::TcpMessages as usize, NAMES.len() - 1);
        let mut names = NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NAMES.len());
    }
}
