//! Calibration parameters for the simulated fabric.
//!
//! These constants stand in for the paper's testbed (§V-A): Xeon Gold 5218
//! hosts, ConnectX-5 100 Gb RoCE NICs, an SN2100 switch, and a BlueField
//! MBF2H516A SmartNIC. Each value is either taken from the paper's own
//! measurements (e.g. Figure 3's RDMA WRITE latencies) or from published
//! characterizations of the hardware (e.g. the BlueField-2 core-speed study
//! the paper cites as [22]).
//!
//! All latencies are *one-way* unless noted. CPU costs are expressed in
//! reference-host-core time; `skv_simcore::CorePool` scales them by core
//! speed.

use skv_simcore::SimDuration;

/// Fabric calibration constants.
#[derive(Debug, Clone)]
pub struct NetParams {
    // ---- link layer ----
    /// Line rate of every port, bits per second (100 GbE).
    pub bandwidth_bps: f64,
    /// One-way base latency between two hosts through the switch
    /// (propagation + switch + NIC pipeline), excluding serialization.
    pub host_host_latency: SimDuration,
    /// Multiplier on `host_host_latency` for a host talking to its *own*
    /// SmartNIC SoC. Figure 3 shows this path is "only a little lower" than
    /// host-to-host because the SoC runs a full network stack.
    pub local_soc_factor: f64,

    // ---- RDMA NIC ----
    /// NIC pipeline delay to start emitting a posted WR onto the wire.
    pub nic_tx_delay: SimDuration,
    /// DMA placement delay at the receiving NIC.
    pub dma_delay: SimDuration,
    /// Host CPU time consumed by one `ibv_post_send` (WQE build + doorbell).
    /// This is the cost SKV's offload saves (N-1) copies of per write.
    /// Also the single source of truth for the *first* WR of a linked post
    /// list: a one-WR list costs exactly one unbatched post by
    /// construction, so sweeping this knob moves both post paths together.
    pub wr_post_cpu: SimDuration,
    /// CPU time for each *linked* WR after the first in a post list: just
    /// the WQE build — the doorbell is shared by the whole chain. This gap
    /// (`wr_post_cpu - wr_post_linked`) is what doorbell batching saves
    /// per extra replica.
    pub wr_post_linked: SimDuration,
    /// Host CPU time for one `poll_cq` *call* (CQ ring scan + bookkeeping),
    /// charged by the draining actor per poll regardless of how many WCs
    /// the call returns. See `wc_handle_cpu` for the per-WC part.
    pub cq_poll_cpu: SimDuration,
    /// Host CPU time to handle one *returned* completion (parse the WC,
    /// dispatch to the owning connection). A drain of n WCs costs
    /// `cq_poll_cpu + n × wc_handle_cpu` on the polling core.
    pub wc_handle_cpu: SimDuration,

    // ---- TCP-like kernel stack ----
    /// One-way latency added by each kernel network stack traversal
    /// (softirq, memory copies, context switch).
    pub tcp_stack_latency: SimDuration,
    /// CPU time per message consumed in the sender's kernel (syscall +
    /// copies). Charged by the application actor to its own core.
    pub tcp_send_cpu: SimDuration,
    /// CPU time per message in the receiver's kernel.
    pub tcp_recv_cpu: SimDuration,
    /// Extra CPU time per KiB of payload for kernel memory copies.
    pub tcp_copy_cpu_per_kib: SimDuration,
    /// One-way propagation for the TCP path (same physical network).
    pub tcp_base_latency: SimDuration,

    // ---- connection management ----
    /// Handshake round-trips cost for TCP connect and RDMA_CM establish.
    pub connect_latency: SimDuration,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            bandwidth_bps: 100e9,
            host_host_latency: SimDuration::from_nanos(1_900),
            local_soc_factor: 0.85,
            nic_tx_delay: SimDuration::from_nanos(250),
            dma_delay: SimDuration::from_nanos(350),
            wr_post_cpu: SimDuration::from_nanos(200),
            wr_post_linked: SimDuration::from_nanos(80),
            cq_poll_cpu: SimDuration::from_nanos(200),
            wc_handle_cpu: SimDuration::from_nanos(60),
            tcp_stack_latency: SimDuration::from_nanos(2_000),
            tcp_send_cpu: SimDuration::from_nanos(2_600),
            tcp_recv_cpu: SimDuration::from_nanos(2_800),
            tcp_copy_cpu_per_kib: SimDuration::from_nanos(120),
            tcp_base_latency: SimDuration::from_nanos(1_900),
            connect_latency: SimDuration::from_micros(40),
        }
    }
}

impl NetParams {
    /// Wire serialization time for `bytes` at line rate.
    pub fn serialize_time(&self, bytes: usize) -> SimDuration {
        let secs = (bytes as f64 * 8.0) / self.bandwidth_bps;
        SimDuration::from_secs_f64(secs)
    }

    /// CPU cost of posting `n` WRs through one `ibv_post_send` call (one
    /// doorbell): the first WR pays the full [`NetParams::wr_post_cpu`]
    /// (WQE build + doorbell), each linked WR pays
    /// [`NetParams::wr_post_linked`]. Deriving the first-WR cost from
    /// `wr_post_cpu` keeps `post_list_cpu(1) == wr_post_cpu` true for
    /// *every* configuration, not just the defaults — sweeping the post
    /// cost (the `wrcost` ablation) moves both paths together.
    pub fn post_list_cpu(&self, n: usize) -> SimDuration {
        if n == 0 {
            return SimDuration::ZERO;
        }
        self.wr_post_cpu + self.wr_post_linked.mul_f64((n - 1) as f64)
    }

    /// Kernel-stack CPU cost for a TCP message of `bytes` on the send side.
    pub fn tcp_send_cost(&self, bytes: usize) -> SimDuration {
        self.tcp_send_cpu + self.tcp_copy_cpu_per_kib.mul_f64(bytes as f64 / 1024.0)
    }

    /// Kernel-stack CPU cost for a TCP message of `bytes` on the receive side.
    pub fn tcp_recv_cost(&self, bytes: usize) -> SimDuration {
        self.tcp_recv_cpu + self.tcp_copy_cpu_per_kib.mul_f64(bytes as f64 / 1024.0)
    }
}

/// Core-count and speed constants for the simulated machines (paper §V-A).
#[derive(Debug, Clone)]
pub struct MachineParams {
    /// Cores available to a host server process. The testbed machines have
    /// 2×16 physical cores, but Redis/SKV's Host-KV is single-threaded by
    /// design; the pool exists so multi-threaded baselines can be modelled.
    pub host_cores: usize,
    /// Host core speed (reference = 1.0).
    pub host_core_speed: f64,
    /// SmartNIC SoC cores (BlueField: 8× ARM A72).
    pub nic_cores: usize,
    /// SoC core speed relative to a host core (~0.35 per the BlueField-2
    /// characterization the paper cites).
    pub nic_core_speed: f64,
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams {
            host_cores: 32,
            host_core_speed: 1.0,
            nic_cores: 8,
            nic_core_speed: 0.35,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_scales_with_size() {
        let p = NetParams::default();
        // 1250 bytes at 100 Gb/s = 100 ns.
        assert_eq!(p.serialize_time(1250).as_nanos(), 100);
        assert_eq!(p.serialize_time(0).as_nanos(), 0);
        assert!(p.serialize_time(4096) > p.serialize_time(64));
    }

    #[test]
    fn local_soc_is_faster_but_comparable() {
        let p = NetParams::default();
        let local = p.host_host_latency.mul_f64(p.local_soc_factor);
        assert!(local < p.host_host_latency);
        // "only a little lower": within 30%.
        assert!(local.as_nanos() as f64 > 0.7 * p.host_host_latency.as_nanos() as f64);
    }

    #[test]
    fn post_list_amortizes_the_doorbell() {
        let p = NetParams::default();
        assert_eq!(p.post_list_cpu(0), SimDuration::ZERO);
        // A single-WR list costs exactly one unbatched post.
        assert_eq!(p.post_list_cpu(1), p.wr_post_cpu);
        // N linked WRs are strictly cheaper than N doorbells.
        for n in [2usize, 5, 10] {
            assert!(p.post_list_cpu(n) < p.wr_post_cpu.mul_f64(n as f64));
            assert!(p.post_list_cpu(n) > p.post_list_cpu(n - 1));
        }
    }

    #[test]
    fn single_wr_cost_has_one_source_of_truth() {
        // Regression for the batched/unbatched cost split: the invariant
        // `post_list_cpu(1) == wr_post_cpu` must hold for *non-default*
        // configs too, not coincide only because two defaults agree. A
        // swept post cost (the `wrcost` ablation) must move both paths.
        for ns in [55u64, 200, 777, 5_000] {
            let p = NetParams {
                wr_post_cpu: SimDuration::from_nanos(ns),
                ..NetParams::default()
            };
            assert_eq!(
                p.post_list_cpu(1),
                p.wr_post_cpu,
                "one-WR list must cost exactly one unbatched post at {ns}ns"
            );
            assert_eq!(
                p.post_list_cpu(3),
                p.wr_post_cpu + p.wr_post_linked.mul_f64(2.0)
            );
        }
    }

    #[test]
    fn tcp_costs_grow_with_payload() {
        let p = NetParams::default();
        assert!(p.tcp_send_cost(16 * 1024) > p.tcp_send_cost(64));
        assert!(p.tcp_recv_cost(16 * 1024) > p.tcp_recv_cost(64));
    }

    #[test]
    fn nic_cores_slower_than_host() {
        let m = MachineParams::default();
        assert!(m.nic_core_speed < m.host_core_speed);
        assert_eq!(m.nic_cores, 8);
    }
}
