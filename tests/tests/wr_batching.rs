//! Doorbell-batched WR post lists: how a replicated write leaves each of
//! the two fan-out sites — the Nic-KV offload and the master's host
//! fan-out (RDMA-Redis, or SKV degraded) — judged by the fabric's own
//! `rdma.doorbells` / `rdma.wrs_posted` counters rather than by what the
//! actors say they did.
//!
//! * a replicated write posts N WRs under exactly one doorbell, and it is
//!   the only thing in the system that shares a doorbell — so the
//!   fabric-wide gap `wrs_posted − doorbells` is exactly `(N − 1)` per
//!   replicated write;
//! * the post-stall probability is drawn once per *doorbell*, so forcing
//!   a stall on every doorbell costs a replicated write two stalls (reply
//!   + list) however many slaves the list reaches;
//! * the steady-state send path is allocation-free: the master's send
//!   rings come from the frame pool, and after warm-up every borrow is a
//!   recycled buffer.

use skv_core::cluster::{Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::metrics::RunReport;
use skv_simcore::SimDuration;

fn spec(mode: Mode, slaves: usize, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(mode);
    cfg.num_slaves = slaves;
    RunSpec {
        cfg,
        num_clients: 4,
        pipeline: 1,
        set_ratio: 1.0, // pure SET: every command replicates
        mset_keys: 0,
        value_size: 128,
        key_space: 500,
        warmup: SimDuration::from_millis(100),
        measure: SimDuration::from_millis(300),
        seed,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

fn run(spec: RunSpec) -> (Cluster, RunReport) {
    let mut cluster = Cluster::build(spec);
    let report = cluster.run();
    (cluster, report)
}

/// `(rdma.wrs_posted, rdma.doorbells)` summed over every node.
fn fabric_posts(cluster: &Cluster) -> (u64, u64) {
    let c = cluster.net.counters();
    (c.get("rdma.wrs_posted"), c.get("rdma.doorbells"))
}

#[test]
fn host_fanout_is_one_doorbell_and_n_wrs_per_replicated_write() {
    // RDMA-Redis, 5 slaves, all synced before the first client command:
    // per SET the master posts a reply (1 WR, 1 doorbell) and the fan-out
    // (5 WRs, 1 doorbell). Client commands, handshakes, sync and progress
    // traffic are all single posts, so the fan-outs alone open the gap
    // between WRs and doorbells: 4 per replicated write, exactly. A
    // fan-out that rang a doorbell per slave would close it; one that
    // lost a WR, or a reply riding a list, would miss it.
    let slaves = 5u64;
    let (cluster, report) = run(spec(Mode::RdmaRedis, 5, 0xB0B));
    assert!(report.ops > 0);
    let master = cluster.master_server();
    let writes = master.stat_commands;
    let (wrs, doorbells) = fabric_posts(&cluster);
    assert_eq!(wrs - doorbells, (slaves - 1) * writes);
    // What the master *charged* its event loop for is what the fabric saw
    // it post: one list doorbell + one reply doorbell per write.
    assert_eq!(master.stat_doorbells, 2 * writes);
    assert_eq!(master.stat_wrs_posted, (slaves + 1) * writes);
}

#[test]
fn nic_fanout_is_one_doorbell_and_n_wrs_per_replicated_write() {
    // SKV, 3 slaves: the master posts one WR to the NIC per write and the
    // NIC's fan-out is the only linked post in the system.
    let slaves = 3u64;
    let (cluster, report) = run(spec(Mode::Skv, 3, 0xA11));
    assert!(report.ops > 0);
    let nic = cluster.nic_kv().expect("SKV mode has a Nic-KV");
    let writes = nic.stat_fanout_msgs;
    assert!(writes > 0, "fan-out actually ran");
    let (wrs, doorbells) = fabric_posts(&cluster);
    assert_eq!(wrs - doorbells, (slaves - 1) * writes);
    // The NIC's post-time statistics agree with the fabric WR for WR: had
    // they counted a frame at staging time instead of post time, or
    // missed one flushed by the MR handshake, these would drift apart.
    assert_eq!(nic.stat_doorbells(), writes);
    assert_eq!(nic.stat_wrs_posted(), slaves * writes);
}

#[test]
fn post_stall_is_drawn_once_per_doorbell() {
    // Force a stall on *every* doorbell and make it enormous relative to
    // everything else: the master's event loop then spends 50 µs per
    // doorbell and nothing else matters. A replicated write rings two —
    // its reply and its 5-WR list — so the closed loop settles just under
    // 1 / 100 µs = 10 kops/s. Were the stall drawn per linked WR again it
    // would pay six and crawl at 3.3 kops/s.
    let mut s = spec(Mode::RdmaRedis, 5, 0x57A11);
    s.cfg.costs.post_spike_prob = 1.0;
    s.cfg.costs.post_spike_cost = SimDuration::from_micros(50);
    let (_, report) = run(s);
    assert!(
        report.throughput_kops > 7.0 && report.throughput_kops < 10.0,
        "expected two 50 µs stalls per write, measured {} kops/s",
        report.throughput_kops
    );
}

#[test]
fn steady_state_send_path_does_not_allocate() {
    let (cluster, report) = run(spec(Mode::RdmaRedis, 3, 0xF00D));
    assert!(report.ops > 100, "need a real steady state");
    let pool = cluster.master_server().send_pool();
    assert!(
        pool.hits() + pool.misses() > 0,
        "the send path must route through the pool"
    );
    assert!(
        pool.hit_rate() > 0.95,
        "steady-state sends must reuse pooled rings, hit rate was {:.3} \
         ({} hits / {} misses)",
        pool.hit_rate(),
        pool.hits(),
        pool.misses()
    );
}

#[test]
fn fanned_out_replicas_converge() {
    for mode in [Mode::RdmaRedis, Mode::Skv] {
        let (mut cluster, report) = run(spec(mode, 3, 0xC0C0A));
        assert!(report.ops > 0, "{mode:?}: no ops measured");
        // Give in-flight replication a moment to drain, then all replicas
        // must agree byte-for-byte.
        cluster.run_until(skv_simcore::SimTime::from_secs(30));
        let digests = cluster.keyspace_digests();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "{mode:?}: replicas diverged: {digests:x?}"
        );
    }
}
