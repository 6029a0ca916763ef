//! Quickstart: build an SKV cluster (1 master + SmartNIC + 2 slaves), run a
//! mixed GET/SET workload, and inspect the results.
//!
//! ```text
//! cargo run --release -p skv-examples --bin quickstart
//! ```

use skv_core::cluster::{Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::metrics::catalog::{NicStat, ServerStat};
use skv_simcore::SimDuration;

fn main() {
    // 1. Describe the cluster: SKV mode puts Nic-KV on the master's
    //    simulated BlueField and offloads replication + failure detection.
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = 2;

    // 2. Describe the workload: 8 closed-loop clients, 70% SET / 30% GET,
    //    64-byte values, measured for 2 simulated seconds.
    let spec = RunSpec {
        cfg,
        num_clients: 8,
        pipeline: 1,
        set_ratio: 0.7,
        mset_keys: 0,
        value_size: 64,
        key_space: 50_000,
        warmup: SimDuration::from_millis(300),
        measure: SimDuration::from_secs(2),
        seed: 7,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    };

    // 3. Build and run. Everything is deterministic: same spec, same result.
    let mut cluster = Cluster::build(spec);
    let report = cluster.run();

    println!("== SKV quickstart ==");
    println!("{}", skv_core::metrics::RunReport::header());
    println!("{}", report.row());

    // 4. Inspect the distributed state.
    let master = cluster.master_server();
    println!(
        "\nmaster executed {} commands",
        master.stats().get(ServerStat::Commands)
    );
    println!("master replication offset: {} bytes", master.repl_offset());
    for i in 0..cluster.slaves.len() {
        let s = cluster.slave_server(i);
        println!(
            "slave {i}: synced={} applied {} stream bytes",
            s.is_synced_slave(),
            s.stats().get(ServerStat::AppliedBytes)
        );
    }
    if let Some(nic) = cluster.nic_kv() {
        println!(
            "Nic-KV: {} replication requests fanned out as {} sends, {} probes",
            nic.stats().get(NicStat::FanoutMsgs),
            nic.stats().get(NicStat::FanoutSends),
            nic.stats().get(NicStat::Probes)
        );
    }

    // 5. Replication is asynchronous; give it a beat and prove convergence.
    cluster
        .sim
        .run_until(cluster.measure_until + SimDuration::from_millis(500));
    let digests = cluster.keyspace_digests();
    println!("\nkeyspace digests (master first): {digests:x?}");
    assert!(
        digests.iter().all(|&d| d == digests[0]),
        "all replicas must converge"
    );
    println!("all replicas converged");
}
