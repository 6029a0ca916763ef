//! Differential oracle for the whole command dialect on the sharded path.
//!
//! Shard routing, split execution and reply merging are derived from the
//! command table (`skv_store::cmd::COMMANDS`); this is the check that the
//! derivation is right for *every* row, not only the SET/GET/MSET the
//! bench clients speak. Random command streams over all families run
//! through `ShardSet::preload` — the master's real routed command path,
//! which needs no cluster around it — at 1, 2 and 4 shards: every reply
//! must equal the unsharded one and the merged keyspace digests must
//! agree after every stream.
//!
//! Commands that may not span shards draw `{tag}`-co-located keys, as a
//! Redis Cluster client would. Everything runs at simulated time zero, so
//! a TTL either kills its key at once (`EXPIRE k 0`) or outlives the
//! stream — expiry stays deterministic and TTL *bookkeeping* (RENAME and
//! COPY carrying it, PERSIST and plain SET clearing it) is still compared
//! through TTL/PTTL replies.

use proptest::prelude::*;
use skv_core::shard::ShardSet;
use skv_store::cmd::COMMANDS;
use skv_store::resp::Resp;

/// Table rows the oracle leaves out, and why each cannot be compared
/// across shard counts yet.
const EXCLUDED: [(&str, &str); 8] = [
    (
        "SPOP",
        "draws from the executing engine's RNG, seeded per shard",
    ),
    ("SRANDMEMBER", "draws from the executing engine's RNG"),
    (
        "RANDOMKEY",
        "samples shard 0's slice only (ROADMAP: gathered RANDOMKEY)",
    ),
    (
        "SCAN",
        "cursor walks shard 0's table only (ROADMAP: shard-tagged cursors)",
    ),
    (
        "SSCAN",
        "cursor order is a hash-table walk, compared nowhere else either",
    ),
    ("HSCAN", "as SSCAN"),
    ("ZSCAN", "as SSCAN"),
    ("INFO", "reports the answering engine's own statistics"),
];

/// Entropy for one command: a drawn `u64` stepped by splitmix64.
struct Dice(u64);

impl Dice {
    fn roll(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        usize::try_from((z ^ (z >> 31)) % n as u64).expect("below n")
    }

    fn pick(&mut self, from: &[&str]) -> String {
        from[self.roll(from.len())].to_string()
    }

    /// Any key: six untagged ones that spread over the shards and two
    /// tagged groups of three.
    fn key(&mut self) -> String {
        self.pick(&[
            "k0", "k1", "k2", "k3", "k4", "k5", "{a}0", "{a}1", "{a}2", "{b}0", "{b}1", "{b}2",
        ])
    }

    /// `n` keys of one tag group — co-located at every shard count.
    fn cohabiting(&mut self, n: usize) -> Vec<String> {
        let tag = self.pick(&["{a}", "{b}"]);
        (0..n).map(|_| format!("{tag}{}", self.roll(3))).collect()
    }

    fn keys(&mut self) -> Vec<String> {
        (0..1 + self.roll(3)).map(|_| self.key()).collect()
    }

    fn value(&mut self) -> String {
        self.pick(&["v0", "v1", "7", "-3", "3.5", "hello world", ""])
    }

    fn member(&mut self) -> String {
        self.pick(&["m0", "m1", "m2", "3", "4"])
    }

    fn field(&mut self) -> String {
        self.pick(&["f0", "f1", "f2"])
    }

    fn int(&mut self) -> String {
        self.pick(&["0", "1", "2", "-1", "-2", "5", "100"])
    }
}

/// One invocation of table row `name`, arguments drawn from `d`. `None`
/// for the [`EXCLUDED`] rows; panics on a row it has never heard of, so a
/// command added to the table must be added here (or excluded, with a
/// reason).
#[allow(clippy::too_many_lines)] // one arm per table row is the point
fn invocation(name: &str, d: &mut Dice) -> Option<Vec<String>> {
    if EXCLUDED.iter().any(|(excluded, _)| *excluded == name) {
        return None;
    }
    let mut cmd = vec![name.to_string()];
    let mut arg = |a: String| cmd.push(a);
    match name {
        "PING" | "DBSIZE" | "FLUSHDB" | "FLUSHALL" | "TIME" => {}
        "ECHO" => arg(d.value()),
        "SELECT" => arg("0".into()),
        "COMMAND" => arg("COUNT".into()),
        "KEYS" => arg(d.pick(&["*", "k*", "{a}*", "?1", "k[0-2]"])),
        // --- one key, then nothing or scalars ---
        "TYPE" | "TTL" | "PTTL" | "PERSIST" | "GET" | "GETDEL" | "STRLEN" | "INCR" | "DECR"
        | "LLEN" | "SCARD" | "SMEMBERS" | "HLEN" | "HGETALL" | "HKEYS" | "HVALS" | "ZCARD" => {
            arg(d.key());
        }
        "DEL" | "UNLINK" | "EXISTS" | "MGET" => d.keys().into_iter().for_each(arg),
        "EXPIRE" | "PEXPIRE" | "EXPIREAT" | "PEXPIREAT" => {
            arg(d.key());
            arg(d.pick(&["100000", "50", "0", "-1"]));
        }
        "OBJECT" => {
            arg("ENCODING".into());
            arg(d.key());
        }
        "SET" => {
            arg(d.key());
            arg(d.value());
            let tail = d.pick(&["", "", "NX", "XX", "EX 100", "PX 100000", "KEEPTTL"]);
            tail.split_whitespace().for_each(|w| arg(w.to_string()));
        }
        "SETNX" | "GETSET" | "APPEND" | "LPUSHX" | "RPUSHX" | "LPOS" => {
            arg(d.key());
            arg(d.value());
        }
        "SETEX" | "PSETEX" => {
            arg(d.key());
            arg(d.pick(&["100", "100000", "0"]));
            arg(d.value());
        }
        "MSET" => {
            for key in d.keys() {
                arg(key);
                arg(d.value());
            }
            if d.roll(8) == 0 {
                arg(d.key()); // a dangling key: the handler's own error
            }
        }
        "MSETNX" => {
            for key in d.cohabiting(2) {
                arg(key);
                arg(d.value());
            }
        }
        "INCRBY" | "DECRBY" | "LINDEX" => {
            arg(d.key());
            arg(d.int());
        }
        "INCRBYFLOAT" => {
            arg(d.key());
            arg(d.pick(&["1.5", "-0.25", "2"]));
        }
        "GETRANGE" | "LRANGE" | "LTRIM" | "ZRANGE" | "ZREVRANGE" | "ZREMRANGEBYRANK" => {
            arg(d.key());
            arg(d.int());
            arg(d.int());
            if name.starts_with('Z') && name.ends_with("RANGE") && d.roll(2) == 0 {
                arg("WITHSCORES".into());
            }
        }
        "SETRANGE" => {
            arg(d.key());
            arg(d.pick(&["0", "2", "5"]));
            arg(d.value());
        }
        "GETEX" => {
            arg(d.key());
            let tail = d.pick(&["", "PERSIST", "EX 100", "PX 100000"]);
            tail.split_whitespace().for_each(|w| arg(w.to_string()));
        }
        "SETBIT" => {
            arg(d.key());
            arg(d.pick(&["0", "7", "20"]));
            arg(d.pick(&["0", "1"]));
        }
        "GETBIT" => {
            arg(d.key());
            arg(d.pick(&["0", "7", "20"]));
        }
        "BITCOUNT" => {
            arg(d.key());
            if d.roll(2) == 0 {
                arg(d.int());
                arg(d.int());
            }
        }
        "BITPOS" => {
            arg(d.key());
            arg(d.pick(&["0", "1"]));
        }
        "BITOP" => {
            let op = d.pick(&["AND", "OR", "XOR", "NOT"]);
            let sources = if op == "NOT" { 1 } else { 1 + d.roll(2) };
            arg(op);
            d.cohabiting(1 + sources).into_iter().for_each(arg);
        }
        // --- two cohabiting keys ---
        "RENAME" | "RENAMENX" | "RPOPLPUSH" => d.cohabiting(2).into_iter().for_each(arg),
        "COPY" => {
            d.cohabiting(2).into_iter().for_each(&mut arg);
            if d.roll(2) == 0 {
                arg("REPLACE".into());
            }
        }
        "SMOVE" => {
            d.cohabiting(2).into_iter().for_each(&mut arg);
            arg(d.member());
        }
        // --- lists ---
        "LPUSH" | "RPUSH" => {
            arg(d.key());
            (0..1 + d.roll(3)).for_each(|_| arg(d.value()));
        }
        "LPOP" | "RPOP" | "ZPOPMIN" | "ZPOPMAX" => {
            arg(d.key());
            if d.roll(3) == 0 {
                arg(d.pick(&["1", "2"]));
            }
        }
        "LSET" => {
            arg(d.key());
            arg(d.int());
            arg(d.value());
        }
        "LREM" => {
            arg(d.key());
            arg(d.int());
            arg(d.value());
        }
        // --- sets ---
        "SADD" | "SREM" | "ZREM" => {
            arg(d.key());
            (0..1 + d.roll(3)).for_each(|_| arg(d.member()));
        }
        "SISMEMBER" | "ZSCORE" | "ZRANK" => {
            arg(d.key());
            arg(d.member());
        }
        "SINTER" | "SUNION" | "SDIFF" => {
            let n = 1 + d.roll(3);
            d.cohabiting(n).into_iter().for_each(arg);
        }
        "SINTERSTORE" | "SUNIONSTORE" | "SDIFFSTORE" => {
            let n = 2 + d.roll(2);
            d.cohabiting(n).into_iter().for_each(arg);
        }
        // --- hashes ---
        "HSET" | "HMSET" => {
            arg(d.key());
            for _ in 0..1 + d.roll(2) {
                arg(d.field());
                arg(d.value());
            }
        }
        "HSETNX" => {
            arg(d.key());
            arg(d.field());
            arg(d.value());
        }
        "HGET" | "HEXISTS" | "HSTRLEN" => {
            arg(d.key());
            arg(d.field());
        }
        "HMGET" | "HDEL" => {
            arg(d.key());
            (0..1 + d.roll(3)).for_each(|_| arg(d.field()));
        }
        "HINCRBY" => {
            arg(d.key());
            arg(d.field());
            arg(d.int());
        }
        // --- sorted sets ---
        "ZADD" => {
            arg(d.key());
            for _ in 0..1 + d.roll(2) {
                arg(d.pick(&["1", "2", "2.5", "-1", "10", "nan"]));
                arg(d.member());
            }
        }
        "ZINCRBY" => {
            arg(d.key());
            arg(d.pick(&["1", "-2", "0.5", "nan"]));
            arg(d.member());
        }
        "ZRANGEBYSCORE" | "ZCOUNT" | "ZREMRANGEBYSCORE" => {
            arg(d.key());
            arg(d.pick(&["-inf", "0", "1", "(1"]));
            arg(d.pick(&["+inf", "2", "5", "(2"]));
        }
        other => panic!("table row {other} has no generator arm and no exclusion"),
    }
    Some(cmd)
}

/// The table rows the oracle draws from.
fn drawn_rows() -> Vec<&'static str> {
    let mut dice = Dice(0);
    let rows = COMMANDS.iter().map(|c| c.name);
    rows.filter(|name| invocation(name, &mut dice).is_some())
        .collect()
}

/// A master's store, seeded as `KvServer::new(.., 7)` seeds it.
fn master(num_shards: usize) -> ShardSet {
    ShardSet::new(num_shards, 7)
}

/// A reply with shard-order-dependent listings put in a canonical order.
fn canonical(name: &str, reply: Resp) -> Resp {
    match reply {
        Resp::Array(mut items) if name == "KEYS" => {
            items.sort_by_key(Resp::encode);
            Resp::Array(items)
        }
        other => other,
    }
}

#[test]
fn oracle_covers_every_table_row_or_says_why_not() {
    let drawn = drawn_rows();
    assert_eq!(drawn.len() + EXCLUDED.len(), COMMANDS.len());
    for (name, why) in EXCLUDED {
        assert!(COMMANDS.iter().any(|c| c.name == name), "{name} is no row");
        assert!(!why.is_empty());
    }
    // Every generated invocation is well-formed enough to reach its
    // handler: the oracle must compare behaviour, not arity errors.
    let mut dice = Dice(7);
    let mut server = master(1);
    for name in drawn {
        for _ in 0..20 {
            let cmd = invocation(name, &mut dice).expect("drawn row");
            let parts: Vec<&str> = cmd.iter().map(String::as_str).collect();
            if let Resp::Error(e) = server.preload(&parts).reply {
                assert!(
                    !e.contains("unknown command") && !e.contains("arguments for '"),
                    "{parts:?}: {e}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn sharded_masters_answer_like_the_unsharded_one(
        stream in prop::collection::vec((any::<u32>(), any::<u64>()), 50..400),
    ) {
        let rows = drawn_rows();
        let mut servers = [master(1), master(2), master(4)];
        for (row, entropy) in stream {
            let name = rows[row as usize % rows.len()];
            let cmd = invocation(name, &mut Dice(entropy)).expect("drawn row");
            let parts: Vec<&str> = cmd.iter().map(String::as_str).collect();
            let mut replies = servers
                .iter_mut()
                .map(|s| canonical(name, s.preload(&parts).reply));
            let unsharded = replies.next().expect("three servers");
            for (sharded, shards) in replies.zip([2, 4]) {
                prop_assert_eq!(&sharded, &unsharded, "{:?} at {} shards", parts, shards);
            }
        }
        let digest = servers[0].digest();
        for s in &servers[1..] {
            prop_assert_eq!(s.digest(), digest);
        }
    }
}
