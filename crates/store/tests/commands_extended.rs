//! Semantic tests for the extended command set: bit operations, cursor
//! scans, set algebra, sorted-set range deletions, and the string/keyspace
//! extensions.

// Test-only HashSet: checks *what* iteration yields, never its order.
#![allow(clippy::disallowed_types)]

use std::collections::HashSet;

use skv_store::engine::Engine;
use skv_store::resp::Resp;

fn eng() -> Engine {
    Engine::new(7)
}

fn r(e: &mut Engine, parts: &[&str]) -> Resp {
    e.exec_str(0, parts).reply
}

fn rt(e: &mut Engine, now_ms: u64, parts: &[&str]) -> Resp {
    e.execute(
        now_ms,
        &parts
            .iter()
            .map(|p| p.as_bytes().to_vec())
            .collect::<Vec<_>>(),
    )
    .reply
}

fn bulk(s: &str) -> Resp {
    Resp::Bulk(s.as_bytes().to_vec())
}

fn array(items: &[&str]) -> Resp {
    Resp::Array(items.iter().map(|s| bulk(s)).collect())
}

// ---------------------------------------------------------------------------
// bit operations
// ---------------------------------------------------------------------------

#[test]
fn setbit_getbit_roundtrip() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["SETBIT", "b", "7", "1"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["GETBIT", "b", "7"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["GETBIT", "b", "6"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["GETBIT", "b", "1000"]), Resp::Int(0));
    // Bit 7 of byte 0 = 0x01.
    assert_eq!(r(&mut e, &["GET", "b"]), Resp::Bulk(vec![1]));
    // Flip it back, old value reported.
    assert_eq!(r(&mut e, &["SETBIT", "b", "7", "0"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["GET", "b"]), Resp::Bulk(vec![0]));
    // Setting a far bit zero-extends.
    assert_eq!(r(&mut e, &["SETBIT", "b", "100", "1"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["STRLEN", "b"]), Resp::Int(13));
    assert!(r(&mut e, &["SETBIT", "b", "-1", "1"]).is_error());
    assert!(r(&mut e, &["SETBIT", "b", "0", "2"]).is_error());
}

#[test]
fn bitcount_whole_and_ranges() {
    let mut e = eng();
    r(&mut e, &["SET", "k", "foobar"]);
    assert_eq!(r(&mut e, &["BITCOUNT", "k"]), Resp::Int(26));
    assert_eq!(r(&mut e, &["BITCOUNT", "k", "0", "0"]), Resp::Int(4));
    assert_eq!(r(&mut e, &["BITCOUNT", "k", "1", "1"]), Resp::Int(6));
    assert_eq!(r(&mut e, &["BITCOUNT", "k", "0", "-1"]), Resp::Int(26));
    assert_eq!(r(&mut e, &["BITCOUNT", "missing"]), Resp::Int(0));
}

#[test]
fn bitpos_finds_first_bit() {
    let mut e = eng();
    r(&mut e, &["SET", "k", "\u{0}"]); // one zero byte isn't expressible; use SETBIT
    r(&mut e, &["DEL", "k"]);
    r(&mut e, &["SETBIT", "k", "12", "1"]);
    assert_eq!(r(&mut e, &["BITPOS", "k", "1"]), Resp::Int(12));
    assert_eq!(r(&mut e, &["BITPOS", "k", "0"]), Resp::Int(0));
    // Missing key.
    assert_eq!(r(&mut e, &["BITPOS", "none", "0"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["BITPOS", "none", "1"]), Resp::Int(-1));
    // All-ones string: first 0 is one past the end.
    r(&mut e, &["DEL", "k"]);
    for bit in 0..8 {
        r(&mut e, &["SETBIT", "k", &bit.to_string(), "1"]);
    }
    assert_eq!(r(&mut e, &["BITPOS", "k", "0"]), Resp::Int(8));
}

#[test]
fn bitop_and_or_xor_not() {
    let mut e = eng();
    r(&mut e, &["SET", "a", "abc"]);
    r(&mut e, &["SET", "b", "ab"]);
    assert_eq!(r(&mut e, &["BITOP", "AND", "dest", "a", "b"]), Resp::Int(3));
    // 'c' AND 0 = 0.
    assert_eq!(r(&mut e, &["GET", "dest"]), Resp::Bulk(vec![b'a', b'b', 0]));
    assert_eq!(r(&mut e, &["BITOP", "OR", "dest", "a", "b"]), Resp::Int(3));
    assert_eq!(r(&mut e, &["GET", "dest"]), bulk("abc"));
    assert_eq!(r(&mut e, &["BITOP", "XOR", "dest", "a", "a"]), Resp::Int(3));
    assert_eq!(r(&mut e, &["GET", "dest"]), Resp::Bulk(vec![0, 0, 0]));
    assert_eq!(r(&mut e, &["BITOP", "NOT", "dest", "a"]), Resp::Int(3));
    assert_eq!(
        r(&mut e, &["GET", "dest"]),
        Resp::Bulk(vec![!b'a', !b'b', !b'c'])
    );
    assert!(r(&mut e, &["BITOP", "NOT", "dest", "a", "b"]).is_error());
    // Empty result deletes the destination.
    assert_eq!(
        r(&mut e, &["BITOP", "AND", "dest", "ghost1", "ghost2"]),
        Resp::Int(0)
    );
    assert_eq!(r(&mut e, &["EXISTS", "dest"]), Resp::Int(0));
}

// ---------------------------------------------------------------------------
// SCAN family
// ---------------------------------------------------------------------------

fn drive_scan(e: &mut Engine, base: &[&str]) -> Vec<Vec<u8>> {
    let mut cursor = "0".to_string();
    let mut items = Vec::new();
    loop {
        let mut args: Vec<&str> = base.to_vec();
        args.push(&cursor);
        let reply = r(e, &args);
        let Resp::Array(parts) = reply else {
            panic!("scan must return an array, got {reply:?}");
        };
        let Resp::Bulk(next) = &parts[0] else {
            panic!("first element is the cursor");
        };
        let Resp::Array(batch) = &parts[1] else {
            panic!("second element is the item list");
        };
        for item in batch {
            let Resp::Bulk(b) = item else { panic!() };
            items.push(b.clone());
        }
        cursor = String::from_utf8(next.clone()).unwrap();
        if cursor == "0" {
            return items;
        }
    }
}

#[test]
fn scan_covers_whole_keyspace() {
    let mut e = eng();
    for i in 0..300 {
        r(&mut e, &["SET", &format!("k{i}"), "v"]);
    }
    let keys = drive_scan(&mut e, &["SCAN"]);
    let unique: HashSet<Vec<u8>> = keys.into_iter().collect();
    assert_eq!(unique.len(), 300, "every key seen at least once");
}

#[test]
fn scan_match_filters() {
    let mut e = eng();
    for i in 0..20 {
        r(&mut e, &["SET", &format!("user:{i}"), "v"]);
        r(&mut e, &["SET", &format!("item:{i}"), "v"]);
    }
    let mut cursor = "0".to_string();
    let mut seen = HashSet::new();
    loop {
        let reply = r(&mut e, &["SCAN", &cursor, "MATCH", "user:*", "COUNT", "4"]);
        let Resp::Array(parts) = reply else { panic!() };
        let Resp::Bulk(next) = &parts[0] else {
            panic!()
        };
        let Resp::Array(batch) = &parts[1] else {
            panic!()
        };
        for item in batch {
            let Resp::Bulk(b) = item else { panic!() };
            assert!(b.starts_with(b"user:"), "{:?}", String::from_utf8_lossy(b));
            seen.insert(b.clone());
        }
        cursor = String::from_utf8(next.clone()).unwrap();
        if cursor == "0" {
            break;
        }
    }
    assert_eq!(seen.len(), 20);
}

#[test]
fn hscan_returns_pairs() {
    let mut e = eng();
    for i in 0..50 {
        r(&mut e, &["HSET", "h", &format!("f{i}"), &format!("v{i}")]);
    }
    let items = drive_scan(&mut e, &["HSCAN", "h"]);
    assert!(items.len() >= 100, "field+value pairs");
    let mut fields = HashSet::new();
    for pair in items.chunks(2) {
        assert_eq!(pair.len(), 2);
        let f = String::from_utf8(pair[0].clone()).unwrap();
        let v = String::from_utf8(pair[1].clone()).unwrap();
        assert_eq!(
            Some(v.as_str()),
            f.strip_prefix('f').map(|n| format!("v{n}")).as_deref()
        );
        fields.insert(f);
    }
    assert_eq!(fields.len(), 50);
    // Missing key: empty, cursor 0.
    assert_eq!(
        r(&mut e, &["HSCAN", "ghost", "0"]),
        Resp::Array(vec![bulk("0"), Resp::Array(vec![])])
    );
}

#[test]
fn sscan_intset_single_shot() {
    let mut e = eng();
    r(&mut e, &["SADD", "s", "3", "1", "2"]);
    assert_eq!(
        r(&mut e, &["SSCAN", "s", "0"]),
        Resp::Array(vec![bulk("0"), array(&["1", "2", "3"])])
    );
    // Hashtable-encoded set scans with cursors.
    for i in 0..100 {
        r(&mut e, &["SADD", "big", &format!("member{i}")]);
    }
    let items = drive_scan(&mut e, &["SSCAN", "big"]);
    let unique: HashSet<Vec<u8>> = items.into_iter().collect();
    assert_eq!(unique.len(), 100);
}

#[test]
fn zscan_returns_member_score_pairs() {
    let mut e = eng();
    for i in 0..40 {
        r(&mut e, &["ZADD", "z", &i.to_string(), &format!("m{i}")]);
    }
    let items = drive_scan(&mut e, &["ZSCAN", "z"]);
    let mut seen = HashSet::new();
    for pair in items.chunks(2) {
        let m = String::from_utf8(pair[0].clone()).unwrap();
        let score = String::from_utf8(pair[1].clone()).unwrap();
        assert_eq!(Some(score.as_str()), m.get(1..));
        seen.insert(m);
    }
    assert_eq!(seen.len(), 40);
}

// ---------------------------------------------------------------------------
// set algebra
// ---------------------------------------------------------------------------

#[test]
fn sinter_sunion_sdiff() {
    let mut e = eng();
    r(&mut e, &["SADD", "a", "1", "2", "3", "x"]);
    r(&mut e, &["SADD", "b", "2", "3", "4", "x"]);
    assert_eq!(r(&mut e, &["SINTER", "a", "b"]), array(&["2", "3", "x"]));
    assert_eq!(
        r(&mut e, &["SUNION", "a", "b"]),
        array(&["1", "2", "3", "4", "x"])
    );
    assert_eq!(r(&mut e, &["SDIFF", "a", "b"]), array(&["1"]));
    assert_eq!(r(&mut e, &["SDIFF", "b", "a"]), array(&["4"]));
    // Missing keys act as empty sets.
    assert_eq!(r(&mut e, &["SINTER", "a", "ghost"]), Resp::Array(vec![]));
    assert_eq!(r(&mut e, &["SDIFF", "a", "a"]), Resp::Array(vec![]));
    // Type errors propagate.
    r(&mut e, &["SET", "str", "v"]);
    assert_eq!(r(&mut e, &["SINTER", "a", "str"]), Resp::wrongtype());
}

#[test]
fn algebra_store_variants() {
    let mut e = eng();
    r(&mut e, &["SADD", "a", "1", "2", "3"]);
    r(&mut e, &["SADD", "b", "2", "3", "4"]);
    assert_eq!(r(&mut e, &["SINTERSTORE", "dst", "a", "b"]), Resp::Int(2));
    assert_eq!(r(&mut e, &["SMEMBERS", "dst"]), array(&["2", "3"]));
    assert_eq!(r(&mut e, &["SUNIONSTORE", "dst", "a", "b"]), Resp::Int(4));
    assert_eq!(r(&mut e, &["SCARD", "dst"]), Resp::Int(4));
    // Empty result deletes the destination.
    assert_eq!(r(&mut e, &["SDIFFSTORE", "dst", "a", "a"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["EXISTS", "dst"]), Resp::Int(0));
}

#[test]
fn smove_between_sets() {
    let mut e = eng();
    r(&mut e, &["SADD", "src", "a", "b"]);
    r(&mut e, &["SADD", "dst", "c"]);
    assert_eq!(r(&mut e, &["SMOVE", "src", "dst", "a"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["SMEMBERS", "src"]), array(&["b"]));
    assert_eq!(r(&mut e, &["SMEMBERS", "dst"]), array(&["a", "c"]));
    assert_eq!(r(&mut e, &["SMOVE", "src", "dst", "ghost"]), Resp::Int(0));
    // Moving the last member reaps the source.
    assert_eq!(r(&mut e, &["SMOVE", "src", "dst", "b"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["EXISTS", "src"]), Resp::Int(0));
}

// ---------------------------------------------------------------------------
// sorted-set extensions
// ---------------------------------------------------------------------------

#[test]
fn zrevrange_mirrors_zrange() {
    let mut e = eng();
    r(&mut e, &["ZADD", "z", "1", "a", "2", "b", "3", "c"]);
    assert_eq!(
        r(&mut e, &["ZREVRANGE", "z", "0", "-1"]),
        array(&["c", "b", "a"])
    );
    assert_eq!(r(&mut e, &["ZREVRANGE", "z", "0", "0"]), array(&["c"]));
    assert_eq!(r(&mut e, &["ZREVRANGE", "z", "1", "2"]), array(&["b", "a"]));
    assert_eq!(
        r(&mut e, &["ZREVRANGE", "z", "0", "0", "WITHSCORES"]),
        array(&["c", "3"])
    );
}

#[test]
fn zpopmin_zpopmax() {
    let mut e = eng();
    r(&mut e, &["ZADD", "z", "1", "a", "2", "b", "3", "c"]);
    assert_eq!(r(&mut e, &["ZPOPMIN", "z"]), array(&["a", "1"]));
    assert_eq!(r(&mut e, &["ZPOPMAX", "z"]), array(&["c", "3"]));
    assert_eq!(r(&mut e, &["ZCARD", "z"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["ZPOPMIN", "z", "5"]), array(&["b", "2"]));
    assert_eq!(r(&mut e, &["EXISTS", "z"]), Resp::Int(0), "reaped");
    assert_eq!(r(&mut e, &["ZPOPMIN", "ghost"]), Resp::Array(vec![]));
}

#[test]
fn zremrange_by_score_and_rank() {
    let mut e = eng();
    for i in 1..=10 {
        r(&mut e, &["ZADD", "z", &i.to_string(), &format!("m{i:02}")]);
    }
    assert_eq!(
        r(&mut e, &["ZREMRANGEBYSCORE", "z", "3", "5"]),
        Resp::Int(3)
    );
    assert_eq!(r(&mut e, &["ZCARD", "z"]), Resp::Int(7));
    assert_eq!(
        r(&mut e, &["ZREMRANGEBYSCORE", "z", "(6", "7"]),
        Resp::Int(1),
        "exclusive lower bound"
    );
    assert_eq!(r(&mut e, &["ZREMRANGEBYRANK", "z", "0", "1"]), Resp::Int(2));
    assert_eq!(
        r(&mut e, &["ZRANGE", "z", "0", "-1"]),
        array(&["m06", "m08", "m09", "m10"])
    );
    assert_eq!(
        r(&mut e, &["ZREMRANGEBYRANK", "z", "-1", "-1"]),
        Resp::Int(1)
    );
    assert_eq!(
        r(&mut e, &["ZRANGE", "z", "0", "-1"]),
        array(&["m06", "m08", "m09"])
    );
}

/// NaN is no float to Redis: every float argument rejects it with its
/// command's own error and leaves the keyspace as it was. (A stored NaN
/// score used to make the next update of that member panic in
/// `ZSet::add`.)
#[test]
fn nan_is_rejected_by_every_float_argument() {
    let mut e = eng();
    r(&mut e, &["ZADD", "z", "1", "m"]);
    r(&mut e, &["SET", "f", "1.5"]);
    let not_a_float = Resp::err("value is not a valid float");
    let bad_bound = Resp::err("min or max is not a float");
    for nan in ["nan", "NaN", "-nan", "+NAN"] {
        assert_eq!(r(&mut e, &["ZADD", "z", nan, "m"]), not_a_float, "{nan}");
        assert_eq!(r(&mut e, &["ZADD", "z", "2", "n", nan, "m"]), not_a_float);
        assert_eq!(r(&mut e, &["ZADD", "new", nan, "m"]), not_a_float);
        assert_eq!(r(&mut e, &["ZINCRBY", "z", nan, "m"]), not_a_float);
        assert_eq!(r(&mut e, &["ZINCRBY", "new", nan, "m"]), not_a_float);
        assert_eq!(r(&mut e, &["INCRBYFLOAT", "f", nan]), not_a_float);
        assert_eq!(r(&mut e, &["ZCOUNT", "z", nan, "+inf"]), bad_bound);
        let exclusive = format!("({nan}");
        assert_eq!(r(&mut e, &["ZCOUNT", "z", "-inf", &exclusive]), bad_bound);
    }
    assert_eq!(
        r(&mut e, &["ZRANGE", "z", "0", "-1", "WITHSCORES"]),
        array(&["m", "1"])
    );
    assert_eq!(r(&mut e, &["GET", "f"]), bulk("1.5"));
    assert_eq!(r(&mut e, &["EXISTS", "new"]), Resp::Int(0));
    // The member is still found: an update moves it.
    assert_eq!(r(&mut e, &["ZINCRBY", "z", "2", "m"]), bulk("3"));
    assert_eq!(r(&mut e, &["ZADD", "z", "5", "m"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["ZSCORE", "z", "m"]), bulk("5"));
}

// ---------------------------------------------------------------------------
// list extensions
// ---------------------------------------------------------------------------

#[test]
fn rpoplpush_rotates() {
    let mut e = eng();
    r(&mut e, &["RPUSH", "src", "a", "b", "c"]);
    assert_eq!(r(&mut e, &["RPOPLPUSH", "src", "dst"]), bulk("c"));
    assert_eq!(r(&mut e, &["LRANGE", "src", "0", "-1"]), array(&["a", "b"]));
    assert_eq!(r(&mut e, &["LRANGE", "dst", "0", "-1"]), array(&["c"]));
    // Self-rotation.
    assert_eq!(r(&mut e, &["RPOPLPUSH", "src", "src"]), bulk("b"));
    assert_eq!(r(&mut e, &["LRANGE", "src", "0", "-1"]), array(&["b", "a"]));
    assert_eq!(r(&mut e, &["RPOPLPUSH", "ghost", "dst"]), Resp::NullBulk);
    // Wrong destination type restores the source element.
    r(&mut e, &["SET", "str", "v"]);
    assert_eq!(r(&mut e, &["RPOPLPUSH", "dst", "str"]), Resp::wrongtype());
    assert_eq!(r(&mut e, &["LRANGE", "dst", "0", "-1"]), array(&["c"]));
}

#[test]
fn lpos_with_rank() {
    let mut e = eng();
    r(&mut e, &["RPUSH", "l", "a", "b", "c", "b", "a"]);
    assert_eq!(r(&mut e, &["LPOS", "l", "b"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["LPOS", "l", "b", "RANK", "2"]), Resp::Int(3));
    assert_eq!(r(&mut e, &["LPOS", "l", "a", "RANK", "-1"]), Resp::Int(4));
    assert_eq!(r(&mut e, &["LPOS", "l", "a", "RANK", "-2"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["LPOS", "l", "zz"]), Resp::NullBulk);
    assert!(r(&mut e, &["LPOS", "l", "a", "RANK", "0"]).is_error());
}

// ---------------------------------------------------------------------------
// string/keyspace extensions
// ---------------------------------------------------------------------------

#[test]
fn getex_variants() {
    let mut e = eng();
    rt(&mut e, 0, &["SET", "k", "v"]);
    // Plain GETEX does not touch the TTL.
    assert_eq!(rt(&mut e, 0, &["GETEX", "k"]), bulk("v"));
    assert_eq!(rt(&mut e, 0, &["TTL", "k"]), Resp::Int(-1));
    // GETEX EX sets one.
    assert_eq!(rt(&mut e, 0, &["GETEX", "k", "EX", "10"]), bulk("v"));
    assert_eq!(rt(&mut e, 0, &["TTL", "k"]), Resp::Int(10));
    // GETEX PERSIST clears it.
    assert_eq!(rt(&mut e, 0, &["GETEX", "k", "PERSIST"]), bulk("v"));
    assert_eq!(rt(&mut e, 0, &["TTL", "k"]), Resp::Int(-1));
    assert_eq!(rt(&mut e, 0, &["GETEX", "ghost"]), Resp::NullBulk);
}

#[test]
fn incrbyfloat_accumulates() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["INCRBYFLOAT", "f", "1.5"]), bulk("1.5"));
    assert_eq!(r(&mut e, &["INCRBYFLOAT", "f", "2.25"]), bulk("3.75"));
    assert_eq!(r(&mut e, &["INCRBYFLOAT", "f", "-3.75"]), bulk("0"));
    r(&mut e, &["SET", "n", "10"]);
    assert_eq!(r(&mut e, &["INCRBYFLOAT", "n", "0.5"]), bulk("10.5"));
    r(&mut e, &["SET", "s", "notanumber"]);
    assert!(r(&mut e, &["INCRBYFLOAT", "s", "1"]).is_error());
}

#[test]
fn copy_clones_value_and_ttl() {
    let mut e = eng();
    rt(&mut e, 0, &["SET", "src", "v"]);
    rt(&mut e, 0, &["EXPIRE", "src", "100"]);
    assert_eq!(rt(&mut e, 0, &["COPY", "src", "dst"]), Resp::Int(1));
    assert_eq!(rt(&mut e, 0, &["GET", "dst"]), bulk("v"));
    assert_eq!(rt(&mut e, 0, &["TTL", "dst"]), Resp::Int(100));
    // Source is untouched (unlike RENAME).
    assert_eq!(rt(&mut e, 0, &["EXISTS", "src"]), Resp::Int(1));
    // Existing destination refuses without REPLACE.
    rt(&mut e, 0, &["SET", "dst", "other"]);
    assert_eq!(rt(&mut e, 0, &["COPY", "src", "dst"]), Resp::Int(0));
    assert_eq!(
        rt(&mut e, 0, &["COPY", "src", "dst", "REPLACE"]),
        Resp::Int(1)
    );
    assert_eq!(rt(&mut e, 0, &["COPY", "ghost", "x"]), Resp::Int(0));
}

#[test]
fn object_encoding_reports() {
    let mut e = eng();
    r(&mut e, &["SET", "int", "42"]);
    r(&mut e, &["SET", "short", "hello"]);
    r(&mut e, &["SET", "long", &"x".repeat(100)]);
    r(&mut e, &["RPUSH", "list", "a"]);
    r(&mut e, &["SADD", "iset", "1"]);
    r(&mut e, &["SADD", "hset", "word"]);
    r(&mut e, &["HSET", "hash", "f", "v"]);
    r(&mut e, &["ZADD", "zset", "1", "m"]);
    for (key, enc) in [
        ("int", "int"),
        ("short", "embstr"),
        ("long", "raw"),
        ("list", "quicklist"),
        ("iset", "intset"),
        ("hset", "hashtable"),
        ("hash", "hashtable"),
        ("zset", "skiplist"),
    ] {
        assert_eq!(
            r(&mut e, &["OBJECT", "ENCODING", key]),
            bulk(enc),
            "encoding of {key}"
        );
    }
    assert!(r(&mut e, &["OBJECT", "ENCODING", "ghost"]).is_error());
    assert!(r(&mut e, &["OBJECT", "FREQ", "int"]).is_error());
}

#[test]
fn new_write_commands_replicate() {
    // Every new mutating command must carry the WRITE flag and mark dirty.
    let mut e = eng();
    r(&mut e, &["SADD", "a", "1", "2"]);
    r(&mut e, &["SADD", "b", "2"]);
    r(&mut e, &["RPUSH", "l", "x"]);
    for cmd in [
        vec!["SETBIT", "bits", "3", "1"],
        vec!["BITOP", "NOT", "bd", "bits"],
        vec!["SINTERSTORE", "sd", "a", "b"],
        vec!["SMOVE", "a", "b", "1"],
        vec!["RPOPLPUSH", "l", "l2"],
        vec!["INCRBYFLOAT", "f", "1.5"],
        vec!["COPY", "f", "f2"],
        vec!["GETEX", "f", "EX", "5"],
        vec!["ZADD", "z", "1", "m"],
        vec!["ZPOPMIN", "z"],
    ] {
        let res = e.exec_str(1000, &cmd);
        assert!(!res.reply.is_error(), "{cmd:?} -> {:?}", res.reply);
        assert!(res.is_write, "{cmd:?} must be WRITE-flagged");
        assert!(res.should_replicate(), "{cmd:?} must replicate");
    }
}
