//! Per-command semantic tests for the Redis-like engine, checked against
//! documented Redis behaviour.

use skv_store::engine::Engine;
use skv_store::resp::Resp;

fn eng() -> Engine {
    Engine::new(42)
}

/// Execute and return the reply.
fn r(e: &mut Engine, parts: &[&str]) -> Resp {
    e.exec_str(0, parts).reply
}

/// Execute at a given time.
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
// strings
// ---------------------------------------------------------------------------

#[test]
fn set_get_basic() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["SET", "k", "v"]), Resp::ok());
    assert_eq!(r(&mut e, &["GET", "k"]), bulk("v"));
    assert_eq!(r(&mut e, &["GET", "missing"]), Resp::NullBulk);
}

#[test]
fn set_nx_xx_options() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["SET", "k", "v1", "NX"]), Resp::ok());
    assert_eq!(r(&mut e, &["SET", "k", "v2", "NX"]), Resp::NullBulk);
    assert_eq!(r(&mut e, &["GET", "k"]), bulk("v1"));
    assert_eq!(r(&mut e, &["SET", "k", "v3", "XX"]), Resp::ok());
    assert_eq!(r(&mut e, &["SET", "nope", "v", "XX"]), Resp::NullBulk);
    assert!(r(&mut e, &["SET", "k", "v", "NX", "XX"]).is_error());
    assert!(r(&mut e, &["SET", "k", "v", "BOGUS"]).is_error());
}

#[test]
fn set_ex_px_and_keepttl() {
    let mut e = eng();
    assert_eq!(rt(&mut e, 0, &["SET", "k", "v", "EX", "10"]), Resp::ok());
    assert_eq!(rt(&mut e, 0, &["TTL", "k"]), Resp::Int(10));
    // Plain SET clears the TTL.
    assert_eq!(rt(&mut e, 0, &["SET", "k", "v2"]), Resp::ok());
    assert_eq!(rt(&mut e, 0, &["TTL", "k"]), Resp::Int(-1));
    // KEEPTTL preserves it.
    assert_eq!(rt(&mut e, 0, &["SET", "k", "v", "PX", "5000"]), Resp::ok());
    assert_eq!(rt(&mut e, 0, &["SET", "k", "v3", "KEEPTTL"]), Resp::ok());
    assert_eq!(rt(&mut e, 0, &["PTTL", "k"]), Resp::Int(5000));
    // Non-positive expirations are rejected.
    assert!(rt(&mut e, 0, &["SET", "k", "v", "EX", "0"]).is_error());
    assert!(rt(&mut e, 0, &["SET", "k", "v", "EX", "abc"]).is_error());
}

/// `SET` reaps a dead key before it writes, whatever its options: the reap
/// is one mutation and one `stat_expired` of its own, the old TTL goes with
/// the old key, and a refused `XX` still replicates because of the reap.
#[test]
fn set_over_an_expired_key_reaps_it_first() {
    // (options, reply, dirty_delta, TTL afterwards: -1 none, -2 no key)
    let cases: [(&[&str], Resp, u64, i64); 5] = [
        (&[], Resp::ok(), 2, -1),
        (&["KEEPTTL"], Resp::ok(), 2, -1),
        (&["NX"], Resp::ok(), 2, -1),
        (&["XX"], Resp::NullBulk, 1, -2),
        (&["PX", "700"], Resp::ok(), 3, 700),
    ];
    for (opts, reply, dirty, ttl) in cases {
        let mut e = eng();
        assert_eq!(rt(&mut e, 0, &["SET", "k", "old", "PX", "100"]), Resp::ok());
        let mut cmd = vec!["SET", "k", "new"];
        cmd.extend_from_slice(opts);
        let res = e.exec_str(100, &cmd);
        assert_eq!(res.reply, reply, "{opts:?}");
        assert_eq!(res.dirty_delta, dirty, "{opts:?}");
        assert!(res.should_replicate(), "{opts:?}");
        assert_eq!(e.db().stat_expired(), 1, "{opts:?}");
        assert_eq!(rt(&mut e, 100, &["PTTL", "k"]), Resp::Int(ttl), "{opts:?}");
        assert_eq!(e.db().stat_expired(), 1, "nothing left to reap: {opts:?}");
    }
    // A live key is not reaped, and an unconditional SET clears its TTL.
    let mut e = eng();
    rt(&mut e, 0, &["SET", "k", "old", "PX", "100"]);
    let res = e.exec_str(99, &["SET", "k", "new"]);
    assert_eq!((res.reply, res.dirty_delta), (Resp::ok(), 1));
    assert_eq!(e.db().stat_expired(), 0);
    assert_eq!(rt(&mut e, 99, &["PTTL", "k"]), Resp::Int(-1));
}

#[test]
fn setnx_setex_psetex() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["SETNX", "k", "v"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["SETNX", "k", "w"]), Resp::Int(0));
    assert_eq!(rt(&mut e, 0, &["SETEX", "s", "5", "v"]), Resp::ok());
    assert_eq!(rt(&mut e, 0, &["TTL", "s"]), Resp::Int(5));
    assert_eq!(rt(&mut e, 0, &["PSETEX", "p", "1500", "v"]), Resp::ok());
    assert_eq!(rt(&mut e, 0, &["PTTL", "p"]), Resp::Int(1500));
    assert!(rt(&mut e, 0, &["SETEX", "s", "0", "v"]).is_error());
}

#[test]
fn getset_and_getdel() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["GETSET", "k", "new"]), Resp::NullBulk);
    assert_eq!(r(&mut e, &["GETSET", "k", "newer"]), bulk("new"));
    assert_eq!(r(&mut e, &["GETDEL", "k"]), bulk("newer"));
    assert_eq!(r(&mut e, &["EXISTS", "k"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["GETDEL", "k"]), Resp::NullBulk);
}

#[test]
fn mset_mget_msetnx() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["MSET", "a", "1", "b", "2"]), Resp::ok());
    assert_eq!(
        r(&mut e, &["MGET", "a", "b", "c"]),
        Resp::Array(vec![bulk("1"), bulk("2"), Resp::NullBulk])
    );
    assert_eq!(r(&mut e, &["MSETNX", "c", "3", "d", "4"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["MSETNX", "d", "x", "e", "5"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["EXISTS", "e"]), Resp::Int(0), "all-or-nothing");
    assert!(r(&mut e, &["MSET", "a"]).is_error());
}

#[test]
fn append_and_strlen() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["APPEND", "k", "Hello"]), Resp::Int(5));
    assert_eq!(r(&mut e, &["APPEND", "k", " World"]), Resp::Int(11));
    assert_eq!(r(&mut e, &["GET", "k"]), bulk("Hello World"));
    assert_eq!(r(&mut e, &["STRLEN", "k"]), Resp::Int(11));
    assert_eq!(r(&mut e, &["STRLEN", "missing"]), Resp::Int(0));
    // APPEND to an integer-encoded value converts it.
    r(&mut e, &["SET", "n", "42"]);
    assert_eq!(r(&mut e, &["APPEND", "n", "x"]), Resp::Int(3));
    assert_eq!(r(&mut e, &["GET", "n"]), bulk("42x"));
}

#[test]
fn incr_decr_family() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["INCR", "n"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["INCR", "n"]), Resp::Int(2));
    assert_eq!(r(&mut e, &["INCRBY", "n", "40"]), Resp::Int(42));
    assert_eq!(r(&mut e, &["DECR", "n"]), Resp::Int(41));
    assert_eq!(r(&mut e, &["DECRBY", "n", "41"]), Resp::Int(0));
    // Non-integer values error.
    r(&mut e, &["SET", "s", "abc"]);
    assert!(r(&mut e, &["INCR", "s"]).is_error());
    // Overflow errors.
    r(&mut e, &["SET", "big", "9223372036854775807"]);
    assert!(r(&mut e, &["INCR", "big"]).is_error());
    // INCR preserves a TTL (it's an update, not a fresh SET).
    rt(&mut e, 0, &["SET", "t", "1", "EX", "100"]);
    rt(&mut e, 0, &["INCR", "t"]);
    assert_eq!(rt(&mut e, 0, &["TTL", "t"]), Resp::Int(100));
}

#[test]
fn getrange_setrange() {
    let mut e = eng();
    r(&mut e, &["SET", "k", "This is a string"]);
    assert_eq!(r(&mut e, &["GETRANGE", "k", "0", "3"]), bulk("This"));
    assert_eq!(r(&mut e, &["GETRANGE", "k", "-3", "-1"]), bulk("ing"));
    assert_eq!(
        r(&mut e, &["GETRANGE", "k", "0", "-1"]),
        bulk("This is a string")
    );
    assert_eq!(r(&mut e, &["GETRANGE", "missing", "0", "-1"]), bulk(""));
    assert_eq!(r(&mut e, &["SETRANGE", "k", "10", "Rust!!"]), Resp::Int(16));
    assert_eq!(r(&mut e, &["GET", "k"]), bulk("This is a Rust!!"));
    // Zero-padding on extension.
    assert_eq!(r(&mut e, &["SETRANGE", "pad", "3", "x"]), Resp::Int(4));
    assert_eq!(r(&mut e, &["GET", "pad"]), Resp::Bulk(vec![0, 0, 0, b'x']));
    // SETRANGE with empty value on a missing key creates nothing.
    assert_eq!(r(&mut e, &["SETRANGE", "nada", "5", ""]), Resp::Int(0));
    assert_eq!(r(&mut e, &["EXISTS", "nada"]), Resp::Int(0));
}

// ---------------------------------------------------------------------------
// keyspace
// ---------------------------------------------------------------------------

#[test]
fn del_exists_type() {
    let mut e = eng();
    r(&mut e, &["SET", "a", "1"]);
    r(&mut e, &["RPUSH", "l", "x"]);
    assert_eq!(r(&mut e, &["EXISTS", "a", "l", "nope", "a"]), Resp::Int(3));
    assert_eq!(r(&mut e, &["TYPE", "a"]), Resp::Simple("string".into()));
    assert_eq!(r(&mut e, &["TYPE", "l"]), Resp::Simple("list".into()));
    assert_eq!(r(&mut e, &["TYPE", "nope"]), Resp::Simple("none".into()));
    assert_eq!(r(&mut e, &["DEL", "a", "l", "nope"]), Resp::Int(2));
    assert_eq!(r(&mut e, &["DEL", "a"]), Resp::Int(0));
}

#[test]
fn expire_ttl_persist_lifecycle() {
    let mut e = eng();
    rt(&mut e, 1_000, &["SET", "k", "v"]);
    assert_eq!(rt(&mut e, 1_000, &["EXPIRE", "k", "10"]), Resp::Int(1));
    assert_eq!(rt(&mut e, 6_000, &["TTL", "k"]), Resp::Int(5));
    assert_eq!(rt(&mut e, 6_000, &["PERSIST", "k"]), Resp::Int(1));
    assert_eq!(rt(&mut e, 60_000, &["GET", "k"]), bulk("v"));
    // Expire a key and watch it vanish.
    assert_eq!(rt(&mut e, 60_000, &["PEXPIRE", "k", "500"]), Resp::Int(1));
    assert_eq!(rt(&mut e, 60_499, &["EXISTS", "k"]), Resp::Int(1));
    assert_eq!(rt(&mut e, 60_500, &["EXISTS", "k"]), Resp::Int(0));
    assert_eq!(rt(&mut e, 60_500, &["TTL", "k"]), Resp::Int(-2));
    // EXPIRE on a missing key.
    assert_eq!(rt(&mut e, 0, &["EXPIRE", "ghost", "10"]), Resp::Int(0));
    // Negative TTL deletes immediately.
    rt(&mut e, 0, &["SET", "dead", "v"]);
    assert_eq!(rt(&mut e, 0, &["EXPIRE", "dead", "-1"]), Resp::Int(1));
    assert_eq!(rt(&mut e, 0, &["EXISTS", "dead"]), Resp::Int(0));
}

#[test]
fn expireat_absolute() {
    let mut e = eng();
    rt(&mut e, 0, &["SET", "k", "v"]);
    assert_eq!(rt(&mut e, 0, &["EXPIREAT", "k", "100"]), Resp::Int(1));
    assert_eq!(rt(&mut e, 50_000, &["EXISTS", "k"]), Resp::Int(1));
    assert_eq!(rt(&mut e, 100_000, &["EXISTS", "k"]), Resp::Int(0));
}

#[test]
fn rename_semantics() {
    let mut e = eng();
    rt(&mut e, 0, &["SET", "src", "v"]);
    rt(&mut e, 0, &["EXPIRE", "src", "100"]);
    assert_eq!(rt(&mut e, 0, &["RENAME", "src", "dst"]), Resp::ok());
    assert_eq!(rt(&mut e, 0, &["EXISTS", "src"]), Resp::Int(0));
    assert_eq!(rt(&mut e, 0, &["TTL", "dst"]), Resp::Int(100), "TTL moves");
    assert!(rt(&mut e, 0, &["RENAME", "ghost", "x"]).is_error());
    // RENAMENX refuses an existing target.
    rt(&mut e, 0, &["SET", "other", "w"]);
    assert_eq!(rt(&mut e, 0, &["RENAMENX", "dst", "other"]), Resp::Int(0));
    assert_eq!(rt(&mut e, 0, &["RENAMENX", "dst", "fresh"]), Resp::Int(1));
}

#[test]
fn keys_glob() {
    let mut e = eng();
    for k in ["one", "two", "three", "four"] {
        r(&mut e, &["SET", k, "v"]);
    }
    assert_eq!(r(&mut e, &["KEYS", "t*"]), array(&["three", "two"]));
    assert_eq!(r(&mut e, &["KEYS", "*o*"]), array(&["four", "one", "two"]));
    assert_eq!(r(&mut e, &["KEYS", "?????"]), array(&["three"]));
    assert_eq!(
        r(&mut e, &["KEYS", "*"]),
        array(&["four", "one", "three", "two"])
    );
}

#[test]
fn randomkey_dbsize_flush() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["RANDOMKEY"]), Resp::NullBulk);
    for i in 0..5 {
        r(&mut e, &["SET", &format!("k{i}"), "v"]);
    }
    assert_eq!(r(&mut e, &["DBSIZE"]), Resp::Int(5));
    match r(&mut e, &["RANDOMKEY"]) {
        Resp::Bulk(k) => assert!(k.starts_with(b"k")),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(r(&mut e, &["FLUSHDB"]), Resp::ok());
    assert_eq!(r(&mut e, &["DBSIZE"]), Resp::Int(0));
}

// ---------------------------------------------------------------------------
// lists
// ---------------------------------------------------------------------------

#[test]
fn push_pop_llen() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["RPUSH", "l", "a", "b"]), Resp::Int(2));
    assert_eq!(r(&mut e, &["LPUSH", "l", "z"]), Resp::Int(3));
    assert_eq!(r(&mut e, &["LLEN", "l"]), Resp::Int(3));
    assert_eq!(r(&mut e, &["LPOP", "l"]), bulk("z"));
    assert_eq!(r(&mut e, &["RPOP", "l"]), bulk("b"));
    assert_eq!(r(&mut e, &["RPOP", "l"]), bulk("a"));
    // Empty list is reaped.
    assert_eq!(r(&mut e, &["EXISTS", "l"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["LPOP", "l"]), Resp::NullBulk);
    // LPUSHX/RPUSHX require existence.
    assert_eq!(r(&mut e, &["LPUSHX", "l", "x"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["RPUSHX", "l", "x"]), Resp::Int(0));
    r(&mut e, &["RPUSH", "l", "a"]);
    assert_eq!(r(&mut e, &["LPUSHX", "l", "x"]), Resp::Int(2));
}

#[test]
fn pop_with_count() {
    let mut e = eng();
    r(&mut e, &["RPUSH", "l", "a", "b", "c", "d"]);
    assert_eq!(r(&mut e, &["LPOP", "l", "2"]), array(&["a", "b"]));
    assert_eq!(r(&mut e, &["RPOP", "l", "9"]), array(&["d", "c"]));
    assert_eq!(r(&mut e, &["LPOP", "missing", "2"]), Resp::NullArray);
    assert!(r(&mut e, &["LPOP", "l", "-1"]).is_error());
}

#[test]
fn lrange_lindex_lset() {
    let mut e = eng();
    r(&mut e, &["RPUSH", "l", "a", "b", "c", "d", "e"]);
    assert_eq!(
        r(&mut e, &["LRANGE", "l", "0", "2"]),
        array(&["a", "b", "c"])
    );
    assert_eq!(r(&mut e, &["LRANGE", "l", "-2", "-1"]), array(&["d", "e"]));
    assert_eq!(r(&mut e, &["LRANGE", "l", "3", "1"]), Resp::Array(vec![]));
    assert_eq!(r(&mut e, &["LINDEX", "l", "0"]), bulk("a"));
    assert_eq!(r(&mut e, &["LINDEX", "l", "-1"]), bulk("e"));
    assert_eq!(r(&mut e, &["LINDEX", "l", "99"]), Resp::NullBulk);
    assert_eq!(r(&mut e, &["LSET", "l", "1", "B"]), Resp::ok());
    assert_eq!(r(&mut e, &["LINDEX", "l", "1"]), bulk("B"));
    assert!(r(&mut e, &["LSET", "l", "99", "x"]).is_error());
    assert!(r(&mut e, &["LSET", "ghost", "0", "x"]).is_error());
}

#[test]
fn ltrim_and_lrem() {
    let mut e = eng();
    r(&mut e, &["RPUSH", "l", "a", "b", "c", "d", "e"]);
    assert_eq!(r(&mut e, &["LTRIM", "l", "1", "3"]), Resp::ok());
    assert_eq!(
        r(&mut e, &["LRANGE", "l", "0", "-1"]),
        array(&["b", "c", "d"])
    );
    // Trim to nothing reaps the key.
    assert_eq!(r(&mut e, &["LTRIM", "l", "5", "10"]), Resp::ok());
    assert_eq!(r(&mut e, &["EXISTS", "l"]), Resp::Int(0));

    r(&mut e, &["RPUSH", "m", "x", "y", "x", "y", "x"]);
    assert_eq!(r(&mut e, &["LREM", "m", "2", "x"]), Resp::Int(2));
    assert_eq!(
        r(&mut e, &["LRANGE", "m", "0", "-1"]),
        array(&["y", "y", "x"])
    );
    assert_eq!(r(&mut e, &["LREM", "m", "-1", "y"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["LRANGE", "m", "0", "-1"]), array(&["y", "x"]));
    assert_eq!(r(&mut e, &["LREM", "m", "0", "q"]), Resp::Int(0));
}

#[test]
fn list_wrongtype_errors() {
    let mut e = eng();
    r(&mut e, &["SET", "s", "v"]);
    assert_eq!(r(&mut e, &["LPUSH", "s", "x"]), Resp::wrongtype());
    assert_eq!(r(&mut e, &["LRANGE", "s", "0", "-1"]), Resp::wrongtype());
    assert_eq!(r(&mut e, &["LLEN", "s"]), Resp::wrongtype());
}

// ---------------------------------------------------------------------------
// sets
// ---------------------------------------------------------------------------

#[test]
fn sadd_srem_scard_sismember() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["SADD", "s", "a", "b", "a"]), Resp::Int(2));
    assert_eq!(r(&mut e, &["SCARD", "s"]), Resp::Int(2));
    assert_eq!(r(&mut e, &["SISMEMBER", "s", "a"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["SISMEMBER", "s", "z"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["SREM", "s", "a", "z"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["SREM", "s", "b"]), Resp::Int(1));
    assert_eq!(
        r(&mut e, &["EXISTS", "s"]),
        Resp::Int(0),
        "empty set reaped"
    );
}

#[test]
fn smembers_sorted_and_intset_transparency() {
    let mut e = eng();
    r(&mut e, &["SADD", "s", "3", "1", "2"]);
    assert_eq!(r(&mut e, &["SMEMBERS", "s"]), array(&["1", "2", "3"]));
    // Adding a non-integer converts the encoding invisibly.
    r(&mut e, &["SADD", "s", "apple"]);
    assert_eq!(
        r(&mut e, &["SMEMBERS", "s"]),
        array(&["1", "2", "3", "apple"])
    );
    assert_eq!(r(&mut e, &["SCARD", "s"]), Resp::Int(4));
}

#[test]
fn spop_and_srandmember() {
    let mut e = eng();
    r(&mut e, &["SADD", "s", "a", "b", "c"]);
    // SPOP removes; SRANDMEMBER doesn't.
    match r(&mut e, &["SRANDMEMBER", "s"]) {
        Resp::Bulk(_) => {}
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(r(&mut e, &["SCARD", "s"]), Resp::Int(3));
    match r(&mut e, &["SPOP", "s"]) {
        Resp::Bulk(_) => {}
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(r(&mut e, &["SCARD", "s"]), Resp::Int(2));
    // Count forms.
    match r(&mut e, &["SPOP", "s", "5"]) {
        Resp::Array(items) => assert_eq!(items.len(), 2),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(r(&mut e, &["SPOP", "missing"]), Resp::NullBulk);
    // Negative SRANDMEMBER count allows repeats and exact length.
    r(&mut e, &["SADD", "t", "x"]);
    match r(&mut e, &["SRANDMEMBER", "t", "-5"]) {
        Resp::Array(items) => assert_eq!(items.len(), 5),
        other => panic!("unexpected {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// hashes
// ---------------------------------------------------------------------------

#[test]
fn hset_hget_hdel() {
    let mut e = eng();
    assert_eq!(
        r(&mut e, &["HSET", "h", "f1", "v1", "f2", "v2"]),
        Resp::Int(2)
    );
    assert_eq!(r(&mut e, &["HSET", "h", "f1", "v1b"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["HGET", "h", "f1"]), bulk("v1b"));
    assert_eq!(r(&mut e, &["HGET", "h", "nope"]), Resp::NullBulk);
    assert_eq!(r(&mut e, &["HLEN", "h"]), Resp::Int(2));
    assert_eq!(r(&mut e, &["HEXISTS", "h", "f2"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["HDEL", "h", "f1", "f2", "nope"]), Resp::Int(2));
    assert_eq!(
        r(&mut e, &["EXISTS", "h"]),
        Resp::Int(0),
        "empty hash reaped"
    );
    assert!(r(&mut e, &["HSET", "h", "f1"]).is_error(), "odd arg count");
}

#[test]
fn hmset_hmget_hgetall() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["HMSET", "h", "a", "1", "b", "2"]), Resp::ok());
    assert_eq!(
        r(&mut e, &["HMGET", "h", "a", "z", "b"]),
        Resp::Array(vec![bulk("1"), Resp::NullBulk, bulk("2")])
    );
    assert_eq!(r(&mut e, &["HGETALL", "h"]), array(&["a", "1", "b", "2"]));
    assert_eq!(r(&mut e, &["HKEYS", "h"]), array(&["a", "b"]));
    assert_eq!(r(&mut e, &["HVALS", "h"]), array(&["1", "2"]));
    assert_eq!(r(&mut e, &["HGETALL", "missing"]), Resp::Array(vec![]));
}

#[test]
fn hsetnx_hstrlen_hincrby() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["HSETNX", "h", "f", "v"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["HSETNX", "h", "f", "w"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["HSTRLEN", "h", "f"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["HSTRLEN", "h", "nope"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["HINCRBY", "h", "n", "5"]), Resp::Int(5));
    assert_eq!(r(&mut e, &["HINCRBY", "h", "n", "-7"]), Resp::Int(-2));
    assert!(r(&mut e, &["HINCRBY", "h", "f", "1"]).is_error());
}

// ---------------------------------------------------------------------------
// sorted sets
// ---------------------------------------------------------------------------

#[test]
fn zadd_zscore_zcard() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["ZADD", "z", "1", "a", "2", "b"]), Resp::Int(2));
    assert_eq!(r(&mut e, &["ZADD", "z", "3", "a"]), Resp::Int(0), "update");
    assert_eq!(r(&mut e, &["ZSCORE", "z", "a"]), bulk("3"));
    assert_eq!(r(&mut e, &["ZSCORE", "z", "nope"]), Resp::NullBulk);
    assert_eq!(r(&mut e, &["ZCARD", "z"]), Resp::Int(2));
    assert!(r(&mut e, &["ZADD", "z", "notanumber", "m"]).is_error());
}

#[test]
fn zadd_nx_xx_ch_flags() {
    let mut e = eng();
    r(&mut e, &["ZADD", "z", "1", "a"]);
    // NX: never update existing (flags come before the score/member pairs).
    assert_eq!(r(&mut e, &["ZADD", "z", "NX", "9", "a"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["ZSCORE", "z", "a"]), bulk("1"));
    // XX: never add new.
    assert_eq!(r(&mut e, &["ZADD", "z", "XX", "5", "new"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["ZCARD", "z"]), Resp::Int(1));
    // CH counts changes as well as adds.
    assert_eq!(
        r(&mut e, &["ZADD", "z", "CH", "2", "a", "3", "b"]),
        Resp::Int(2)
    );
    assert!(r(&mut e, &["ZADD", "z", "NX", "XX", "1", "m"]).is_error());
}

#[test]
fn zrank_zrange() {
    let mut e = eng();
    r(&mut e, &["ZADD", "z", "1", "a", "2", "b", "3", "c"]);
    assert_eq!(r(&mut e, &["ZRANK", "z", "a"]), Resp::Int(0));
    assert_eq!(r(&mut e, &["ZRANK", "z", "c"]), Resp::Int(2));
    assert_eq!(r(&mut e, &["ZRANK", "z", "nope"]), Resp::NullBulk);
    assert_eq!(
        r(&mut e, &["ZRANGE", "z", "0", "-1"]),
        array(&["a", "b", "c"])
    );
    assert_eq!(r(&mut e, &["ZRANGE", "z", "1", "2"]), array(&["b", "c"]));
    assert_eq!(
        r(&mut e, &["ZRANGE", "z", "0", "0", "WITHSCORES"]),
        array(&["a", "1"])
    );
    assert_eq!(r(&mut e, &["ZRANGE", "z", "5", "9"]), Resp::Array(vec![]));
}

#[test]
fn zrangebyscore_zcount_bounds() {
    let mut e = eng();
    r(&mut e, &["ZADD", "z", "1", "a", "2", "b", "3", "c"]);
    assert_eq!(
        r(&mut e, &["ZRANGEBYSCORE", "z", "1", "2"]),
        array(&["a", "b"])
    );
    assert_eq!(
        r(&mut e, &["ZRANGEBYSCORE", "z", "(1", "3"]),
        array(&["b", "c"])
    );
    assert_eq!(
        r(&mut e, &["ZRANGEBYSCORE", "z", "-inf", "+inf"]),
        array(&["a", "b", "c"])
    );
    assert_eq!(r(&mut e, &["ZCOUNT", "z", "1", "3"]), Resp::Int(3));
    assert_eq!(r(&mut e, &["ZCOUNT", "z", "(1", "(3"]), Resp::Int(1));
    assert!(r(&mut e, &["ZRANGEBYSCORE", "z", "bad", "3"]).is_error());
}

#[test]
fn zrem_and_zincrby() {
    let mut e = eng();
    r(&mut e, &["ZADD", "z", "1", "a", "2", "b"]);
    assert_eq!(r(&mut e, &["ZREM", "z", "a", "nope"]), Resp::Int(1));
    assert_eq!(r(&mut e, &["ZINCRBY", "z", "2.5", "b"]), bulk("4.5"));
    assert_eq!(r(&mut e, &["ZINCRBY", "z", "1", "fresh"]), bulk("1"));
    assert_eq!(r(&mut e, &["ZREM", "z", "b", "fresh"]), Resp::Int(2));
    assert_eq!(
        r(&mut e, &["EXISTS", "z"]),
        Resp::Int(0),
        "empty zset reaped"
    );
}

// ---------------------------------------------------------------------------
// server
// ---------------------------------------------------------------------------

#[test]
fn ping_echo_select_time() {
    let mut e = eng();
    assert_eq!(r(&mut e, &["PING"]), Resp::Simple("PONG".into()));
    assert_eq!(r(&mut e, &["PING", "hi"]), bulk("hi"));
    assert_eq!(r(&mut e, &["ECHO", "x"]), bulk("x"));
    assert_eq!(r(&mut e, &["SELECT", "0"]), Resp::ok());
    assert!(r(&mut e, &["SELECT", "5"]).is_error());
    assert_eq!(
        rt(&mut e, 1_500, &["TIME"]),
        Resp::Array(vec![bulk("1"), bulk("500000")])
    );
}

#[test]
fn command_and_info() {
    let mut e = eng();
    match r(&mut e, &["COMMAND", "COUNT"]) {
        Resp::Int(n) => assert!(n > 70, "table has {n} commands"),
        other => panic!("unexpected {other:?}"),
    }
    match r(&mut e, &["INFO"]) {
        Resp::Bulk(text) => {
            let s = String::from_utf8(text).unwrap();
            assert!(s.contains("skv_version"));
            assert!(s.contains("keyspace_hits"));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn cross_type_protection_is_uniform() {
    let mut e = eng();
    r(&mut e, &["RPUSH", "l", "x"]);
    r(&mut e, &["SADD", "s", "x"]);
    r(&mut e, &["HSET", "h", "f", "v"]);
    r(&mut e, &["ZADD", "z", "1", "m"]);
    for cmd in [
        vec!["GET", "l"],
        vec!["INCR", "s"],
        vec!["SADD", "h", "m"],
        vec!["HGET", "z", "f"],
        vec!["ZADD", "l", "1", "m"],
        vec!["LPUSH", "z", "x"],
    ] {
        let reply = r(&mut e, &cmd);
        assert_eq!(reply, Resp::wrongtype(), "{cmd:?}");
    }
}
