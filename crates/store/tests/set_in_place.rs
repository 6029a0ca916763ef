//! `SET` rewrites an existing string in place (`Db::set_string`); nothing
//! a client, a replica or a snapshot can see may tell that apart from the
//! always-fresh store it replaced.
//!
//! The model is a second `Engine` whose string writes take the old path —
//! `Db::set` / `Db::set_keep_ttl` of a new `RObj::string`, i.e. a
//! `Dict::insert` that replaces the value — and that runs every other
//! command unchanged. Random sequences over at most 32 keys must give the
//! same replies, the same TTLs, the same `SCAN` and iteration order, the same
//! `dirty` / hit / expiry counters and byte-identical `rdb` saves.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};

use skv_store::db::Db;
use skv_store::engine::Engine;
use skv_store::object::RObj;
use skv_store::rdb;
use skv_store::resp::Resp;

const KEYS: u8 = 32;

#[derive(Debug, Clone, Copy)]
enum Ttl {
    Clear,
    Ex(u64),
    Px(u64),
    Keep,
}

#[derive(Debug, Clone, Copy)]
enum Cond {
    Always,
    Nx,
    Xx,
}

#[derive(Debug, Clone)]
enum Op {
    Set(u8, Vec<u8>, Ttl, Cond),
    SetNx(u8, Vec<u8>),
    SetEx(u8, Vec<u8>, u64),
    GetSet(u8, Vec<u8>),
    MSet(Vec<(u8, Vec<u8>)>),
    Incr(u8),
    Append(u8, Vec<u8>),
    RPush(u8, Vec<u8>),
    HSet(u8, u8, Vec<u8>),
    Del(u8),
    Expire(u8, u64),
    Advance(u64),
    Cron,
}

fn key(k: u8) -> Vec<u8> {
    format!("key:{k}").into_bytes()
}

/// Integers and raw strings whose lengths straddle the reuse limit (a
/// buffer is rewritten only for a value that fits it and fills at least
/// half of it), so values flip encoding, grow past and shrink below it.
fn value() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (-1000i64..1000).prop_map(|v| v.to_string().into_bytes()),
        (
            prop::sample::select(vec![
                0usize, 1, 3, 8, 15, 16, 17, 31, 32, 33, 48, 64, 65, 100
            ]),
            0u8..26,
        )
            .prop_map(|(len, letter)| vec![b'a' + letter; len]),
    ]
}

fn key_id() -> impl Strategy<Value = u8> {
    0..KEYS
}

fn op() -> impl Strategy<Value = Op> {
    let ttl = prop_oneof![
        Just(Ttl::Clear),
        (1u64..4).prop_map(Ttl::Ex),
        (1u64..3000).prop_map(Ttl::Px),
        Just(Ttl::Keep),
    ];
    let cond = prop_oneof![Just(Cond::Always), Just(Cond::Nx), Just(Cond::Xx)];
    prop_oneof![
        (key_id(), value(), ttl, cond).prop_map(|(k, v, t, c)| Op::Set(k, v, t, c)),
        (key_id(), value(), Just(Ttl::Clear), Just(Cond::Always))
            .prop_map(|(k, v, t, c)| Op::Set(k, v, t, c)),
        (key_id(), value()).prop_map(|(k, v)| Op::SetNx(k, v)),
        (key_id(), value(), 1u64..4).prop_map(|(k, v, s)| Op::SetEx(k, v, s)),
        (key_id(), value()).prop_map(|(k, v)| Op::GetSet(k, v)),
        prop::collection::vec((key_id(), value()), 1..4).prop_map(Op::MSet),
        key_id().prop_map(Op::Incr),
        (key_id(), value()).prop_map(|(k, v)| Op::Append(k, v)),
        (key_id(), value()).prop_map(|(k, v)| Op::RPush(k, v)),
        (key_id(), 0u8..4, value()).prop_map(|(k, f, v)| Op::HSet(k, f, v)),
        key_id().prop_map(Op::Del),
        (key_id(), 1u64..4).prop_map(|(k, s)| Op::Expire(k, s)),
        (0u64..2500).prop_map(Op::Advance),
        Just(Op::Cron),
    ]
}

/// The command line `op` sends (`None` for the clock and the cron).
fn argv(op: &Op) -> Option<Vec<Vec<u8>>> {
    let num = |n: u64| n.to_string().into_bytes();
    let mut out = Vec::new();
    match op {
        Op::Set(k, v, ttl, cond) => {
            out.extend([b"SET".to_vec(), key(*k), v.clone()]);
            match ttl {
                Ttl::Clear => {}
                Ttl::Ex(s) => out.extend([b"EX".to_vec(), num(*s)]),
                Ttl::Px(ms) => out.extend([b"PX".to_vec(), num(*ms)]),
                Ttl::Keep => out.push(b"KEEPTTL".to_vec()),
            }
            match cond {
                Cond::Always => {}
                Cond::Nx => out.push(b"NX".to_vec()),
                Cond::Xx => out.push(b"XX".to_vec()),
            }
        }
        Op::SetNx(k, v) => out.extend([b"SETNX".to_vec(), key(*k), v.clone()]),
        Op::SetEx(k, v, s) => out.extend([b"SETEX".to_vec(), key(*k), num(*s), v.clone()]),
        Op::GetSet(k, v) => out.extend([b"GETSET".to_vec(), key(*k), v.clone()]),
        Op::MSet(pairs) => {
            out.push(b"MSET".to_vec());
            for (k, v) in pairs {
                out.extend([key(*k), v.clone()]);
            }
        }
        Op::Incr(k) => out.extend([b"INCR".to_vec(), key(*k)]),
        Op::Append(k, v) => out.extend([b"APPEND".to_vec(), key(*k), v.clone()]),
        Op::RPush(k, v) => out.extend([b"RPUSH".to_vec(), key(*k), v.clone()]),
        Op::HSet(k, f, v) => out.extend([b"HSET".to_vec(), key(*k), vec![b'f', *f], v.clone()]),
        Op::Del(k) => out.extend([b"DEL".to_vec(), key(*k)]),
        Op::Expire(k, s) => out.extend([b"EXPIRE".to_vec(), key(*k), num(*s)]),
        Op::Advance(_) | Op::Cron => return None,
    }
    Some(out)
}

/// The always-fresh store: every string write builds a new object and
/// replaces the old one through `Dict::insert`, as `SET` did before it
/// rewrote in place. Replies are those of `cmd::string`.
fn fresh_store(model: &mut Engine, now: u64, op: &Op) -> Option<Resp> {
    let db: &mut Db = model.db_mut();
    let reply = match op {
        Op::Set(k, v, ttl, cond) => {
            let k = key(*k);
            let (nx, xx) = (matches!(cond, Cond::Nx), matches!(cond, Cond::Xx));
            // `exists` is `expire_if_needed` plus a read-only probe: it
            // reaps a dead key exactly as the unconditional SET does.
            let exists = db.exists(&k, now);
            if (nx && exists) || (xx && !exists) {
                return Some(Resp::NullBulk);
            }
            if matches!(ttl, Ttl::Keep) {
                db.set_keep_ttl(&k, RObj::string(v));
            } else {
                db.set(&k, RObj::string(v));
            }
            let expire_at = match ttl {
                Ttl::Ex(s) => Some(now + s * 1000),
                Ttl::Px(ms) => Some(now + ms),
                Ttl::Clear | Ttl::Keep => None,
            };
            if let Some(at) = expire_at {
                db.set_expire(&k, at);
            }
            Resp::ok()
        }
        Op::SetNx(k, v) => {
            let k = key(*k);
            if db.exists(&k, now) {
                Resp::Int(0)
            } else {
                db.set(&k, RObj::string(v));
                Resp::Int(1)
            }
        }
        Op::SetEx(k, v, s) => {
            let k = key(*k);
            db.set(&k, RObj::string(v));
            db.set_expire(&k, now + s * 1000);
            Resp::ok()
        }
        Op::GetSet(k, v) => {
            let old = model.execute(now, &[b"GET".to_vec(), key(*k)]).reply;
            if !matches!(old, Resp::Error(_)) {
                model.db_mut().set(&key(*k), RObj::string(v));
            }
            old
        }
        Op::MSet(pairs) => {
            for (k, v) in pairs {
                db.set(&key(*k), RObj::string(v));
            }
            Resp::ok()
        }
        _ => return None,
    };
    Some(reply)
}

/// Everything observable about a keyspace.
#[derive(PartialEq)]
struct Seen {
    /// Keys, `dirty`, expired, hits, misses.
    counters: [u64; 5],
    /// Every key's deadline.
    ttls: Vec<Option<u64>>,
    /// Keys in `SCAN` order.
    scan: Vec<String>,
    /// Values in `SCAN` order, as the snapshot encodes them.
    values: Vec<Vec<u8>>,
    /// Keys in iteration order.
    iter: Vec<String>,
    rdb: Vec<u8>,
}

fn observe(engine: &Engine) -> Seen {
    let db = engine.db();
    let name = |k: &[u8]| String::from_utf8_lossy(k).into_owned();
    let (hits, misses) = db.stats_hit_miss();
    let (mut scan, mut values) = (Vec::new(), Vec::new());
    let mut cursor = 0;
    loop {
        cursor = db.scan_step(cursor, |k, v| {
            scan.push(name(k));
            values.push(rdb::canonical_obj_bytes(v));
        });
        if cursor == 0 {
            break;
        }
    }
    Seen {
        counters: [db.len() as u64, db.dirty(), db.stat_expired(), hits, misses],
        ttls: (0..KEYS).map(|k| db.expiry_of(&key(k))).collect(),
        scan,
        values,
        iter: db.iter().map(|(k, _)| name(k)).collect(),
        rdb: rdb::save(db),
    }
}

/// Fail with the first part of two observations that differs.
fn same(got: &Seen, want: &Seen, op: &Op) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.counters, want.counters, "counters after {:?}", op);
    prop_assert_eq!(&got.ttls, &want.ttls, "TTLs after {:?}", op);
    prop_assert_eq!(&got.scan, &want.scan, "SCAN order after {:?}", op);
    prop_assert!(got.values == want.values, "values after {:?}", op);
    prop_assert_eq!(&got.iter, &want.iter, "iteration order after {:?}", op);
    prop_assert!(got.rdb == want.rdb, "rdb bytes after {:?}", op);
    Ok(())
}

fn str_buffer(engine: &Engine, k: u8) -> Option<*const u8> {
    match engine
        .db()
        .iter()
        .find(|(name, _)| *name == key(k).as_slice())
    {
        Some((_, RObj::Str(s))) => Some(s.as_ptr()),
        _ => None,
    }
}

fn run(ops: &[Op]) -> Result<usize, TestCaseError> {
    let mut engine = Engine::new(11);
    let mut model = Engine::new(11);
    let mut now = 1_000;
    let mut reused = 0;
    for op in ops {
        match op {
            Op::Advance(ms) => now += ms,
            Op::Cron => prop_assert_eq!(engine.cron(now), model.cron(now)),
            _ => {}
        }
        if let Some(args) = argv(op) {
            let single = match op {
                Op::Set(k, ..) | Op::SetEx(k, ..) | Op::GetSet(k, _) => Some(*k),
                _ => None,
            };
            let before = single.and_then(|k| str_buffer(&engine, k));
            let got = engine.execute(now, &args);
            let want = match fresh_store(&mut model, now, op) {
                Some(reply) => reply,
                None => model.execute(now, &args).reply,
            };
            prop_assert_eq!(&got.reply, &want, "{:?}", op);
            let after = single.and_then(|k| str_buffer(&engine, k));
            reused += usize::from(before.is_some() && before == after);
        }
        same(&observe(&engine), &observe(&model), op)?;
    }
    Ok(reused)
}

/// Random sequences. The cases are drawn as `proptest!` draws them (fixed
/// seeds, no shrinking); the loop is spelled out so the in-place
/// rewrites can be counted over all of them.
#[test]
fn set_in_place_is_invisible() {
    const CASES: u32 = 128;
    let sequences = prop::collection::vec(op(), 150..300);
    let mut reused = 0;
    for case in 0..CASES {
        let mut rng = TestRng::for_case("set_in_place_is_invisible", case);
        let ops = sequences.sample(&mut rng);
        reused += run(&ops).unwrap_or_else(|e| panic!("case {case}/{CASES}: {e}"));
    }
    // Otherwise the generator stopped reaching the path under test.
    assert!(
        reused >= CASES as usize,
        "{reused} in-place rewrites in {CASES} cases"
    );
}

/// The dict grows and shrinks under string writes alone: a store path that
/// skipped a resize check or a rehash step would diverge here first.
#[test]
fn set_in_place_is_invisible_across_resizes() {
    let mut ops: Vec<Op> = Vec::new();
    for round in 0..3u8 {
        for k in 0..KEYS {
            let len = [16usize, 9, 31, 64][usize::from((k + round) % 4)];
            ops.push(Op::Set(
                k,
                vec![b'a' + round; len],
                Ttl::Clear,
                Cond::Always,
            ));
        }
        for k in (0..KEYS).filter(|k| k % 3 != 0) {
            ops.push(Op::Del(k));
        }
    }
    run(&ops).unwrap_or_else(|e| panic!("{e}"));
}
