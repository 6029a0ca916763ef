//! Property-based tests for the wire formats: RESP and RDB round-trips.

use proptest::prelude::*;

use skv_store::cmd::COMMANDS;
use skv_store::engine::Engine;
use skv_store::rdb;
use skv_store::resp::{parse_command, Decoded, ParsedCommand, Resp, RespStream, INLINE_ARGS};

// ---------------------------------------------------------------------------
// RESP round-trips
// ---------------------------------------------------------------------------

/// Strategy for arbitrary RESP values, bounded depth.
fn resp_value() -> impl Strategy<Value = Resp> {
    let leaf = prop_oneof![
        "[ -~]{0,20}".prop_map(|s| Resp::Simple(s.into())),
        "[ -~]{0,20}".prop_map(Resp::Error),
        any::<i64>().prop_map(Resp::Int),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(Resp::Bulk),
        Just(Resp::NullBulk),
        Just(Resp::NullArray),
    ];
    leaf.prop_recursive(3, 32, 8, |inner| {
        prop::collection::vec(inner, 0..8).prop_map(Resp::Array)
    })
}

proptest! {
    #[test]
    fn resp_roundtrips(v in resp_value()) {
        let bytes = v.encode();
        match Resp::decode(&bytes) {
            Decoded::Frame(out, used) => {
                prop_assert_eq!(out, v);
                prop_assert_eq!(used, bytes.len());
            }
            other => prop_assert!(false, "decode failed: {:?}", other),
        }
    }

    #[test]
    fn resp_prefixes_are_incomplete_never_error(v in resp_value()) {
        // A truncated valid frame must report Incomplete, not a protocol
        // error — otherwise a slow sender would get disconnected.
        let bytes = v.encode();
        for cut in 0..bytes.len() {
            match Resp::decode(&bytes[..cut]) {
                Decoded::Incomplete => {}
                Decoded::Frame(_, used) => prop_assert!(used <= cut),
                Decoded::ProtocolError(e) => {
                    prop_assert!(false, "prefix len {} errored: {}", cut, e);
                }
            }
        }
    }

    #[test]
    fn resp_stream_reassembles_any_fragmentation(
        frames in prop::collection::vec(resp_value(), 1..10),
        chunk_size in 1usize..32,
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let mut stream = RespStream::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(chunk_size) {
            stream.feed(chunk);
            while let Some(f) = stream.next_frame().unwrap() {
                got.push(f);
            }
        }
        prop_assert_eq!(got, frames);
    }
}

// ---------------------------------------------------------------------------
// The borrowed command parser against the general decoder
// ---------------------------------------------------------------------------

/// What `Resp::decode` + `into_command_args` make of `buf`: the reference
/// `parse_command` must agree with, class for class and byte for byte.
#[derive(Debug, PartialEq)]
enum Verdict {
    Command(Vec<Vec<u8>>, usize),
    NotCommand(String, usize),
    Incomplete,
    ProtocolError(String),
}

fn reference(buf: &[u8]) -> Verdict {
    match Resp::decode(buf) {
        Decoded::Frame(v, used) => match v.into_command_args() {
            Ok(args) => Verdict::Command(args, used),
            Err(why) => Verdict::NotCommand(why, used),
        },
        Decoded::Incomplete => Verdict::Incomplete,
        Decoded::ProtocolError(e) => Verdict::ProtocolError(e),
    }
}

fn borrowed(buf: &[u8]) -> Verdict {
    match parse_command(buf) {
        ParsedCommand::Command(args, used) => {
            Verdict::Command(args.iter().map(|a| a.to_vec()).collect(), used)
        }
        ParsedCommand::NotCommand(why, used) => Verdict::NotCommand(why, used),
        ParsedCommand::Incomplete => Verdict::Incomplete,
        ParsedCommand::ProtocolError(e) => Verdict::ProtocolError(e),
    }
}

/// Lengths no buffer can hold, the counts an attacker would claim.
const OVERSIZED: [&str; 5] = [
    "9223372036854775807",
    "9223372036854775806",
    "18446744073709551616",
    "99999999999",
    "-9223372036854775808",
];

/// Elements a command array must not contain.
const NON_BULK: [&[u8]; 6] = [
    b":7\r\n",
    b"+OK\r\n",
    b"-ERR no\r\n",
    b"$-1\r\n",
    b"*1\r\n$1\r\nx\r\n",
    b"*-1\r\n",
];

/// Bend a well-formed command frame one way hostile or broken input would.
fn mutate(wire: &[u8], how: u8, x: u16, y: u16) -> Vec<u8> {
    let at = |n: u16, len: usize| n as usize % (len + 1);
    let mut out = wire.to_vec();
    match how {
        // Untouched, and with trailing bytes of a next frame.
        0 => {}
        1 => out.extend_from_slice(b"*1\r\n$4\r\nPI"),
        // Truncated anywhere.
        2 => out.truncate(at(x, wire.len())),
        // One byte overwritten.
        3 => {
            if !out.is_empty() {
                let i = x as usize % out.len();
                out[i] = y.to_le_bytes()[0];
            }
        }
        // An oversized array count or bulk length, spliced in for the first
        // `*N` / `$N` line at or after a random position.
        4 | 5 => {
            let marker = if how == 4 { b'*' } else { b'$' };
            let from = at(x, wire.len());
            if let Some(start) = wire[from..].iter().position(|&b| b == marker) {
                let start = from + start + 1;
                let end = wire[start..]
                    .iter()
                    .position(|&b| b == b'\r')
                    .map_or(wire.len(), |e| start + e);
                out.splice(start..end, OVERSIZED[y as usize % OVERSIZED.len()].bytes());
            }
        }
        // A non-bulk element in place of the bulk that starts at or after a
        // random position (possibly truncating what follows it).
        6 | 7 => {
            let from = at(x, wire.len());
            if let Some(start) = wire[from..].iter().position(|&b| b == b'$') {
                let element = NON_BULK[y as usize % NON_BULK.len()];
                out.truncate(from + start);
                out.extend_from_slice(element);
                if how == 6 {
                    // Keep the tail, so the frame may still be complete.
                    let tail = &wire[from + start..];
                    let skip = Resp::decode(tail);
                    if let Decoded::Frame(_, used) = skip {
                        out.extend_from_slice(&tail[used..]);
                    }
                }
            }
        }
        // Noise over the RESP alphabet.
        _ => {
            const ALPHABET: &[u8] = b"*$+-:\r\n0123456789ab";
            let mut state = u32::from(x) << 16 | u32::from(y) | 1;
            out = (0..at(y, 48))
                .map(|_| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    ALPHABET[(state >> 24) as usize % ALPHABET.len()]
                })
                .collect();
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Well-formed, truncated, oversized-length, non-bulk-element and plain
    /// garbage input: the borrowed parser gives the verdict, the consumed
    /// length, the arguments and even the error text the owned path gives —
    /// and neither panics.
    #[test]
    fn parse_command_agrees_with_decode(
        args in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 0..(2 * INLINE_ARGS)),
        how in 0u8..9,
        x in any::<u16>(),
        y in any::<u16>(),
    ) {
        let wire = mutate(&Resp::command(&args).encode(), how, x, y);
        let expected = reference(&wire);
        prop_assert_eq!(borrowed(&wire), expected, "input {:?}", String::from_utf8_lossy(&wire));
    }
}

#[test]
fn hostile_lengths_and_nesting_do_not_panic() {
    for len in OVERSIZED {
        for head in ["*", "$", "*1\r\n$", "*2\r\n$1\r\na\r\n$"] {
            let wire = format!("{head}{len}\r\nxy\r\n").into_bytes();
            assert_eq!(borrowed(&wire), reference(&wire), "{head}{len}");
            assert!(
                !matches!(reference(&wire), Verdict::Command(..)),
                "{head}{len} is not a command"
            );
        }
    }
    // A megabyte of array headers must be refused, not recursed into.
    let deep = b"*1\r\n".repeat(200_000);
    assert!(matches!(Resp::decode(&deep), Decoded::ProtocolError(_)));
    assert!(matches!(
        parse_command(&deep),
        ParsedCommand::ProtocolError(_)
    ));
}

// ---------------------------------------------------------------------------
// Borrowed and owned arguments execute alike, for every command
// ---------------------------------------------------------------------------

/// Small pools, so that commands meet each other's keys, types and members.
const WORDS: [&str; 24] = [
    "k1",
    "k2",
    "k3",
    "{t}a",
    "{t}b",
    "f1",
    "f2",
    "m1",
    "m2",
    "hello",
    "0",
    "1",
    "-1",
    "2",
    "10",
    "3.5",
    "nx",
    "EX",
    "px",
    "COUNT",
    "MATCH",
    "*",
    "WITHSCORES",
    "AND",
];

/// One command of the dispatch table with arguments drawn from [`WORDS`]:
/// the arity the table declares, give or take one, so error replies are
/// covered too. `n` picks the command, the words follow.
fn table_command(n: u16, extra: u8, words: &[u8]) -> Vec<Vec<u8>> {
    let spec = &COMMANDS[n as usize % COMMANDS.len()];
    let declared = spec.arity.unsigned_abs() as usize;
    // Variadic commands get up to a spilled argument list.
    let argc = if spec.arity < 0 {
        declared + extra as usize % (INLINE_ARGS + 4)
    } else {
        (declared + 1).saturating_sub(usize::from(extra.is_multiple_of(8)))
    };
    let name = if extra.is_multiple_of(2) {
        spec.name.to_ascii_lowercase()
    } else {
        spec.name.to_string()
    };
    let mut args = vec![name.into_bytes()];
    for i in 1..argc {
        let word = words.get(i % words.len().max(1)).copied().unwrap_or(0);
        args.push(WORDS[word as usize % WORDS.len()].as_bytes().to_vec());
    }
    args
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A random stream over every command of every family in `cmd/*`,
    /// executed three ways — owned `&[Vec<u8>]`, borrowed `&[&[u8]]`, and
    /// parsed in place out of its wire frame, as the servers do — yields
    /// the same replies, the same replication verdicts and the same
    /// keyspace.
    #[test]
    fn borrowed_and_owned_arguments_execute_alike(
        stream in prop::collection::vec(
            (any::<u16>(), any::<u8>(), prop::collection::vec(any::<u8>(), 1..8)),
            1..400,
        ),
    ) {
        let (mut owned, mut borrowed, mut wired) = (Engine::new(5), Engine::new(5), Engine::new(5));
        let mut families = std::collections::BTreeSet::new();
        for (step, (n, extra, words)) in stream.iter().enumerate() {
            let args = table_command(*n, *extra, words);
            families.insert(args[0].to_ascii_uppercase());
            let now_ms = step as u64 * 7;
            let a = owned.execute(now_ms, &args);
            let slices: Vec<&[u8]> = args.iter().map(Vec::as_slice).collect();
            let b = borrowed.execute(now_ms, &slices);
            let wire = Resp::command(&args).encode();
            let parsed = parse_command(&wire);
            prop_assert!(matches!(parsed, ParsedCommand::Command(..)), "{:?}", parsed);
            let ParsedCommand::Command(parsed, used) = parsed else {
                continue;
            };
            prop_assert_eq!(used, wire.len());
            let c = wired.execute(now_ms, &parsed);
            for other in [&b, &c] {
                prop_assert_eq!(&a.reply, &other.reply, "{:?}", String::from_utf8_lossy(&wire));
                prop_assert_eq!(a.dirty_delta, other.dirty_delta);
                prop_assert_eq!(a.is_write, other.is_write);
                prop_assert_eq!(a.bytes_touched, other.bytes_touched);
            }
        }
        prop_assert_eq!(owned.keyspace_digest(), borrowed.keyspace_digest());
        prop_assert_eq!(owned.keyspace_digest(), wired.keyspace_digest());
        prop_assert!(families.len() > 1 || stream.len() < 2);
    }
}

/// The random stream above draws commands by table index, so over its
/// cases it reaches every entry; this pins that claim.
#[test]
fn table_commands_cover_every_entry() {
    let entries = u16::try_from(COMMANDS.len()).expect("a small table");
    let names: std::collections::BTreeSet<Vec<u8>> = (0..entries)
        .map(|n| table_command(n, 1, &[0]).remove(0))
        .collect();
    assert_eq!(names.len(), COMMANDS.len());
}

// ---------------------------------------------------------------------------
// RDB round-trips through random command workloads
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum WorkloadOp {
    Set(String, Vec<u8>),
    Del(String),
    Rpush(String, Vec<u8>),
    Sadd(String, String),
    Hset(String, String, Vec<u8>),
    Zadd(String, i32, String),
    Expire(String, u32),
}

fn key() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["k1", "k2", "k3", "k4", "k5"]).prop_map(str::to_string)
}

fn workload_op() -> impl Strategy<Value = WorkloadOp> {
    let val = prop::collection::vec(any::<u8>(), 0..24);
    let member = "[a-z]{1,6}";
    prop_oneof![
        (key(), val.clone()).prop_map(|(k, v)| WorkloadOp::Set(k, v)),
        key().prop_map(WorkloadOp::Del),
        (key(), val.clone()).prop_map(|(k, v)| WorkloadOp::Rpush(k, v)),
        (key(), member).prop_map(|(k, m)| WorkloadOp::Sadd(k, m)),
        (key(), "[a-z]{1,4}", val).prop_map(|(k, f, v)| WorkloadOp::Hset(k, f, v)),
        (key(), any::<i32>(), "[a-z]{1,4}").prop_map(|(k, s, m)| WorkloadOp::Zadd(k, s, m)),
        (key(), 1u32..1000).prop_map(|(k, t)| WorkloadOp::Expire(k, t)),
    ]
}

fn apply(e: &mut Engine, op: &WorkloadOp) {
    let args: Vec<Vec<u8>> = match op {
        WorkloadOp::Set(k, v) => vec![b"SET".to_vec(), k.clone().into_bytes(), v.clone()],
        WorkloadOp::Del(k) => vec![b"DEL".to_vec(), k.clone().into_bytes()],
        WorkloadOp::Rpush(k, v) => vec![b"RPUSH".to_vec(), k.clone().into_bytes(), v.clone()],
        WorkloadOp::Sadd(k, m) => vec![
            b"SADD".to_vec(),
            k.clone().into_bytes(),
            m.clone().into_bytes(),
        ],
        WorkloadOp::Hset(k, f, v) => vec![
            b"HSET".to_vec(),
            k.clone().into_bytes(),
            f.clone().into_bytes(),
            v.clone(),
        ],
        WorkloadOp::Zadd(k, s, m) => vec![
            b"ZADD".to_vec(),
            k.clone().into_bytes(),
            s.to_string().into_bytes(),
            m.clone().into_bytes(),
        ],
        WorkloadOp::Expire(k, t) => vec![
            b"EXPIRE".to_vec(),
            k.clone().into_bytes(),
            t.to_string().into_bytes(),
        ],
    };
    // Type-conflict errors are fine; the engine must simply never panic.
    let _ = e.execute(0, &args);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn rdb_roundtrips_any_workload(ops in prop::collection::vec(workload_op(), 0..120)) {
        let mut e = Engine::new(11);
        for op in &ops {
            apply(&mut e, op);
        }
        let snapshot = rdb::save(e.db());
        let mut restored = Engine::new(999);
        rdb::load(restored.db_mut(), &snapshot, 999).expect("load");
        prop_assert_eq!(e.keyspace_digest(), restored.keyspace_digest());
        // Loading an identical snapshot again must be idempotent.
        let snapshot2 = rdb::save(restored.db());
        prop_assert_eq!(snapshot, snapshot2);
    }
}
