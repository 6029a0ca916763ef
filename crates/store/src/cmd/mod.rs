//! Command table and dispatch, after Redis's `server.c` command table.
//!
//! Each command declares an arity (Redis convention: positive = exact
//! argument count including the command name, negative = minimum) and
//! flags. The `WRITE` flag is what the distributed layer keys replication
//! on: the paper's Host-KV "first checks whether the command can change
//! the value of the data in the storage" (§III-C) — that check is
//! [`CommandSpec::is_write`].
//!
//! The table is also the only place that knows what a command's
//! *arguments* mean: which are keys ([`CommandSpec::keys`], a Redis
//! `COMMAND`-style first/last/step spec), how a multi-key command may
//! cross shards ([`Route`]) and whether its plain form overwrites each
//! key with the argument after it ([`CMD_OVERWRITE`]). Shard
//! routing, split execution and the SoC cache's invalidation are generic
//! consumers of those columns; none of them matches on a command name.

mod bitops;
mod hash_cmds;
pub(crate) mod keyspace;
mod list;
mod scan;
mod server;
mod set;
mod string;
mod zset;

use crate::db::Db;
use crate::resp::Resp;

/// Command flag: may modify the keyspace (must be replicated).
pub const CMD_WRITE: u32 = 1 << 0;
/// Command flag: reads the keyspace only.
pub const CMD_READONLY: u32 = 1 << 1;
/// Command flag: server administration / introspection.
pub const CMD_ADMIN: u32 = 1 << 2;
/// Command flag: the plain form — nothing but the name and `key value`
/// groups — overwrites each key with the argument after it, TTL cleared.
pub const CMD_OVERWRITE: u32 = 1 << 3;

/// Execution context handed to command handlers.
pub struct ExecCtx<'a> {
    /// The keyspace.
    pub db: &'a mut Db,
    /// Current time in milliseconds (simulated).
    pub now_ms: u64,
    /// Cheap deterministic randomness for `RANDOMKEY`/`SPOP`/zset seeds.
    pub rng_state: &'a mut u64,
}

impl ExecCtx<'_> {
    /// Draw a pseudo-random value in `[0, n)` (LCG; determinism matters
    /// more than quality here).
    pub fn rand_below(&mut self, n: u64) -> u64 {
        *self.rng_state = self
            .rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if n == 0 {
            0
        } else {
            (*self.rng_state >> 16) % n
        }
    }

    /// A fresh seed (for per-zset skiplists).
    pub fn next_seed(&mut self) -> u64 {
        self.rand_below(u64::MAX)
    }
}

type Handler = fn(&mut ExecCtx<'_>, &[&[u8]]) -> Resp;

/// How a command whose keys live on more than one shard executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Not splittable: the keys must cohabit one shard, else `CROSSSLOT`
    /// (all-or-nothing across shards would need a cross-shard
    /// transaction; callers co-locate keys with hash tags, exactly as on
    /// Redis Cluster). A keyless command runs on shard 0.
    OneShard,
    /// One sub-command per shard over its `key value` groups; reply `OK`.
    SplitPairs,
    /// One sub-command per shard over its keys; integer replies summed.
    SplitSum,
    /// One sub-command per shard over its keys; the per-key array replies
    /// gathered back in original key order.
    SplitGather,
    /// Runs on every shard's slice of the keyspace, replies merged by
    /// type (counts summed, listings concatenated in shard order).
    EveryShard,
}

/// A command table entry.
pub struct CommandSpec {
    /// Uppercase command name.
    pub name: &'static str,
    /// Redis arity convention: >0 exact (incl. name), <0 minimum.
    pub arity: i32,
    /// `CMD_*` flags.
    pub flags: u32,
    /// Index of the first key argument; 0 for a keyless command.
    pub first_key: usize,
    /// Index of the last key argument; negative counts from the end
    /// (-1 = the last argument).
    pub last_key: isize,
    /// Arguments per key group: 1 for bare keys, 2 for `key value` pairs.
    pub key_step: usize,
    /// How the command executes when its keys span shards.
    pub route: Route,
    handler: Handler,
}

impl CommandSpec {
    /// True if the command can modify the keyspace.
    pub fn is_write(&self) -> bool {
        self.flags & CMD_WRITE != 0
    }

    /// Argument indices of the keys of an `argc`-argument invocation.
    /// Total: an index is yielded only when its whole key group lies
    /// inside the argument list, whatever `argc` is — a malformed command
    /// has fewer keys, it never panics.
    pub fn key_positions(&self, argc: usize) -> impl Iterator<Item = usize> {
        let step = self.key_step;
        let last = match usize::try_from(self.last_key) {
            _ if self.first_key == 0 => 0, // keyless: the empty range 1..=0
            Ok(last) => last,
            Err(_) => argc.saturating_sub(self.last_key.unsigned_abs()),
        };
        (self.first_key.max(1)..=last)
            .step_by(step)
            .filter(move |at| at + step <= argc)
    }

    /// The key arguments of one invocation, in argument order.
    pub fn keys<'a, A: AsRef<[u8]>>(&self, args: &'a [A]) -> impl Iterator<Item = &'a [u8]> {
        self.key_positions(args.len()).map(|at| args[at].as_ref())
    }

    /// Is an `argc`-argument invocation the plain overwrite form: every
    /// argument after the name is a key or the value right behind it
    /// (`SET k v` but not `SET k v NX`; any well-formed `MSET`)?
    pub fn overwrites(&self, argc: usize) -> bool {
        self.flags & CMD_OVERWRITE != 0 && argc == 1 + 2 * self.key_positions(argc).count()
    }

    const fn keyed(mut self, first: usize, last: isize, step: usize, route: Route) -> Self {
        (self.first_key, self.last_key, self.key_step) = (first, last, step);
        self.route = route;
        self
    }

    const fn keyless(self, route: Route) -> Self {
        self.keyed(0, 0, 1, route)
    }

    fn arity_ok(&self, argc: usize) -> bool {
        let argc = argc as i32;
        if self.arity >= 0 {
            argc == self.arity
        } else {
            argc >= -self.arity
        }
    }
}

/// One table row. The key spec defaults to "the argument after the name"
/// and the route to [`Route::OneShard`]; rows that differ say so.
macro_rules! cmd {
    ($name:literal, $arity:literal, $flags:expr, $handler:path) => {
        CommandSpec {
            name: $name,
            arity: $arity,
            flags: $flags,
            first_key: 1,
            last_key: 1,
            key_step: 1,
            route: Route::OneShard,
            handler: $handler,
        }
    };
}

/// The full command table.
pub static COMMANDS: &[CommandSpec] = &[
    // --- server / connection ---
    cmd!("PING", -1, CMD_READONLY, server::ping).keyless(Route::OneShard),
    cmd!("ECHO", 2, CMD_READONLY, server::echo).keyless(Route::OneShard),
    cmd!("SELECT", 2, CMD_READONLY, server::select).keyless(Route::OneShard),
    cmd!("DBSIZE", 1, CMD_READONLY, server::dbsize).keyless(Route::EveryShard),
    cmd!("FLUSHDB", 1, CMD_WRITE, server::flushdb).keyless(Route::EveryShard),
    cmd!("FLUSHALL", 1, CMD_WRITE, server::flushdb).keyless(Route::EveryShard),
    cmd!("COMMAND", -1, CMD_READONLY, server::command).keyless(Route::OneShard),
    cmd!("INFO", -1, CMD_ADMIN, server::info).keyless(Route::OneShard),
    cmd!("TIME", 1, CMD_READONLY, server::time).keyless(Route::OneShard),
    // --- keyspace ---
    cmd!("TYPE", 2, CMD_READONLY, keyspace::type_cmd),
    cmd!("DEL", -2, CMD_WRITE, keyspace::del).keyed(1, -1, 1, Route::SplitSum),
    cmd!("UNLINK", -2, CMD_WRITE, keyspace::del).keyed(1, -1, 1, Route::SplitSum),
    cmd!("EXISTS", -2, CMD_READONLY, keyspace::exists).keyed(1, -1, 1, Route::SplitSum),
    cmd!("EXPIRE", 3, CMD_WRITE, keyspace::expire),
    cmd!("PEXPIRE", 3, CMD_WRITE, keyspace::pexpire),
    cmd!("EXPIREAT", 3, CMD_WRITE, keyspace::expireat),
    cmd!("PEXPIREAT", 3, CMD_WRITE, keyspace::pexpireat),
    cmd!("TTL", 2, CMD_READONLY, keyspace::ttl),
    cmd!("PTTL", 2, CMD_READONLY, keyspace::pttl),
    cmd!("PERSIST", 2, CMD_WRITE, keyspace::persist),
    cmd!("RENAME", 3, CMD_WRITE, keyspace::rename).keyed(1, 2, 1, Route::OneShard),
    cmd!("RENAMENX", 3, CMD_WRITE, keyspace::renamenx).keyed(1, 2, 1, Route::OneShard),
    cmd!("KEYS", 2, CMD_READONLY, keyspace::keys).keyless(Route::EveryShard),
    // Sample- and cursor-based reads are keyless, so they answer from
    // shard 0's slice until SCAN cursors carry a shard tag.
    cmd!("RANDOMKEY", 1, CMD_READONLY, keyspace::randomkey).keyless(Route::OneShard),
    cmd!("COPY", -3, CMD_WRITE, keyspace::copy).keyed(1, 2, 1, Route::OneShard),
    cmd!("OBJECT", -3, CMD_READONLY, keyspace::object).keyed(2, 2, 1, Route::OneShard),
    cmd!("SCAN", -2, CMD_READONLY, scan::scan).keyless(Route::OneShard),
    // --- strings ---
    cmd!("SET", -3, CMD_WRITE | CMD_OVERWRITE, string::set),
    cmd!("SETNX", 3, CMD_WRITE, string::setnx),
    cmd!("SETEX", 4, CMD_WRITE, string::setex),
    cmd!("PSETEX", 4, CMD_WRITE, string::psetex),
    cmd!("GET", 2, CMD_READONLY, string::get),
    cmd!("GETSET", 3, CMD_WRITE, string::getset),
    cmd!("GETDEL", 2, CMD_WRITE, string::getdel),
    cmd!("MSET", -3, CMD_WRITE | CMD_OVERWRITE, string::mset).keyed(1, -1, 2, Route::SplitPairs),
    cmd!("MSETNX", -3, CMD_WRITE, string::msetnx).keyed(1, -1, 2, Route::OneShard),
    cmd!("MGET", -2, CMD_READONLY, string::mget).keyed(1, -1, 1, Route::SplitGather),
    cmd!("APPEND", 3, CMD_WRITE, string::append),
    cmd!("STRLEN", 2, CMD_READONLY, string::strlen),
    cmd!("INCR", 2, CMD_WRITE, string::incr),
    cmd!("DECR", 2, CMD_WRITE, string::decr),
    cmd!("INCRBY", 3, CMD_WRITE, string::incrby),
    cmd!("DECRBY", 3, CMD_WRITE, string::decrby),
    cmd!("GETRANGE", 4, CMD_READONLY, string::getrange),
    cmd!("SETRANGE", 4, CMD_WRITE, string::setrange),
    cmd!("GETEX", -2, CMD_WRITE, string::getex),
    cmd!("INCRBYFLOAT", 3, CMD_WRITE, string::incrbyfloat),
    cmd!("SETBIT", 4, CMD_WRITE, bitops::setbit),
    cmd!("GETBIT", 3, CMD_READONLY, bitops::getbit),
    cmd!("BITCOUNT", -2, CMD_READONLY, bitops::bitcount),
    cmd!("BITPOS", -3, CMD_READONLY, bitops::bitpos),
    cmd!("BITOP", -4, CMD_WRITE, bitops::bitop).keyed(2, -1, 1, Route::OneShard),
    // --- lists ---
    cmd!("LPUSH", -3, CMD_WRITE, list::lpush),
    cmd!("RPUSH", -3, CMD_WRITE, list::rpush),
    cmd!("LPUSHX", -3, CMD_WRITE, list::lpushx),
    cmd!("RPUSHX", -3, CMD_WRITE, list::rpushx),
    cmd!("LPOP", -2, CMD_WRITE, list::lpop),
    cmd!("RPOP", -2, CMD_WRITE, list::rpop),
    cmd!("LLEN", 2, CMD_READONLY, list::llen),
    cmd!("LRANGE", 4, CMD_READONLY, list::lrange),
    cmd!("LINDEX", 3, CMD_READONLY, list::lindex),
    cmd!("LSET", 4, CMD_WRITE, list::lset),
    cmd!("LTRIM", 4, CMD_WRITE, list::ltrim),
    cmd!("LREM", 4, CMD_WRITE, list::lrem),
    cmd!("RPOPLPUSH", 3, CMD_WRITE, list::rpoplpush).keyed(1, 2, 1, Route::OneShard),
    cmd!("LPOS", -3, CMD_READONLY, list::lpos),
    // --- sets ---
    cmd!("SADD", -3, CMD_WRITE, set::sadd),
    cmd!("SREM", -3, CMD_WRITE, set::srem),
    cmd!("SCARD", 2, CMD_READONLY, set::scard),
    cmd!("SISMEMBER", 3, CMD_READONLY, set::sismember),
    cmd!("SMEMBERS", 2, CMD_READONLY, set::smembers),
    cmd!("SPOP", -2, CMD_WRITE, set::spop),
    cmd!("SRANDMEMBER", -2, CMD_READONLY, set::srandmember),
    cmd!("SINTER", -2, CMD_READONLY, set::sinter).keyed(1, -1, 1, Route::OneShard),
    cmd!("SUNION", -2, CMD_READONLY, set::sunion).keyed(1, -1, 1, Route::OneShard),
    cmd!("SDIFF", -2, CMD_READONLY, set::sdiff).keyed(1, -1, 1, Route::OneShard),
    cmd!("SINTERSTORE", -3, CMD_WRITE, set::sinterstore).keyed(1, -1, 1, Route::OneShard),
    cmd!("SUNIONSTORE", -3, CMD_WRITE, set::sunionstore).keyed(1, -1, 1, Route::OneShard),
    cmd!("SDIFFSTORE", -3, CMD_WRITE, set::sdiffstore).keyed(1, -1, 1, Route::OneShard),
    cmd!("SMOVE", 4, CMD_WRITE, set::smove).keyed(1, 2, 1, Route::OneShard),
    cmd!("SSCAN", -3, CMD_READONLY, scan::sscan),
    // --- hashes ---
    cmd!("HSET", -4, CMD_WRITE, hash_cmds::hset),
    cmd!("HMSET", -4, CMD_WRITE, hash_cmds::hmset),
    cmd!("HSETNX", 4, CMD_WRITE, hash_cmds::hsetnx),
    cmd!("HGET", 3, CMD_READONLY, hash_cmds::hget),
    cmd!("HMGET", -3, CMD_READONLY, hash_cmds::hmget),
    cmd!("HDEL", -3, CMD_WRITE, hash_cmds::hdel),
    cmd!("HEXISTS", 3, CMD_READONLY, hash_cmds::hexists),
    cmd!("HLEN", 2, CMD_READONLY, hash_cmds::hlen),
    cmd!("HSTRLEN", 3, CMD_READONLY, hash_cmds::hstrlen),
    cmd!("HGETALL", 2, CMD_READONLY, hash_cmds::hgetall),
    cmd!("HKEYS", 2, CMD_READONLY, hash_cmds::hkeys),
    cmd!("HVALS", 2, CMD_READONLY, hash_cmds::hvals),
    cmd!("HINCRBY", 4, CMD_WRITE, hash_cmds::hincrby),
    cmd!("HSCAN", -3, CMD_READONLY, scan::hscan),
    // --- sorted sets ---
    cmd!("ZADD", -4, CMD_WRITE, zset::zadd),
    cmd!("ZSCORE", 3, CMD_READONLY, zset::zscore),
    cmd!("ZCARD", 2, CMD_READONLY, zset::zcard),
    cmd!("ZREM", -3, CMD_WRITE, zset::zrem),
    cmd!("ZRANK", 3, CMD_READONLY, zset::zrank),
    cmd!("ZRANGE", -4, CMD_READONLY, zset::zrange),
    cmd!("ZRANGEBYSCORE", -4, CMD_READONLY, zset::zrangebyscore),
    cmd!("ZCOUNT", 4, CMD_READONLY, zset::zcount),
    cmd!("ZINCRBY", 4, CMD_WRITE, zset::zincrby),
    cmd!("ZREVRANGE", -4, CMD_READONLY, zset::zrevrange),
    cmd!("ZPOPMIN", -2, CMD_WRITE, zset::zpopmin),
    cmd!("ZPOPMAX", -2, CMD_WRITE, zset::zpopmax),
    cmd!("ZREMRANGEBYSCORE", 4, CMD_WRITE, zset::zremrangebyscore),
    cmd!("ZREMRANGEBYRANK", 4, CMD_WRITE, zset::zremrangebyrank),
    cmd!("ZSCAN", -3, CMD_READONLY, scan::zscan),
];

/// Look up a command by (case-insensitive) name.
pub fn lookup(name: &[u8]) -> Option<&'static CommandSpec> {
    COMMANDS
        .iter()
        .find(|c| c.name.as_bytes().eq_ignore_ascii_case(name))
}

/// Longest name [`upper_name`] folds; no command or option word is longer.
pub(crate) const MAX_NAME_LEN: usize = 24;

/// Upper-case `name` into `buf`, so handlers can `match` an option word
/// against byte literals case-insensitively without allocating. A name
/// longer than any known word comes back empty and matches nothing.
pub(crate) fn upper_name<'b>(name: &[u8], buf: &'b mut [u8; MAX_NAME_LEN]) -> &'b [u8] {
    let Some(folded) = buf.get_mut(..name.len()) else {
        return &[];
    };
    folded.copy_from_slice(name);
    folded.make_ascii_uppercase();
    folded
}

/// Run a parsed command whose name the caller already resolved with
/// [`lookup`] (`None` = no such command). Arity and existence checks
/// mirror Redis's `processCommand`.
pub fn dispatch(ctx: &mut ExecCtx<'_>, spec: Option<&CommandSpec>, args: &[&[u8]]) -> Resp {
    let Some(spec) = spec else {
        return match args.first() {
            None => Resp::err("empty command"),
            Some(name) => Resp::Error(format!(
                "ERR unknown command '{}'",
                String::from_utf8_lossy(name)
            )),
        };
    };
    if !spec.arity_ok(args.len()) {
        return Resp::Error(format!(
            "ERR wrong number of arguments for '{}' command",
            spec.name.to_ascii_lowercase()
        ));
    }
    (spec.handler)(ctx, args)
}

// ---------------------------------------------------------------------------
// shared helpers for command implementations
// ---------------------------------------------------------------------------

pub(crate) fn parse_i64(arg: &[u8]) -> Result<i64, Resp> {
    std::str::from_utf8(arg)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Resp::err("value is not an integer or out of range"))
}

pub(crate) fn parse_f64(arg: &[u8]) -> Result<f64, Resp> {
    let s = std::str::from_utf8(arg).map_err(|_| Resp::err("value is not a valid float"))?;
    match s {
        "+inf" | "inf" => Ok(f64::INFINITY),
        "-inf" => Ok(f64::NEG_INFINITY),
        _ => s
            .parse()
            .map_err(|_| Resp::err("value is not a valid float")),
    }
}

/// Format a float the way Redis does (`%.17g`, trimmed).
pub(crate) fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e17 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v:.17}");
        let trimmed = s.trim_end_matches('0').trim_end_matches('.');
        trimmed.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_exec(args: &[&str]) -> Resp {
        let mut db = Db::new();
        let mut rng = 1u64;
        let mut ctx = ExecCtx {
            db: &mut db,
            now_ms: 0,
            rng_state: &mut rng,
        };
        let argv: Vec<&[u8]> = args.iter().map(|s| s.as_bytes()).collect();
        dispatch(&mut ctx, argv.first().and_then(|n| lookup(n)), &argv)
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(lookup(b"set").is_some());
        assert!(lookup(b"SET").is_some());
        assert!(lookup(b"SeT").is_some());
        assert!(lookup(b"nope").is_none());
    }

    #[test]
    fn upper_name_folds_without_allocating_and_bounds_length() {
        let mut buf = [0u8; MAX_NAME_LEN];
        assert_eq!(upper_name(b"mSetNx", &mut buf), b"MSETNX");
        assert_eq!(upper_name(b"", &mut buf), b"");
        assert_eq!(upper_name(&[b'a'; MAX_NAME_LEN + 1], &mut buf), b"");
        let longest = COMMANDS.iter().map(|c| c.name.len()).max().unwrap();
        assert!(longest <= MAX_NAME_LEN, "{longest}-byte command name");
    }

    #[test]
    fn unknown_command_errors() {
        let r = ctx_exec(&["BOGUS"]);
        assert!(r.is_error());
    }

    #[test]
    fn arity_enforced() {
        assert!(ctx_exec(&["GET"]).is_error());
        assert!(ctx_exec(&["GET", "a", "b"]).is_error());
        assert!(ctx_exec(&["SET", "k"]).is_error());
        assert!(!ctx_exec(&["PING"]).is_error());
    }

    #[test]
    fn write_flags_cover_mutating_commands() {
        for name in ["SET", "DEL", "LPUSH", "SADD", "HSET", "ZADD", "EXPIRE"] {
            assert!(lookup(name.as_bytes()).unwrap().is_write(), "{name}");
        }
        for name in ["GET", "LRANGE", "SMEMBERS", "HGETALL", "ZRANGE", "TTL"] {
            assert!(!lookup(name.as_bytes()).unwrap().is_write(), "{name}");
        }
    }

    #[test]
    fn float_formatting_matches_redis_style() {
        assert_eq!(format_f64(3.0), "3");
        assert_eq!(format_f64(3.5), "3.5");
        assert_eq!(format_f64(-0.25), "-0.25");
    }

    /// The fewest arguments (name included) the arity accepts.
    fn min_argc(spec: &CommandSpec) -> usize {
        spec.arity.unsigned_abs() as usize
    }

    #[test]
    fn key_specs_fit_their_arity() {
        for spec in COMMANDS {
            let name = spec.name;
            assert!(spec.key_step >= 1, "{name}: step 0 never advances");
            if spec.first_key == 0 {
                continue;
            }
            // Every accepted invocation has its first key group whole.
            assert!(
                spec.first_key + spec.key_step <= min_argc(spec),
                "{name}: first key group ends past the minimum argc"
            );
            if let Ok(last) = usize::try_from(spec.last_key) {
                assert!(last >= spec.first_key, "{name}: last key before first");
                assert!(
                    last < min_argc(spec),
                    "{name}: fixed last key past minimum argc"
                );
            }
            if spec.key_step == 2 {
                // Pair arity: name + whole `key value` pairs, open-ended.
                assert!(spec.arity < 0 && spec.last_key == -1, "{name}");
                assert_eq!((min_argc(spec) - spec.first_key) % 2, 0, "{name}");
            }
        }
    }

    #[test]
    fn keys_is_total_on_every_entry() {
        let args: Vec<Vec<u8>> = (0..8).map(|i| vec![b'a' + i]).collect();
        for spec in COMMANDS {
            for argc in 0..=8 {
                let positions: Vec<usize> = spec.key_positions(argc).collect();
                assert!(
                    positions.iter().all(|at| (1..argc).contains(at)),
                    "{} argc {argc}: {positions:?}",
                    spec.name
                );
                // Indexes exactly those positions — no panic, nothing else.
                let keys: Vec<&[u8]> = spec.keys(&args[..argc]).collect();
                let expect: Vec<&[u8]> = positions.iter().map(|&at| &args[at][..]).collect();
                assert_eq!(keys, expect, "{} argc {argc}", spec.name);
                if argc >= min_argc(spec) && spec.first_key > 0 {
                    assert!(!positions.is_empty(), "{} argc {argc}: no key", spec.name);
                }
            }
        }
    }

    #[test]
    fn key_specs_read_the_arguments_redis_does() {
        let keys = |parts: &[&str]| -> Vec<String> {
            let spec = lookup(parts[0].as_bytes()).unwrap();
            let keys = spec
                .keys(parts)
                .map(|k| String::from_utf8_lossy(k).into_owned());
            keys.collect()
        };
        assert_eq!(keys(&["GET", "k"]), ["k"]);
        assert_eq!(keys(&["SET", "k", "v", "EX", "5"]), ["k"]);
        assert_eq!(keys(&["DEL", "a", "b", "c"]), ["a", "b", "c"]);
        assert_eq!(keys(&["MSET", "a", "1", "b", "2"]), ["a", "b"]);
        // A dangling pair key has no group, so it is no key.
        assert_eq!(keys(&["MSET", "a", "1", "b"]), ["a"]);
        assert_eq!(keys(&["RENAME", "a", "b"]), ["a", "b"]);
        assert_eq!(keys(&["COPY", "a", "b", "REPLACE"]), ["a", "b"]);
        assert_eq!(keys(&["SMOVE", "s", "d", "member"]), ["s", "d"]);
        assert_eq!(keys(&["BITOP", "AND", "d", "a", "b"]), ["d", "a", "b"]);
        assert_eq!(keys(&["OBJECT", "ENCODING", "k"]), ["k"]);
        assert_eq!(keys(&["SINTERSTORE", "d", "a", "b"]), ["d", "a", "b"]);
        assert_eq!(keys(&["LPUSH", "l", "x", "y"]), ["l"]);
        for keyless in [
            &["PING"][..],
            &["KEYS", "*"],
            &["SCAN", "0"],
            &["ECHO", "hi"],
        ] {
            assert!(keys(keyless).is_empty(), "{keyless:?}");
        }
    }

    #[test]
    fn every_write_names_its_keys_or_the_whole_keyspace() {
        for spec in COMMANDS.iter().filter(|c| c.is_write()) {
            assert!(
                spec.first_key > 0 || spec.route == Route::EveryShard,
                "{}: a write the cache seam could not invalidate",
                spec.name
            );
        }
        // Splits merge per key, so they need keys; only pair commands
        // split pairwise and only they have a plain overwrite form beyond
        // `SET`'s.
        for spec in COMMANDS {
            let split = matches!(
                spec.route,
                Route::SplitPairs | Route::SplitSum | Route::SplitGather
            );
            assert!(!split || spec.last_key == -1, "{}", spec.name);
            assert_eq!(
                spec.route == Route::SplitPairs,
                spec.key_step == 2 && split,
                "{}",
                spec.name
            );
        }
        assert!(lookup(b"SET").unwrap().overwrites(3));
        assert!(!lookup(b"SET").unwrap().overwrites(4));
        assert!(lookup(b"MSET").unwrap().overwrites(5));
        assert!(!lookup(b"MSET").unwrap().overwrites(4));
        assert!(!lookup(b"MSETNX").unwrap().overwrites(3));
        assert!(!lookup(b"APPEND").unwrap().overwrites(3));
    }

    #[test]
    fn command_names_are_unique() {
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate command names");
    }
}
