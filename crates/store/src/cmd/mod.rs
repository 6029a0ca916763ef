//! Command table and dispatch, after Redis's `server.c` command table.
//!
//! Each command declares an arity (Redis convention: positive = exact
//! argument count including the command name, negative = minimum) and
//! flags. The `WRITE` flag is what the distributed layer keys replication
//! on: the paper's Host-KV "first checks whether the command can change
//! the value of the data in the storage" (§III-C) — that check is
//! [`CommandSpec::is_write`].

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

/// A command table entry.
pub struct CommandSpec {
    /// Uppercase command name.
    pub name: &'static str,
    /// Redis arity convention: >0 exact (incl. name), <0 minimum.
    pub arity: i32,
    /// `CMD_*` flags.
    pub flags: u32,
    handler: Handler,
}

impl CommandSpec {
    /// True if the command can modify the keyspace.
    pub fn is_write(&self) -> bool {
        self.flags & CMD_WRITE != 0
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

macro_rules! cmd {
    ($name:literal, $arity:literal, $flags:expr, $handler:path) => {
        CommandSpec {
            name: $name,
            arity: $arity,
            flags: $flags,
            handler: $handler,
        }
    };
}

/// The full command table.
pub static COMMANDS: &[CommandSpec] = &[
    // --- server / connection ---
    cmd!("PING", -1, CMD_READONLY, server::ping),
    cmd!("ECHO", 2, CMD_READONLY, server::echo),
    cmd!("SELECT", 2, CMD_READONLY, server::select),
    cmd!("DBSIZE", 1, CMD_READONLY, server::dbsize),
    cmd!("FLUSHDB", 1, CMD_WRITE, server::flushdb),
    cmd!("FLUSHALL", 1, CMD_WRITE, server::flushdb),
    cmd!("COMMAND", -1, CMD_READONLY, server::command),
    cmd!("INFO", -1, CMD_ADMIN, server::info),
    cmd!("TIME", 1, CMD_READONLY, server::time),
    // --- keyspace ---
    cmd!("TYPE", 2, CMD_READONLY, keyspace::type_cmd),
    cmd!("DEL", -2, CMD_WRITE, keyspace::del),
    cmd!("UNLINK", -2, CMD_WRITE, keyspace::del),
    cmd!("EXISTS", -2, CMD_READONLY, keyspace::exists),
    cmd!("EXPIRE", 3, CMD_WRITE, keyspace::expire),
    cmd!("PEXPIRE", 3, CMD_WRITE, keyspace::pexpire),
    cmd!("EXPIREAT", 3, CMD_WRITE, keyspace::expireat),
    cmd!("PEXPIREAT", 3, CMD_WRITE, keyspace::pexpireat),
    cmd!("TTL", 2, CMD_READONLY, keyspace::ttl),
    cmd!("PTTL", 2, CMD_READONLY, keyspace::pttl),
    cmd!("PERSIST", 2, CMD_WRITE, keyspace::persist),
    cmd!("RENAME", 3, CMD_WRITE, keyspace::rename),
    cmd!("RENAMENX", 3, CMD_WRITE, keyspace::renamenx),
    cmd!("KEYS", 2, CMD_READONLY, keyspace::keys),
    cmd!("RANDOMKEY", 1, CMD_READONLY, keyspace::randomkey),
    cmd!("COPY", -3, CMD_WRITE, keyspace::copy),
    cmd!("OBJECT", -2, CMD_READONLY, keyspace::object),
    cmd!("SCAN", -2, CMD_READONLY, scan::scan),
    // --- strings ---
    cmd!("SET", -3, CMD_WRITE, string::set),
    cmd!("SETNX", 3, CMD_WRITE, string::setnx),
    cmd!("SETEX", 4, CMD_WRITE, string::setex),
    cmd!("PSETEX", 4, CMD_WRITE, string::psetex),
    cmd!("GET", 2, CMD_READONLY, string::get),
    cmd!("GETSET", 3, CMD_WRITE, string::getset),
    cmd!("GETDEL", 2, CMD_WRITE, string::getdel),
    cmd!("MSET", -3, CMD_WRITE, string::mset),
    cmd!("MSETNX", -3, CMD_WRITE, string::msetnx),
    cmd!("MGET", -2, CMD_READONLY, string::mget),
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
    cmd!("BITOP", -4, CMD_WRITE, bitops::bitop),
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
    cmd!("RPOPLPUSH", 3, CMD_WRITE, list::rpoplpush),
    cmd!("LPOS", -3, CMD_READONLY, list::lpos),
    // --- sets ---
    cmd!("SADD", -3, CMD_WRITE, set::sadd),
    cmd!("SREM", -3, CMD_WRITE, set::srem),
    cmd!("SCARD", 2, CMD_READONLY, set::scard),
    cmd!("SISMEMBER", 3, CMD_READONLY, set::sismember),
    cmd!("SMEMBERS", 2, CMD_READONLY, set::smembers),
    cmd!("SPOP", -2, CMD_WRITE, set::spop),
    cmd!("SRANDMEMBER", -2, CMD_READONLY, set::srandmember),
    cmd!("SINTER", -2, CMD_READONLY, set::sinter),
    cmd!("SUNION", -2, CMD_READONLY, set::sunion),
    cmd!("SDIFF", -2, CMD_READONLY, set::sdiff),
    cmd!("SINTERSTORE", -3, CMD_WRITE, set::sinterstore),
    cmd!("SUNIONSTORE", -3, CMD_WRITE, set::sunionstore),
    cmd!("SDIFFSTORE", -3, CMD_WRITE, set::sdiffstore),
    cmd!("SMOVE", 4, CMD_WRITE, set::smove),
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
pub const MAX_NAME_LEN: usize = 24;

/// Upper-case `name` into `buf`, so callers can `match` a command or option
/// word against byte literals case-insensitively without allocating. A
/// name longer than any known word comes back empty and matches nothing.
pub fn upper_name<'b>(name: &[u8], buf: &'b mut [u8; MAX_NAME_LEN]) -> &'b [u8] {
    let Some(folded) = buf.get_mut(..name.len()) else {
        return &[];
    };
    folded.copy_from_slice(name);
    folded.make_ascii_uppercase();
    folded
}

/// Dispatch a parsed command. Arity and existence checks mirror Redis's
/// `processCommand`.
pub fn dispatch(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> (Resp, Option<&'static CommandSpec>) {
    let Some(first) = args.first() else {
        return (Resp::err("empty command"), None);
    };
    let Some(spec) = lookup(first) else {
        return (
            Resp::Error(format!(
                "ERR unknown command '{}'",
                String::from_utf8_lossy(first)
            )),
            None,
        );
    };
    if !spec.arity_ok(args.len()) {
        return (
            Resp::Error(format!(
                "ERR wrong number of arguments for '{}' command",
                spec.name.to_ascii_lowercase()
            )),
            Some(spec),
        );
    }
    ((spec.handler)(ctx, args), Some(spec))
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
        dispatch(&mut ctx, &argv).0
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

    #[test]
    fn command_names_are_unique() {
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate command names");
    }
}
