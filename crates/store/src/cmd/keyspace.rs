//! Generic keyspace commands (`DEL`, `EXPIRE`, `KEYS`, …).

use super::{lcg_below, parse_i64, ExecCtx};
use crate::object::RObj;
use crate::resp::Resp;

pub(super) fn type_cmd(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match ctx.db.lookup_read(args[1], ctx.now_ms) {
        Some(o) => Resp::Simple(o.type_name().into()),
        None => Resp::Simple("none".into()),
    }
}

pub(super) fn del(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let mut n = 0;
    for key in &args[1..] {
        // Expired keys count as absent, so reap first.
        if ctx.db.exists(key, ctx.now_ms) && ctx.db.delete(key) {
            n += 1;
        }
    }
    Resp::Int(n)
}

pub(super) fn exists(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let n = args[1..]
        .iter()
        .filter(|key| ctx.db.exists(key, ctx.now_ms))
        .count();
    Resp::Int(n as i64)
}

fn expire_generic(ctx: &mut ExecCtx<'_>, args: &[&[u8]], unit_ms: u64, absolute: bool) -> Resp {
    let v = match parse_i64(args[2]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    if !ctx.db.exists(args[1], ctx.now_ms) {
        return Resp::Int(0);
    }
    let at_ms = if absolute {
        if v <= 0 {
            0 // already in the past
        } else {
            v as u64 * unit_ms
        }
    } else if v <= 0 {
        // Non-positive relative TTL deletes immediately, as in Redis.
        ctx.db.delete(args[1]);
        return Resp::Int(1);
    } else {
        ctx.now_ms + v as u64 * unit_ms
    };
    if at_ms <= ctx.now_ms {
        ctx.db.delete(args[1]);
        return Resp::Int(1);
    }
    ctx.db.set_expire(args[1], at_ms);
    Resp::Int(1)
}

pub(super) fn expire(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    expire_generic(ctx, args, 1000, false)
}

pub(super) fn pexpire(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    expire_generic(ctx, args, 1, false)
}

pub(super) fn expireat(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    expire_generic(ctx, args, 1000, true)
}

pub(super) fn pexpireat(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    expire_generic(ctx, args, 1, true)
}

fn ttl_generic(ctx: &mut ExecCtx<'_>, args: &[&[u8]], unit_ms: u64) -> Resp {
    match ctx.db.ttl_ms(args[1], ctx.now_ms) {
        None => Resp::Int(-2),
        Some(None) => Resp::Int(-1),
        Some(Some(ms)) => Resp::Int((ms / unit_ms) as i64),
    }
}

pub(super) fn ttl(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    ttl_generic(ctx, args, 1000)
}

pub(super) fn pttl(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    ttl_generic(ctx, args, 1)
}

pub(super) fn persist(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    if !ctx.db.exists(args[1], ctx.now_ms) {
        return Resp::Int(0);
    }
    Resp::Int(ctx.db.persist(args[1]) as i64)
}

fn rename_generic(ctx: &mut ExecCtx<'_>, args: &[&[u8]], fail_if_target: bool) -> Resp {
    if !ctx.db.exists(args[1], ctx.now_ms) {
        return Resp::err("no such key");
    }
    if fail_if_target && ctx.db.exists(args[2], ctx.now_ms) {
        return Resp::Int(0);
    }
    copy_with_ttl(ctx, args[1], args[2], true);
    if fail_if_target {
        Resp::Int(1)
    } else {
        Resp::ok()
    }
}

/// Store `src`'s value at `dst` with its TTL — and, for a move, delete
/// `src` in between (`RENAME`, `COPY`). The callers have checked that
/// `src` exists.
fn copy_with_ttl(ctx: &mut ExecCtx<'_>, src: &[u8], dst: &[u8], move_src: bool) {
    let ttl = ctx.db.expiry_of(src);
    let Some(value) = ctx.db.lookup_read(src, ctx.now_ms).cloned() else {
        return;
    };
    if move_src {
        ctx.db.delete(src);
    }
    ctx.db.set(dst, value);
    if let Some(at) = ttl {
        ctx.db.set_expire(dst, at);
    }
}

pub(super) fn rename(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    rename_generic(ctx, args, false)
}

pub(super) fn renamenx(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    rename_generic(ctx, args, true)
}

pub(super) fn keys(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let pattern = &args[1];
    let now = ctx.now_ms;
    let mut out: Vec<Vec<u8>> = ctx
        .db
        .iter()
        .filter(|(k, _)| glob_match(pattern, k))
        .map(|(k, _)| k.to_vec())
        .collect();
    // Deterministic output order (Redis's order is table order; sorting
    // makes tests and reports stable).
    out.sort_unstable();
    // Filter expired keys without reaping (KEYS is read-only here).
    out.retain(|k| ctx.db.expiry_of(k).is_none_or(|at| at > now));
    Resp::Array(out.into_iter().map(Resp::Bulk).collect())
}

pub(super) fn randomkey(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let _ = args;
    // Retry a few times to skip expired-but-unreaped keys, as Redis does.
    for _ in 0..16 {
        let Some(key) = ctx.db.random_key(|n| lcg_below(ctx.rng_state, n)) else {
            return Resp::NullBulk;
        };
        if ctx.db.exists(&key, ctx.now_ms) {
            return Resp::Bulk(key);
        }
    }
    Resp::NullBulk
}

/// Redis-style glob matching: `*`, `?`, `[abc]`, `[^abc]`, `[a-z]`, `\x`.
pub fn glob_match(pattern: &[u8], text: &[u8]) -> bool {
    glob_at(pattern, text)
}

fn glob_at(mut p: &[u8], mut t: &[u8]) -> bool {
    while let Some(&pc) = p.first() {
        match pc {
            b'*' => {
                // Collapse consecutive stars.
                while p.first() == Some(&b'*') {
                    p = &p[1..];
                }
                if p.is_empty() {
                    return true;
                }
                for skip in 0..=t.len() {
                    if glob_at(p, &t[skip..]) {
                        return true;
                    }
                }
                return false;
            }
            b'?' => {
                if t.is_empty() {
                    return false;
                }
                p = &p[1..];
                t = &t[1..];
            }
            b'[' => {
                let Some(close) = p.iter().position(|&c| c == b']') else {
                    // Unterminated class: literal match.
                    if t.first() != Some(&b'[') {
                        return false;
                    }
                    p = &p[1..];
                    t = &t[1..];
                    continue;
                };
                if t.is_empty() {
                    return false;
                }
                let class = &p[1..close];
                let (neg, class) = if class.first() == Some(&b'^') {
                    (true, &class[1..])
                } else {
                    (false, class)
                };
                let c = t[0];
                let mut matched = false;
                let mut i = 0;
                while i < class.len() {
                    if i + 2 < class.len() && class[i + 1] == b'-' {
                        if class[i] <= c && c <= class[i + 2] {
                            matched = true;
                        }
                        i += 3;
                    } else {
                        if class[i] == c {
                            matched = true;
                        }
                        i += 1;
                    }
                }
                if matched == neg {
                    return false;
                }
                p = &p[close + 1..];
                t = &t[1..];
            }
            b'\\' if p.len() > 1 => {
                if t.first() != Some(&p[1]) {
                    return false;
                }
                p = &p[2..];
                t = &t[1..];
            }
            _ => {
                if t.first() != Some(&pc) {
                    return false;
                }
                p = &p[1..];
                t = &t[1..];
            }
        }
    }
    t.is_empty()
}

pub(super) fn copy(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let replace = match args.get(3) {
        None => false,
        Some(a) if a.eq_ignore_ascii_case(b"REPLACE") => true,
        Some(_) => return Resp::err("syntax error"),
    };
    if !ctx.db.exists(args[1], ctx.now_ms) {
        return Resp::Int(0);
    }
    if !replace && ctx.db.exists(args[2], ctx.now_ms) {
        return Resp::Int(0);
    }
    copy_with_ttl(ctx, args[1], args[2], false);
    Resp::Int(1)
}

pub(super) fn object(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    if !args[1].eq_ignore_ascii_case(b"ENCODING") {
        return Resp::err("unknown OBJECT subcommand (only ENCODING is supported)");
    }
    match ctx.db.lookup_read(args[2], ctx.now_ms) {
        None => Resp::err("no such key"),
        Some(RObj::Int(_)) => Resp::Bulk(b"int".to_vec()),
        Some(RObj::Str(s)) => {
            // Redis: <= 44 bytes is embstr, beyond that raw.
            if s.len() <= 44 {
                Resp::Bulk(b"embstr".to_vec())
            } else {
                Resp::Bulk(b"raw".to_vec())
            }
        }
        Some(RObj::List(_)) => Resp::Bulk(b"quicklist".to_vec()),
        Some(RObj::Set(s)) if s.is_intset() => Resp::Bulk(b"intset".to_vec()),
        Some(RObj::Set(_)) => Resp::Bulk(b"hashtable".to_vec()),
        Some(RObj::Hash(_)) => Resp::Bulk(b"hashtable".to_vec()),
        Some(RObj::ZSet(_)) => Resp::Bulk(b"skiplist".to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::glob_match;

    #[test]
    fn glob_literals_and_wildcards() {
        assert!(glob_match(b"hello", b"hello"));
        assert!(!glob_match(b"hello", b"hellO"));
        assert!(glob_match(b"*", b"anything"));
        assert!(glob_match(b"*", b""));
        assert!(glob_match(b"h*llo", b"hello"));
        assert!(glob_match(b"h*llo", b"heeeello"));
        assert!(glob_match(b"h?llo", b"hallo"));
        assert!(!glob_match(b"h?llo", b"hllo"));
        assert!(glob_match(b"key:*", b"key:123"));
        assert!(!glob_match(b"key:*", b"k:123"));
        assert!(glob_match(b"**a**", b"bab"));
    }

    #[test]
    fn glob_classes() {
        assert!(glob_match(b"h[ae]llo", b"hallo"));
        assert!(glob_match(b"h[ae]llo", b"hello"));
        assert!(!glob_match(b"h[ae]llo", b"hillo"));
        assert!(glob_match(b"h[^x]llo", b"hello"));
        assert!(!glob_match(b"h[^e]llo", b"hello"));
        assert!(glob_match(b"k[0-9]", b"k5"));
        assert!(!glob_match(b"k[0-9]", b"kx"));
    }

    #[test]
    fn glob_escapes() {
        assert!(glob_match(b"a\\*b", b"a*b"));
        assert!(!glob_match(b"a\\*b", b"axb"));
        assert!(glob_match(b"a\\?b", b"a?b"));
    }
}
