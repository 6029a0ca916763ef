//! String commands (`SET`, `GET`, `INCR`, …) — the workload the paper's
//! evaluation drives (`redis-benchmark` SET/GET).

use super::{parse_i64, parse_i64_pair, upper_name, ExecCtx, MAX_NAME_LEN};
use crate::object::RObj;
use crate::resp::Resp;
use crate::sds::Sds;

/// Fetch a string-typed object's bytes, or an error/None reply.
pub(super) fn get_string(ctx: &mut ExecCtx<'_>, key: &[u8]) -> Result<Option<Vec<u8>>, Resp> {
    match ctx.db.lookup_read(key, ctx.now_ms) {
        None => Ok(None),
        Some(o) if o.is_string() => Ok(Some(o.as_string_bytes())),
        Some(_) => Err(Resp::wrongtype()),
    }
}

pub(super) fn set(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let key = &args[1];
    let val = &args[2];
    let mut expire_at: Option<u64> = None;
    let mut nx = false;
    let mut xx = false;
    let mut keepttl = false;

    let mut i = 3;
    while i < args.len() {
        let mut folded = [0u8; MAX_NAME_LEN];
        let opt = upper_name(args[i], &mut folded);
        match opt {
            b"NX" => nx = true,
            b"XX" => xx = true,
            b"KEEPTTL" => keepttl = true,
            b"EX" | b"PX" => {
                i += 1;
                let Some(arg) = args.get(i) else {
                    return Resp::err("syntax error");
                };
                let v = match parse_i64(arg) {
                    Ok(v) if v > 0 => v as u64,
                    Ok(_) => return Resp::err("invalid expire time in 'set' command"),
                    Err(e) => return e,
                };
                let ms = if opt == b"EX" { v * 1000 } else { v };
                expire_at = Some(ctx.now_ms + ms);
            }
            _ => return Resp::err("syntax error"),
        }
        i += 1;
    }
    if nx && xx {
        return Resp::err("syntax error");
    }

    if nx || xx {
        let exists = ctx.db.exists(key, ctx.now_ms);
        if (nx && exists) || (xx && !exists) {
            return Resp::NullBulk;
        }
    } else {
        // An unconditional SET still reaps a dead key first: the reap is
        // what `stat_expired` and the extra `dirty` count.
        ctx.db.expire_if_needed(key, ctx.now_ms);
    }
    ctx.db.set_string(key, val, keepttl);
    if let Some(at) = expire_at {
        ctx.db.set_expire(key, at);
    }
    Resp::ok()
}

pub(super) fn setnx(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    if ctx.db.exists(args[1], ctx.now_ms) {
        Resp::Int(0)
    } else {
        ctx.db.set_string(args[1], args[2], false);
        Resp::Int(1)
    }
}

fn setex_generic(ctx: &mut ExecCtx<'_>, args: &[&[u8]], unit_ms: u64) -> Resp {
    let secs = match parse_i64(args[2]) {
        Ok(v) if v > 0 => v as u64,
        Ok(_) => return Resp::err("invalid expire time in 'setex' command"),
        Err(e) => return e,
    };
    ctx.db.set_string(args[1], args[3], false);
    ctx.db.set_expire(args[1], ctx.now_ms + secs * unit_ms);
    Resp::ok()
}

pub(super) fn setex(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    setex_generic(ctx, args, 1000)
}

pub(super) fn psetex(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    setex_generic(ctx, args, 1)
}

pub(super) fn get(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match get_string(ctx, args[1]) {
        Ok(Some(bytes)) => Resp::Bulk(bytes),
        Ok(None) => Resp::NullBulk,
        Err(e) => e,
    }
}

pub(super) fn getset(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let old = match get_string(ctx, args[1]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    ctx.db.set_string(args[1], args[2], false);
    match old {
        Some(bytes) => Resp::Bulk(bytes),
        None => Resp::NullBulk,
    }
}

pub(super) fn getdel(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let old = match get_string(ctx, args[1]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    match old {
        Some(bytes) => {
            ctx.db.delete(args[1]);
            Resp::Bulk(bytes)
        }
        None => Resp::NullBulk,
    }
}

pub(super) fn mset(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    if args.len() % 2 != 1 {
        return Resp::err("wrong number of arguments for MSET");
    }
    for pair in args[1..].chunks_exact(2) {
        ctx.db.set_string(pair[0], pair[1], false);
    }
    Resp::ok()
}

pub(super) fn msetnx(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    if args.len() % 2 != 1 {
        return Resp::err("wrong number of arguments for MSETNX");
    }
    let any_exists = args[1..]
        .chunks_exact(2)
        .any(|pair| ctx.db.exists(pair[0], ctx.now_ms));
    if any_exists {
        return Resp::Int(0);
    }
    for pair in args[1..].chunks_exact(2) {
        ctx.db.set_string(pair[0], pair[1], false);
    }
    Resp::Int(1)
}

pub(super) fn mget(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    Resp::Array(
        args[1..]
            .iter()
            .map(|key| match get_string(ctx, key) {
                Ok(Some(bytes)) => Resp::Bulk(bytes),
                _ => Resp::NullBulk, // wrong type yields nil in MGET
            })
            .collect(),
    )
}

pub(super) fn append(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match ctx.db.lookup_write(args[1], ctx.now_ms) {
        Some(RObj::Str(s)) => {
            s.append(args[2]);
            let len = s.len();
            ctx.db.mark_dirty(1);
            Resp::Int(len as i64)
        }
        Some(RObj::Int(v)) => {
            let mut s = Sds::from_vec(v.to_string().into_bytes());
            s.append(args[2]);
            let len = s.len();
            ctx.db.set_keep_ttl(args[1], RObj::Str(s));
            Resp::Int(len as i64)
        }
        Some(_) => Resp::wrongtype(),
        None => {
            let len = args[2].len();
            ctx.db.set(args[1], RObj::Str(Sds::from_bytes(args[2])));
            Resp::Int(len as i64)
        }
    }
}

pub(super) fn strlen(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match get_string(ctx, args[1]) {
        Ok(Some(bytes)) => Resp::Int(bytes.len() as i64),
        Ok(None) => Resp::Int(0),
        Err(e) => e,
    }
}

fn incr_generic(ctx: &mut ExecCtx<'_>, key: &[u8], delta: i64) -> Resp {
    let current = match ctx.db.lookup_write(key, ctx.now_ms) {
        None => 0,
        Some(RObj::Int(v)) => *v,
        Some(RObj::Str(s)) => match s.parse_i64() {
            Some(v) => v,
            None => return Resp::err("value is not an integer or out of range"),
        },
        Some(_) => return Resp::wrongtype(),
    };
    let Some(next) = current.checked_add(delta) else {
        return Resp::err("increment or decrement would overflow");
    };
    ctx.db.set_keep_ttl(key, RObj::Int(next));
    Resp::Int(next)
}

pub(super) fn incr(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    incr_generic(ctx, args[1], 1)
}

pub(super) fn decr(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    incr_generic(ctx, args[1], -1)
}

pub(super) fn incrby(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match parse_i64(args[2]) {
        Ok(delta) => incr_generic(ctx, args[1], delta),
        Err(e) => e,
    }
}

pub(super) fn decrby(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match parse_i64(args[2]) {
        Ok(delta) => match delta.checked_neg() {
            Some(neg) => incr_generic(ctx, args[1], neg),
            None => Resp::err("decrement would overflow"),
        },
        Err(e) => e,
    }
}

pub(super) fn getrange(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let (start, end) = match parse_i64_pair(args[2], args[3]) {
        Ok(pair) => pair,
        Err(e) => return e,
    };
    match get_string(ctx, args[1]) {
        Ok(Some(bytes)) => {
            let s = Sds::from_vec(bytes);
            Resp::Bulk(s.get_range(start, end).to_vec())
        }
        Ok(None) => Resp::Bulk(Vec::new()),
        Err(e) => e,
    }
}

pub(super) fn setrange(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let offset = match parse_i64(args[2]) {
        Ok(v) if v >= 0 => v as usize,
        Ok(_) => return Resp::err("offset is out of range"),
        Err(e) => return e,
    };
    match ctx.db.lookup_write(args[1], ctx.now_ms) {
        Some(RObj::Str(s)) => {
            s.set_range(offset, args[3]);
            let len = s.len();
            ctx.db.mark_dirty(1);
            Resp::Int(len as i64)
        }
        Some(RObj::Int(v)) => {
            let mut s = Sds::from_vec(v.to_string().into_bytes());
            s.set_range(offset, args[3]);
            let len = s.len();
            ctx.db.set_keep_ttl(args[1], RObj::Str(s));
            Resp::Int(len as i64)
        }
        Some(_) => Resp::wrongtype(),
        None => {
            if args[3].is_empty() {
                return Resp::Int(0);
            }
            let mut s = Sds::new();
            s.set_range(offset, args[3]);
            let len = s.len();
            ctx.db.set(args[1], RObj::Str(s));
            Resp::Int(len as i64)
        }
    }
}

pub(super) fn getex(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let value = match get_string(ctx, args[1]) {
        Ok(Some(v)) => v,
        Ok(None) => return Resp::NullBulk,
        Err(e) => return e,
    };
    // Options: EX s | PX ms | PERSIST | (none = don't touch TTL).
    match args.get(2).map(|a| a.to_ascii_uppercase()) {
        None => {}
        Some(opt) if opt == b"PERSIST" => {
            ctx.db.persist(args[1]);
        }
        Some(opt) if opt == b"EX" || opt == b"PX" => {
            let Some(arg) = args.get(3) else {
                return Resp::err("syntax error");
            };
            let v = match parse_i64(arg) {
                Ok(v) if v > 0 => v as u64,
                Ok(_) => return Resp::err("invalid expire time in 'getex' command"),
                Err(e) => return e,
            };
            let ms = if opt == b"EX" { v * 1000 } else { v };
            ctx.db.set_expire(args[1], ctx.now_ms + ms);
        }
        Some(_) => return Resp::err("syntax error"),
    }
    Resp::Bulk(value)
}

pub(super) fn incrbyfloat(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let delta = match super::parse_f64(args[2]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let current = match ctx.db.lookup_write(args[1], ctx.now_ms) {
        None => 0.0,
        Some(RObj::Int(v)) => *v as f64,
        Some(RObj::Str(s)) => match std::str::from_utf8(s.as_bytes())
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
        {
            Some(v) => v,
            None => return Resp::err("value is not a valid float"),
        },
        Some(_) => return Resp::wrongtype(),
    };
    let next = current + delta;
    if !next.is_finite() {
        return Resp::err("increment would produce NaN or Infinity");
    }
    let rendered = super::format_f64(next);
    ctx.db
        .set_keep_ttl(args[1], RObj::Str(Sds::from(rendered.as_str())));
    Resp::Bulk(rendered.into_bytes())
}
