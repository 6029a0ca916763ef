//! Hash commands (`HSET`, `HGETALL`, …).

use super::{parse_i64, ExecCtx};
use crate::dict::Dict;
use crate::object::RObj;
use crate::resp::Resp;
use crate::sds::Sds;

fn with_hash<'a>(
    ctx: &'a mut ExecCtx<'_>,
    key: &[u8],
    create: bool,
) -> Result<Option<&'a mut Dict<Sds>>, Resp> {
    let now = ctx.now_ms;
    if ctx.db.lookup_write(key, now).is_none() {
        if !create {
            return Ok(None);
        }
        ctx.db.set(key, RObj::Hash(Box::default()));
    }
    match ctx.db.lookup_write(key, now) {
        Some(RObj::Hash(h)) => Ok(Some(h)),
        Some(_) => Err(Resp::wrongtype()),
        None => Ok(None),
    }
}

fn reap_if_empty(ctx: &mut ExecCtx<'_>, key: &[u8]) {
    if let Some(RObj::Hash(h)) = ctx.db.lookup_write(key, ctx.now_ms) {
        if h.is_empty() {
            ctx.db.delete(key);
        }
    }
}

pub(super) fn hset(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    if !args.len().is_multiple_of(2) {
        return Resp::err("wrong number of arguments for HSET");
    }
    let hash = match with_hash(ctx, args[1], true) {
        Ok(Some(h)) => h,
        Ok(None) => unreachable!("create=true"),
        Err(e) => return e,
    };
    let mut added = 0;
    for pair in args[2..].chunks_exact(2) {
        if hash.insert(pair[0], Sds::from_bytes(pair[1])).is_none() {
            added += 1;
        }
    }
    ctx.db.mark_dirty((args.len() as u64 - 2) / 2);
    Resp::Int(added)
}

pub(super) fn hmset(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match hset(ctx, args) {
        r if r.is_error() => r,
        _ => Resp::ok(), // HMSET replies +OK rather than a count
    }
}

pub(super) fn hsetnx(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let hash = match with_hash(ctx, args[1], true) {
        Ok(Some(h)) => h,
        Ok(None) => unreachable!("create=true"),
        Err(e) => return e,
    };
    if hash.contains(args[2]) {
        Resp::Int(0)
    } else {
        hash.insert(args[2], Sds::from_bytes(args[3]));
        ctx.db.mark_dirty(1);
        Resp::Int(1)
    }
}

pub(super) fn hget(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_hash(ctx, args[1], false) {
        Ok(Some(h)) => match h.get(args[2]) {
            Some(v) => Resp::Bulk(v.as_bytes().to_vec()),
            None => Resp::NullBulk,
        },
        Ok(None) => Resp::NullBulk,
        Err(e) => e,
    }
}

pub(super) fn hmget(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_hash(ctx, args[1], false) {
        Ok(Some(h)) => Resp::Array(
            args[2..]
                .iter()
                .map(|f| match h.get(f) {
                    Some(v) => Resp::Bulk(v.as_bytes().to_vec()),
                    None => Resp::NullBulk,
                })
                .collect(),
        ),
        Ok(None) => Resp::Array(args[2..].iter().map(|_| Resp::NullBulk).collect()),
        Err(e) => e,
    }
}

pub(super) fn hdel(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let hash = match with_hash(ctx, args[1], false) {
        Ok(Some(h)) => h,
        Ok(None) => return Resp::Int(0),
        Err(e) => return e,
    };
    let removed = args[2..]
        .iter()
        .filter(|f| hash.remove(f).is_some())
        .count();
    ctx.db.mark_dirty(removed as u64);
    reap_if_empty(ctx, args[1]);
    Resp::Int(removed as i64)
}

pub(super) fn hexists(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_hash(ctx, args[1], false) {
        Ok(Some(h)) => Resp::Int(h.contains(args[2]) as i64),
        Ok(None) => Resp::Int(0),
        Err(e) => e,
    }
}

pub(super) fn hlen(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_hash(ctx, args[1], false) {
        Ok(Some(h)) => Resp::Int(h.len() as i64),
        Ok(None) => Resp::Int(0),
        Err(e) => e,
    }
}

pub(super) fn hstrlen(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_hash(ctx, args[1], false) {
        Ok(Some(h)) => Resp::Int(h.get(args[2]).map_or(0, Sds::len) as i64),
        Ok(None) => Resp::Int(0),
        Err(e) => e,
    }
}

/// Collect `(field, value)` pairs sorted by field for deterministic replies.
fn sorted_pairs(h: &Dict<Sds>) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = h
        .iter()
        .map(|(k, v)| (k.to_vec(), v.as_bytes().to_vec()))
        .collect();
    pairs.sort_unstable();
    pairs
}

pub(super) fn hgetall(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_hash(ctx, args[1], false) {
        Ok(Some(h)) => {
            let mut out = Vec::with_capacity(h.len() * 2);
            for (f, v) in sorted_pairs(h) {
                out.push(Resp::Bulk(f));
                out.push(Resp::Bulk(v));
            }
            Resp::Array(out)
        }
        Ok(None) => Resp::Array(Vec::new()),
        Err(e) => e,
    }
}

pub(super) fn hkeys(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_hash(ctx, args[1], false) {
        Ok(Some(h)) => Resp::Array(
            sorted_pairs(h)
                .into_iter()
                .map(|(f, _)| Resp::Bulk(f))
                .collect(),
        ),
        Ok(None) => Resp::Array(Vec::new()),
        Err(e) => e,
    }
}

pub(super) fn hvals(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_hash(ctx, args[1], false) {
        Ok(Some(h)) => Resp::Array(
            sorted_pairs(h)
                .into_iter()
                .map(|(_, v)| Resp::Bulk(v))
                .collect(),
        ),
        Ok(None) => Resp::Array(Vec::new()),
        Err(e) => e,
    }
}

pub(super) fn hincrby(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let delta = match parse_i64(args[3]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let hash = match with_hash(ctx, args[1], true) {
        Ok(Some(h)) => h,
        Ok(None) => unreachable!("create=true"),
        Err(e) => return e,
    };
    let current = match hash.get(args[2]) {
        None => 0,
        Some(v) => match v.parse_i64() {
            Some(n) => n,
            None => return Resp::err("hash value is not an integer"),
        },
    };
    let Some(next) = current.checked_add(delta) else {
        return Resp::err("increment or decrement would overflow");
    };
    hash.insert(args[2], Sds::from(next.to_string().as_str()));
    ctx.db.mark_dirty(1);
    Resp::Int(next)
}
