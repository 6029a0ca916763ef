//! Sorted-set commands (`ZADD`, `ZRANGE`, …).

use super::{format_f64, parse_f64, parse_i64, ExecCtx};
use crate::object::{RObj, ZSet};
use crate::resp::Resp;

fn with_zset<'a>(
    ctx: &'a mut ExecCtx<'_>,
    key: &[u8],
    create: bool,
) -> Result<Option<&'a mut ZSet>, Resp> {
    let now = ctx.now_ms;
    if ctx.db.lookup_write(key, now).is_none() {
        if !create {
            return Ok(None);
        }
        let seed = ctx.next_seed();
        ctx.db.set(key, RObj::ZSet(Box::new(ZSet::new(seed))));
    }
    match ctx.db.lookup_write(key, now) {
        Some(RObj::ZSet(z)) => Ok(Some(z)),
        Some(_) => Err(Resp::wrongtype()),
        None => Ok(None),
    }
}

fn reap_if_empty(ctx: &mut ExecCtx<'_>, key: &[u8]) {
    if let Some(RObj::ZSet(z)) = ctx.db.lookup_write(key, ctx.now_ms) {
        if z.is_empty() {
            ctx.db.delete(key);
        }
    }
}

pub(super) fn zadd(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    // Optional NX/XX/CH flags, then (score, member) pairs.
    let mut i = 2;
    let mut nx = false;
    let mut xx = false;
    let mut ch = false;
    while i < args.len() {
        match args[i].to_ascii_uppercase().as_slice() {
            b"NX" => nx = true,
            b"XX" => xx = true,
            b"CH" => ch = true,
            _ => break,
        }
        i += 1;
    }
    if nx && xx {
        return Resp::err("XX and NX options at the same time are not compatible");
    }
    let pairs = &args[i..];
    if pairs.is_empty() || !pairs.len().is_multiple_of(2) {
        return Resp::err("syntax error");
    }
    // Validate all scores before mutating (Redis behaviour).
    let mut parsed = Vec::with_capacity(pairs.len() / 2);
    for pair in pairs.chunks_exact(2) {
        match parse_f64(pair[0]) {
            Ok(score) => parsed.push((score, &pair[1])),
            Err(e) => return e,
        }
    }
    let zset = match with_zset(ctx, args[1], !xx) {
        Ok(Some(z)) => z,
        Ok(None) => return Resp::Int(0), // XX on missing key
        Err(e) => return e,
    };
    let mut added = 0i64;
    let mut changed = 0i64;
    for (score, member) in parsed {
        let existing = zset.score(member);
        match existing {
            Some(old) => {
                if nx {
                    continue;
                }
                if old != score {
                    zset.add(member, score);
                    changed += 1;
                }
            }
            None => {
                if xx {
                    continue;
                }
                zset.add(member, score);
                added += 1;
            }
        }
    }
    ctx.db.mark_dirty((added + changed) as u64);
    reap_if_empty(ctx, args[1]);
    Resp::Int(if ch { added + changed } else { added })
}

pub(super) fn zscore(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_zset(ctx, args[1], false) {
        Ok(Some(z)) => match z.score(args[2]) {
            Some(s) => Resp::Bulk(format_f64(s).into_bytes()),
            None => Resp::NullBulk,
        },
        Ok(None) => Resp::NullBulk,
        Err(e) => e,
    }
}

pub(super) fn zcard(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_zset(ctx, args[1], false) {
        Ok(Some(z)) => Resp::Int(z.len() as i64),
        Ok(None) => Resp::Int(0),
        Err(e) => e,
    }
}

pub(super) fn zrem(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let zset = match with_zset(ctx, args[1], false) {
        Ok(Some(z)) => z,
        Ok(None) => return Resp::Int(0),
        Err(e) => return e,
    };
    let removed = args[2..].iter().filter(|m| zset.remove(m)).count();
    ctx.db.mark_dirty(removed as u64);
    reap_if_empty(ctx, args[1]);
    Resp::Int(removed as i64)
}

pub(super) fn zrank(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_zset(ctx, args[1], false) {
        Ok(Some(z)) => match z.rank(args[2]) {
            Some(r) => Resp::Int(r as i64),
            None => Resp::NullBulk,
        },
        Ok(None) => Resp::NullBulk,
        Err(e) => e,
    }
}

pub(super) fn zrange(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let (start, stop) = match (parse_i64(args[2]), parse_i64(args[3])) {
        (Ok(s), Ok(e)) => (s, e),
        (Err(e), _) | (_, Err(e)) => return e,
    };
    let withscores = match args.get(4) {
        None => false,
        Some(a) if a.eq_ignore_ascii_case(b"WITHSCORES") => true,
        Some(_) => return Resp::err("syntax error"),
    };
    let zset = match with_zset(ctx, args[1], false) {
        Ok(Some(z)) => z,
        Ok(None) => return Resp::Array(Vec::new()),
        Err(e) => return e,
    };
    let len = zset.len() as i64;
    let mut s = if start < 0 { len + start } else { start };
    let mut e = if stop < 0 { len + stop } else { stop };
    s = s.max(0);
    e = e.min(len - 1);
    if s > e || len == 0 {
        return Resp::Array(Vec::new());
    }
    let mut out = Vec::new();
    for (member, score) in zset.range(s as usize, e as usize) {
        out.push(Resp::Bulk(member));
        if withscores {
            out.push(Resp::Bulk(format_f64(score).into_bytes()));
        }
    }
    Resp::Array(out)
}

pub(super) fn zrangebyscore(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let (min, max) = match (parse_score_bound(args[2]), parse_score_bound(args[3])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return e,
    };
    let withscores = match args.get(4) {
        None => false,
        Some(a) if a.eq_ignore_ascii_case(b"WITHSCORES") => true,
        Some(_) => return Resp::err("syntax error"),
    };
    let zset = match with_zset(ctx, args[1], false) {
        Ok(Some(z)) => z,
        Ok(None) => return Resp::Array(Vec::new()),
        Err(e) => return e,
    };
    let mut out = Vec::new();
    for (member, score) in zset.range_by_score(min.0, max.0) {
        // Exclusive bounds filter.
        if (min.1 && score == min.0) || (max.1 && score == max.0) {
            continue;
        }
        out.push(Resp::Bulk(member));
        if withscores {
            out.push(Resp::Bulk(format_f64(score).into_bytes()));
        }
    }
    Resp::Array(out)
}

pub(super) fn zcount(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let (min, max) = match (parse_score_bound(args[2]), parse_score_bound(args[3])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return e,
    };
    let zset = match with_zset(ctx, args[1], false) {
        Ok(Some(z)) => z,
        Ok(None) => return Resp::Int(0),
        Err(e) => return e,
    };
    let n = zset
        .range_by_score(min.0, max.0)
        .into_iter()
        .filter(|(_, score)| !((min.1 && *score == min.0) || (max.1 && *score == max.0)))
        .count();
    Resp::Int(n as i64)
}

pub(super) fn zincrby(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let delta = match parse_f64(args[2]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let zset = match with_zset(ctx, args[1], true) {
        Ok(Some(z)) => z,
        Ok(None) => unreachable!("create=true"),
        Err(e) => return e,
    };
    let next = zset.score(args[3]).unwrap_or(0.0) + delta;
    if next.is_nan() {
        return Resp::err("resulting score is not a number (NaN)");
    }
    zset.add(args[3], next);
    ctx.db.mark_dirty(1);
    Resp::Bulk(format_f64(next).into_bytes())
}

/// Parse a score bound: `5`, `(5` (exclusive), `+inf`, `-inf`.
/// Returns `(value, exclusive)`.
fn parse_score_bound(arg: &[u8]) -> Result<(f64, bool), Resp> {
    if let Some(rest) = arg.strip_prefix(b"(") {
        Ok((parse_f64(rest).map_err(|_| bound_err())?, true))
    } else {
        Ok((parse_f64(arg).map_err(|_| bound_err())?, false))
    }
}

fn bound_err() -> Resp {
    Resp::err("min or max is not a float")
}

pub(super) fn zrevrange(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let (start, stop) = match (parse_i64(args[2]), parse_i64(args[3])) {
        (Ok(s), Ok(e)) => (s, e),
        (Err(e), _) | (_, Err(e)) => return e,
    };
    let withscores = match args.get(4) {
        None => false,
        Some(a) if a.eq_ignore_ascii_case(b"WITHSCORES") => true,
        Some(_) => return Resp::err("syntax error"),
    };
    let zset = match with_zset(ctx, args[1], false) {
        Ok(Some(z)) => z,
        Ok(None) => return Resp::Array(Vec::new()),
        Err(e) => return e,
    };
    // Reverse ranks: rev-rank r maps to rank len-1-r.
    let len = zset.len() as i64;
    let mut s = if start < 0 { len + start } else { start };
    let mut e = if stop < 0 { len + stop } else { stop };
    s = s.max(0);
    e = e.min(len - 1);
    if s > e || len == 0 {
        return Resp::Array(Vec::new());
    }
    let lo = (len - 1 - e) as usize;
    let hi = (len - 1 - s) as usize;
    let mut items = zset.range(lo, hi);
    items.reverse();
    let mut out = Vec::new();
    for (member, score) in items {
        out.push(Resp::Bulk(member));
        if withscores {
            out.push(Resp::Bulk(format_f64(score).into_bytes()));
        }
    }
    Resp::Array(out)
}

fn zpop_generic(ctx: &mut ExecCtx<'_>, args: &[&[u8]], min: bool) -> Resp {
    let count = match args.get(2) {
        None => 1usize,
        Some(arg) => match parse_i64(arg) {
            Ok(v) if v >= 0 => v as usize,
            Ok(_) => return Resp::err("value is out of range, must be positive"),
            Err(e) => return e,
        },
    };
    let zset = match with_zset(ctx, args[1], false) {
        Ok(Some(z)) => z,
        Ok(None) => return Resp::Array(Vec::new()),
        Err(e) => return e,
    };
    let len = zset.len();
    let take = count.min(len);
    let victims: Vec<(Vec<u8>, f64)> = if min {
        zset.range(0, take.saturating_sub(1))
    } else {
        let mut v = zset.range(len - take, len.saturating_sub(1));
        v.reverse();
        v
    };
    let mut out = Vec::with_capacity(victims.len() * 2);
    for (m, score) in &victims {
        zset.remove(m);
        out.push(Resp::Bulk(m.clone()));
        out.push(Resp::Bulk(format_f64(*score).into_bytes()));
    }
    ctx.db.mark_dirty(victims.len() as u64);
    reap_if_empty(ctx, args[1]);
    Resp::Array(out)
}

pub(super) fn zpopmin(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    zpop_generic(ctx, args, true)
}

pub(super) fn zpopmax(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    zpop_generic(ctx, args, false)
}

pub(super) fn zremrangebyscore(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let (min, max) = match (parse_score_bound(args[2]), parse_score_bound(args[3])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return e,
    };
    let zset = match with_zset(ctx, args[1], false) {
        Ok(Some(z)) => z,
        Ok(None) => return Resp::Int(0),
        Err(e) => return e,
    };
    let victims: Vec<Vec<u8>> = zset
        .range_by_score(min.0, max.0)
        .into_iter()
        .filter(|(_, score)| !((min.1 && *score == min.0) || (max.1 && *score == max.0)))
        .map(|(m, _)| m)
        .collect();
    for m in &victims {
        zset.remove(m);
    }
    ctx.db.mark_dirty(victims.len() as u64);
    reap_if_empty(ctx, args[1]);
    Resp::Int(victims.len() as i64)
}

pub(super) fn zremrangebyrank(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let (start, stop) = match (parse_i64(args[2]), parse_i64(args[3])) {
        (Ok(s), Ok(e)) => (s, e),
        (Err(e), _) | (_, Err(e)) => return e,
    };
    let zset = match with_zset(ctx, args[1], false) {
        Ok(Some(z)) => z,
        Ok(None) => return Resp::Int(0),
        Err(e) => return e,
    };
    let len = zset.len() as i64;
    let mut s = if start < 0 { len + start } else { start };
    let mut e = if stop < 0 { len + stop } else { stop };
    s = s.max(0);
    e = e.min(len - 1);
    if s > e || len == 0 {
        return Resp::Int(0);
    }
    let victims: Vec<Vec<u8>> = zset
        .range(s as usize, e as usize)
        .into_iter()
        .map(|(m, _)| m)
        .collect();
    for m in &victims {
        zset.remove(m);
    }
    ctx.db.mark_dirty(victims.len() as u64);
    reap_if_empty(ctx, args[1]);
    Resp::Int(victims.len() as i64)
}
