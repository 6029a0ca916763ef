//! Sorted-set commands (`ZADD`, `ZRANGE`, …).

use super::{
    format_f64, lcg_below, parse_count, parse_f64, parse_i64_pair, rank_range, Aggregate, ExecCtx,
};
use crate::object::{RObj, ZSet};
use crate::resp::Resp;

impl Aggregate for ZSet {
    fn of(obj: &mut RObj) -> Option<&mut Self> {
        match obj {
            RObj::ZSet(z) => Some(z),
            _ => None,
        }
    }

    /// A new zset draws exactly one skiplist seed.
    fn empty(ctx: &mut ExecCtx<'_>) -> RObj {
        RObj::ZSet(Box::new(ZSet::new(lcg_below(ctx.rng_state, u64::MAX))))
    }

    fn is_empty(&self) -> bool {
        ZSet::is_empty(self)
    }
}

/// A score bound: `(value, exclusive)`.
type Bound = (f64, bool);

/// Parse `(min, max)` score bounds: `5`, `(5` (exclusive), `+inf`, `-inf`.
fn parse_score_bounds(min: &[u8], max: &[u8]) -> Result<(Bound, Bound), Resp> {
    let bound = |arg: &[u8]| {
        let (value, exclusive) = match arg.strip_prefix(b"(") {
            Some(rest) => (rest, true),
            None => (arg, false),
        };
        let value = parse_f64(value).map_err(|_| Resp::err("min or max is not a float"))?;
        Ok((value, exclusive))
    };
    Ok((bound(min)?, bound(max)?))
}

/// The members of `zset` whose scores lie inside the bounds, in rank order.
fn in_score_range(zset: &ZSet, (min, max): (Bound, Bound)) -> impl Iterator<Item = (Vec<u8>, f64)> {
    let excluded = move |score: f64| (min.1 && score == min.0) || (max.1 && score == max.0);
    let items = zset.range_by_score(min.0, max.0).into_iter();
    items.filter(move |&(_, score)| !excluded(score))
}

/// The optional `WITHSCORES` word of a range read.
fn parse_withscores(arg: Option<&&[u8]>) -> Result<bool, Resp> {
    match arg {
        None => Ok(false),
        Some(a) if a.eq_ignore_ascii_case(b"WITHSCORES") => Ok(true),
        Some(_) => Err(Resp::err("syntax error")),
    }
}

/// An array of members, each followed by its score when `withscores`.
fn scored_reply(items: impl IntoIterator<Item = (Vec<u8>, f64)>, withscores: bool) -> Resp {
    let mut out = Vec::new();
    for (member, score) in items {
        out.push(Resp::Bulk(member));
        if withscores {
            out.push(Resp::Bulk(format_f64(score).into_bytes()));
        }
    }
    Resp::Array(out)
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
    let found = if xx {
        ctx.lookup::<ZSet>(args[1])
    } else {
        ctx.lookup_or_create::<ZSet>(args[1]).map(Some)
    };
    let zset = match found {
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
    ctx.reap_if_empty::<ZSet>(args[1]);
    Resp::Int(if ch { added + changed } else { added })
}

pub(super) fn zscore(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match ctx.lookup::<ZSet>(args[1]) {
        Ok(Some(z)) => match z.score(args[2]) {
            Some(s) => Resp::Bulk(format_f64(s).into_bytes()),
            None => Resp::NullBulk,
        },
        Ok(None) => Resp::NullBulk,
        Err(e) => e,
    }
}

pub(super) fn zcard(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match ctx.lookup::<ZSet>(args[1]) {
        Ok(Some(z)) => Resp::Int(z.len() as i64),
        Ok(None) => Resp::Int(0),
        Err(e) => e,
    }
}

pub(super) fn zrem(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let zset = match ctx.lookup::<ZSet>(args[1]) {
        Ok(Some(z)) => z,
        Ok(None) => return Resp::Int(0),
        Err(e) => return e,
    };
    let removed = args[2..].iter().filter(|m| zset.remove(m)).count();
    ctx.db.mark_dirty(removed as u64);
    ctx.reap_if_empty::<ZSet>(args[1]);
    Resp::Int(removed as i64)
}

pub(super) fn zrank(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match ctx.lookup::<ZSet>(args[1]) {
        Ok(Some(z)) => match z.rank(args[2]) {
            Some(r) => Resp::Int(r as i64),
            None => Resp::NullBulk,
        },
        Ok(None) => Resp::NullBulk,
        Err(e) => e,
    }
}

pub(super) fn zrange(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    range_generic(ctx, args, false)
}

pub(super) fn zrevrange(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    range_generic(ctx, args, true)
}

fn range_generic(ctx: &mut ExecCtx<'_>, args: &[&[u8]], rev: bool) -> Resp {
    let (start, stop) = match parse_i64_pair(args[2], args[3]) {
        Ok(pair) => pair,
        Err(e) => return e,
    };
    let withscores = match parse_withscores(args.get(4)) {
        Ok(w) => w,
        Err(e) => return e,
    };
    let zset = match ctx.lookup::<ZSet>(args[1]) {
        Ok(Some(z)) => z,
        Ok(None) => return Resp::Array(Vec::new()),
        Err(e) => return e,
    };
    let len = zset.len();
    let Some((s, e)) = rank_range(start, stop, len) else {
        return Resp::Array(Vec::new());
    };
    if !rev {
        return scored_reply(zset.range(s, e), withscores);
    }
    // Reverse ranks: rev-rank r maps to rank len-1-r.
    let mut items = zset.range(len - 1 - e, len - 1 - s);
    items.reverse();
    scored_reply(items, withscores)
}

pub(super) fn zrangebyscore(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let bounds = match parse_score_bounds(args[2], args[3]) {
        Ok(b) => b,
        Err(e) => return e,
    };
    let withscores = match parse_withscores(args.get(4)) {
        Ok(w) => w,
        Err(e) => return e,
    };
    match ctx.lookup::<ZSet>(args[1]) {
        Ok(Some(z)) => scored_reply(in_score_range(z, bounds), withscores),
        Ok(None) => Resp::Array(Vec::new()),
        Err(e) => e,
    }
}

pub(super) fn zcount(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let bounds = match parse_score_bounds(args[2], args[3]) {
        Ok(b) => b,
        Err(e) => return e,
    };
    match ctx.lookup::<ZSet>(args[1]) {
        Ok(Some(z)) => Resp::Int(in_score_range(z, bounds).count() as i64),
        Ok(None) => Resp::Int(0),
        Err(e) => e,
    }
}

pub(super) fn zincrby(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let delta = match parse_f64(args[2]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let zset = match ctx.lookup_or_create::<ZSet>(args[1]) {
        Ok(z) => z,
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

fn zpop_generic(ctx: &mut ExecCtx<'_>, args: &[&[u8]], min: bool) -> Resp {
    let count = match parse_count(args.get(2)) {
        Ok(c) => c.unwrap_or(1),
        Err(e) => return e,
    };
    let zset = match ctx.lookup::<ZSet>(args[1]) {
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
    for (m, _) in &victims {
        zset.remove(m);
    }
    ctx.db.mark_dirty(victims.len() as u64);
    ctx.reap_if_empty::<ZSet>(args[1]);
    scored_reply(victims, true)
}

pub(super) fn zpopmin(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    zpop_generic(ctx, args, true)
}

pub(super) fn zpopmax(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    zpop_generic(ctx, args, false)
}

pub(super) fn zremrangebyscore(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let bounds = match parse_score_bounds(args[2], args[3]) {
        Ok(b) => b,
        Err(e) => return e,
    };
    let zset = match ctx.lookup::<ZSet>(args[1]) {
        Ok(Some(z)) => z,
        Ok(None) => return Resp::Int(0),
        Err(e) => return e,
    };
    let victims: Vec<Vec<u8>> = in_score_range(zset, bounds).map(|(m, _)| m).collect();
    for m in &victims {
        zset.remove(m);
    }
    ctx.db.mark_dirty(victims.len() as u64);
    ctx.reap_if_empty::<ZSet>(args[1]);
    Resp::Int(victims.len() as i64)
}

pub(super) fn zremrangebyrank(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let (start, stop) = match parse_i64_pair(args[2], args[3]) {
        Ok(pair) => pair,
        Err(e) => return e,
    };
    let zset = match ctx.lookup::<ZSet>(args[1]) {
        Ok(Some(z)) => z,
        Ok(None) => return Resp::Int(0),
        Err(e) => return e,
    };
    let Some((s, e)) = rank_range(start, stop, zset.len()) else {
        return Resp::Int(0);
    };
    let victims: Vec<Vec<u8>> = zset.range(s, e).into_iter().map(|(m, _)| m).collect();
    for m in &victims {
        zset.remove(m);
    }
    ctx.db.mark_dirty(victims.len() as u64);
    ctx.reap_if_empty::<ZSet>(args[1]);
    Resp::Int(victims.len() as i64)
}
