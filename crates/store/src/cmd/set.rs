//! Set commands (`SADD`, `SMEMBERS`, …).

use super::{lcg_below, parse_count, parse_i64, Aggregate, ExecCtx};
use crate::object::{RObj, SetObj};
use crate::resp::Resp;

impl Aggregate for SetObj {
    fn of(obj: &mut RObj) -> Option<&mut Self> {
        match obj {
            RObj::Set(s) => Some(s),
            _ => None,
        }
    }

    fn empty(_: &mut ExecCtx<'_>) -> RObj {
        RObj::Set(Box::default())
    }

    fn is_empty(&self) -> bool {
        SetObj::is_empty(self)
    }
}

pub(super) fn sadd(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let set = match ctx.lookup_or_create::<SetObj>(args[1]) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let added = args[2..].iter().filter(|m| set.add(m)).count();
    ctx.db.mark_dirty(added as u64);
    Resp::Int(added as i64)
}

pub(super) fn srem(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let set = match ctx.lookup::<SetObj>(args[1]) {
        Ok(Some(s)) => s,
        Ok(None) => return Resp::Int(0),
        Err(e) => return e,
    };
    let removed = args[2..].iter().filter(|m| set.remove(m)).count();
    ctx.db.mark_dirty(removed as u64);
    ctx.reap_if_empty::<SetObj>(args[1]);
    Resp::Int(removed as i64)
}

pub(super) fn scard(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match ctx.lookup::<SetObj>(args[1]) {
        Ok(Some(s)) => Resp::Int(s.len() as i64),
        Ok(None) => Resp::Int(0),
        Err(e) => e,
    }
}

pub(super) fn sismember(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match ctx.lookup::<SetObj>(args[1]) {
        Ok(Some(s)) => Resp::Int(s.contains(args[2]) as i64),
        Ok(None) => Resp::Int(0),
        Err(e) => e,
    }
}

pub(super) fn smembers(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match ctx.lookup::<SetObj>(args[1]) {
        Ok(Some(s)) => Resp::Array(s.sorted_members().into_iter().map(Resp::Bulk).collect()),
        Ok(None) => Resp::Array(Vec::new()),
        Err(e) => e,
    }
}

pub(super) fn spop(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let count = match parse_count(args.get(2)) {
        Ok(c) => c,
        Err(e) => return e,
    };
    // Choose victims first (immutable pass), then remove.
    let members = match ctx.lookup::<SetObj>(args[1]) {
        Ok(Some(s)) => s.sorted_members(),
        Ok(None) => return count.map_or(Resp::NullBulk, |_| Resp::Array(Vec::new())),
        Err(e) => return e,
    };
    let victims = draw_distinct(ctx.rng_state, members, count.unwrap_or(1));
    if let Ok(Some(set)) = ctx.lookup::<SetObj>(args[1]) {
        for v in &victims {
            set.remove(v);
        }
    }
    ctx.db.mark_dirty(victims.len() as u64);
    ctx.reap_if_empty::<SetObj>(args[1]);
    let mut replies = victims.into_iter().map(Resp::Bulk);
    match count {
        None => replies.next().unwrap_or(Resp::NullBulk),
        Some(_) => Resp::Array(replies.collect()),
    }
}

pub(super) fn srandmember(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let count = match args.get(2).map(|arg| parse_i64(arg)).transpose() {
        Ok(c) => c,
        Err(e) => return e,
    };
    let members = match ctx.lookup::<SetObj>(args[1]) {
        Ok(Some(s)) => s.sorted_members(),
        Ok(None) => return count.map_or(Resp::NullBulk, |_| Resp::Array(Vec::new())),
        Err(e) => return e,
    };
    let rng = &mut *ctx.rng_state;
    let mut pick = || members[lcg_below(rng, members.len() as u64) as usize].clone();
    match count {
        None => Resp::Bulk(pick()),
        // Distinct members, up to the set size.
        Some(n) if n >= 0 => {
            let drawn = draw_distinct(rng, members, n as usize);
            Resp::Array(drawn.into_iter().map(Resp::Bulk).collect())
        }
        // Negative count: repetitions allowed, exactly |n| results.
        Some(n) => Resp::Array((0..n.unsigned_abs()).map(|_| Resp::Bulk(pick())).collect()),
    }
}

/// Draw up to `n` distinct members of `pool` at random, in draw order.
fn draw_distinct(rng: &mut u64, mut pool: Vec<Vec<u8>>, n: usize) -> Vec<Vec<u8>> {
    (0..n.min(pool.len()))
        .map(|_| {
            let idx = lcg_below(rng, pool.len() as u64) as usize;
            pool.swap_remove(idx)
        })
        .collect()
}

/// Gather a key's members as a sorted vec (empty when missing).
fn members_of(ctx: &mut ExecCtx<'_>, key: &[u8]) -> Result<Vec<Vec<u8>>, Resp> {
    Ok(ctx
        .lookup::<SetObj>(key)?
        .map_or_else(Vec::new, |s| s.sorted_members()))
}

fn set_algebra(
    ctx: &mut ExecCtx<'_>,
    keys: &[&[u8]],
    op: u8, // 0 = inter, 1 = union, 2 = diff
) -> Result<Vec<Vec<u8>>, Resp> {
    let first = members_of(ctx, keys[0])?;
    let mut acc: std::collections::BTreeSet<Vec<u8>> = first.into_iter().collect();
    for key in &keys[1..] {
        let other: std::collections::BTreeSet<Vec<u8>> =
            members_of(ctx, key)?.into_iter().collect();
        match op {
            0 => acc = acc.intersection(&other).cloned().collect(),
            1 => acc.extend(other),
            _ => acc = acc.difference(&other).cloned().collect(),
        }
    }
    Ok(acc.into_iter().collect())
}

/// `SINTER`, `SUNION` and `SDIFF` over `args[1..]`, or with `store` their
/// `…STORE` forms: destination `args[1]`, keys `args[2..]`.
fn algebra(ctx: &mut ExecCtx<'_>, args: &[&[u8]], op: u8, store: bool) -> Resp {
    let members = match set_algebra(ctx, &args[1 + store as usize..], op) {
        Ok(m) => m,
        Err(e) => return e,
    };
    if !store {
        return Resp::Array(members.into_iter().map(Resp::Bulk).collect());
    }
    let dest = args[1];
    ctx.db.delete(dest);
    if members.is_empty() {
        return Resp::Int(0);
    }
    let set = match ctx.lookup_or_create::<SetObj>(dest) {
        Ok(s) => s,
        Err(e) => return e,
    };
    for m in &members {
        set.add(m);
    }
    ctx.db.mark_dirty(members.len() as u64);
    Resp::Int(members.len() as i64)
}

pub(super) fn sinter(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    algebra(ctx, args, 0, false)
}

pub(super) fn sunion(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    algebra(ctx, args, 1, false)
}

pub(super) fn sdiff(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    algebra(ctx, args, 2, false)
}

pub(super) fn sinterstore(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    algebra(ctx, args, 0, true)
}

pub(super) fn sunionstore(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    algebra(ctx, args, 1, true)
}

pub(super) fn sdiffstore(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    algebra(ctx, args, 2, true)
}

pub(super) fn smove(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let member = args[3];
    // Check the source first.
    let removed = match ctx.lookup::<SetObj>(args[1]) {
        Ok(Some(s)) => s.remove(member),
        Ok(None) => false,
        Err(e) => return e,
    };
    if !removed {
        // Still must type-check the destination, as Redis does.
        if let Err(e) = ctx.lookup::<SetObj>(args[2]) {
            return e;
        }
        return Resp::Int(0);
    }
    ctx.reap_if_empty::<SetObj>(args[1]);
    match ctx.lookup_or_create::<SetObj>(args[2]) {
        Ok(d) => {
            d.add(member);
            ctx.db.mark_dirty(1);
            Resp::Int(1)
        }
        Err(e) => e,
    }
}
