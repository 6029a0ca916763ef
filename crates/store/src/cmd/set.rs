//! Set commands (`SADD`, `SMEMBERS`, …).

use super::{parse_i64, ExecCtx};
use crate::object::{RObj, SetObj};
use crate::resp::Resp;

fn with_set<'a>(
    ctx: &'a mut ExecCtx<'_>,
    key: &[u8],
    create: bool,
) -> Result<Option<&'a mut SetObj>, Resp> {
    let now = ctx.now_ms;
    if ctx.db.lookup_write(key, now).is_none() {
        if !create {
            return Ok(None);
        }
        ctx.db.set(key, RObj::Set(Box::default()));
    }
    match ctx.db.lookup_write(key, now) {
        Some(RObj::Set(s)) => Ok(Some(s)),
        Some(_) => Err(Resp::wrongtype()),
        None => Ok(None),
    }
}

fn reap_if_empty(ctx: &mut ExecCtx<'_>, key: &[u8]) {
    if let Some(RObj::Set(s)) = ctx.db.lookup_write(key, ctx.now_ms) {
        if s.is_empty() {
            ctx.db.delete(key);
        }
    }
}

pub(super) fn sadd(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let set = match with_set(ctx, args[1], true) {
        Ok(Some(s)) => s,
        Ok(None) => unreachable!("create=true"),
        Err(e) => return e,
    };
    let added = args[2..].iter().filter(|m| set.add(m)).count();
    ctx.db.mark_dirty(added as u64);
    Resp::Int(added as i64)
}

pub(super) fn srem(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let set = match with_set(ctx, args[1], false) {
        Ok(Some(s)) => s,
        Ok(None) => return Resp::Int(0),
        Err(e) => return e,
    };
    let removed = args[2..].iter().filter(|m| set.remove(m)).count();
    ctx.db.mark_dirty(removed as u64);
    reap_if_empty(ctx, args[1]);
    Resp::Int(removed as i64)
}

pub(super) fn scard(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_set(ctx, args[1], false) {
        Ok(Some(s)) => Resp::Int(s.len() as i64),
        Ok(None) => Resp::Int(0),
        Err(e) => e,
    }
}

pub(super) fn sismember(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_set(ctx, args[1], false) {
        Ok(Some(s)) => Resp::Int(s.contains(args[2]) as i64),
        Ok(None) => Resp::Int(0),
        Err(e) => e,
    }
}

pub(super) fn smembers(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_set(ctx, args[1], false) {
        Ok(Some(s)) => {
            let mut members = s.members();
            members.sort_unstable(); // deterministic reply order
            Resp::Array(members.into_iter().map(Resp::Bulk).collect())
        }
        Ok(None) => Resp::Array(Vec::new()),
        Err(e) => e,
    }
}

pub(super) fn spop(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let count = match args.get(2) {
        None => None,
        Some(arg) => match parse_i64(arg) {
            Ok(v) if v >= 0 => Some(v as usize),
            Ok(_) => return Resp::err("value is out of range, must be positive"),
            Err(e) => return e,
        },
    };
    // Choose victims first (immutable pass), then remove.
    let victims: Vec<Vec<u8>> = {
        let set = match with_set(ctx, args[1], false) {
            Ok(Some(s)) => s,
            Ok(None) => {
                return if count.is_some() {
                    Resp::Array(Vec::new())
                } else {
                    Resp::NullBulk
                }
            }
            Err(e) => return e,
        };
        let mut members = set.members();
        members.sort_unstable();
        let want = count.unwrap_or(1).min(members.len());
        let mut out = Vec::with_capacity(want);
        for _ in 0..want {
            let idx = ctx_rand(ctx.rng_state, members.len() as u64) as usize;
            out.push(members.swap_remove(idx));
        }
        out
    };
    {
        let set = match with_set(ctx, args[1], false) {
            Ok(Some(s)) => s,
            _ => unreachable!("set existed above"),
        };
        for v in &victims {
            set.remove(v);
        }
    }
    ctx.db.mark_dirty(victims.len() as u64);
    reap_if_empty(ctx, args[1]);
    match count {
        None => match victims.into_iter().next() {
            Some(v) => Resp::Bulk(v),
            None => Resp::NullBulk,
        },
        Some(_) => Resp::Array(victims.into_iter().map(Resp::Bulk).collect()),
    }
}

pub(super) fn srandmember(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let count = match args.get(2) {
        None => None,
        Some(arg) => match parse_i64(arg) {
            Ok(v) => Some(v),
            Err(e) => return e,
        },
    };
    let members = match with_set(ctx, args[1], false) {
        Ok(Some(s)) => {
            let mut m = s.members();
            m.sort_unstable();
            m
        }
        Ok(None) => {
            return if count.is_some() {
                Resp::Array(Vec::new())
            } else {
                Resp::NullBulk
            }
        }
        Err(e) => return e,
    };
    match count {
        None => {
            let idx = ctx_rand(ctx.rng_state, members.len() as u64) as usize;
            Resp::Bulk(members[idx].clone())
        }
        Some(n) if n >= 0 => {
            // Distinct members, up to the set size.
            let want = (n as usize).min(members.len());
            let mut pool = members;
            let mut out = Vec::with_capacity(want);
            for _ in 0..want {
                let idx = ctx_rand(ctx.rng_state, pool.len() as u64) as usize;
                out.push(pool.swap_remove(idx));
            }
            Resp::Array(out.into_iter().map(Resp::Bulk).collect())
        }
        Some(n) => {
            // Negative count: repetitions allowed, exactly |n| results.
            let want = n.unsigned_abs() as usize;
            let out: Vec<Resp> = (0..want)
                .map(|_| {
                    let idx = ctx_rand(ctx.rng_state, members.len() as u64) as usize;
                    Resp::Bulk(members[idx].clone())
                })
                .collect();
            Resp::Array(out)
        }
    }
}

fn ctx_rand(state: &mut u64, n: u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    if n == 0 {
        0
    } else {
        (*state >> 16) % n
    }
}

/// Gather a key's members as a sorted vec (empty when missing).
fn members_of(ctx: &mut ExecCtx<'_>, key: &[u8]) -> Result<Vec<Vec<u8>>, Resp> {
    match with_set(ctx, key, false) {
        Ok(Some(s)) => {
            let mut m = s.members();
            m.sort_unstable();
            Ok(m)
        }
        Ok(None) => Ok(Vec::new()),
        Err(e) => Err(e),
    }
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

fn algebra_reply(members: Vec<Vec<u8>>) -> Resp {
    Resp::Array(members.into_iter().map(Resp::Bulk).collect())
}

fn algebra_store(ctx: &mut ExecCtx<'_>, dest: &[u8], members: Vec<Vec<u8>>) -> Resp {
    ctx.db.delete(dest);
    if members.is_empty() {
        return Resp::Int(0);
    }
    let n = members.len();
    let set = match with_set(ctx, dest, true) {
        Ok(Some(s)) => s,
        _ => unreachable!("create=true on a fresh key"),
    };
    for m in &members {
        set.add(m);
    }
    ctx.db.mark_dirty(n as u64);
    Resp::Int(n as i64)
}

pub(super) fn sinter(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match set_algebra(ctx, &args[1..], 0) {
        Ok(m) => algebra_reply(m),
        Err(e) => e,
    }
}

pub(super) fn sunion(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match set_algebra(ctx, &args[1..], 1) {
        Ok(m) => algebra_reply(m),
        Err(e) => e,
    }
}

pub(super) fn sdiff(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match set_algebra(ctx, &args[1..], 2) {
        Ok(m) => algebra_reply(m),
        Err(e) => e,
    }
}

pub(super) fn sinterstore(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match set_algebra(ctx, &args[2..], 0) {
        Ok(m) => algebra_store(ctx, args[1], m),
        Err(e) => e,
    }
}

pub(super) fn sunionstore(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match set_algebra(ctx, &args[2..], 1) {
        Ok(m) => algebra_store(ctx, args[1], m),
        Err(e) => e,
    }
}

pub(super) fn sdiffstore(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match set_algebra(ctx, &args[2..], 2) {
        Ok(m) => algebra_store(ctx, args[1], m),
        Err(e) => e,
    }
}

pub(super) fn smove(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let member = args[3];
    // Check the source first.
    let removed = match with_set(ctx, args[1], false) {
        Ok(Some(s)) => s.remove(member),
        Ok(None) => false,
        Err(e) => return e,
    };
    if !removed {
        // Still must type-check the destination, as Redis does.
        if let Err(e) = with_set(ctx, args[2], false) {
            return e;
        }
        return Resp::Int(0);
    }
    reap_if_empty(ctx, args[1]);
    match with_set(ctx, args[2], true) {
        Ok(Some(d)) => {
            d.add(member);
            ctx.db.mark_dirty(1);
            Resp::Int(1)
        }
        Ok(None) => unreachable!("create=true"),
        Err(e) => e,
    }
}
