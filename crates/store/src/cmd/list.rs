//! List commands (`LPUSH`, `LRANGE`, …).

use std::collections::VecDeque;

use super::{parse_i64, ExecCtx};
use crate::object::RObj;
use crate::resp::Resp;
use crate::sds::Sds;

/// Resolve a key to its list, optionally creating an empty one.
/// Returns `Err(reply)` on wrong type.
fn with_list<'a>(
    ctx: &'a mut ExecCtx<'_>,
    key: &[u8],
    create: bool,
) -> Result<Option<&'a mut VecDeque<Sds>>, Resp> {
    let now = ctx.now_ms;
    if ctx.db.lookup_write(key, now).is_none() {
        if !create {
            return Ok(None);
        }
        ctx.db.set(key, RObj::List(Box::default()));
    }
    match ctx.db.lookup_write(key, now) {
        Some(RObj::List(l)) => Ok(Some(l)),
        Some(_) => Err(Resp::wrongtype()),
        None => Ok(None),
    }
}

/// Delete the key if its list became empty (Redis removes empty aggregates).
fn reap_if_empty(ctx: &mut ExecCtx<'_>, key: &[u8]) {
    if let Some(RObj::List(l)) = ctx.db.lookup_write(key, ctx.now_ms) {
        if l.is_empty() {
            ctx.db.delete(key);
        }
    }
}

fn push_generic(ctx: &mut ExecCtx<'_>, args: &[&[u8]], front: bool, create: bool) -> Resp {
    let list = match with_list(ctx, args[1], create) {
        Ok(Some(l)) => l,
        Ok(None) => return Resp::Int(0), // LPUSHX/RPUSHX on missing key
        Err(e) => return e,
    };
    for v in &args[2..] {
        if front {
            list.push_front(Sds::from_bytes(v));
        } else {
            list.push_back(Sds::from_bytes(v));
        }
    }
    let len = list.len();
    ctx.db.mark_dirty((args.len() - 2) as u64);
    Resp::Int(len as i64)
}

pub(super) fn lpush(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    push_generic(ctx, args, true, true)
}

pub(super) fn rpush(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    push_generic(ctx, args, false, true)
}

pub(super) fn lpushx(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    push_generic(ctx, args, true, false)
}

pub(super) fn rpushx(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    push_generic(ctx, args, false, false)
}

fn pop_generic(ctx: &mut ExecCtx<'_>, args: &[&[u8]], front: bool) -> Resp {
    let count = match args.get(2) {
        None => None,
        Some(arg) => match parse_i64(arg) {
            Ok(v) if v >= 0 => Some(v as usize),
            Ok(_) => return Resp::err("value is out of range, must be positive"),
            Err(e) => return e,
        },
    };
    let list = match with_list(ctx, args[1], false) {
        Ok(Some(l)) => l,
        Ok(None) => {
            return if count.is_some() {
                Resp::NullArray
            } else {
                Resp::NullBulk
            }
        }
        Err(e) => return e,
    };
    let mut popped = Vec::new();
    let n = count.unwrap_or(1).min(list.len());
    for _ in 0..n {
        let item = if front {
            list.pop_front()
        } else {
            list.pop_back()
        };
        match item {
            Some(v) => popped.push(v),
            None => break,
        }
    }
    ctx.db.mark_dirty(popped.len() as u64);
    reap_if_empty(ctx, args[1]);
    match count {
        None => match popped.into_iter().next() {
            Some(v) => Resp::Bulk(v.into_vec()),
            None => Resp::NullBulk,
        },
        Some(_) => Resp::Array(
            popped
                .into_iter()
                .map(|v| Resp::Bulk(v.into_vec()))
                .collect(),
        ),
    }
}

pub(super) fn lpop(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    pop_generic(ctx, args, true)
}

pub(super) fn rpop(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    pop_generic(ctx, args, false)
}

pub(super) fn llen(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match with_list(ctx, args[1], false) {
        Ok(Some(l)) => Resp::Int(l.len() as i64),
        Ok(None) => Resp::Int(0),
        Err(e) => e,
    }
}

/// Clamp Redis-style negative-capable (start, stop) onto `[0, len)`.
fn clamp_range(start: i64, stop: i64, len: usize) -> Option<(usize, usize)> {
    let len = len as i64;
    let mut s = if start < 0 { len + start } else { start };
    let mut e = if stop < 0 { len + stop } else { stop };
    s = s.max(0);
    e = e.min(len - 1);
    if s > e || len == 0 {
        None
    } else {
        Some((s as usize, e as usize))
    }
}

pub(super) fn lrange(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let (start, stop) = match (parse_i64(args[2]), parse_i64(args[3])) {
        (Ok(s), Ok(e)) => (s, e),
        (Err(e), _) | (_, Err(e)) => return e,
    };
    let list = match with_list(ctx, args[1], false) {
        Ok(Some(l)) => l,
        Ok(None) => return Resp::Array(Vec::new()),
        Err(e) => return e,
    };
    match clamp_range(start, stop, list.len()) {
        Some((s, e)) => Resp::Array(
            list.iter()
                .skip(s)
                .take(e - s + 1)
                .map(|v| Resp::Bulk(v.as_bytes().to_vec()))
                .collect(),
        ),
        None => Resp::Array(Vec::new()),
    }
}

pub(super) fn lindex(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let idx = match parse_i64(args[2]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let list = match with_list(ctx, args[1], false) {
        Ok(Some(l)) => l,
        Ok(None) => return Resp::NullBulk,
        Err(e) => return e,
    };
    let real = if idx < 0 {
        list.len() as i64 + idx
    } else {
        idx
    };
    if real < 0 || real as usize >= list.len() {
        Resp::NullBulk
    } else {
        Resp::Bulk(list[real as usize].as_bytes().to_vec())
    }
}

pub(super) fn lset(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let idx = match parse_i64(args[2]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let value = Sds::from_bytes(args[3]);
    let list = match with_list(ctx, args[1], false) {
        Ok(Some(l)) => l,
        Ok(None) => return Resp::err("no such key"),
        Err(e) => return e,
    };
    let real = if idx < 0 {
        list.len() as i64 + idx
    } else {
        idx
    };
    if real < 0 || real as usize >= list.len() {
        return Resp::err("index out of range");
    }
    list[real as usize] = value;
    ctx.db.mark_dirty(1);
    Resp::ok()
}

pub(super) fn ltrim(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let (start, stop) = match (parse_i64(args[2]), parse_i64(args[3])) {
        (Ok(s), Ok(e)) => (s, e),
        (Err(e), _) | (_, Err(e)) => return e,
    };
    let list = match with_list(ctx, args[1], false) {
        Ok(Some(l)) => l,
        Ok(None) => return Resp::ok(),
        Err(e) => return e,
    };
    match clamp_range(start, stop, list.len()) {
        Some((s, e)) => {
            list.drain(e + 1..);
            list.drain(..s);
        }
        None => list.clear(),
    }
    ctx.db.mark_dirty(1);
    reap_if_empty(ctx, args[1]);
    Resp::ok()
}

pub(super) fn lrem(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let count = match parse_i64(args[2]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let needle = &args[3];
    let list = match with_list(ctx, args[1], false) {
        Ok(Some(l)) => l,
        Ok(None) => return Resp::Int(0),
        Err(e) => return e,
    };
    let limit = if count == 0 {
        usize::MAX
    } else {
        count.unsigned_abs() as usize
    };
    let mut removed = 0;
    if count >= 0 {
        let mut i = 0;
        while i < list.len() && removed < limit {
            if list[i].as_bytes() == &needle[..] {
                list.remove(i);
                removed += 1;
            } else {
                i += 1;
            }
        }
    } else {
        let mut i = list.len();
        while i > 0 && removed < limit {
            i -= 1;
            if list[i].as_bytes() == &needle[..] {
                list.remove(i);
                removed += 1;
            }
        }
    }
    ctx.db.mark_dirty(removed as u64);
    reap_if_empty(ctx, args[1]);
    Resp::Int(removed as i64)
}

pub(super) fn rpoplpush(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    // Pop from the source tail.
    let value = {
        let src = match with_list(ctx, args[1], false) {
            Ok(Some(l)) => l,
            Ok(None) => return Resp::NullBulk,
            Err(e) => return e,
        };
        match src.pop_back() {
            Some(v) => v,
            None => return Resp::NullBulk,
        }
    };
    reap_if_empty(ctx, args[1]);
    // Push onto the destination head (creating it; type errors push back).
    match with_list(ctx, args[2], true) {
        Ok(Some(dst)) => {
            dst.push_front(value.clone());
            ctx.db.mark_dirty(2);
            Resp::Bulk(value.into_vec())
        }
        Ok(None) => unreachable!("create=true"),
        Err(e) => {
            // Destination has the wrong type: restore the source element.
            if let Ok(Some(src)) = with_list(ctx, args[1], true) {
                src.push_back(value);
            }
            e
        }
    }
}

pub(super) fn lpos(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let needle = args[2];
    let mut rank = 1i64;
    let mut i = 3;
    while i < args.len() {
        match args[i].to_ascii_uppercase().as_slice() {
            b"RANK" => {
                i += 1;
                rank = match args.get(i).map(|a| parse_i64(a)) {
                    Some(Ok(v)) if v != 0 => v,
                    Some(Ok(_)) => return Resp::err("RANK can't be zero"),
                    Some(Err(e)) => return e,
                    None => return Resp::err("syntax error"),
                };
            }
            _ => return Resp::err("syntax error"),
        }
        i += 1;
    }
    let list = match with_list(ctx, args[1], false) {
        Ok(Some(l)) => l,
        Ok(None) => return Resp::NullBulk,
        Err(e) => return e,
    };
    let mut matches_seen = 0i64;
    let want = rank.unsigned_abs() as i64;
    if rank > 0 {
        for (idx, item) in list.iter().enumerate() {
            if item.as_bytes() == needle {
                matches_seen += 1;
                if matches_seen == want {
                    return Resp::Int(idx as i64);
                }
            }
        }
    } else {
        for (idx, item) in list.iter().enumerate().rev() {
            if item.as_bytes() == needle {
                matches_seen += 1;
                if matches_seen == want {
                    return Resp::Int(idx as i64);
                }
            }
        }
    }
    Resp::NullBulk
}
