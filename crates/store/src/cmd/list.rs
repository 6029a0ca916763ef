//! List commands (`LPUSH`, `LRANGE`, …).

use std::collections::VecDeque;

use super::{parse_count, parse_i64, parse_i64_pair, rank_range, Aggregate, ExecCtx};
use crate::object::RObj;
use crate::resp::Resp;
use crate::sds::Sds;

type List = VecDeque<Sds>;

impl Aggregate for List {
    fn of(obj: &mut RObj) -> Option<&mut Self> {
        match obj {
            RObj::List(l) => Some(l),
            _ => None,
        }
    }

    fn empty(_: &mut ExecCtx<'_>) -> RObj {
        RObj::List(Box::default())
    }

    fn is_empty(&self) -> bool {
        VecDeque::is_empty(self)
    }
}

fn push_generic(ctx: &mut ExecCtx<'_>, args: &[&[u8]], front: bool, create: bool) -> Resp {
    let found = if create {
        ctx.lookup_or_create::<List>(args[1]).map(Some)
    } else {
        ctx.lookup::<List>(args[1])
    };
    let list = match found {
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
    let count = match parse_count(args.get(2)) {
        Ok(c) => c,
        Err(e) => return e,
    };
    let list = match ctx.lookup::<List>(args[1]) {
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
    let n = count.unwrap_or(1).min(list.len());
    let pop = |l: &mut List| if front { l.pop_front() } else { l.pop_back() };
    let popped: Vec<Sds> = (0..n).filter_map(|_| pop(list)).collect();
    ctx.db.mark_dirty(popped.len() as u64);
    ctx.reap_if_empty::<List>(args[1]);
    let mut replies = popped.into_iter().map(|v| Resp::Bulk(v.into_vec()));
    match count {
        None => replies.next().unwrap_or(Resp::NullBulk),
        Some(_) => Resp::Array(replies.collect()),
    }
}

pub(super) fn lpop(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    pop_generic(ctx, args, true)
}

pub(super) fn rpop(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    pop_generic(ctx, args, false)
}

pub(super) fn llen(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match ctx.lookup::<List>(args[1]) {
        Ok(Some(l)) => Resp::Int(l.len() as i64),
        Ok(None) => Resp::Int(0),
        Err(e) => e,
    }
}

pub(super) fn lrange(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let (start, stop) = match parse_i64_pair(args[2], args[3]) {
        Ok(pair) => pair,
        Err(e) => return e,
    };
    let list = match ctx.lookup::<List>(args[1]) {
        Ok(Some(l)) => l,
        Ok(None) => return Resp::Array(Vec::new()),
        Err(e) => return e,
    };
    match rank_range(start, stop, list.len()) {
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
    let list = match ctx.lookup::<List>(args[1]) {
        Ok(Some(l)) => l,
        Ok(None) => return Resp::NullBulk,
        Err(e) => return e,
    };
    match list_index(idx, list.len()) {
        Some(i) => Resp::Bulk(list[i].as_bytes().to_vec()),
        None => Resp::NullBulk,
    }
}

/// A Redis-style list index, negative counting from the end, checked
/// against `len`.
fn list_index(idx: i64, len: usize) -> Option<usize> {
    let real = if idx < 0 { len as i64 + idx } else { idx };
    (0..len as i64).contains(&real).then_some(real as usize)
}

pub(super) fn lset(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let idx = match parse_i64(args[2]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let value = Sds::from_bytes(args[3]);
    let list = match ctx.lookup::<List>(args[1]) {
        Ok(Some(l)) => l,
        Ok(None) => return Resp::err("no such key"),
        Err(e) => return e,
    };
    let Some(i) = list_index(idx, list.len()) else {
        return Resp::err("index out of range");
    };
    list[i] = value;
    ctx.db.mark_dirty(1);
    Resp::ok()
}

pub(super) fn ltrim(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let (start, stop) = match parse_i64_pair(args[2], args[3]) {
        Ok(pair) => pair,
        Err(e) => return e,
    };
    let list = match ctx.lookup::<List>(args[1]) {
        Ok(Some(l)) => l,
        Ok(None) => return Resp::ok(),
        Err(e) => return e,
    };
    match rank_range(start, stop, list.len()) {
        Some((s, e)) => {
            list.drain(e + 1..);
            list.drain(..s);
        }
        None => list.clear(),
    }
    ctx.db.mark_dirty(1);
    ctx.reap_if_empty::<List>(args[1]);
    Resp::ok()
}

pub(super) fn lrem(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let count = match parse_i64(args[2]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let needle = &args[3];
    let list = match ctx.lookup::<List>(args[1]) {
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
    ctx.reap_if_empty::<List>(args[1]);
    Resp::Int(removed as i64)
}

pub(super) fn rpoplpush(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    // Pop from the source tail.
    let value = {
        let src = match ctx.lookup::<List>(args[1]) {
            Ok(Some(l)) => l,
            Ok(None) => return Resp::NullBulk,
            Err(e) => return e,
        };
        match src.pop_back() {
            Some(v) => v,
            None => return Resp::NullBulk,
        }
    };
    ctx.reap_if_empty::<List>(args[1]);
    // Push onto the destination head (creating it; type errors push back).
    match ctx.lookup_or_create::<List>(args[2]) {
        Ok(dst) => {
            dst.push_front(value.clone());
            ctx.db.mark_dirty(2);
            Resp::Bulk(value.into_vec())
        }
        Err(e) => {
            // Destination has the wrong type: restore the source element.
            if let Ok(src) = ctx.lookup_or_create::<List>(args[1]) {
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
    let list = match ctx.lookup::<List>(args[1]) {
        Ok(Some(l)) => l,
        Ok(None) => return Resp::NullBulk,
        Err(e) => return e,
    };
    // The |rank|-th match, counted from the head or (rank < 0) the tail.
    let nth = rank.unsigned_abs() as usize - 1;
    let mut hits = list
        .iter()
        .enumerate()
        .filter(|(_, item)| item.as_bytes() == needle);
    let hit = if rank > 0 {
        hits.nth(nth)
    } else {
        hits.rev().nth(nth)
    };
    hit.map_or(Resp::NullBulk, |(idx, _)| Resp::Int(idx as i64))
}
