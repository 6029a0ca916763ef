//! Cursor-based iteration (`SCAN`, `HSCAN`, `SSCAN`, `ZSCAN`).
//!
//! Built on the dict's reverse-binary-iteration scan, so full-coverage
//! guarantees hold across incremental rehashes. As in Redis, a `COUNT`
//! hint bounds the *buckets* visited per call, not the elements returned,
//! and compact encodings (intsets) are returned in one shot with cursor 0.

use super::keyspace::glob_match;
use super::{format_f64, parse_i64, ExecCtx};
use crate::object::{RObj, SetObj};
use crate::resp::Resp;

fn parse_scan_options<'a>(args: &[&'a [u8]]) -> Result<(Option<&'a [u8]>, usize), Resp> {
    let mut pattern = None;
    let mut count = 10usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].to_ascii_uppercase().as_slice() {
            b"MATCH" => {
                i += 1;
                pattern = Some(*args.get(i).ok_or_else(|| Resp::err("syntax error"))?);
            }
            b"COUNT" => {
                i += 1;
                let n = parse_i64(args.get(i).ok_or_else(|| Resp::err("syntax error"))?)?;
                if n < 1 {
                    return Err(Resp::err("syntax error"));
                }
                count = n as usize;
            }
            _ => return Err(Resp::err("syntax error")),
        }
        i += 1;
    }
    Ok((pattern, count))
}

fn scan_reply(cursor: u64, items: Vec<Vec<u8>>) -> Resp {
    Resp::Array(vec![
        Resp::Bulk(cursor.to_string().into_bytes()),
        Resp::Array(items.into_iter().map(Resp::Bulk).collect()),
    ])
}

fn parse_cursor(arg: &[u8]) -> Result<u64, Resp> {
    std::str::from_utf8(arg)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Resp::err("invalid cursor"))
}

pub(super) fn scan(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let mut cursor = match parse_cursor(args[1]) {
        Ok(c) => c,
        Err(e) => return e,
    };
    let (pattern, count) = match parse_scan_options(&args[2..]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let now = ctx.now_ms;
    let mut keys = Vec::new();
    for _ in 0..count {
        cursor = ctx.db.scan_step(cursor, |k, _| {
            if pattern.is_none_or(|p| glob_match(p, k)) {
                keys.push(k.to_vec());
            }
        });
        if cursor == 0 {
            break;
        }
    }
    // Filter out expired-but-unreaped keys without mutating.
    keys.retain(|k| ctx.db.expiry_of(k).is_none_or(|at| at > now));
    scan_reply(cursor, keys)
}

pub(super) fn hscan(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let mut cursor = match parse_cursor(args[2]) {
        Ok(c) => c,
        Err(e) => return e,
    };
    let (pattern, count) = match parse_scan_options(&args[3..]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let hash = match ctx.db.lookup_read(args[1], ctx.now_ms) {
        None => return scan_reply(0, Vec::new()),
        Some(RObj::Hash(h)) => h,
        Some(_) => return Resp::wrongtype(),
    };
    let mut items = Vec::new();
    for _ in 0..count {
        cursor = hash.scan(cursor, |f, v| {
            if pattern.is_none_or(|p| glob_match(p, f)) {
                items.push(f.to_vec());
                items.push(v.as_bytes().to_vec());
            }
        });
        if cursor == 0 {
            break;
        }
    }
    scan_reply(cursor, items)
}

pub(super) fn sscan(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let mut cursor = match parse_cursor(args[2]) {
        Ok(c) => c,
        Err(e) => return e,
    };
    let (pattern, count) = match parse_scan_options(&args[3..]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let set = match ctx.db.lookup_read(args[1], ctx.now_ms) {
        None => return scan_reply(0, Vec::new()),
        Some(RObj::Set(s)) => s,
        Some(_) => return Resp::wrongtype(),
    };
    match &**set {
        SetObj::Ints(ints) => {
            // Compact encoding: everything in one pass (Redis behaviour).
            let items = ints
                .iter()
                .map(|v| v.to_string().into_bytes())
                .filter(|m| pattern.is_none_or(|p| glob_match(p, m)))
                .collect();
            scan_reply(0, items)
        }
        SetObj::Dict(d) => {
            let mut items = Vec::new();
            for _ in 0..count {
                cursor = d.scan(cursor, |m, _| {
                    if pattern.is_none_or(|p| glob_match(p, m)) {
                        items.push(m.to_vec());
                    }
                });
                if cursor == 0 {
                    break;
                }
            }
            scan_reply(cursor, items)
        }
    }
}

pub(super) fn zscan(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let mut cursor = match parse_cursor(args[2]) {
        Ok(c) => c,
        Err(e) => return e,
    };
    let (pattern, count) = match parse_scan_options(&args[3..]) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let zset = match ctx.db.lookup_read(args[1], ctx.now_ms) {
        None => return scan_reply(0, Vec::new()),
        Some(RObj::ZSet(z)) => z,
        Some(_) => return Resp::wrongtype(),
    };
    let mut items = Vec::new();
    for _ in 0..count {
        cursor = zset.scan(cursor, |m, score| {
            if pattern.is_none_or(|p| glob_match(p, m)) {
                items.push(m.to_vec());
                items.push(format_f64(score).into_bytes());
            }
        });
        if cursor == 0 {
            break;
        }
    }
    scan_reply(cursor, items)
}
