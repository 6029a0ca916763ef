//! Bit operations (`SETBIT`, `GETBIT`, `BITCOUNT`, `BITPOS`, `BITOP`).
//!
//! Bits are numbered Redis-style: bit 0 is the most significant bit of the
//! first byte.

use super::{parse_i64, ExecCtx};
use crate::object::RObj;
use crate::resp::Resp;
use crate::sds::Sds;

/// Largest addressable bit offset (Redis caps strings at 512 MB).
const MAX_BIT_OFFSET: i64 = 512 * 1024 * 1024 * 8 - 1;

/// Fetch the raw bytes of a string key (owned), or None/wrongtype.
fn string_bytes(ctx: &mut ExecCtx<'_>, key: &[u8]) -> Result<Option<Vec<u8>>, Resp> {
    match ctx.db.lookup_read(key, ctx.now_ms) {
        None => Ok(None),
        Some(o) if o.is_string() => Ok(Some(o.as_string_bytes())),
        Some(_) => Err(Resp::wrongtype()),
    }
}

pub(super) fn setbit(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let offset = match parse_i64(args[2]) {
        Ok(v) if (0..=MAX_BIT_OFFSET).contains(&v) => v as usize,
        Ok(_) => return Resp::err("bit offset is not an integer or out of range"),
        Err(e) => return e,
    };
    let bit = match parse_i64(args[3]) {
        Ok(0) => 0u8,
        Ok(1) => 1u8,
        _ => return Resp::err("bit is not an integer or out of range"),
    };
    let mut bytes = match string_bytes(ctx, args[1]) {
        Ok(Some(b)) => b,
        Ok(None) => Vec::new(),
        Err(e) => return e,
    };
    let byte_idx = offset / 8;
    let bit_idx = 7 - (offset % 8);
    if byte_idx >= bytes.len() {
        bytes.resize(byte_idx + 1, 0);
    }
    let old = (bytes[byte_idx] >> bit_idx) & 1;
    if bit == 1 {
        bytes[byte_idx] |= 1 << bit_idx;
    } else {
        bytes[byte_idx] &= !(1 << bit_idx);
    }
    ctx.db
        .set_keep_ttl(args[1], RObj::Str(Sds::from_vec(bytes)));
    Resp::Int(old as i64)
}

pub(super) fn getbit(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let offset = match parse_i64(args[2]) {
        Ok(v) if (0..=MAX_BIT_OFFSET).contains(&v) => v as usize,
        Ok(_) => return Resp::err("bit offset is not an integer or out of range"),
        Err(e) => return e,
    };
    let bytes = match string_bytes(ctx, args[1]) {
        Ok(Some(b)) => b,
        Ok(None) => return Resp::Int(0),
        Err(e) => return e,
    };
    let byte_idx = offset / 8;
    if byte_idx >= bytes.len() {
        return Resp::Int(0);
    }
    Resp::Int(((bytes[byte_idx] >> (7 - offset % 8)) & 1) as i64)
}

pub(super) fn bitcount(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let bytes = match string_bytes(ctx, args[1]) {
        Ok(Some(b)) => b,
        Ok(None) => return Resp::Int(0),
        Err(e) => return e,
    };
    let slice: &[u8] = match (args.get(2), args.get(3)) {
        (None, None) => &bytes,
        (Some(s), Some(e)) => {
            let (start, end) = match (parse_i64(s), parse_i64(e)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(err), _) | (_, Err(err)) => return err,
            };
            // Reuse GETRANGE-style clamping for the byte range.
            let tmp = Sds::from_vec(bytes.clone());
            let r = tmp.get_range(start, end);
            return Resp::Int(r.iter().map(|b| b.count_ones() as i64).sum());
        }
        _ => return Resp::err("syntax error"),
    };
    Resp::Int(slice.iter().map(|b| b.count_ones() as i64).sum())
}

pub(super) fn bitpos(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let target = match parse_i64(args[2]) {
        Ok(0) => 0u8,
        Ok(1) => 1u8,
        _ => return Resp::err("the bit argument must be 1 or 0"),
    };
    let bytes = match string_bytes(ctx, args[1]) {
        Ok(Some(b)) => b,
        Ok(None) => {
            // Missing key is all-zeroes: first 0 is at 0; no 1 exists.
            return Resp::Int(if target == 0 { 0 } else { -1 });
        }
        Err(e) => return e,
    };
    for (i, &byte) in bytes.iter().enumerate() {
        for bit in 0..8 {
            if (byte >> (7 - bit)) & 1 == target {
                return Resp::Int((i * 8 + bit) as i64);
            }
        }
    }
    // Redis: looking for a 0 in an all-ones string reports one past the end.
    if target == 0 {
        Resp::Int((bytes.len() * 8) as i64)
    } else {
        Resp::Int(-1)
    }
}

pub(super) fn bitop(ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    let op = args[1].to_ascii_uppercase();
    let dest = &args[2];
    let sources = &args[3..];
    if sources.is_empty() {
        return Resp::err("wrong number of arguments for 'bitop' command");
    }
    if op == b"NOT" && sources.len() != 1 {
        return Resp::err("BITOP NOT must be called with a single source key");
    }
    let mut operands = Vec::with_capacity(sources.len());
    for key in sources {
        match string_bytes(ctx, key) {
            Ok(Some(b)) => operands.push(b),
            Ok(None) => operands.push(Vec::new()),
            Err(e) => return e,
        }
    }
    let max_len = operands.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = vec![0u8; max_len];
    match op.as_slice() {
        b"NOT" => {
            for (i, byte) in operands[0].iter().enumerate() {
                out[i] = !byte;
            }
        }
        b"AND" | b"OR" | b"XOR" => {
            for (i, slot) in out.iter_mut().enumerate() {
                let mut acc: Option<u8> = None;
                for operand in &operands {
                    let byte = operand.get(i).copied().unwrap_or(0);
                    acc = Some(match (acc, op.as_slice()) {
                        (None, _) => byte,
                        (Some(a), b"AND") => a & byte,
                        (Some(a), b"OR") => a | byte,
                        (Some(a), _) => a ^ byte,
                    });
                }
                *slot = acc.unwrap_or(0);
            }
        }
        _ => return Resp::err("syntax error"),
    }
    if out.is_empty() {
        ctx.db.delete(dest);
        return Resp::Int(0);
    }
    let len = out.len();
    ctx.db.set(dest, RObj::Str(Sds::from_vec(out)));
    Resp::Int(len as i64)
}
