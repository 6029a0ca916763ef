//! Server and connection commands (`PING`, `DBSIZE`, `INFO`, …).

use super::{parse_i64, ExecCtx, COMMANDS};
use crate::resp::Resp;

pub(super) fn ping(_ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    match args.len() {
        1 => Resp::Simple("PONG".into()),
        2 => Resp::Bulk(args[1].to_vec()),
        _ => Resp::err("wrong number of arguments for 'ping' command"),
    }
}

pub(super) fn echo(_ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    Resp::Bulk(args[1].to_vec())
}

pub(super) fn select(_ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    // A single logical DB is modelled (the paper's workloads use DB 0).
    match parse_i64(args[1]) {
        Ok(0) => Resp::ok(),
        Ok(_) => Resp::err("DB index is out of range"),
        Err(e) => e,
    }
}

pub(super) fn dbsize(ctx: &mut ExecCtx<'_>, _args: &[&[u8]]) -> Resp {
    Resp::Int(ctx.db.len() as i64)
}

pub(super) fn flushdb(ctx: &mut ExecCtx<'_>, _args: &[&[u8]]) -> Resp {
    ctx.db.flush();
    Resp::ok()
}

pub(super) fn command(_ctx: &mut ExecCtx<'_>, args: &[&[u8]]) -> Resp {
    if args.len() >= 2 && args[1].eq_ignore_ascii_case(b"COUNT") {
        return Resp::Int(COMMANDS.len() as i64);
    }
    // Brief reply: one array entry per command (name + arity).
    Resp::Array(
        COMMANDS
            .iter()
            .map(|c| {
                Resp::Array(vec![
                    Resp::Bulk(c.name.to_ascii_lowercase().into_bytes()),
                    Resp::Int(c.arity as i64),
                ])
            })
            .collect(),
    )
}

pub(super) fn info(ctx: &mut ExecCtx<'_>, _args: &[&[u8]]) -> Resp {
    let (hits, misses) = ctx.db.stats_hit_miss();
    let text = format!(
        "# Server\r\nskv_version:0.1.0\r\n\
         # Keyspace\r\ndb0:keys={}\r\n\
         # Stats\r\nexpired_keys:{}\r\nkeyspace_hits:{hits}\r\nkeyspace_misses:{misses}\r\n\
         dirty:{}\r\n",
        ctx.db.len(),
        ctx.db.stat_expired(),
        ctx.db.dirty(),
    );
    Resp::Bulk(text.into_bytes())
}

pub(super) fn time(ctx: &mut ExecCtx<'_>, _args: &[&[u8]]) -> Resp {
    let secs = ctx.now_ms / 1000;
    let micros = (ctx.now_ms % 1000) * 1000;
    Resp::Array(vec![
        Resp::Bulk(secs.to_string().into_bytes()),
        Resp::Bulk(micros.to_string().into_bytes()),
    ])
}
