//! RDB-style keyspace snapshots.
//!
//! The initial synchronization phase of master-slave replication (paper
//! Figure 8, step ③) transfers "a data file containing all key-value
//! pairs". This module produces and loads that file: a length-encoded,
//! CRC-checked binary serialization of the whole keyspace, in the spirit of
//! Redis's RDB format.
//!
//! Keys are emitted in sorted order, which makes the encoding *canonical*:
//! two keyspaces with identical logical content produce identical bytes,
//! regardless of the hash tables' internal states. Replication tests lean
//! on this.

use std::collections::VecDeque;

use crate::db::Db;
use crate::dict::Dict;
use crate::object::{RObj, SetObj, ZSet};
use crate::sds::Sds;

/// Format magic + version.
const MAGIC: &[u8; 8] = b"SKVRDB01";

/// Type tags.
const T_STRING: u8 = 0;
const T_INT: u8 = 1;
const T_LIST: u8 = 2;
const T_SET: u8 = 3;
const T_HASH: u8 = 4;
const T_ZSET: u8 = 5;
/// Marks a key with an expiry (followed by the ms timestamp).
const OP_EXPIRE_MS: u8 = 0xFD;
const OP_EOF: u8 = 0xFF;

/// Errors raised while loading a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdbError {
    /// The magic header is wrong.
    BadMagic,
    /// The payload ended unexpectedly.
    Truncated,
    /// The trailing checksum does not match.
    BadChecksum,
    /// An unknown type/op tag was encountered.
    BadTag(u8),
    /// A float failed to parse.
    BadFloat,
}

// ---------------------------------------------------------------------------
// primitives
// ---------------------------------------------------------------------------

fn put_len(out: &mut Vec<u8>, mut v: u64) {
    // LEB128-style varint.
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn get_len(buf: &[u8], pos: &mut usize) -> Result<u64, RdbError> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let byte = *buf.get(*pos).ok_or(RdbError::Truncated)?;
        *pos += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(RdbError::BadTag(byte));
        }
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_len(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn get_bytes(buf: &[u8], pos: &mut usize) -> Result<Vec<u8>, RdbError> {
    let len = get_len(buf, pos)? as usize;
    let end = pos.checked_add(len).ok_or(RdbError::Truncated)?;
    if end > buf.len() {
        return Err(RdbError::Truncated);
    }
    let out = buf[*pos..end].to_vec();
    *pos = end;
    Ok(out)
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn get_f64(buf: &[u8], pos: &mut usize) -> Result<f64, RdbError> {
    let end = *pos + 8;
    if end > buf.len() {
        return Err(RdbError::Truncated);
    }
    let bits = u64::from_le_bytes(buf[*pos..end].try_into().map_err(|_| RdbError::BadFloat)?);
    *pos = end;
    Ok(f64::from_bits(bits))
}

/// CRC-32 (IEEE), bitwise implementation — small and dependency-free.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// object encoding
// ---------------------------------------------------------------------------

fn put_obj(out: &mut Vec<u8>, obj: &RObj) {
    match obj {
        RObj::Str(s) => {
            out.push(T_STRING);
            put_bytes(out, s.as_bytes());
        }
        RObj::Int(v) => {
            out.push(T_INT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        RObj::List(items) => {
            out.push(T_LIST);
            put_len(out, items.len() as u64);
            for item in items.iter() {
                put_bytes(out, item.as_bytes());
            }
        }
        RObj::Set(set) => {
            out.push(T_SET);
            let mut members = set.members();
            members.sort_unstable();
            put_len(out, members.len() as u64);
            for m in members {
                put_bytes(out, &m);
            }
        }
        RObj::Hash(h) => {
            out.push(T_HASH);
            let mut pairs: Vec<(&[u8], &Sds)> = h.iter().collect();
            pairs.sort_unstable_by_key(|(k, _)| *k);
            put_len(out, pairs.len() as u64);
            for (f, v) in pairs {
                put_bytes(out, f);
                put_bytes(out, v.as_bytes());
            }
        }
        RObj::ZSet(z) => {
            out.push(T_ZSET);
            let items = z.range(0, usize::MAX - 1);
            put_len(out, items.len() as u64);
            for (m, score) in items {
                put_bytes(out, &m);
                put_f64(out, score);
            }
        }
    }
}

fn get_obj(buf: &[u8], pos: &mut usize, seed: u64) -> Result<RObj, RdbError> {
    let tag = *buf.get(*pos).ok_or(RdbError::Truncated)?;
    *pos += 1;
    match tag {
        T_STRING => Ok(RObj::Str(Sds::from_vec(get_bytes(buf, pos)?))),
        T_INT => {
            let end = *pos + 8;
            if end > buf.len() {
                return Err(RdbError::Truncated);
            }
            let v = i64::from_le_bytes(buf[*pos..end].try_into().unwrap());
            *pos = end;
            Ok(RObj::Int(v))
        }
        T_LIST => {
            let n = get_len(buf, pos)?;
            let mut list = VecDeque::with_capacity(n as usize);
            for _ in 0..n {
                list.push_back(Sds::from_vec(get_bytes(buf, pos)?));
            }
            Ok(RObj::List(Box::new(list)))
        }
        T_SET => {
            let n = get_len(buf, pos)?;
            let mut set = SetObj::new();
            for _ in 0..n {
                set.add(&get_bytes(buf, pos)?);
            }
            Ok(RObj::Set(Box::new(set)))
        }
        T_HASH => {
            let n = get_len(buf, pos)?;
            let mut h = Dict::new();
            for _ in 0..n {
                let f = get_bytes(buf, pos)?;
                let v = get_bytes(buf, pos)?;
                h.insert(&f, Sds::from_vec(v));
            }
            Ok(RObj::Hash(Box::new(h)))
        }
        T_ZSET => {
            let n = get_len(buf, pos)?;
            let mut z = ZSet::new(seed);
            for _ in 0..n {
                let m = get_bytes(buf, pos)?;
                let score = get_f64(buf, pos)?;
                z.add(&m, score);
            }
            Ok(RObj::ZSet(Box::new(z)))
        }
        other => Err(RdbError::BadTag(other)),
    }
}

// ---------------------------------------------------------------------------
// whole-keyspace snapshots
// ---------------------------------------------------------------------------

/// Serialize the whole keyspace to a canonical snapshot.
pub fn save(db: &Db) -> Vec<u8> {
    save_union(&[db])
}

/// Serialize the union of several keyspaces (the shards of one logical
/// store) to a canonical snapshot. Entries are globally sorted by key, so
/// the output is byte-identical to [`save`] of a single keyspace holding
/// the same content — receivers never need to know the sender's shard
/// count.
pub fn save_union(dbs: &[&Db]) -> Vec<u8> {
    let total: usize = dbs.iter().map(|db| db.len()).sum();
    let mut body = Vec::with_capacity(64 + total * 32);
    body.extend_from_slice(MAGIC);
    let mut entries: Vec<(&[u8], &RObj, &Db)> = dbs
        .iter()
        .flat_map(|db| db.iter().map(move |(k, v)| (k, v, *db)))
        .collect();
    entries.sort_unstable_by_key(|(k, _, _)| *k);
    for (key, obj, db) in entries {
        if let Some(at) = db.expiry_of(key) {
            body.push(OP_EXPIRE_MS);
            put_len(&mut body, at);
        }
        put_bytes(&mut body, key);
        put_obj(&mut body, obj);
    }
    body.push(OP_EOF);
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Load a snapshot into `db`, replacing its contents.
///
/// `seed` initializes skiplist randomness for loaded sorted sets.
pub fn load(db: &mut Db, bytes: &[u8], seed: u64) -> Result<usize, RdbError> {
    load_routed(std::slice::from_mut(db), bytes, seed, &|_| 0)
}

/// Load a snapshot into a set of shard keyspaces, replacing all of their
/// contents. Every decoded key is placed in `dbs[route(key)]` (clamped to
/// the slice), so a sharded receiver can split one wire snapshot without
/// re-serializing. With a single shard this is exactly [`load`]: same
/// validation, same flush-then-insert order, same per-object seeds.
pub fn load_routed(
    dbs: &mut [Db],
    bytes: &[u8],
    seed: u64,
    route: &dyn Fn(&[u8]) -> usize,
) -> Result<usize, RdbError> {
    if bytes.len() < MAGIC.len() + 5 {
        return Err(RdbError::Truncated);
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let expect = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != expect {
        return Err(RdbError::BadChecksum);
    }
    if &body[..MAGIC.len()] != MAGIC {
        return Err(RdbError::BadMagic);
    }

    for db in dbs.iter_mut() {
        db.flush();
    }
    let mut pos = MAGIC.len();
    let mut loaded = 0;
    let mut pending_expire: Option<u64> = None;
    loop {
        let tag = *body.get(pos).ok_or(RdbError::Truncated)?;
        match tag {
            OP_EOF => break,
            OP_EXPIRE_MS => {
                pos += 1;
                pending_expire = Some(get_len(body, &mut pos)?);
            }
            _ => {
                let key = get_bytes(body, &mut pos)?;
                let obj = get_obj(body, &mut pos, seed.wrapping_add(loaded as u64))?;
                let idx = route(&key).min(dbs.len().saturating_sub(1));
                let db = dbs.get_mut(idx).ok_or(RdbError::Truncated)?;
                db.set(&key, obj);
                if let Some(at) = pending_expire.take() {
                    db.set_expire(&key, at);
                }
                loaded += 1;
            }
        }
    }
    Ok(loaded)
}

/// Canonical serialization of one object (for digests).
pub fn canonical_obj_bytes(obj: &RObj) -> Vec<u8> {
    let mut out = Vec::new();
    put_obj(&mut out, obj);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn populated_engine() -> Engine {
        let mut e = Engine::new(42);
        e.exec_str(0, &["SET", "str", "hello"]);
        e.exec_str(0, &["SET", "int", "12345"]);
        e.exec_str(0, &["SET", "ttl-key", "x"]);
        e.exec_str(0, &["PEXPIREAT", "ttl-key", "999999"]);
        e.exec_str(0, &["RPUSH", "list", "a", "b", "c"]);
        e.exec_str(0, &["SADD", "iset", "1", "2", "3"]);
        e.exec_str(0, &["SADD", "sset", "x", "y"]);
        e.exec_str(0, &["HSET", "hash", "f1", "v1", "f2", "v2"]);
        e.exec_str(0, &["ZADD", "zset", "1.5", "a", "2.5", "b"]);
        e
    }

    #[test]
    fn union_save_matches_single_save_and_routed_load_splits() {
        let whole = populated_engine();
        let single = save(whole.db());
        // Split the same content across two shard engines by key parity.
        let route = |key: &[u8]| usize::from(key.first().copied().unwrap_or(0) % 2 == 0);
        let mut shards = [Engine::new(3), Engine::new(4)];
        let mut dbs: Vec<crate::db::Db> = shards
            .iter_mut()
            .map(|e| std::mem::take(e.db_mut()))
            .collect();
        let n = load_routed(&mut dbs, &single, 7, &route).unwrap();
        assert_eq!(n, 8);
        assert!(!dbs[0].is_empty() && !dbs[1].is_empty(), "both shards populated");
        // The union snapshot of the shards is byte-identical to the
        // unsharded snapshot: global key sort erases the shard split.
        let union = save_union(&[&dbs[0], &dbs[1]]);
        assert_eq!(union, single, "union snapshot must be canonical");
        // Misrouted indexes clamp to the last shard instead of panicking.
        let mut one = [crate::db::Db::new()];
        let n = load_routed(&mut one, &single, 7, &|_| 99).unwrap();
        assert_eq!(n, 8);
        assert_eq!(one[0].len(), 8);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let e = populated_engine();
        let snapshot = save(e.db());
        let mut e2 = Engine::new(7);
        e2.exec_str(0, &["SET", "junk", "togo"]);
        let n = load(e2.db_mut(), &snapshot, 7).unwrap();
        assert_eq!(n, 8);
        assert_eq!(e2.db().len(), 8);
        assert!(!e2.db_mut().exists(b"junk", 0), "load replaces contents");
        assert_eq!(e.keyspace_digest(), e2.keyspace_digest());
        // TTL survived.
        assert_eq!(e2.db_mut().ttl_ms(b"ttl-key", 0), Some(Some(999_999)));
        // Spot checks.
        assert_eq!(
            e2.exec_str(0, &["LRANGE", "list", "0", "-1"]).reply,
            crate::resp::Resp::Array(vec![
                crate::resp::Resp::Bulk(b"a".to_vec()),
                crate::resp::Resp::Bulk(b"b".to_vec()),
                crate::resp::Resp::Bulk(b"c".to_vec()),
            ])
        );
        assert_eq!(
            e2.exec_str(0, &["ZSCORE", "zset", "b"]).reply,
            crate::resp::Resp::Bulk(b"2.5".to_vec())
        );
    }

    #[test]
    fn snapshot_is_canonical() {
        // Same logical content reached by different histories → same bytes.
        let mut a = Engine::new(1);
        a.exec_str(0, &["SET", "k1", "v"]);
        a.exec_str(0, &["SET", "k2", "v"]);
        let mut b = Engine::new(2);
        b.exec_str(0, &["SET", "k2", "v"]);
        b.exec_str(0, &["SET", "tmp", "x"]);
        b.exec_str(0, &["DEL", "tmp"]);
        b.exec_str(0, &["SET", "k1", "other"]);
        b.exec_str(0, &["SET", "k1", "v"]);
        assert_eq!(save(a.db()), save(b.db()));
    }

    #[test]
    fn corruption_is_detected() {
        let e = populated_engine();
        let mut snapshot = save(e.db());
        let mid = snapshot.len() / 2;
        snapshot[mid] ^= 0xFF;
        let mut fresh = Engine::new(1);
        assert_eq!(
            load(fresh.db_mut(), &snapshot, 1),
            Err(RdbError::BadChecksum)
        );
    }

    #[test]
    fn truncation_is_detected() {
        let e = populated_engine();
        let snapshot = save(e.db());
        let mut fresh = Engine::new(1);
        assert!(load(fresh.db_mut(), &snapshot[..10], 1).is_err());
        assert!(load(fresh.db_mut(), &[], 1).is_err());
    }

    #[test]
    fn bad_magic_is_detected() {
        let e = populated_engine();
        let mut snapshot = save(e.db());
        snapshot[0] = b'X';
        // Fix the CRC so only the magic is wrong.
        let body_len = snapshot.len() - 4;
        let crc = crc32(&snapshot[..body_len]);
        snapshot[body_len..].copy_from_slice(&crc.to_le_bytes());
        let mut fresh = Engine::new(1);
        assert_eq!(load(fresh.db_mut(), &snapshot, 1), Err(RdbError::BadMagic));
    }

    #[test]
    fn empty_db_roundtrips() {
        let e = Engine::new(1);
        let snapshot = save(e.db());
        let mut e2 = Engine::new(2);
        assert_eq!(load(e2.db_mut(), &snapshot, 2), Ok(0));
        assert!(e2.db().is_empty());
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            put_len(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_len(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
