//! The inter-node wire protocol.
//!
//! Everything that crosses the network is real bytes. Client↔server traffic
//! is RESP (inherited from Redis); node↔node coordination uses the compact
//! binary frames defined here, mirroring the messages of the paper's
//! Figures 8 and 9: initial-sync requests, sync notifications, RDB chunks,
//! steady-state replication requests, probes, and progress reports.

use skv_netsim::SocketAddr;
use skv_store::repl::{ReplicationId, ReplicationPosition};

/// Message tags carried in the RDMA immediate field (and as the first byte
/// of TCP frames) to route payloads without peeking inside.
pub mod tag {
    /// RESP command from a client.
    pub const CMD: u32 = 1;
    /// RESP reply to a client.
    pub const REPLY: u32 = 2;
    /// A [`super::NodeMsg`] coordination frame.
    pub const NODE: u32 = 3;
    /// A chunk of replication stream bytes (RESP-encoded write commands).
    pub const REPL_STREAM: u32 = 4;
    /// A chunk of an RDB snapshot transfer.
    pub const RDB_CHUNK: u32 = 5;
    /// A client command proxied by the Nic-KV cache front-end to the
    /// host master: `[u64 cookie][RESP command bytes]`. The cookie maps
    /// the out-of-order shard replies back to the originating client
    /// connection on the NIC.
    pub const FWD_CMD: u32 = 6;
    /// The host master's reply to a proxied command, echoing the
    /// cookie: `[u64 cookie][RESP reply bytes]`.
    pub const FWD_REPLY: u32 = 7;
}

/// Total number of hash slots in the keyspace (Redis Cluster's constant:
/// CRC16 of the key, modulo 16384).
pub const NUM_SLOTS: usize = 16384;

/// CRC16/XMODEM (poly 0x1021, init 0x0000, no reflection) — the exact
/// checksum Redis Cluster uses for slot assignment, computed bitwise so
/// the implementation is obviously table-free and allocation-free.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0;
    for &byte in data {
        crc ^= u16::from(byte) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

/// Map a key to its hash slot. Honors Redis Cluster hash tags: if the key
/// contains a non-empty `{...}` section, only the bytes between the first
/// `{` and the first following `}` are hashed, so callers can pin related
/// keys (`user:{42}:name`, `user:{42}:age`) to one slot and keep
/// multi-key commands single-shard.
pub fn key_hash_slot(key: &[u8]) -> u16 {
    let hashed = match key.iter().position(|&b| b == b'{') {
        Some(open) => {
            let rest = key.get(open + 1..).unwrap_or(&[]);
            match rest.iter().position(|&b| b == b'}') {
                // Empty tags (`{}`) hash the whole key, like Redis.
                Some(0) | None => key,
                Some(close) => rest.get(..close).unwrap_or(key),
            }
        }
        None => key,
    };
    crc16(hashed) % 0x4000
}

/// Map a slot to its owning shard: contiguous ranges of
/// `ceil(NUM_SLOTS / num_shards)` slots, the same split `CLUSTER
/// ADDSLOTS` setups conventionally use. With one shard everything maps
/// to shard 0.
pub fn slot_shard(slot: u16, num_shards: usize) -> usize {
    if num_shards <= 1 {
        return 0;
    }
    let per_shard = NUM_SLOTS.div_ceil(num_shards);
    (usize::from(slot) / per_shard).min(num_shards - 1)
}

/// Node-to-node coordination messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeMsg {
    /// Slave → Nic-KV (or master in baseline modes): start initial sync
    /// (paper Fig. 8 ①). Carries the slave's replication position, its
    /// listen address, and the master's address as the slave knows it.
    SyncRequest {
        /// Who is asking (the slave's server address).
        slave: SocketAddr,
        /// The slave's current replication position.
        position: ReplicationPosition,
    },
    /// Nic-KV → master Host-KV: a slave wants to synchronize (Fig. 8 ②).
    SyncNotify {
        /// The slave's server address.
        slave: SocketAddr,
        /// The slave's replication position.
        position: ReplicationPosition,
    },
    /// Master → slave: header before a full RDB transfer. `total_bytes` of
    /// RDB_CHUNK frames follow; the slave's new position after loading is
    /// `(repl_id, start_offset)`.
    FullSyncBegin {
        /// The master's replication history id.
        repl_id: ReplicationId,
        /// The replication offset the snapshot corresponds to.
        start_offset: u64,
        /// Total RDB bytes that will follow in chunks.
        total_bytes: u64,
    },
    /// Master → slave: partial resynchronization accepted; REPL_STREAM
    /// frames covering `[from_offset, to_offset)` follow.
    PartialSyncBegin {
        /// The master's replication history id.
        repl_id: ReplicationId,
        /// First byte offset being sent.
        from_offset: u64,
        /// One past the last byte offset being sent.
        to_offset: u64,
    },
    /// Master Host-KV → Nic-KV: replicate these stream bytes to all valid
    /// slaves (Fig. 9 ①). The single message whose posting cost replaces
    /// N per-slave posts — the core of the offload.
    Replicate {
        /// Offset of the first byte in `stream` within the master history.
        from_offset: u64,
    },
    /// Slave → Nic-KV (relayed to master) or slave → master: replication
    /// progress report (Fig. 9 ③).
    ProgressReport {
        /// The reporting slave.
        slave: SocketAddr,
        /// Bytes of the master history applied so far.
        offset: u64,
    },
    /// Nic-KV → any node: liveness probe (§III-D).
    Probe {
        /// Sequence number echoed in the reply.
        seq: u64,
    },
    /// Any node → Nic-KV: probe reply.
    ProbeReply {
        /// Echoed sequence number.
        seq: u64,
        /// The responder's server address.
        from: SocketAddr,
    },
    /// Nic-KV → master Host-KV: the health of the slave set changed;
    /// carries the valid-slave count (drives `min-slaves` rejection) and
    /// whether any valid slave lags beyond the configured bound (§III-C:
    /// "if the progress is too slow … return an error message").
    SlaveSetUpdate {
        /// Number of slaves currently considered alive.
        available: u32,
        /// True when a *valid* slave's replication lag exceeds the bound.
        lagging: bool,
    },
    /// Nic-KV → slave: you are promoted to master (master failover).
    Promote,
    /// Nic-KV → node: step down to slave (original master returned).
    Demote,
    /// First message on a freshly opened coordination channel, so the
    /// receiver can label the connection before any other traffic.
    Hello {
        /// The sender's server address.
        from: SocketAddr,
        /// True when the sender is the master Host-KV.
        is_master: bool,
    },
    /// A slave's cumulative *applied* offset, once sent eagerly after
    /// every apply batch by chain replication. No node sends it since that
    /// mode left, and every receiver ignores it; it stays in the codec
    /// only because the benchmark's codec timing (`benchmark/src/replay.rs`,
    /// a frozen surface) encodes it, and goes with the next change to the
    /// benchmark.
    WriteAck {
        /// The acking slave.
        slave: SocketAddr,
        /// Bytes of the master history applied so far.
        offset: u64,
    },
    /// Nic-KV → master Host-KV (quorum): every write whose end offset is
    /// ≤ `upto` has committed; the master may release the deferred client
    /// replies it covers.
    WriteCommitted {
        /// Cumulative committed replication offset.
        upto: u64,
    },
}

impl NodeMsg {
    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            NodeMsg::SyncRequest { slave, position } => {
                out.push(0);
                put_addr(&mut out, *slave);
                put_position(&mut out, *position);
            }
            NodeMsg::SyncNotify { slave, position } => {
                out.push(1);
                put_addr(&mut out, *slave);
                put_position(&mut out, *position);
            }
            NodeMsg::FullSyncBegin {
                repl_id,
                start_offset,
                total_bytes,
            } => {
                out.push(2);
                out.extend_from_slice(&repl_id.0);
                out.extend_from_slice(&start_offset.to_le_bytes());
                out.extend_from_slice(&total_bytes.to_le_bytes());
            }
            NodeMsg::PartialSyncBegin {
                repl_id,
                from_offset,
                to_offset,
            } => {
                out.push(3);
                out.extend_from_slice(&repl_id.0);
                out.extend_from_slice(&from_offset.to_le_bytes());
                out.extend_from_slice(&to_offset.to_le_bytes());
            }
            NodeMsg::Replicate { from_offset } => {
                out.push(4);
                out.extend_from_slice(&from_offset.to_le_bytes());
            }
            NodeMsg::ProgressReport { slave, offset } => {
                out.push(5);
                put_addr(&mut out, *slave);
                out.extend_from_slice(&offset.to_le_bytes());
            }
            NodeMsg::Probe { seq } => {
                out.push(6);
                out.extend_from_slice(&seq.to_le_bytes());
            }
            NodeMsg::ProbeReply { seq, from } => {
                out.push(7);
                out.extend_from_slice(&seq.to_le_bytes());
                put_addr(&mut out, *from);
            }
            NodeMsg::SlaveSetUpdate { available, lagging } => {
                out.push(8);
                out.extend_from_slice(&available.to_le_bytes());
                out.push(u8::from(*lagging));
            }
            NodeMsg::Promote => out.push(9),
            NodeMsg::Demote => out.push(10),
            NodeMsg::Hello { from, is_master } => {
                out.push(11);
                put_addr(&mut out, *from);
                out.push(u8::from(*is_master));
            }
            NodeMsg::WriteAck { slave, offset } => {
                out.push(12);
                put_addr(&mut out, *slave);
                out.extend_from_slice(&offset.to_le_bytes());
            }
            NodeMsg::WriteCommitted { upto } => {
                out.push(13);
                out.extend_from_slice(&upto.to_le_bytes());
            }
        }
        out
    }

    /// Decode from bytes.
    pub fn decode(buf: &[u8]) -> Option<NodeMsg> {
        let mut pos = 1;
        match *buf.first()? {
            0 => Some(NodeMsg::SyncRequest {
                slave: get_addr(buf, &mut pos)?,
                position: get_position(buf, &mut pos)?,
            }),
            1 => Some(NodeMsg::SyncNotify {
                slave: get_addr(buf, &mut pos)?,
                position: get_position(buf, &mut pos)?,
            }),
            2 => Some(NodeMsg::FullSyncBegin {
                repl_id: get_repl_id(buf, &mut pos)?,
                start_offset: get_u64(buf, &mut pos)?,
                total_bytes: get_u64(buf, &mut pos)?,
            }),
            3 => Some(NodeMsg::PartialSyncBegin {
                repl_id: get_repl_id(buf, &mut pos)?,
                from_offset: get_u64(buf, &mut pos)?,
                to_offset: get_u64(buf, &mut pos)?,
            }),
            4 => Some(NodeMsg::Replicate {
                from_offset: get_u64(buf, &mut pos)?,
            }),
            5 => Some(NodeMsg::ProgressReport {
                slave: get_addr(buf, &mut pos)?,
                offset: get_u64(buf, &mut pos)?,
            }),
            6 => Some(NodeMsg::Probe {
                seq: get_u64(buf, &mut pos)?,
            }),
            7 => Some(NodeMsg::ProbeReply {
                seq: get_u64(buf, &mut pos)?,
                from: get_addr(buf, &mut pos)?,
            }),
            8 => {
                let available = get_u32(buf, &mut pos)?;
                let lagging = *buf.get(pos)? != 0;
                Some(NodeMsg::SlaveSetUpdate { available, lagging })
            }
            9 => Some(NodeMsg::Promote),
            10 => Some(NodeMsg::Demote),
            11 => {
                let from = get_addr(buf, &mut pos)?;
                let is_master = *buf.get(pos)? != 0;
                Some(NodeMsg::Hello { from, is_master })
            }
            12 => Some(NodeMsg::WriteAck {
                slave: get_addr(buf, &mut pos)?,
                offset: get_u64(buf, &mut pos)?,
            }),
            13 => Some(NodeMsg::WriteCommitted {
                upto: get_u64(buf, &mut pos)?,
            }),
            // 14 was the cross-mode failover's `ModeChange`: retired, and
            // never reused.
            _ => None,
        }
    }
}

fn put_addr(out: &mut Vec<u8>, addr: SocketAddr) {
    out.extend_from_slice(&addr.node.0.to_le_bytes());
    out.extend_from_slice(&addr.port.to_le_bytes());
}

fn get_addr(buf: &[u8], pos: &mut usize) -> Option<SocketAddr> {
    let node = get_u32(buf, pos)?;
    let port = get_u16(buf, pos)?;
    Some(SocketAddr::new(skv_netsim::NodeId(node), port))
}

fn put_position(out: &mut Vec<u8>, p: ReplicationPosition) {
    out.extend_from_slice(&p.repl_id.0);
    out.extend_from_slice(&p.offset.to_le_bytes());
}

fn get_position(buf: &[u8], pos: &mut usize) -> Option<ReplicationPosition> {
    Some(ReplicationPosition {
        repl_id: get_repl_id(buf, pos)?,
        offset: get_u64(buf, pos)?,
    })
}

fn get_repl_id(buf: &[u8], pos: &mut usize) -> Option<ReplicationId> {
    let end = *pos + 20;
    let bytes: [u8; 20] = buf.get(*pos..end)?.try_into().ok()?;
    *pos = end;
    Some(ReplicationId(bytes))
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let end = *pos + 8;
    let v = u64::from_le_bytes(buf.get(*pos..end)?.try_into().ok()?);
    *pos = end;
    Some(v)
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let end = *pos + 4;
    let v = u32::from_le_bytes(buf.get(*pos..end)?.try_into().ok()?);
    *pos = end;
    Some(v)
}

fn get_u16(buf: &[u8], pos: &mut usize) -> Option<u16> {
    let end = *pos + 2;
    let v = u16::from_le_bytes(buf.get(*pos..end)?.try_into().ok()?);
    *pos = end;
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use skv_netsim::NodeId;

    fn addr(n: u32, p: u16) -> SocketAddr {
        SocketAddr::new(NodeId(n), p)
    }

    #[test]
    fn all_variants_roundtrip() {
        let msgs = vec![
            NodeMsg::SyncRequest {
                slave: addr(2, 6379),
                position: ReplicationPosition::unsynced(),
            },
            NodeMsg::SyncNotify {
                slave: addr(3, 6380),
                position: ReplicationPosition {
                    repl_id: ReplicationId::from_seed(7),
                    offset: 12345,
                },
            },
            NodeMsg::FullSyncBegin {
                repl_id: ReplicationId::from_seed(1),
                start_offset: 99,
                total_bytes: 1 << 30,
            },
            NodeMsg::PartialSyncBegin {
                repl_id: ReplicationId::from_seed(2),
                from_offset: 10,
                to_offset: 20,
            },
            NodeMsg::Replicate { from_offset: 777 },
            NodeMsg::ProgressReport {
                slave: addr(4, 1),
                offset: u64::MAX,
            },
            NodeMsg::Probe { seq: 42 },
            NodeMsg::ProbeReply {
                seq: 42,
                from: addr(9, 9),
            },
            NodeMsg::SlaveSetUpdate {
                available: 3,
                lagging: false,
            },
            NodeMsg::SlaveSetUpdate {
                available: 0,
                lagging: true,
            },
            NodeMsg::Promote,
            NodeMsg::Demote,
            NodeMsg::Hello {
                from: addr(1, 7000),
                is_master: true,
            },
            NodeMsg::Hello {
                from: addr(5, 6379),
                is_master: false,
            },
            NodeMsg::WriteAck {
                slave: addr(6, 6379),
                offset: 987_654,
            },
            NodeMsg::WriteCommitted { upto: u64::MAX - 1 },
        ];
        for msg in msgs {
            let bytes = msg.encode();
            assert_eq!(NodeMsg::decode(&bytes), Some(msg.clone()), "{msg:?}");
        }
    }

    #[test]
    fn crc16_matches_redis_reference_vector() {
        // The vector Redis itself documents for CRC16/XMODEM.
        assert_eq!(crc16(b"123456789"), 0x31C3);
        // 0x31C3 < NUM_SLOTS, so the slot equals the raw CRC here.
        assert_eq!(key_hash_slot(b"123456789"), 0x31C3);
    }

    #[test]
    fn hash_tags_pin_related_keys_to_one_slot() {
        assert_eq!(
            key_hash_slot(b"user:{42}:name"),
            key_hash_slot(b"user:{42}:age")
        );
        assert_eq!(key_hash_slot(b"user:{42}:name"), key_hash_slot(b"42"));
        // Empty and unterminated tags hash the whole key.
        assert_eq!(key_hash_slot(b"a{}b"), crc16(b"a{}b") % 0x4000);
        assert_eq!(key_hash_slot(b"a{b"), crc16(b"a{b") % 0x4000);
        // Only the first tag counts.
        assert_eq!(key_hash_slot(b"{a}{b}"), key_hash_slot(b"a"));
    }

    #[test]
    fn slot_shard_partitions_every_slot_exactly_once() {
        for shards in [1usize, 2, 3, 4, 7, 8, 16] {
            let mut counts = vec![0u32; shards];
            for slot in 0..NUM_SLOTS {
                let s = slot_shard(u16::try_from(slot).unwrap(), shards);
                assert!(s < shards, "slot {slot} → shard {s} out of range");
                counts[s] += 1;
            }
            assert!(
                counts.iter().all(|&c| c > 0),
                "{shards} shards: some shard owns no slots ({counts:?})"
            );
            let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
            let per = u32::try_from(NUM_SLOTS.div_ceil(shards)).unwrap();
            assert!(
                spread <= per,
                "{shards} shards: uneven split {counts:?} (spread {spread})"
            );
        }
        assert_eq!(slot_shard(16383, 1), 0);
        assert_eq!(slot_shard(16383, 4), 3);
        assert_eq!(slot_shard(0, 4), 0);
    }

    #[test]
    fn garbage_decodes_to_none() {
        assert_eq!(NodeMsg::decode(&[]), None);
        assert_eq!(NodeMsg::decode(&[255]), None);
        assert_eq!(NodeMsg::decode(&[0, 1]), None, "truncated");
        assert_eq!(NodeMsg::decode(&[2, 0, 0]), None, "truncated repl id");
        // The retired `ModeChange` tag is unknown, bare or with the
        // payload it once carried (a mode code).
        assert_eq!(NodeMsg::decode(&[14]), None, "retired tag 14");
        assert_eq!(NodeMsg::decode(&[14, 1]), None, "retired tag 14 + payload");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// Decoding arbitrary bytes of at most 64 never panics, and
        /// whatever decodes re-encodes to a frame that decodes to the same
        /// message. Each case is tried as drawn and again with its first
        /// byte forced to one of the sixteen tags 0..=15 (known, retired
        /// and unknown), so most of the cases reach a payload decoder.
        #[test]
        fn arbitrary_bytes_decode_to_none_or_a_stable_message(
            bytes in prop::collection::vec(any::<u8>(), 0..65),
            tag in 0u8..16,
        ) {
            let tail = bytes.iter().skip(1).copied();
            let tagged: Vec<u8> = std::iter::once(tag).chain(tail).collect();
            for frame in [bytes, tagged] {
                if let Some(m) = NodeMsg::decode(&frame) {
                    prop_assert_eq!(NodeMsg::decode(&m.encode()), Some(m));
                }
            }
        }
    }
}
