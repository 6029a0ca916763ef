//! The single-node engine: keyspace + command dispatch + cron.
//!
//! This is the object a Host-KV server (or a slave) embeds. It is entirely
//! synchronous and clock-free: callers pass the current simulated time into
//! [`Engine::execute`] and [`Engine::cron`], which keeps the whole store
//! deterministic and testable without a simulator.

use crate::cmd::{self, CommandSpec, ExecCtx};
use crate::db::Db;
use crate::resp::{Args, Resp};

/// Outcome of executing one command.
#[derive(Debug)]
pub struct ExecResult {
    /// The reply to send to the client.
    pub reply: Resp,
    /// How many keyspace mutations the command performed.
    pub dirty_delta: u64,
    /// Whether the command is flagged `WRITE` in the command table.
    ///
    /// The paper's replication rule (§III-C): a command is forwarded to
    /// slaves iff it "can change the value of the data in the storage" —
    /// i.e. `is_write && dirty_delta > 0`.
    pub is_write: bool,
    /// Approximate bytes of payload the command touched (for CPU-cost
    /// modelling in the distributed layer).
    pub bytes_touched: usize,
}

impl ExecResult {
    /// Should this command be propagated to replicas?
    pub fn should_replicate(&self) -> bool {
        self.is_write && self.dirty_delta > 0
    }
}

/// A deterministic, single-threaded Redis-like engine.
#[derive(Debug)]
pub struct Engine {
    db: Db,
    rng_state: u64,
}

impl Engine {
    /// Create an engine. `seed` fixes all internal randomness (skiplist
    /// levels, RANDOMKEY/SPOP sampling, expire-cycle sampling).
    pub fn new(seed: u64) -> Self {
        Engine {
            db: Db::new(),
            rng_state: seed | 1,
        }
    }

    /// The underlying keyspace.
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// Mutable access to the keyspace (snapshot loading, tests).
    pub fn db_mut(&mut self) -> &mut Db {
        &mut self.db
    }

    /// Execute one parsed command at simulated time `now_ms`. The
    /// arguments are only borrowed — `&[&[u8]]` straight out of
    /// [`crate::resp::parse_command`], or any owned list (`&[Vec<u8>]`).
    pub fn execute<A: AsRef<[u8]>>(&mut self, now_ms: u64, args: &[A]) -> ExecResult {
        let args: Args<'_> = args.iter().collect();
        let spec = args.first().and_then(|name| cmd::lookup(name));
        self.execute_resolved(now_ms, spec, &args)
    }

    /// [`Engine::execute`] for a caller that already looked the command
    /// up (`spec` is `cmd::lookup(args[0])`; `None` = unknown command), so
    /// routing, gating and execution share one table lookup.
    pub fn execute_resolved(
        &mut self,
        now_ms: u64,
        spec: Option<&CommandSpec>,
        args: &[&[u8]],
    ) -> ExecResult {
        let dirty_before = self.db.dirty();
        let bytes_touched = args.iter().map(|a| a.len()).sum();
        let mut ctx = ExecCtx {
            db: &mut self.db,
            now_ms,
            rng_state: &mut self.rng_state,
        };
        let reply = cmd::dispatch(&mut ctx, spec, args);
        ExecResult {
            reply,
            dirty_delta: self.db.dirty() - dirty_before,
            is_write: spec.is_some_and(CommandSpec::is_write),
            bytes_touched,
        }
    }

    /// Convenience: execute a command given as string slices (tests).
    pub fn exec_str(&mut self, now_ms: u64, parts: &[&str]) -> ExecResult {
        self.execute(now_ms, parts)
    }

    /// One cron tick: active expire cycle plus incremental-rehash work —
    /// the "time events" of the paper's Figure 4.
    pub fn cron(&mut self, now_ms: u64) -> usize {
        let rng = &mut self.rng_state;
        let reaped = self.db.active_expire_cycle(now_ms, 20, |n| {
            *rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if n == 0 {
                0
            } else {
                (*rng >> 16) % n
            }
        });
        self.db.rehash_step(8);
        reaped
    }

    /// A stable fingerprint of the entire keyspace, used by replication
    /// tests to prove master and slave converged to identical data.
    ///
    /// Built on the canonical RDB encoding, so it depends only on logical
    /// content, never on hash-table internals or insertion history.
    pub fn keyspace_digest(&self) -> u64 {
        Self::keyspace_digest_merged(&[self])
    }

    /// The same fingerprint computed over the union of several engines'
    /// keyspaces — what a sharded server reports. For one engine this is
    /// exactly [`Engine::keyspace_digest`], so a single-shard server and
    /// a sharded server holding the same logical content agree.
    pub fn keyspace_digest_merged(engines: &[&Engine]) -> u64 {
        use crate::hash::siphash13;
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = engines
            .iter()
            .flat_map(|e| {
                e.db.iter()
                    .map(|(k, v)| (k.to_vec(), crate::rdb::canonical_obj_bytes(v)))
            })
            .collect();
        entries.sort_unstable();
        let mut acc = 0u64;
        for (k, v) in entries {
            acc = acc
                .rotate_left(13)
                .wrapping_add(siphash13(&k))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(siphash13(&v));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_then_get() {
        let mut e = Engine::new(1);
        let r = e.exec_str(0, &["SET", "k", "v"]);
        assert_eq!(r.reply, Resp::ok());
        assert!(r.should_replicate());
        let r = e.exec_str(0, &["GET", "k"]);
        assert_eq!(r.reply, Resp::Bulk(b"v".to_vec()));
        assert!(!r.should_replicate());
        assert!(!r.is_write);
    }

    #[test]
    fn failed_write_does_not_replicate() {
        let mut e = Engine::new(1);
        // SETNX on an existing key mutates nothing.
        e.exec_str(0, &["SET", "k", "v"]);
        let r = e.exec_str(0, &["SETNX", "k", "other"]);
        assert_eq!(r.reply, Resp::Int(0));
        assert!(r.is_write);
        assert_eq!(r.dirty_delta, 0);
        assert!(!r.should_replicate());
        // DEL of a missing key likewise.
        let r = e.exec_str(0, &["DEL", "missing"]);
        assert!(!r.should_replicate());
    }

    #[test]
    fn cron_reaps_expired() {
        let mut e = Engine::new(1);
        for i in 0..50 {
            e.exec_str(0, &["SET", &format!("k{i}"), "v"]);
            e.exec_str(0, &["PEXPIRE", &format!("k{i}"), "10"]);
        }
        let mut reaped = 0;
        for _ in 0..200 {
            reaped += e.cron(1000);
        }
        assert_eq!(reaped, 50);
        assert_eq!(e.db().len(), 0);
    }

    #[test]
    fn digest_tracks_content_not_history() {
        let mut a = Engine::new(1);
        let mut b = Engine::new(999); // different seed, same final content
        a.exec_str(0, &["SET", "x", "1"]);
        a.exec_str(0, &["SET", "y", "2"]);
        b.exec_str(0, &["SET", "y", "2"]);
        b.exec_str(0, &["SET", "x", "0"]);
        b.exec_str(0, &["SET", "x", "1"]);
        assert_eq!(a.keyspace_digest(), b.keyspace_digest());
        a.exec_str(0, &["SET", "z", "3"]);
        assert_ne!(a.keyspace_digest(), b.keyspace_digest());
    }

    #[test]
    fn merged_digest_matches_single_engine_with_same_content() {
        let mut whole = Engine::new(1);
        whole.exec_str(0, &["SET", "a", "1"]);
        whole.exec_str(0, &["SET", "b", "2"]);
        whole.exec_str(0, &["RPUSH", "c", "x", "y"]);
        let mut left = Engine::new(7);
        let mut right = Engine::new(9);
        left.exec_str(0, &["SET", "b", "2"]);
        right.exec_str(0, &["RPUSH", "c", "x", "y"]);
        right.exec_str(0, &["SET", "a", "1"]);
        assert_eq!(
            whole.keyspace_digest(),
            Engine::keyspace_digest_merged(&[&left, &right]),
            "union of shards must digest like the unsharded keyspace"
        );
        // Shard order must not matter — the digest sorts by key.
        assert_eq!(
            Engine::keyspace_digest_merged(&[&left, &right]),
            Engine::keyspace_digest_merged(&[&right, &left]),
        );
    }

    #[test]
    fn unknown_command_is_not_write() {
        let mut e = Engine::new(1);
        let r = e.exec_str(0, &["WHAT"]);
        assert!(r.reply.is_error());
        assert!(!r.is_write);
    }
}
