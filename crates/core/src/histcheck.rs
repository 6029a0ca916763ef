//! # histcheck — client-visible operation histories + consistency checking
//!
//! The replication-mode work (see [`crate::replmode`]) promises different
//! guarantees per mode: linearizable writes for quorum and chain,
//! eventual convergence only for the async stream. Promises about
//! *client-visible* behaviour need client-visible evidence, so this
//! module records operation histories from dedicated probe actors during
//! chaos runs and checks them deterministically afterwards:
//!
//! * [`HistWriter`] — owns a namespaced key set (`h:{writer}:{key}`) and
//!   issues `SET key <seq>` to the master, one in flight, with strictly
//!   increasing `seq` per writer. Single-writer-per-key by construction.
//! * [`HistReader`] — issues `GET` for a random probe key to a set of
//!   target servers (the *anchor* plus optional quorum peers) and
//!   completes a read once the anchor and `read_quorum` targets
//!   responded, taking the **maximum** observed sequence number.
//! * [`check_single_writer`] — verifies the recorded history against the
//!   single-writer atomic-register conditions. An empty violation list
//!   is a linearizability witness for the probe keys; for the async
//!   arm the *expected* stale-read violations are the evidence that it
//!   only converges eventually.
//! * [`check_linearizable`] — the full multi-writer checker: a Wing &
//!   Gong–style per-key partitioned search over invocation/response
//!   windows with memoized state pruning. It ingests *bench* client
//!   histories (recorded behind `ClusterConfig::record_history`,
//!   including NIC-cache-served GETs and forwarded FWD_CMD replies),
//!   not just the side probes. [`check_linearizable_upto`] checks a
//!   prefix only — the tool for proving a history linearizable up to a
//!   declared cross-mode degradation point.
//!
//! Everything is deterministic: actors draw from split [`DetRng`]s, the
//! history lives in a [`SharedHistory`] the test inspects after the run.
//!
//! The checker is deliberately conservative about incomplete operations:
//! a write whose reply never arrived may or may not have taken effect,
//! so its value is *allowed* but never *required* to be observed. A
//! client that provably gave up *before observing anything* records an
//! explicit abort instead (see [`OpRecord::aborted`]) — without it, a
//! probe abandoned mid-plan under a partition would read as an
//! infinite-window op and over-constrain the search forever.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use skv_netsim::{Net, NetEvent, NodeId, SocketAddr};
use skv_simcore::{Actor, ActorId, Context, DetRng, Payload, SimDuration, SimTime};
use skv_store::resp::{Decoded, Resp};

use crate::channel::{Channel, RING_SIZE};
use crate::config::ClusterConfig;
use crate::conns::{ConnEvent, ConnTable};
use crate::cqdrain::{self, POLL_BUDGET};
use crate::protocol::tag;

/// What kind of operation a history record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A `SET key <seq>` by the key's single writer.
    Write,
    /// A quorum/anchor `GET` returning the maximum observed seq.
    Read,
}

/// One client-visible operation. Reads and writes share the record shape;
/// `seq` is the value written or observed (`0` = key absent).
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The probe key (`h:{writer:02}:{key:04}`).
    pub key: String,
    /// Read or write.
    pub kind: OpKind,
    /// Value written, or maximum value observed (0 = no value).
    pub seq: u64,
    /// Invocation instant (request sent).
    pub invoked: SimTime,
    /// Completion instant; `None` when the operation was abandoned (its
    /// effect is unknown — it may still land).
    pub completed: Option<SimTime>,
    /// Whether the completion was a success reply.
    pub ok: bool,
    /// Explicit abort: the client gave up on the operation *and* its
    /// outcome is provably unobservable (a reader watchdog firing, a
    /// bench read dropped on reconnect). Aborted reads observed nothing
    /// and are excluded from checking. A write that was actually sent is
    /// never aborted — it stays `completed: None` (maybe-applied).
    pub aborted: bool,
    /// For reads: the servers whose responses formed the read quorum.
    pub read_set: Vec<SocketAddr>,
}

/// A recorded history — all operations from all probe actors, in record
/// order (which is deterministic under the simulation).
#[derive(Debug, Default)]
pub struct History {
    /// The operations.
    pub ops: Vec<OpRecord>,
}

/// Shared handle to a [`History`]; the probe actors append, the test
/// reads after the run.
pub type SharedHistory = Rc<RefCell<History>>;

/// Fresh shared history.
pub fn new_history() -> SharedHistory {
    Rc::new(RefCell::new(History::default()))
}

/// One consistency violation found by [`check_single_writer`].
#[derive(Debug, Clone)]
pub struct Violation {
    /// The key the violation occurred on.
    pub key: String,
    /// Human-readable description (times and sequence numbers).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.key, self.detail)
    }
}

/// Check a single-writer-per-key history against the atomic-register
/// linearizability conditions. Returns every violation found (empty =
/// the history is linearizable on the probe keys):
///
/// 1. **Value provenance** — a read's observed value was actually
///    written, and the write was invoked before the read completed.
/// 2. **Read freshness** — a read invoked after a write *completed
///    successfully* observes that write or a newer one. (This is the
///    condition async replication breaks under faults: the master acked
///    a write that a lagging anchor has not applied.)
/// 3. **Read monotonicity** — of two non-overlapping reads on a key, the
///    later never observes an older value than the earlier (no "time
///    travel" between quorums).
///
/// Incomplete or failed operations are treated conservatively: their
/// effects are allowed but never required.
pub fn check_single_writer(history: &History) -> Vec<Violation> {
    let mut by_key: BTreeMap<&str, (Vec<&OpRecord>, Vec<&OpRecord>)> = BTreeMap::new();
    for op in &history.ops {
        let entry = by_key.entry(op.key.as_str()).or_default();
        match op.kind {
            OpKind::Write => entry.0.push(op),
            OpKind::Read => entry.1.push(op),
        }
    }
    let mut violations = Vec::new();
    for (key, (writes, reads)) in by_key {
        let done_reads: Vec<&OpRecord> = reads
            .iter()
            .copied()
            .filter(|r| r.ok && r.completed.is_some())
            .collect();
        for r in &done_reads {
            let Some(r_done) = r.completed else { continue };
            // 1. Provenance: the value must come from a write invoked
            // before the read completed.
            if r.seq != 0 && !writes.iter().any(|w| w.seq == r.seq && w.invoked < r_done) {
                violations.push(Violation {
                    key: key.to_string(),
                    detail: format!(
                        "read at {:?} observed {} which was never written before it",
                        r_done, r.seq
                    ),
                });
            }
            // 2. Freshness: at least the newest write that completed
            // successfully before the read was invoked.
            let floor = writes
                .iter()
                .filter(|w| w.ok && w.completed.is_some_and(|t| t < r.invoked))
                .map(|w| w.seq)
                .max()
                .unwrap_or(0);
            if r.seq < floor {
                violations.push(Violation {
                    key: key.to_string(),
                    detail: format!(
                        "stale read: observed {} at {:?} but write {} completed before {:?}",
                        r.seq, r_done, floor, r.invoked
                    ),
                });
            }
        }
        // 3. Monotonicity across non-overlapping reads.
        for (i, r1) in done_reads.iter().enumerate() {
            let Some(r1_done) = r1.completed else {
                continue;
            };
            for r2 in &done_reads[i + 1..] {
                let (first, second) = if r1_done <= r2.invoked {
                    (*r1, *r2)
                } else if r2.completed.is_some_and(|t| t <= r1.invoked) {
                    (*r2, *r1)
                } else {
                    continue; // overlapping — either order is legal
                };
                if second.seq < first.seq {
                    violations.push(Violation {
                        key: key.to_string(),
                        detail: format!("non-monotone reads: {} then {}", first.seq, second.seq),
                    });
                }
            }
        }
    }
    violations
}

/// Count of stale-read violations only (condition 2) — the signal the
/// async-mode chaos arm asserts on.
pub fn stale_reads(violations: &[Violation]) -> usize {
    violations
        .iter()
        .filter(|v| v.detail.starts_with("stale read"))
        .count()
}

// ---------------------------------------------------------------------------
// Multi-writer linearizability (Wing & Gong-style search)
// ---------------------------------------------------------------------------

/// Per-key state budget for the exhaustive search: the maximum number of
/// memoized states explored before the checker gives up *loudly*.
/// Mostly-sequential histories (closed-loop clients) stay near-linear in
/// ops; only a genuinely ambiguous — or non-linearizable — history gets
/// anywhere near this.
const SEARCH_BUDGET: usize = 200_000;

/// One operation as the search sees it after classification.
struct SearchOp {
    /// Invocation instant.
    inv: SimTime,
    /// Response instant; `SimTime::MAX` marks an open window (a
    /// maybe-applied write may linearize at any point after `inv`).
    resp: SimTime,
    /// Write (sets the register) or read (must observe it).
    is_write: bool,
    /// Value written or observed (`0` = key absent).
    value: u64,
    /// Required ops must appear in the linearization; optional ops
    /// (maybe-applied writes) may be dropped.
    required: bool,
}

/// Classify a key's records into search operations.
///
/// * Completed successful writes are **required** with their real window.
/// * Incomplete and error-reply writes are **optional** with an open
///   window — they may have applied, so their effect is allowed from
///   invocation on but never demanded. (Extending an errored write's
///   window past its reply is deliberate slack: it only *admits* more
///   schedules, so it can never produce a false rejection.)
/// * Completed successful reads are **required** — the register must
///   hold their observed value at the chosen point.
/// * Aborted, incomplete and error reads observed nothing: dropped.
fn classify(recs: &[&OpRecord]) -> Vec<SearchOp> {
    let mut out = Vec::new();
    for op in recs {
        if op.aborted {
            continue;
        }
        match op.kind {
            OpKind::Write => {
                let (resp, required) = match op.completed {
                    Some(t) if op.ok => (t, true),
                    _ => (SimTime::MAX, false),
                };
                out.push(SearchOp {
                    inv: op.invoked,
                    resp,
                    is_write: true,
                    value: op.seq,
                    required,
                });
            }
            OpKind::Read => {
                if let Some(t) = op.completed {
                    if op.ok {
                        out.push(SearchOp {
                            inv: op.invoked,
                            resp: t,
                            is_write: false,
                            value: op.seq,
                            required: true,
                        });
                    }
                }
            }
        }
    }
    out
}

#[inline]
fn bit_get(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1u64 << (i % 64)) != 0
}

#[inline]
fn bit_set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

/// Cheap register-semantics screens run before the exhaustive search.
/// Every condition here is implied by linearizability (given unique
/// per-key write values and no deletions — both guaranteed by the
/// recording paths), so a hit is a definite counterexample with a
/// legible message: `stale read`, `phantom read` or `non-monotone`.
fn quick_register_checks(key: &str, recs: &[&OpRecord]) -> Vec<Violation> {
    let writes: Vec<&OpRecord> = recs
        .iter()
        .copied()
        .filter(|o| o.kind == OpKind::Write && !o.aborted)
        .collect();
    let reads: Vec<&OpRecord> = recs
        .iter()
        .copied()
        .filter(|o| o.kind == OpKind::Read && o.ok && o.completed.is_some() && !o.aborted)
        .collect();
    // value → (invoked, completed-if-ok) for O(log) precedence lookups.
    let mut wmap: BTreeMap<u64, (SimTime, Option<SimTime>)> = BTreeMap::new();
    for w in &writes {
        let done = if w.ok { w.completed } else { None };
        wmap.entry(w.seq)
            .and_modify(|e| {
                e.0 = e.0.min(w.invoked);
                e.1 = match (e.1, done) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            })
            .or_insert((w.invoked, done));
    }
    // `a` strictly precedes instant `t` when its success reply landed
    // before `t`.
    let done_before = |v: u64, t: SimTime| {
        wmap.get(&v)
            .and_then(|&(_, done)| done)
            .is_some_and(|d| d < t)
    };
    let mut out = Vec::new();
    for r in &reads {
        let r_done = r.completed.unwrap_or(SimTime::MAX);
        // 1. Provenance: the observed value must come from a write that
        //    was invoked before the read completed.
        if r.seq != 0 && wmap.get(&r.seq).is_none_or(|&(inv, _)| inv >= r_done) {
            out.push(Violation {
                key: key.to_string(),
                detail: format!(
                    "phantom read: observed {} at {:?} which no write before it produced",
                    r.seq, r_done
                ),
            });
            continue;
        }
        // 2. Freshness: if some write w_new completed successfully
        //    strictly before the read was invoked, the read may not
        //    observe nothing, nor a value whose write strictly preceded
        //    w_new (the register never reverts).
        for w_new in writes.iter().filter(|w| w.ok && done_before(w.seq, r.invoked)) {
            let stale = if r.seq == 0 {
                true
            } else {
                r.seq != w_new.seq && done_before(r.seq, w_new.invoked)
            };
            if stale {
                out.push(Violation {
                    key: key.to_string(),
                    detail: format!(
                        "stale read: observed {} at {:?} but write {} completed before {:?}",
                        r.seq, r_done, w_new.seq, r.invoked
                    ),
                });
                break;
            }
        }
    }
    // 3. Monotonicity across non-overlapping reads: the later read never
    //    observes a strictly older value than the earlier.
    for (i, r1) in reads.iter().enumerate() {
        let r1_done = r1.completed.unwrap_or(SimTime::MAX);
        for r2 in &reads[i + 1..] {
            let r2_done = r2.completed.unwrap_or(SimTime::MAX);
            let (first, second) = if r1_done < r2.invoked {
                (r1, r2)
            } else if r2_done < r1.invoked {
                (r2, r1)
            } else {
                continue; // overlapping — either order is legal
            };
            if first.seq == second.seq {
                continue;
            }
            let regress = (second.seq == 0 && first.seq != 0)
                || (second.seq != 0 && done_before(second.seq, wmap.get(&first.seq).map_or(SimTime::ZERO, |e| e.0)));
            if regress {
                out.push(Violation {
                    key: key.to_string(),
                    detail: format!("non-monotone reads: {} then {}", first.seq, second.seq),
                });
            }
        }
    }
    out
}

/// Exhaustive per-key search. Returns `None` when a valid linearization
/// exists, or one violation describing why not (or that the budget ran
/// out — treated as a failure, never a silent pass).
fn search_key(key: &str, recs: &[&OpRecord]) -> Option<Violation> {
    let ops = classify(recs);
    let n = ops.len();
    if n == 0 {
        return None;
    }
    let req_total = ops.iter().filter(|o| o.required).count();
    if req_total == 0 {
        return None; // only maybe-applied writes: trivially fine
    }
    let words = n.div_ceil(64);
    let mut visited: std::collections::BTreeSet<(Vec<u64>, u64)> = std::collections::BTreeSet::new();
    let mut stack: Vec<(Vec<u64>, u64)> = Vec::new();
    let init = (vec![0u64; words], 0u64);
    visited.insert(init.clone());
    stack.push(init);
    let mut best_done = 0usize;
    let mut best_note = String::new();
    while let Some((done, reg)) = stack.pop() {
        if visited.len() > SEARCH_BUDGET {
            return Some(Violation {
                key: key.to_string(),
                detail: format!(
                    "search budget exceeded: {} states over {n} ops without a verdict — treating as a failure",
                    visited.len()
                ),
            });
        }
        let done_req = ops
            .iter()
            .enumerate()
            .filter(|(i, o)| o.required && bit_get(&done, *i))
            .count();
        if done_req == req_total {
            return None; // all required ops linearized — witness found
        }
        if done_req >= best_done {
            best_done = done_req;
            if let Some((_, o)) = ops
                .iter()
                .enumerate()
                .filter(|(i, o)| o.required && !bit_get(&done, *i))
                .min_by_key(|(_, o)| o.inv)
            {
                let kind = if o.is_write { "write" } else { "read" };
                best_note = format!(
                    "first unplaced op: {kind} of {} invoked at {:?} (register held {reg})",
                    o.value, o.inv
                );
            }
        }
        // An op may be linearized next iff no *required* unlinearized op
        // responded strictly before its invocation.
        let min_resp = ops
            .iter()
            .enumerate()
            .filter(|(i, o)| o.required && !bit_get(&done, *i))
            .map(|(_, o)| o.resp)
            .min()
            .unwrap_or(SimTime::MAX);
        for (i, o) in ops.iter().enumerate() {
            if bit_get(&done, i) || o.inv > min_resp {
                continue;
            }
            if !o.is_write && o.value != reg {
                continue; // a read must observe the current register
            }
            let mut nd = done.clone();
            bit_set(&mut nd, i);
            let nreg = if o.is_write { o.value } else { reg };
            let st = (nd, nreg);
            if visited.insert(st.clone()) {
                stack.push(st);
            }
        }
    }
    Some(Violation {
        key: key.to_string(),
        detail: format!(
            "not linearizable: no valid order for {req_total} required ops (best schedule placed {best_done}; {best_note})"
        ),
    })
}

/// Full multi-writer linearizability check against atomic-register
/// semantics, partitioned per key. Returns every violation found; an
/// empty list is a linearizability witness for the recorded history.
///
/// Assumes per-key write values are unique and keys are never deleted —
/// both guaranteed by the recording paths (probe writers use strictly
/// increasing per-writer sequences; bench recording stamps values with
/// `client-id ≪ 40 | counter`).
pub fn check_linearizable(history: &History) -> Vec<Violation> {
    let mut by_key: BTreeMap<&str, Vec<&OpRecord>> = BTreeMap::new();
    for op in &history.ops {
        by_key.entry(op.key.as_str()).or_default().push(op);
    }
    let mut violations = Vec::new();
    for (key, recs) in by_key {
        let quick = quick_register_checks(key, &recs);
        if !quick.is_empty() {
            // Definite counterexamples with legible messages; skip the
            // expensive search for an already-rejected key.
            violations.extend(quick);
            continue;
        }
        if let Some(v) = search_key(key, &recs) {
            violations.push(v);
        }
    }
    violations
}

/// Check only the prefix of the history before `cutoff` — the tool for
/// proving a run linearizable *up to a declared degradation point*
/// (cross-mode failover demotes quorum to async mid-run; everything
/// invoked before the demotion instant must still linearize).
///
/// Ops invoked at or after `cutoff` are outside the claim and dropped;
/// ops that completed at or after it are treated as still-open within
/// the prefix (maybe-applied writes, unobserved reads).
pub fn check_linearizable_upto(history: &History, cutoff: SimTime) -> Vec<Violation> {
    let trimmed = History {
        ops: history
            .ops
            .iter()
            .filter(|op| op.invoked < cutoff)
            .map(|op| {
                let mut op = (*op).clone();
                if op.completed.is_some_and(|t| t >= cutoff) {
                    op.completed = None;
                    op.ok = false;
                }
                op
            })
            .collect(),
    };
    check_linearizable(&trimmed)
}

impl History {
    /// Serialize the history as a JSON event log, one object per
    /// operation in record order — the artifact `scripts/check.sh`
    /// uploads when the histcheck smoke fails. Hand-rolled on purpose
    /// (no serde in the workspace): keys are ASCII identifiers with no
    /// characters needing escapes.
    pub fn event_log_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let kind = match op.kind {
                OpKind::Write => "write",
                OpKind::Read => "read",
            };
            let completed = op
                .completed
                .map_or_else(|| "null".to_string(), |t| t.as_nanos().to_string());
            s.push_str(&format!(
                "  {{\"key\":\"{}\",\"kind\":\"{kind}\",\"value\":{},\"invoked_ns\":{},\"completed_ns\":{completed},\"ok\":{},\"aborted\":{}}}",
                op.key,
                op.seq,
                op.invoked.as_nanos(),
                op.ok,
                op.aborted
            ));
        }
        s.push_str("\n]\n");
        s
    }
}

/// The probe key for `(writer, key_idx)`; namespaced away from the
/// benchmark keyspace.
pub fn probe_key(writer: usize, key_idx: usize) -> String {
    format!("h:{writer:02}:{key_idx:04}")
}

/// Where a [`HistReader`] anchors its reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadAnchor {
    /// Read from the master only (quorum-mode arm: the master holds
    /// every committed write).
    Master,
    /// Read from one slave only (async arm: exposes staleness; chain
    /// arm with the tail index: the commit point).
    Slave(usize),
    /// Read from the master plus enough slaves for a majority of the
    /// replica set (ABD-style read quorum).
    MasterQuorum,
}

/// Shape of a history probe deployment (see `Cluster::add_history`).
#[derive(Debug, Clone)]
pub struct HistSpec {
    /// Number of single-writer actors (each owns its key namespace).
    pub writers: usize,
    /// Keys per writer.
    pub keys_per_writer: usize,
    /// Number of reader actors.
    pub readers: usize,
    /// Read anchoring.
    pub anchor: ReadAnchor,
    /// Think time between a completion and the next operation.
    pub op_gap: SimDuration,
}

impl Default for HistSpec {
    fn default() -> Self {
        HistSpec {
            writers: 2,
            keys_per_writer: 4,
            readers: 2,
            anchor: ReadAnchor::Master,
            op_gap: SimDuration::from_micros(30),
        }
    }
}

enum ProbeMsg {
    Start,
    IssueNext,
    Watchdog,
}

/// Single-writer probe actor: `SET probe_key <seq>` to the master, one
/// operation in flight, strictly increasing `seq`.
pub struct HistWriter {
    net: Net,
    cfg: ClusterConfig,
    node: NodeId,
    server: SocketAddr,
    history: SharedHistory,
    writer_id: usize,
    keys: usize,
    op_gap: SimDuration,
    start_at: SimTime,
    stop_at: SimTime,
    seq: u64,
    conns: ConnTable<()>,
    /// The live connection, if any.
    conn: Option<usize>,
    /// Index into the shared history of the op awaiting its reply.
    in_flight: Option<usize>,
    dial_attempts: u32,
}

impl HistWriter {
    /// Create a writer probe targeting `server` (the master).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        net: Net,
        cfg: ClusterConfig,
        node: NodeId,
        server: SocketAddr,
        history: SharedHistory,
        writer_id: usize,
        keys: usize,
        op_gap: SimDuration,
        start_at: SimTime,
        stop_at: SimTime,
    ) -> Self {
        HistWriter {
            net,
            cfg,
            node,
            server,
            history,
            writer_id,
            keys: keys.max(1),
            op_gap,
            start_at,
            stop_at,
            seq: 0,
            conns: ConnTable::new(None),
            conn: None,
            in_flight: None,
            dial_attempts: 0,
        }
    }

    fn abandon(&mut self, ctx: &mut Context<'_>) {
        // The in-flight op stays incomplete in the history: its effect is
        // unknown (the checker treats it as maybe-applied).
        self.in_flight = None;
        if let Some(conn) = self.conn.take() {
            self.conns.close(&self.net, conn);
            if let Some(tcp) = self.conns.channel(conn).tcp_conn() {
                self.net.tcp_close(ctx, tcp);
            }
        }
        ctx.timer(SimDuration::from_millis(1), ProbeMsg::Start);
    }

    fn issue(&mut self, ctx: &mut Context<'_>) {
        if ctx.now() >= self.stop_at || self.in_flight.is_some() {
            return;
        }
        let Some(conn) = self.conn else {
            return;
        };
        if self.conns.channel(conn).broken() {
            // Don't record an op we provably cannot send: a dangling
            // invocation would read as an infinite-window maybe-applied
            // write. The watchdog redials and re-issues.
            return;
        }
        self.seq += 1;
        let key = probe_key(
            self.writer_id,
            usize::try_from(self.seq).unwrap_or(0) % self.keys,
        );
        let value = self.seq.to_string();
        let cmd = Resp::command([b"SET".as_slice(), key.as_bytes(), value.as_bytes()]);
        let idx = {
            let mut h = self.history.borrow_mut();
            h.ops.push(OpRecord {
                key,
                kind: OpKind::Write,
                seq: self.seq,
                invoked: ctx.now(),
                completed: None,
                ok: false,
                aborted: false,
                read_set: Vec::new(),
            });
            h.ops.len() - 1
        };
        self.in_flight = Some(idx);
        self.conns
            .send(&self.net, ctx, conn, tag::CMD, cmd.encode());
    }

    fn on_reply(&mut self, ctx: &mut Context<'_>, payload: &[u8]) {
        let Some(idx) = self.in_flight.take() else {
            return;
        };
        let is_error = payload.first() == Some(&b'-');
        let mut h = self.history.borrow_mut();
        if let Some(op) = h.ops.get_mut(idx) {
            op.completed = Some(ctx.now());
            op.ok = !is_error;
        }
        drop(h);
        ctx.timer(self.op_gap, ProbeMsg::IssueNext);
    }
}

impl Actor for HistWriter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.timer_at(self.start_at, ProbeMsg::Start);
        ctx.timer_at(
            self.start_at + self.cfg.client_retry_timeout,
            ProbeMsg::Watchdog,
        );
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, msg: Payload) {
        let msg = match msg.downcast::<ProbeMsg>() {
            Ok(m) => {
                match *m {
                    ProbeMsg::Start if self.conn.is_none() => {
                        let rdma = self.cfg.mode.uses_rdma();
                        self.conns
                            .dial(&self.net, ctx, self.node, rdma, self.server);
                    }
                    ProbeMsg::Start => {}
                    ProbeMsg::IssueNext => self.issue(ctx),
                    ProbeMsg::Watchdog => {
                        let now = ctx.now();
                        if now >= self.stop_at && self.in_flight.is_none() {
                            return;
                        }
                        let timeout = self.cfg.client_retry_timeout;
                        let stuck = self.in_flight.is_some_and(|idx| {
                            self.history
                                .borrow()
                                .ops
                                .get(idx)
                                .is_some_and(|op| now.saturating_since(op.invoked) > timeout)
                        });
                        let broken = self.conn.is_some_and(|c| self.conns.channel(c).broken());
                        if stuck || broken {
                            self.abandon(ctx);
                        }
                        ctx.timer(timeout, ProbeMsg::Watchdog);
                    }
                }
                return;
            }
            Err(other) => other,
        };
        let Ok(ev) = msg.downcast::<NetEvent>() else {
            return;
        };
        match *ev {
            NetEvent::CmEstablished { qp, .. } => {
                if self.conn.is_some() {
                    return;
                }
                self.dial_attempts = 0;
                let ch = Channel::rdma(&self.net, ctx, self.node, qp, RING_SIZE).unsignaled();
                self.conn = Some(self.conns.add(ch, (), None));
                self.issue(ctx);
            }
            NetEvent::TcpConnected { conn, .. } => {
                self.dial_attempts = 0;
                self.conn = Some(self.conns.add(Channel::tcp(conn), (), None));
                self.issue(ctx);
            }
            NetEvent::CqNotify { cq } => {
                let net = self.net.clone();
                let mut broken = false;
                let mut wcs = self.conns.take_wcs();
                let out =
                    cqdrain::drain_budgeted(&net, ctx, cq, POLL_BUDGET, &mut wcs, |ctx, wc| {
                        let Some(conn) = self.conn.filter(|_| !broken) else {
                            return;
                        };
                        match self.conns.on_wc(&net, ctx, conn, &wc) {
                            ConnEvent::Msg(m) if m.tag == tag::REPLY => {
                                self.on_reply(ctx, &m.payload);
                            }
                            ConnEvent::Broken => broken = true,
                            _ => {}
                        }
                    });
                self.conns.put_wcs(wcs);
                if out.more {
                    ctx.timer_at(ctx.now(), NetEvent::CqNotify { cq });
                }
                if broken {
                    self.abandon(ctx);
                }
            }
            NetEvent::TcpDelivered { bytes, .. } => {
                let Some(conn) = self.conn else {
                    return;
                };
                let mut msgs = self.conns.on_tcp_bytes(conn, bytes);
                for m in msgs.drain(..) {
                    if m.tag == tag::REPLY {
                        self.on_reply(ctx, &m.payload);
                    }
                }
                self.conns.put_msgs(msgs);
            }
            NetEvent::TcpClosed { .. } if ctx.now() < self.stop_at => self.abandon(ctx),
            NetEvent::CmConnectFailed { .. } | NetEvent::TcpConnectFailed { .. } => {
                self.dial_attempts = self.dial_attempts.saturating_add(1);
                let delay = self.cfg.client_dial_delay(self.dial_attempts);
                ctx.timer(delay, ProbeMsg::Start);
            }
            _ => {}
        }
    }
}

/// Parse a GET reply into the observed sequence number. `NullBulk` (key
/// absent) observes 0; errors and malformed values observe nothing.
fn parse_observed(payload: &[u8]) -> Option<u64> {
    match Resp::decode(payload) {
        Decoded::Frame(Resp::NullBulk, _) => Some(0),
        Decoded::Frame(Resp::Bulk(b), _) => {
            std::str::from_utf8(&b).ok().and_then(|s| s.parse().ok())
        }
        _ => None,
    }
}

struct TargetConn {
    addr: SocketAddr,
    /// This target's connection in the reader's table, once established.
    conn: Option<usize>,
    /// Read generations with a GET outstanding on this channel, oldest
    /// first (replies arrive in FIFO order per channel).
    outstanding: VecDeque<u64>,
}

/// Multi-target read probe: GETs a random probe key from every connected
/// target and completes once the anchor (`targets[0]`) plus
/// `read_quorum` total targets responded, observing the maximum value.
/// RDMA modes only (one CQ multiplexes all target QPs).
pub struct HistReader {
    net: Net,
    cfg: ClusterConfig,
    node: NodeId,
    targets: Vec<TargetConn>,
    read_quorum: usize,
    history: SharedHistory,
    writers: usize,
    keys_per_writer: usize,
    op_gap: SimDuration,
    start_at: SimTime,
    stop_at: SimTime,
    rng: DetRng,
    /// One connection per reachable target, tagged with the target index.
    conns: ConnTable<usize>,
    cur_gen: u64,
    /// Index into the shared history of the read in progress.
    cur_op: Option<usize>,
    /// Per-target observation for the current generation.
    got: Vec<Option<u64>>,
}

impl HistReader {
    /// Create a reader probe. `targets[0]` is the anchor; a read needs
    /// the anchor plus `read_quorum` total responders.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        net: Net,
        cfg: ClusterConfig,
        node: NodeId,
        targets: Vec<SocketAddr>,
        read_quorum: usize,
        history: SharedHistory,
        writers: usize,
        keys_per_writer: usize,
        op_gap: SimDuration,
        start_at: SimTime,
        stop_at: SimTime,
    ) -> Self {
        let got = vec![None; targets.len()];
        HistReader {
            net,
            cfg,
            node,
            targets: targets
                .into_iter()
                .map(|addr| TargetConn {
                    addr,
                    conn: None,
                    outstanding: VecDeque::new(),
                })
                .collect(),
            read_quorum: read_quorum.max(1),
            history,
            writers: writers.max(1),
            keys_per_writer: keys_per_writer.max(1),
            op_gap,
            start_at,
            stop_at,
            rng: DetRng::new(0),
            conns: ConnTable::new(None),
            cur_gen: 0,
            cur_op: None,
            got,
        }
    }

    fn dial_missing(&mut self, ctx: &mut Context<'_>) {
        for t in &mut self.targets {
            if t.conn.is_some_and(|c| !self.conns.channel(c).broken()) {
                continue;
            }
            if let Some(conn) = t.conn.take() {
                self.conns.close(&self.net, conn);
                t.outstanding.clear();
            }
            self.conns.dial(&self.net, ctx, self.node, true, t.addr);
        }
    }

    fn issue(&mut self, ctx: &mut Context<'_>) {
        if ctx.now() >= self.stop_at || self.cur_op.is_some() {
            return;
        }
        // No anchor connection → nothing can complete; back off and retry.
        if self.targets.first().is_some_and(|t| t.conn.is_none()) {
            ctx.timer(self.cfg.client_retry_timeout, ProbeMsg::IssueNext);
            return;
        }
        let writer = usize::try_from(self.rng.below(self.writers as u64)).unwrap_or(0);
        let key_idx = usize::try_from(self.rng.below(self.keys_per_writer as u64)).unwrap_or(0);
        let key = probe_key(writer, key_idx);
        let cmd = Resp::command([b"GET".as_slice(), key.as_bytes()]).encode();
        self.cur_gen += 1;
        for g in &mut self.got {
            *g = None;
        }
        let idx = {
            let mut h = self.history.borrow_mut();
            h.ops.push(OpRecord {
                key,
                kind: OpKind::Read,
                seq: 0,
                invoked: ctx.now(),
                completed: None,
                ok: false,
                aborted: false,
                read_set: Vec::new(),
            });
            h.ops.len() - 1
        };
        self.cur_op = Some(idx);
        let gen = self.cur_gen;
        for t in &mut self.targets {
            let Some(conn) = t.conn else {
                continue;
            };
            self.conns.send(&self.net, ctx, conn, tag::CMD, cmd.clone());
            t.outstanding.push_back(gen);
        }
        self.maybe_complete(ctx);
    }

    /// Record target `ti`'s reply for the generation it answers; complete
    /// the current read when anchor + quorum responded.
    fn on_get_reply(&mut self, ctx: &mut Context<'_>, ti: usize, payload: &[u8]) {
        let Some(gen) = self.targets[ti].outstanding.pop_front() else {
            return;
        };
        if gen != self.cur_gen || self.cur_op.is_none() {
            return; // reply for an abandoned generation
        }
        if let Some(v) = parse_observed(payload) {
            self.got[ti] = Some(v);
        }
        self.maybe_complete(ctx);
    }

    fn maybe_complete(&mut self, ctx: &mut Context<'_>) {
        let Some(idx) = self.cur_op else { return };
        if self.got.first().copied().flatten().is_none() {
            return; // anchor has not answered
        }
        let responders = self.got.iter().filter(|g| g.is_some()).count();
        if responders < self.read_quorum {
            return;
        }
        let observed = self.got.iter().flatten().copied().max().unwrap_or(0);
        let read_set: Vec<SocketAddr> = self
            .targets
            .iter()
            .zip(&self.got)
            .filter(|(_, g)| g.is_some())
            .map(|(t, _)| t.addr)
            .collect();
        {
            let mut h = self.history.borrow_mut();
            if let Some(op) = h.ops.get_mut(idx) {
                op.completed = Some(ctx.now());
                op.ok = true;
                op.seq = observed;
                op.read_set = read_set;
            }
        }
        self.cur_op = None;
        ctx.timer(self.op_gap, ProbeMsg::IssueNext);
    }
}

impl Actor for HistReader {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.rng = ctx.rng().split();
        ctx.timer_at(self.start_at, ProbeMsg::Start);
        ctx.timer_at(
            self.start_at + self.cfg.client_retry_timeout,
            ProbeMsg::Watchdog,
        );
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, msg: Payload) {
        let msg = match msg.downcast::<ProbeMsg>() {
            Ok(m) => {
                match *m {
                    ProbeMsg::Start => {
                        self.dial_missing(ctx);
                        ctx.timer(self.op_gap, ProbeMsg::IssueNext);
                    }
                    ProbeMsg::IssueNext => self.issue(ctx),
                    ProbeMsg::Watchdog => {
                        let now = ctx.now();
                        if now >= self.stop_at && self.cur_op.is_none() {
                            return;
                        }
                        let timeout = self.cfg.client_retry_timeout;
                        let stuck = self.cur_op.is_some_and(|idx| {
                            self.history
                                .borrow()
                                .ops
                                .get(idx)
                                .is_some_and(|op| now.saturating_since(op.invoked) > timeout)
                        });
                        if stuck {
                            // Abandon the read and record an *explicit
                            // abort*: its value was provably never
                            // observed, so the checker drops it instead
                            // of treating it as an infinite-window op
                            // (which a dial backoff under a partition
                            // would otherwise leave behind every time a
                            // probe gives up mid-plan).
                            if let Some(idx) = self.cur_op.take() {
                                let mut h = self.history.borrow_mut();
                                if let Some(op) = h.ops.get_mut(idx) {
                                    op.aborted = true;
                                }
                            }
                            self.dial_missing(ctx);
                            ctx.timer(self.op_gap, ProbeMsg::IssueNext);
                        }
                        ctx.timer(timeout, ProbeMsg::Watchdog);
                    }
                }
                return;
            }
            Err(other) => other,
        };
        let Ok(ev) = msg.downcast::<NetEvent>() else {
            return;
        };
        match *ev {
            NetEvent::CmEstablished { qp, peer } => {
                let Some(ti) = self.targets.iter().position(|t| t.addr == peer) else {
                    return;
                };
                if self.targets[ti].conn.is_some() {
                    return;
                }
                let ch = Channel::rdma(&self.net, ctx, self.node, qp, RING_SIZE).unsignaled();
                self.targets[ti].conn = Some(self.conns.add(ch, ti, None));
            }
            NetEvent::CmConnectFailed { .. } => {
                // The watchdog retries; losing one target only costs
                // quorum membership until then.
            }
            NetEvent::CqNotify { cq } => {
                let net = self.net.clone();
                let mut wcs = self.conns.take_wcs();
                let out =
                    cqdrain::drain_budgeted(&net, ctx, cq, POLL_BUDGET, &mut wcs, |ctx, wc| {
                        // A target's current channel gets the completions of
                        // whichever of its QPs they arrive on.
                        let Some(ti) = self.conns.conn_of_qp(wc.qp).map(|c| *self.conns.kind(c))
                        else {
                            return;
                        };
                        let Some(conn) = self.targets[ti].conn else {
                            return;
                        };
                        if let ConnEvent::Msg(m) = self.conns.on_wc(&net, ctx, conn, &wc) {
                            if m.tag == tag::REPLY {
                                self.on_get_reply(ctx, ti, &m.payload);
                            }
                        }
                        // Broken channels stay in place until the watchdog
                        // redials: `outstanding` bookkeeping dies with them.
                    });
                self.conns.put_wcs(wcs);
                if out.more {
                    ctx.timer_at(ctx.now(), NetEvent::CqNotify { cq });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn write(key: &str, seq: u64, inv: u64, done: u64) -> OpRecord {
        OpRecord {
            key: key.into(),
            kind: OpKind::Write,
            seq,
            invoked: t(inv),
            completed: Some(t(done)),
            ok: true,
            aborted: false,
            read_set: Vec::new(),
        }
    }

    fn read(key: &str, seq: u64, inv: u64, done: u64) -> OpRecord {
        OpRecord {
            key: key.into(),
            kind: OpKind::Read,
            seq,
            invoked: t(inv),
            completed: Some(t(done)),
            ok: true,
            aborted: false,
            read_set: Vec::new(),
        }
    }

    #[test]
    fn clean_history_passes() {
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                read("k", 1, 20, 30),
                write("k", 2, 40, 50),
                read("k", 2, 60, 70),
            ],
        };
        assert!(check_single_writer(&h).is_empty());
    }

    #[test]
    fn stale_read_is_flagged() {
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                write("k", 2, 20, 30),
                read("k", 1, 40, 50), // write 2 completed before — stale
            ],
        };
        let v = check_single_writer(&h);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(stale_reads(&v), 1);
    }

    #[test]
    fn phantom_value_is_flagged() {
        let h = History {
            ops: vec![write("k", 1, 0, 10), read("k", 7, 20, 30)],
        };
        let v = check_single_writer(&h);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(stale_reads(&v), 0);
    }

    #[test]
    fn non_monotone_reads_are_flagged() {
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                // Write 2 never completed (abandoned) — observing it is
                // legal, but un-observing it afterwards is not.
                OpRecord {
                    completed: None,
                    ok: false,
                    ..write("k", 2, 15, 0)
                },
                read("k", 2, 20, 30),
                read("k", 1, 40, 50),
            ],
        };
        let v = check_single_writer(&h);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("non-monotone"), "{v:?}");
    }

    #[test]
    fn incomplete_and_overlapping_ops_are_tolerated() {
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                // In-flight write: reads may see 1 or 2.
                OpRecord {
                    completed: None,
                    ok: false,
                    ..write("k", 2, 15, 0)
                },
                // Overlapping reads: one sees the new value, one does not.
                read("k", 2, 20, 30),
                read("k", 2, 25, 40),
                read("k", 2, 50, 60),
            ],
        };
        assert!(check_single_writer(&h).is_empty());
    }

    #[test]
    fn null_reads_before_any_write_pass() {
        let h = History {
            ops: vec![
                read("k", 0, 0, 5),
                write("k", 1, 10, 20),
                read("k", 1, 30, 40),
            ],
        };
        assert!(check_single_writer(&h).is_empty());
    }

    #[test]
    fn observed_parse_handles_replies() {
        assert_eq!(parse_observed(&Resp::NullBulk.encode()), Some(0));
        assert_eq!(
            parse_observed(&Resp::Bulk(b"42".to_vec()).encode()),
            Some(42)
        );
        assert_eq!(parse_observed(&Resp::Bulk(b"x".to_vec()).encode()), None);
        assert_eq!(parse_observed(b"-ERR nope\r\n"), None);
    }

    #[test]
    fn probe_keys_are_namespaced_and_stable() {
        assert_eq!(probe_key(1, 2), "h:01:0002");
        assert_ne!(probe_key(1, 2), probe_key(2, 1));
    }

    // -- multi-writer checker -------------------------------------------

    #[test]
    fn multi_writer_clean_history_is_linearizable() {
        // Two writers with unique values, overlapping windows, reads that
        // can all be ordered consistently.
        let h = History {
            ops: vec![
                write("k", 101, 0, 30),
                write("k", 201, 10, 40), // concurrent with 101
                read("k", 201, 50, 60),
                write("k", 102, 55, 70),
                read("k", 102, 80, 90),
                read("k", 102, 85, 95),
            ],
        };
        let v = check_linearizable(&h);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn known_bad_stale_read_fixture_is_rejected() {
        // The seeded known-bad fixture: write 2 completed before the read
        // was invoked, yet the read observed the older value 1. The
        // checker must produce a counterexample, not a pass.
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                write("k", 2, 20, 30),
                read("k", 1, 40, 50),
            ],
        };
        let v = check_linearizable(&h);
        assert!(!v.is_empty(), "checker passed a stale-read history");
        assert!(stale_reads(&v) >= 1, "{v:?}");
    }

    #[test]
    fn concurrent_write_order_contradiction_is_rejected() {
        // Both writes complete before any read, so the register order of
        // (1, 2) is fixed by read time — observing 1, then 2, then 1
        // again has no valid schedule. The quick screens cannot see this
        // (neither write strictly precedes the other); only the search
        // rejects it.
        let h = History {
            ops: vec![
                write("k", 1, 0, 100),
                write("k", 2, 0, 100),
                read("k", 1, 110, 120),
                read("k", 2, 130, 140),
                read("k", 1, 150, 160),
            ],
        };
        let v = check_linearizable(&h);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("not linearizable"), "{v:?}");
    }

    #[test]
    fn maybe_applied_write_windows_are_honored() {
        // The incomplete write 2 may linearize anywhere after its
        // invocation; reads observing it are legal, and it is never
        // required.
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                OpRecord {
                    completed: None,
                    ok: false,
                    ..write("k", 2, 15, 0)
                },
                read("k", 2, 20, 30),
                read("k", 2, 25, 40),
                read("k", 2, 50, 60),
            ],
        };
        let v = check_linearizable(&h);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn aborted_reads_are_dropped() {
        // An aborted read carries garbage; with the abort flag the
        // checker excludes it, without the flag the same record would
        // fail provenance.
        let mut bad = read("k", 999, 20, 30);
        bad.aborted = true;
        let h = History {
            ops: vec![write("k", 1, 0, 10), bad, read("k", 1, 40, 50)],
        };
        let v = check_linearizable(&h);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn prefix_check_stops_at_the_degradation_point() {
        // The stale read happens after the cutoff: the full check rejects
        // the history, the prefix check accepts it.
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                write("k", 2, 20, 30),
                read("k", 1, 40, 50),
            ],
        };
        assert!(!check_linearizable(&h).is_empty());
        assert!(check_linearizable_upto(&h, t(35)).is_empty());
        // An op spanning the cutoff is treated as still-open: write 2
        // becomes maybe-applied, so the read of 1 stays legal even when
        // it slips inside the prefix.
        let h2 = History {
            ops: vec![
                write("k", 1, 0, 10),
                write("k", 2, 20, 60),
                read("k", 1, 30, 40),
            ],
        };
        assert!(check_linearizable_upto(&h2, t(50)).is_empty());
    }

    #[test]
    fn event_log_json_lists_every_op() {
        let mut aborted = read("k", 0, 20, 0);
        aborted.completed = None;
        aborted.ok = false;
        aborted.aborted = true;
        let h = History {
            ops: vec![write("k", 1, 0, 10), aborted],
        };
        let json = h.event_log_json();
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert!(json.contains("\"kind\":\"write\""), "{json}");
        assert!(json.contains("\"completed_ns\":null"), "{json}");
        assert!(json.contains("\"aborted\":true"), "{json}");
        assert_eq!(json.matches("\"key\":").count(), 2, "{json}");
    }
}
