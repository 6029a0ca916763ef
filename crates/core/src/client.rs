//! Closed-loop benchmark clients, modelled on `redis-benchmark` (§V-B:
//! "each client issues queries as quickly as possible").
//!
//! A client opens one connection, then repeats: build a command, send it,
//! wait for the reply, record the latency, send the next. Throughput at a
//! given concurrency level therefore emerges from server service times and
//! round-trip latency exactly as it does for the paper's load generator.

use skv_netsim::{Net, NodeId, SocketAddr};
use skv_simcore::{Actor, ActorId, Context, DetRng, FramePool, Payload, SimDuration, SimTime};
use skv_store::resp::{self, Decoded, Resp};

use crate::config::ClusterConfig;
use crate::histcheck::{OpKind, SharedHistory};
use crate::link::{ClientLink, LinkEvent};
use crate::metrics::SharedMetrics;

/// Workload shape for one client.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Commands kept in flight per connection (`redis-benchmark -P`);
    /// 1 reproduces the paper's strictly closed loop.
    pub pipeline: usize,
    /// Fraction of operations that are SET (the rest are GET).
    pub set_ratio: f64,
    /// Keys per write batch: 0 or 1 issues plain SETs; `n >= 2` issues
    /// `MSET` over `n` uniform random keys instead (cross-shard stressor
    /// on sharded clusters). The default workload (0) draws the exact
    /// historical RNG sequence.
    pub mset_keys: usize,
    /// Number of distinct keys (uniform access).
    pub key_space: u64,
    /// Value payload size in bytes for SET.
    pub value_size: usize,
    /// Zipf skew exponent θ for key draws. 0 (the default) keeps the
    /// historical uniform draws bit-identical — the Zipf machinery and
    /// its dedicated RNG stream only exist when θ > 0. Typical YCSB
    /// skew is θ = 0.99; values are clamped below 1.
    pub zipf_theta: f64,
    /// Shift the Zipf hot set every this many key draws (0 = static hot
    /// set). The shift is a deterministic rank rotation — no RNG draws —
    /// so enabling it cannot reshuffle any stream.
    pub zipf_shift_every: u64,
    /// When to open the connection and start issuing.
    pub start_at: SimTime,
    /// Stop issuing new operations after this instant.
    pub stop_at: SimTime,
}

/// Zipf(θ) rank sampler over `n` ranks — YCSB's zipfian generator
/// (Gray et al.'s rejection-free inversion): one uniform draw in, one
/// rank out, O(1) per sample after an O(n) zeta precomputation.
/// Rank 0 is the hottest item.
pub struct ZipfSampler {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfSampler {
    /// Build a sampler over `n` ranks with exponent `theta` (clamped to
    /// `[0.01, 0.9999]` — the closed form needs θ < 1).
    pub fn new(n: u64, theta: f64) -> Self {
        let n = n.max(1);
        let theta = theta.clamp(0.01, 0.9999);
        let nf = n as f64;
        let mut zetan = 0.0f64;
        let mut zeta2 = 0.0f64;
        for i in 1..=n {
            let term = 1.0 / (i as f64).powf(theta);
            zetan += term;
            if i <= 2 {
                zeta2 += term;
            }
        }
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfSampler {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Map one uniform draw `u ∈ [0, 1)` to a Zipf-distributed rank in
    /// `[0, n)`.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // in [0, n), clamped below
    pub fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n >= 2 && uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Deterministic command generator for one client connection.
///
/// Draw order is part of the workload contract (the same-seed trace
/// digest test pins it):
///
/// * **θ = 0 (legacy)** — a single RNG stream, exactly the historical
///   sequence: key index ← `below(key_space)`, then write? ←
///   `chance(set_ratio)`, then (MSET only) each extra key index ←
///   `below(key_space)`.
/// * **θ > 0** — one stream per knob: every key index comes from the
///   dedicated Zipf stream (`unit()` into [`ZipfSampler::rank`],
///   including MSET extras), the read/write mix stays on the main
///   stream (`chance(set_ratio)`). A future knob gets its own split,
///   never draws from these two.
pub struct WorkloadGen {
    w: Workload,
    /// Main stream: read/write mix, and key draws in legacy mode.
    rng: DetRng,
    /// Dedicated Zipf key stream (untouched placeholder when θ = 0).
    key_rng: DetRng,
    zipf: Option<ZipfSampler>,
    /// Key draws so far (drives the deterministic hot-set rotation).
    key_draws: u64,
    /// The `xxxx…` filler value every unstamped write carries.
    filler: Vec<u8>,
}

/// Where [`WorkloadGen`] puts the command it draws: `begin` once with the
/// argument count, then `arg` per argument, command name first.
trait CommandSink {
    fn begin(&mut self, argc: usize);
    fn arg(&mut self, bytes: &[u8]);
}

/// The wire: RESP framing straight into the send buffer, nothing between.
impl CommandSink for Vec<u8> {
    fn begin(&mut self, argc: usize) {
        resp::write_array_len(self, argc);
    }
    fn arg(&mut self, bytes: &[u8]) {
        resp::write_bulk(self, bytes);
    }
}

/// The items of a [`Resp::Array`] command value.
impl CommandSink for Vec<Resp> {
    fn begin(&mut self, argc: usize) {
        self.reserve(argc);
    }
    fn arg(&mut self, bytes: &[u8]) {
        self.push(Resp::Bulk(bytes.to_vec()));
    }
}

/// `key:%012d` of a key index, on the stack. (Digits by hand rather than
/// `write!` into the array: that is fallible in the type system, and this
/// path may not `expect`.)
struct KeyName {
    bytes: [u8; Self::PREFIX.len() + Self::MAX_DIGITS],
    len: usize,
}

impl KeyName {
    const PREFIX: &'static [u8] = b"key:";
    /// Indices are zero-padded to this width…
    const MIN_DIGITS: usize = 12;
    /// …and `u64::MAX` has this many digits.
    const MAX_DIGITS: usize = 20;

    fn new(mut index: u64) -> Self {
        let mut digits = [b'0'; Self::MAX_DIGITS];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (index % 10) as u8;
            index /= 10;
            if index == 0 {
                break;
            }
        }
        let digits = &digits[at.min(Self::MAX_DIGITS - Self::MIN_DIGITS)..];
        let mut bytes = [0u8; Self::PREFIX.len() + Self::MAX_DIGITS];
        let len = Self::PREFIX.len() + digits.len();
        bytes[..Self::PREFIX.len()].copy_from_slice(Self::PREFIX);
        bytes[Self::PREFIX.len()..len].copy_from_slice(digits);
        KeyName { bytes, len }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

impl WorkloadGen {
    /// Build a generator. With θ = 0 the passed `rng` is used exactly
    /// as the historical single stream (never split); with θ > 0 the
    /// Zipf stream is split off it once, up front.
    pub fn new(w: &Workload, mut rng: DetRng) -> Self {
        let (zipf, key_rng) = if w.zipf_theta > 0.0 {
            (
                Some(ZipfSampler::new(w.key_space.max(1), w.zipf_theta)),
                rng.split(),
            )
        } else {
            (None, DetRng::new(0))
        };
        WorkloadGen {
            w: w.clone(),
            rng,
            key_rng,
            zipf,
            key_draws: 0,
            filler: vec![b'x'; w.value_size],
        }
    }

    /// Draw the next key index per the documented order.
    fn key_index(&mut self) -> u64 {
        let n = self.w.key_space.max(1);
        match &self.zipf {
            None => self.rng.below(n),
            Some(z) => {
                let rank = z.rank(self.key_rng.unit());
                // Rotate the hot set by a fixed stride per window —
                // deterministic, draw-free (no window when the knob is 0).
                let shift = self
                    .key_draws
                    .checked_div(self.w.zipf_shift_every)
                    .unwrap_or(0)
                    * (n / 5 + 1);
                self.key_draws += 1;
                (rank + shift) % n
            }
        }
    }

    /// Produce the next command and whether it is a write.
    pub fn next_command(&mut self) -> (Resp, bool) {
        let (cmd, is_write, _) = self.next_command_stamped(None);
        (cmd, is_write)
    }

    /// Like [`WorkloadGen::next_command`], but also returns the keys the
    /// command touches and — when `stamp` is given and the op is a write
    /// — replaces the `xxxx…` filler value with [`stamp_value`] so a
    /// recorded history can match reads back to writes. Stamping draws
    /// no RNG and reorders nothing: with `stamp = None` the byte stream
    /// is identical to the historical one (the pinned trace digests
    /// prove it).
    pub fn next_command_stamped(&mut self, stamp: Option<u64>) -> (Resp, bool, Vec<String>) {
        let mut items: Vec<Resp> = Vec::new();
        let mut keys = Vec::new();
        let is_write = self.draw(stamp, &mut items, |key| {
            keys.push(String::from_utf8_lossy(key).into_owned());
        });
        (Resp::Array(items), is_write, keys)
    }

    /// Draw the next command and append it to `wire` in RESP framing —
    /// key, value and framing written once, into the buffer that is sent.
    /// `on_key` sees every key the command touches; `stamp` is as for
    /// [`WorkloadGen::next_command_stamped`], whose draws and bytes this
    /// shares. Returns whether the command is a write.
    pub fn write_command(
        &mut self,
        stamp: Option<u64>,
        wire: &mut Vec<u8>,
        on_key: impl FnMut(&[u8]),
    ) -> bool {
        self.draw(stamp, wire, on_key)
    }

    /// The one generator behind both forms: draws per the documented
    /// order and hands the command to `sink` argument by argument.
    fn draw(
        &mut self,
        stamp: Option<u64>,
        sink: &mut impl CommandSink,
        mut on_key: impl FnMut(&[u8]),
    ) -> bool {
        let key = KeyName::new(self.key_index());
        let is_write = self.rng.chance(self.w.set_ratio);
        on_key(key.as_bytes());
        if !is_write {
            sink.begin(2);
            sink.arg(b"GET");
            sink.arg(key.as_bytes());
            return false;
        }
        // Only a recorded run stamps its values; every other write carries
        // the filler built once with the generator.
        let stamped = stamp.map(|s| stamp_value(s, self.w.value_size));
        if self.w.mset_keys >= 2 {
            // Batched write: MSET over `mset_keys` keys (the first is
            // the one already drawn, keeping the draw order stable).
            sink.begin(1 + 2 * self.w.mset_keys);
            sink.arg(b"MSET");
            sink.arg(key.as_bytes());
            sink.arg(stamped.as_deref().unwrap_or(&self.filler));
            for _ in 1..self.w.mset_keys {
                let key = KeyName::new(self.key_index());
                on_key(key.as_bytes());
                sink.arg(key.as_bytes());
                sink.arg(stamped.as_deref().unwrap_or(&self.filler));
            }
        } else {
            sink.begin(3);
            sink.arg(b"SET");
            sink.arg(key.as_bytes());
            sink.arg(stamped.as_deref().unwrap_or(&self.filler));
        }
        true
    }
}

/// History stamp for a recorded write: globally unique per (client, op)
/// — the client id lives in the high bits, a per-client counter in the
/// low 40. Stamp 0 never occurs (`0` means "key absent" to the checker).
pub fn history_stamp(client_id: usize, counter: u64) -> u64 {
    ((client_id as u64 + 1) << 40) | (counter & ((1 << 40) - 1))
}

/// Render a stamp as a SET value: its decimal digits, padded with `x` up
/// to `value_size` so recorded runs keep the configured payload sizes.
pub fn stamp_value(stamp: u64, value_size: usize) -> Vec<u8> {
    let mut v = stamp.to_string().into_bytes();
    if v.len() < value_size {
        v.resize(value_size, b'x');
    }
    v
}

/// Parse a stamped value back: the leading decimal digits. Unstamped
/// (`xxxx…`) values parse to `None`.
pub fn parse_stamp(bytes: &[u8]) -> Option<u64> {
    let end = bytes
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(bytes.len());
    if end == 0 {
        return None;
    }
    std::str::from_utf8(bytes.get(..end)?).ok()?.parse().ok()
}

/// Parse a GET reply into the observed stamp: `NullBulk` (key absent)
/// observes 0, a stamped bulk observes its stamp, anything else (errors,
/// unstamped values) observes nothing and is dropped from the history.
pub(crate) fn parse_reply_stamp(payload: &[u8]) -> Option<u64> {
    match Resp::decode(payload) {
        Decoded::Frame(Resp::NullBulk, _) => Some(0),
        Decoded::Frame(Resp::Bulk(b), _) => parse_stamp(&b),
        _ => None,
    }
}

/// Issue the next operation (after per-op client overhead). A unit
/// struct rather than a `ClientMsg` variant: the closed loop arms this
/// timer once per reply, and a zero-sized payload boxes without
/// allocating.
struct IssueNext;

enum ClientMsg {
    /// Time to connect and start.
    Start,
    /// Periodic liveness check: reconnect when the oldest in-flight
    /// command has waited longer than `client_retry_timeout`.
    Watchdog,
}

/// A benchmark client actor.
pub struct BenchClient {
    /// The connection to the server (see [`crate::link`]).
    link: ClientLink,
    /// Per-op client overhead: the think time of the closed loop.
    think: SimDuration,
    /// How long the oldest in-flight command may wait for its reply.
    retry_timeout: SimDuration,
    workload: Workload,
    metrics: SharedMetrics,
    /// Command generator; rebuilt in `on_start` around a split of the
    /// simulation RNG (placeholder seed until then), so no unwrap on
    /// the issue path.
    gen: WorkloadGen,
    /// FIFO of (send instant, is_write) for commands awaiting replies.
    in_flight: std::collections::VecDeque<(SimTime, bool)>,
    /// Stable id for history stamps (set by [`BenchClient::record_into`]).
    client_id: usize,
    /// When recording, the shared history sink every op lands in.
    history: Option<SharedHistory>,
    /// Monotone per-client stamp counter (recording only).
    stamp_counter: u64,
    /// History op indices per in-flight command, parallel to
    /// `in_flight` (one index per key an MSET touches; empty vec and
    /// untouched unless recording).
    rec_in_flight: std::collections::VecDeque<Vec<usize>>,
    /// Send-ring pool: each command is generated straight into a recycled
    /// buffer (and, over TCP, framed into a second one).
    pool: FramePool,
    /// Operations issued.
    pub stat_issued: u64,
    /// Replies received.
    pub stat_replies: u64,
    /// Connections abandoned and re-established after reply timeouts.
    pub stat_reconnects: u64,
    /// Total failed dial attempts (each one schedules a backed-off
    /// redial); the backoff regression test bounds this under a long
    /// partition.
    pub stat_dial_failures: u64,
}

impl BenchClient {
    /// Create a client on `node` targeting `server`.
    pub fn new(
        net: Net,
        cfg: ClusterConfig,
        node: NodeId,
        server: SocketAddr,
        workload: Workload,
        metrics: SharedMetrics,
    ) -> Self {
        let gen = WorkloadGen::new(&workload, DetRng::new(0));
        // A command buffer and a TCP wire buffer per pipelined command,
        // sized for one SET of the configured value.
        let pool = FramePool::new(workload.value_size + 64, 4 * workload.pipeline.max(1));
        BenchClient {
            think: cfg.costs.client_op,
            retry_timeout: cfg.client_retry_timeout,
            link: ClientLink::new(net, cfg, node, server, Some(pool.clone())),
            workload,
            metrics,
            gen,
            in_flight: Default::default(),
            client_id: 0,
            history: None,
            stamp_counter: 0,
            rec_in_flight: Default::default(),
            pool,
            stat_issued: 0,
            stat_replies: 0,
            stat_reconnects: 0,
            stat_dial_failures: 0,
        }
    }

    /// Route this client's operations into a shared history for the
    /// linearizability checker (see `ClusterConfig::record_history`).
    /// `client_id` keys the write stamps; it must be unique per client.
    pub fn record_into(&mut self, client_id: usize, history: SharedHistory) {
        self.client_id = client_id;
        self.history = Some(history);
    }

    /// Abandon the current connection (commands in flight are lost, like a
    /// real client timing out) and dial again.
    fn reconnect(&mut self, ctx: &mut Context<'_>) {
        self.link.close(ctx);
        if let Some(h) = &self.history {
            // In-flight reads were provably never observed — record
            // explicit aborts so the checker drops them. Writes stay
            // open: they may have applied before the channel died.
            let mut h = h.borrow_mut();
            for idxs in self.rec_in_flight.drain(..) {
                for idx in idxs {
                    if let Some(op) = h.ops.get_mut(idx) {
                        if op.kind == OpKind::Read {
                            op.aborted = true;
                        }
                    }
                }
            }
        }
        self.in_flight.clear();
        self.stat_reconnects += 1;
        ctx.timer(SimDuration::from_millis(1), ClientMsg::Start);
    }

    fn issue(&mut self, ctx: &mut Context<'_>) {
        if ctx.now() >= self.workload.stop_at || !self.link.connected() {
            return;
        }
        let stamp = self.history.is_some().then(|| {
            self.stamp_counter += 1;
            history_stamp(self.client_id, self.stamp_counter)
        });
        // Only a recording run keeps the keys (as the history wants them).
        let mut keys: Vec<String> = Vec::new();
        let mut is_write = false;
        let cmd = self.pool.build(|wire| {
            is_write = self.gen.write_command(stamp, wire, |key| {
                if stamp.is_some() {
                    keys.push(String::from_utf8_lossy(key).into_owned());
                }
            });
        });
        if let (Some(history), Some(stamp)) = (&self.history, stamp) {
            let now = ctx.now();
            let mut idxs = Vec::with_capacity(keys.len());
            let mut h = history.borrow_mut();
            let (kind, seq) = if is_write {
                (OpKind::Write, stamp)
            } else {
                (OpKind::Read, 0)
            };
            for key in keys {
                idxs.push(h.invoke(key, kind, seq, now));
            }
            self.rec_in_flight.push_back(idxs);
        }
        self.in_flight.push_back((ctx.now(), is_write));
        self.stat_issued += 1;
        // A send that breaks the channel is the watchdog's to notice.
        self.link.send(ctx, cmd);
    }

    /// Fill the pipeline up to its configured depth.
    fn fill_pipeline(&mut self, ctx: &mut Context<'_>) {
        while self.in_flight.len() < self.workload.pipeline.max(1) {
            let before = self.in_flight.len();
            self.issue(ctx);
            if self.in_flight.len() == before {
                break; // stopped issuing (deadline passed / not connected)
            }
        }
    }

    fn on_reply(&mut self, ctx: &mut Context<'_>, payload: &[u8]) {
        self.stat_replies += 1;
        let Some((sent_at, is_write)) = self.in_flight.pop_front() else {
            return;
        };
        let latency = ctx.now().saturating_since(sent_at);
        let is_error = payload.first() == Some(&b'-');
        if let Some(h) = &self.history {
            if let Some(idxs) = self.rec_in_flight.pop_front() {
                // One reply closes every record the command opened
                // (MSET: one per key, sharing the stamp). Replies served
                // by the NIC cache or relayed off FWD_CMD cookies arrive
                // on this same channel and are recorded identically.
                let observed = if is_write {
                    None
                } else {
                    parse_reply_stamp(payload)
                };
                let mut h = h.borrow_mut();
                for idx in idxs {
                    if let Some(op) = h.ops.get_mut(idx) {
                        op.completed = Some(ctx.now());
                        match op.kind {
                            OpKind::Write => op.ok = !is_error,
                            OpKind::Read => {
                                if let Some(v) = observed {
                                    op.ok = true;
                                    op.seq = v;
                                    op.read_set = vec![self.link.server()];
                                }
                                // Unparseable replies observe nothing:
                                // the record completes with ok = false
                                // and is dropped from checking.
                            }
                        }
                    }
                }
            }
        }
        self.metrics
            .borrow_mut()
            .record(ctx.now(), latency, is_write, is_error);
        // Closed loop: think for the client-side overhead, then refill.
        ctx.timer(self.think, IssueNext);
    }
}

impl Actor for BenchClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.gen = WorkloadGen::new(&self.workload, ctx.rng().split());
        let start = self.workload.start_at;
        ctx.timer_at(start, ClientMsg::Start);
        ctx.timer_at(start + self.retry_timeout, ClientMsg::Watchdog);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, msg: Payload) {
        if msg.is::<IssueNext>() {
            self.fill_pipeline(ctx);
            return;
        }
        let msg = match msg.downcast::<ClientMsg>() {
            Ok(m) => {
                match *m {
                    ClientMsg::Start => self.link.dial(ctx),
                    ClientMsg::Watchdog => {
                        let now = ctx.now();
                        if now >= self.workload.stop_at && self.in_flight.is_empty() {
                            return; // run over, timer chain ends
                        }
                        let stuck = self.in_flight.front().is_some_and(|&(sent, _)| {
                            now.saturating_since(sent) > self.retry_timeout
                        });
                        if stuck || self.link.broken() {
                            self.reconnect(ctx);
                        }
                        ctx.timer(self.retry_timeout, ClientMsg::Watchdog);
                    }
                }
                return;
            }
            Err(other) => other,
        };
        self.link.accept(ctx, msg);
        while let Some(ev) = self.link.next_event(ctx) {
            match ev {
                LinkEvent::Up => self.fill_pipeline(ctx),
                LinkEvent::Reply(payload) => self.on_reply(ctx, &payload),
                // A server closing the connection after the run is over
                // is not a loss.
                LinkEvent::Lost { by_peer } if !by_peer || ctx.now() < self.workload.stop_at => {
                    self.reconnect(ctx);
                }
                LinkEvent::Lost { .. } => {}
                LinkEvent::Refused(delay) => {
                    self.stat_dial_failures += 1;
                    ctx.timer(delay, ClientMsg::Start);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skv_simcore::SimTime;

    fn workload(theta: f64, shift_every: u64) -> Workload {
        Workload {
            pipeline: 1,
            set_ratio: 0.1,
            mset_keys: 0,
            key_space: 1_000,
            value_size: 16,
            zipf_theta: theta,
            zipf_shift_every: shift_every,
            start_at: SimTime::ZERO,
            stop_at: SimTime::ZERO,
        }
    }

    /// FNV-1a over the first `ops` encoded commands: the trace digest.
    fn trace_digest(w: &Workload, seed: u64, ops: usize) -> u64 {
        let mut gen = WorkloadGen::new(w, DetRng::new(seed));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..ops {
            let (cmd, _) = gen.next_command();
            for &b in &cmd.encode() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The draw-order contract, pinned: the θ = 0 stream is the exact
    /// historical sequence (this constant predates the Zipf knob), and
    /// the θ > 0 stream is stable across releases. If either digest
    /// moves, a seeded workload is no longer reproducible — treat that
    /// as a breaking change, not a test to update casually.
    #[test]
    fn same_seed_trace_digests_are_pinned() {
        assert_eq!(trace_digest(&workload(0.0, 0), 42, 4_096), 0xae5a_e245_5695_96eb);
        assert_eq!(trace_digest(&workload(0.99, 0), 42, 4_096), 0xa8d8_733a_71c0_43fc);
        assert_eq!(
            trace_digest(&workload(0.99, 500), 42, 4_096),
            0x811a_7567_801e_70f7
        );
    }

    /// Same seed → same trace; different seed → different trace. Holds
    /// for every stream arrangement (legacy, Zipf, shifting hot set).
    #[test]
    fn trace_digest_tracks_seed() {
        for w in [workload(0.0, 0), workload(0.99, 0), workload(0.99, 500)] {
            assert_eq!(trace_digest(&w, 7, 512), trace_digest(&w, 7, 512));
            assert_ne!(trace_digest(&w, 7, 512), trace_digest(&w, 8, 512));
        }
    }

    /// The skew knob and the mix stream are independent: two θ > 0
    /// workloads that differ only in θ split the same Zipf stream off
    /// the same parent, so their read/write decisions are draw-for-draw
    /// identical — only which keys get drawn changes.
    #[test]
    fn zipf_theta_leaves_mix_stream_untouched() {
        let mut low = WorkloadGen::new(&workload(0.6, 0), DetRng::new(9));
        let mut high = WorkloadGen::new(&workload(0.99, 0), DetRng::new(9));
        let mut low_writes = Vec::new();
        let mut high_writes = Vec::new();
        for _ in 0..2_048 {
            low_writes.push(low.next_command().1);
            high_writes.push(high.next_command().1);
        }
        assert_eq!(low_writes, high_writes);
    }

    /// θ = 0.99 concentrates draws on the head of the keyspace; uniform
    /// draws do not. (Rank 0 maps to a single key; under Zipf it should
    /// absorb a double-digit share of all draws.)
    #[test]
    fn zipf_theta_skews_key_draws() {
        let count_hot = |theta: f64| {
            let mut gen = WorkloadGen::new(&workload(theta, 0), DetRng::new(3));
            let mut hot = 0usize;
            for _ in 0..10_000 {
                let (cmd, _) = gen.next_command();
                if cmd.encode().windows(16).any(|w| w == b"key:000000000000") {
                    hot += 1;
                }
            }
            hot
        };
        let zipf_hot = count_hot(0.99);
        let uniform_hot = count_hot(0.0);
        assert!(
            zipf_hot > 1_000,
            "Zipf 0.99 should hammer the hottest key, saw {zipf_hot}/10000"
        );
        assert!(
            uniform_hot < 100,
            "uniform draws should spread out, saw {uniform_hot}/10000"
        );
    }

    /// Stamps roundtrip through the value encoding at any size, are
    /// unique across clients, and never collide with "key absent" (0).
    #[test]
    fn history_stamps_roundtrip() {
        for (client, counter) in [(0usize, 1u64), (7, 42), (255, (1 << 40) - 1)] {
            let s = history_stamp(client, counter);
            assert_ne!(s, 0);
            assert_eq!(parse_stamp(&stamp_value(s, 16)), Some(s));
            assert_eq!(parse_stamp(&stamp_value(s, 0)), Some(s));
            assert_eq!(parse_stamp(&stamp_value(s, 64)), Some(s));
        }
        assert_ne!(history_stamp(0, 5), history_stamp(1, 5));
        assert_eq!(parse_stamp(b"xxxx"), None);
        assert_eq!(parse_stamp(b""), None);
        assert_eq!(parse_reply_stamp(&Resp::NullBulk.encode()), Some(0));
        assert_eq!(
            parse_reply_stamp(&Resp::Bulk(stamp_value(99, 8)).encode()),
            Some(99)
        );
        assert_eq!(parse_reply_stamp(b"-ERR nope\r\n"), None);
        // The probe readers parse their unpadded sequence numbers with it.
        assert_eq!(parse_reply_stamp(&Resp::Bulk(b"42".to_vec()).encode()), Some(42));
        assert_eq!(parse_reply_stamp(&Resp::Bulk(b"x".to_vec()).encode()), None);
    }

    /// Stamping changes only the written value bytes: same seed, same
    /// keys, same read/write sequence — so the recorded path exercises
    /// the exact schedule the unstamped path would.
    #[test]
    fn stamping_preserves_draw_order() {
        for w in [workload(0.0, 0), workload(0.99, 0)] {
            let mut plain = WorkloadGen::new(&w, DetRng::new(11));
            let mut stamped = WorkloadGen::new(&w, DetRng::new(11));
            for i in 0..512u64 {
                let (p_cmd, p_write) = plain.next_command();
                let (s_cmd, s_write, keys) = stamped.next_command_stamped(Some(i + 1));
                assert_eq!(p_write, s_write);
                assert_eq!(keys.len(), 1);
                let enc = s_cmd.encode();
                assert!(
                    enc.windows(keys[0].len())
                        .any(|win| win == keys[0].as_bytes()),
                    "returned key must appear in the command"
                );
                if !p_write {
                    assert_eq!(p_cmd.encode(), enc, "reads are byte-identical");
                }
            }
        }
    }

    /// The wire form and the `Resp` form are one generator: same draws,
    /// same bytes, same keys — for plain, stamped, Zipf and MSET workloads.
    #[test]
    fn write_command_matches_next_command_stamped() {
        let mut mset = workload(0.0, 0);
        mset.set_ratio = 0.5;
        mset.mset_keys = 5; // 11 arguments: past the inline bound
        for w in [workload(0.0, 0), workload(0.99, 100), mset] {
            let mut as_value = WorkloadGen::new(&w, DetRng::new(21));
            let mut as_wire = WorkloadGen::new(&w, DetRng::new(21));
            for i in 0..512u64 {
                let stamp = (i % 3 == 0).then_some(i + 1);
                let (cmd, is_write, keys) = as_value.next_command_stamped(stamp);
                let mut wire = b"prefix".to_vec();
                let mut wire_keys = Vec::new();
                let wire_write = as_wire.write_command(stamp, &mut wire, |k| {
                    wire_keys.push(String::from_utf8(k.to_vec()).unwrap());
                });
                assert_eq!(&wire[..6], b"prefix", "appends, never overwrites");
                assert_eq!(&wire[6..], cmd.encode(), "command {i}");
                assert_eq!((wire_write, wire_keys), (is_write, keys));
            }
        }
    }

    /// Keys are `key:%012d`, and wider once the index outgrows the pad.
    #[test]
    fn key_names_match_the_historical_format() {
        for index in [0, 7, 9_999, 999_999_999_999, 1_000_000_000_000, u64::MAX] {
            assert_eq!(
                KeyName::new(index).as_bytes(),
                format!("key:{index:012}").as_bytes()
            );
        }
    }

    /// The hot-set rotation moves the head of the distribution without
    /// touching any RNG stream: key draws differ across the shift
    /// boundary, but the underlying rank sequence (and so the trace
    /// length and mix) is unchanged.
    #[test]
    fn hot_set_shift_rotates_ranks_deterministically() {
        let mut fixed = WorkloadGen::new(&workload(0.99, 0), DetRng::new(5));
        let mut shifting = WorkloadGen::new(&workload(0.99, 100), DetRng::new(5));
        let mut diverged = false;
        for i in 0..400 {
            let a = fixed.next_command().0.encode();
            let b = shifting.next_command().0.encode();
            if i < 100 {
                assert_eq!(a, b, "before the first shift the streams agree");
            } else if a != b {
                diverged = true;
            }
        }
        assert!(diverged, "after a shift the hot set must have moved");
    }
}

