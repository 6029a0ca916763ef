//! # skv-analyze — token-level static analysis for the SKV reproduction
//!
//! The SKV reproduction's value rests on invariants no compiler checks:
//! every figure is regenerated from seeds, so a single `HashMap`
//! iteration, wall-clock read, unbudgeted CQ drain or panicking frame
//! parse can silently break determinism or take down a simulated
//! cluster. This crate is a purpose-built static analyzer — zero
//! dependencies, a small real lexer (see [`lexer`]) instead of the old
//! line-stripper — that enforces the repo-specific rules `clippy`
//! cannot express.
//!
//! ## Rule families
//!
//! * **Determinism** — `hashmap` (no std `HashMap`/`HashSet` in sim
//!   crates), `wallclock` (no `Instant::now`/`SystemTime`/
//!   `thread::spawn`/`thread_rng` in sim code).
//! * **Event-loop discipline** — `pollcq` (no raw `poll_cq` outside
//!   `cqdrain::drain_budgeted`; DESIGN.md §12), `armcq` (no
//!   `req_notify_cq` outside `cqdrain.rs`: a CQ is armed at creation and
//!   re-armed only by a drain that leaves nothing behind), `blocking` (no
//!   `thread::sleep`, real sockets, or file IO in sim crates),
//!   `handoff-site` (no `Context::handoff` outside the fabric's one
//!   notify site and `simcore` itself; DESIGN.md §24), `sync-in-sim`
//!   (no `std::sync` in sim crates: one thread by construction, so
//!   `Rc`/`Cell`/`RefCell`, not locked read-modify-writes), `io-free`
//!   (the protocol state machines `replmode.rs`, `replsink.rs` and
//!   `replsource.rs`, the command front ends `shard.rs` and `hotcache.rs`,
//!   and the owners `hostlinks.rs`, `nodelist.rs`, `commitgate.rs` and
//!   `egress.rs` name no `Net`, `Context`, `ConnTable`, `CorePool` or
//!   `Channel`: time comes in as a value and decisions go out as values,
//!   which is what lets them be unit-tested — and explored exhaustively —
//!   without a cluster; DESIGN.md §25, §26, §28, §31–§34).
//! * **Wire-format hygiene** — `cast-truncate` (no narrowing `as
//!   u8/u16/u32` casts in the frame codecs; use `try_from`),
//!   `index-unchecked` (no unchecked range indexing in the codecs; use
//!   `get(..)`), `unwrap` (no `.unwrap()`/`.expect(` on hot paths).
//! * **Drift detection** — `config-drift` (every `ClusterConfig`/`NetParams` knob must be referenced by an
//!   experiment arm, an example or a benchmark workload, or carry a
//!   reasoned allow), `knob-budget` (neither struct may grow past its
//!   field budget: a change adds a knob only by retiring one; DESIGN.md
//!   §27), `cmd-drift`
//!   (no command name from the store's `COMMANDS` table may be matched
//!   or compared in `crates/core/src`: what a command's arguments mean
//!   is read from its `CommandSpec`, not re-encoded per consumer).
//! * **Size** — `file-budget` (no file in `crates/core/src` over 800
//!   non-test code lines, the `--stats` count).
//! * **Allow audit** — `allow-syntax` (malformed or unknown-rule
//!   directives), `allow-unused` (a directive that no longer suppresses
//!   anything — the code it excused is gone).
//!
//! ## Escape hatch
//!
//! A justified exception is written on the offending line or the line
//! directly above it:
//!
//! ```text
//! // skv-lint: allow(hashmap) -- iteration order irrelevant: drained into a sorted Vec
//! ```
//!
//! The reason after `--` is mandatory; an allow without one is itself a
//! violation (`allow-syntax`), and an allow that suppresses nothing is
//! flagged (`allow-unused`), keeping every exception self-documenting
//! and alive. The `skv-lint:` marker is kept from the tool's previous
//! name so existing directives and docs stay valid.
//!
//! Test code is exempt everywhere: `#[cfg(test)]` items are skipped by
//! token-level brace tracking and `tests/` / `benches/` directories are
//! never scanned. Comments and string literal bodies are blanked by the
//! lexer before token matching, so prose about `HashMap` is fine.
//!
//! The binary (`cargo run -p skv-analyze`) walks `crates/` and
//! `examples/` under the workspace root, prints
//! `file:line: rule(<name>): <message>` (or `--format json`), and exits
//! non-zero when any error-severity violation is found. The mechanically
//! expressible subset of these rules is mirrored into `clippy.toml`
//! (`disallowed-types` / `disallowed-methods`); skv-analyze adds the
//! path scoping, the cross-file drift rules and the reasoned escape
//! hatch.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
// A lexer's whole job is slicing source text; every offset below comes
// from the lexer's own char-boundary walk, so the slices cannot split a
// UTF-8 character.
#![allow(clippy::string_slice)]

pub mod lexer;

pub use lexer::{lex, LexedLine};

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

// ===========================================================================
// Rule registry
// ===========================================================================

/// How severe a rule's findings are. Errors fail the run (exit 1);
/// warnings are reported and only fail under `--deny-warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Breaks an invariant the repo depends on.
    Error,
    /// Hygiene finding; fix soon but does not gate by default.
    Warning,
}

impl Severity {
    /// Lowercase name used in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One entry in the rule registry.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name, as used in diagnostics and `allow(...)`.
    pub name: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// One-line description for `--help` and the JSON report.
    pub summary: &'static str,
    /// Human-readable scope description.
    pub scope: &'static str,
}

/// The full rule registry.
pub const RULES: [RuleInfo; 17] = [
    RuleInfo {
        name: "hashmap",
        severity: Severity::Error,
        summary: "std HashMap/HashSet iterate in nondeterministic order",
        scope: "sim crates (netsim, simcore, core, store)",
    },
    RuleInfo {
        name: "wallclock",
        severity: Severity::Error,
        summary: "wall-clock time, OS threads or OS-seeded randomness",
        scope: "sim crates (netsim, simcore, core, store)",
    },
    RuleInfo {
        name: "unwrap",
        severity: Severity::Error,
        summary: "unwrap()/expect() on a protocol hot path",
        scope: "protocol hot-path files",
    },
    RuleInfo {
        name: "blocking",
        severity: Severity::Error,
        summary: "blocking call (sleep, real sockets, file IO) in sim code",
        scope: "sim crates (netsim, simcore, core, store)",
    },
    RuleInfo {
        name: "pollcq",
        severity: Severity::Error,
        summary: "raw poll_cq outside cqdrain::drain_budgeted",
        scope: "core and bench event loops (cqdrain.rs exempt)",
    },
    RuleInfo {
        name: "armcq",
        severity: Severity::Error,
        summary: "req_notify_cq outside cqdrain.rs",
        scope: "core and bench event loops (cqdrain.rs exempt)",
    },
    RuleInfo {
        name: "handoff-site",
        severity: Severity::Error,
        summary: "Context::handoff outside the fabric's one notify site",
        scope: "everywhere except netsim fabric.rs and simcore",
    },
    RuleInfo {
        name: "sync-in-sim",
        severity: Severity::Error,
        summary: "std::sync (Arc, Mutex, RwLock, atomics) in single-threaded sim code",
        scope: "sim crates (netsim, simcore, core, store)",
    },
    RuleInfo {
        name: "io-free",
        severity: Severity::Error,
        summary: "IO or cost type named in an IO-free state machine or command front end",
        scope: "core replmode, replsink, replsource, shard, hotcache, hostlinks, nodelist, \
                commitgate and egress",
    },
    RuleInfo {
        name: "cast-truncate",
        severity: Severity::Error,
        summary: "narrowing `as` cast in a frame codec; use try_from",
        scope: "wire-format files (protocol.rs, channel.rs, netsim rdma.rs)",
    },
    RuleInfo {
        name: "index-unchecked",
        severity: Severity::Error,
        summary: "unchecked range indexing in a frame codec; use get(..)",
        scope: "wire-format files (protocol.rs, channel.rs, netsim rdma.rs)",
    },
    RuleInfo {
        name: "config-drift",
        severity: Severity::Error,
        summary: "config knob not exercised by any experiment arm or benchmark workload",
        scope: "ClusterConfig and NetParams fields",
    },
    RuleInfo {
        name: "knob-budget",
        severity: Severity::Error,
        summary: "config struct has more public fields than its budget",
        scope: "ClusterConfig (19) and NetParams (15)",
    },
    RuleInfo {
        name: "cmd-drift",
        severity: Severity::Error,
        summary: "command name matched or compared outside the store's command table",
        scope: "core (names read from the cmd!( rows of store cmd/mod.rs)",
    },
    RuleInfo {
        name: "file-budget",
        severity: Severity::Error,
        summary: "file has more non-test code lines than its budget",
        scope: "core src (800 each)",
    },
    RuleInfo {
        name: "allow-syntax",
        severity: Severity::Error,
        summary: "malformed allow directive (unknown rule or missing reason)",
        scope: "everywhere",
    },
    RuleInfo {
        name: "allow-unused",
        severity: Severity::Warning,
        summary: "allow directive that no longer suppresses anything",
        scope: "everywhere",
    },
];

/// Look up a rule's severity (`allow-syntax` for unknown names, which
/// cannot happen for violations the analyzer itself emits).
pub fn severity_of(rule: &str) -> Severity {
    RULES
        .iter()
        .find(|r| r.name == rule)
        .map_or(Severity::Error, |r| r.severity)
}

fn known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

// ===========================================================================
// Scopes
// ===========================================================================

/// Crates whose `src/` trees are simulation code (rules `hashmap`,
/// `wallclock`, `blocking` and `sync-in-sim` apply). The store is one: it
/// runs inside every simulation, and its RNG and keyspace feed every pin.
const SIM_CRATE_PREFIXES: [&str; 4] = [
    "crates/netsim/src/",
    "crates/simcore/src/",
    "crates/core/src/",
    "crates/store/src/",
];

/// Protocol hot-path files (rule `unwrap` applies); an entry ending in `/`
/// covers every file under it. Every client command passes through the
/// store's RESP codec and a command handler.
const HOT_PATH_FILES: [&str; 22] = [
    "crates/store/src/cmd/",
    "crates/store/src/resp.rs",
    "crates/core/src/server.rs",
    "crates/core/src/client.rs",
    "crates/core/src/channel.rs",
    "crates/core/src/commitgate.rs",
    "crates/core/src/conns.rs",
    "crates/core/src/cqdrain.rs",
    "crates/core/src/egress.rs",
    "crates/core/src/hotcache.rs",
    "crates/core/src/nickv.rs",
    "crates/core/src/nodelist.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/replmode.rs",
    "crates/core/src/replsink.rs",
    "crates/core/src/replsource.rs",
    "crates/core/src/histcheck.rs",
    "crates/core/src/hostlinks.rs",
    "crates/core/src/link.rs",
    "crates/netsim/src/rdma.rs",
    "crates/netsim/src/tcp.rs",
    "crates/simcore/src/pool.rs",
];

/// Frame-codec files (rules `cast-truncate` and `index-unchecked`).
/// `hotcache.rs` qualifies through its reply-frame store: admission
/// slices incoming cookie-framed replies, so a malformed frame must
/// degrade to a miss, never a panic.
const WIRE_FILES: [&str; 4] = [
    "crates/core/src/protocol.rs",
    "crates/core/src/channel.rs",
    "crates/core/src/hotcache.rs",
    "crates/netsim/src/rdma.rs",
];

/// Trees whose event loops must drain completions through
/// `cqdrain::drain_budgeted` and arm CQs through `cqdrain` (rules `pollcq`
/// and `armcq`).
const EVENT_LOOP_PREFIXES: [&str; 3] = ["crates/core/src/", "crates/bench/src/", "examples/"];

/// The one file allowed to call `poll_cq` or `req_notify_cq` directly.
const CQDRAIN_FILE: &str = "crates/core/src/cqdrain.rs";

/// The one file outside `simcore` allowed to hand a message off (rule
/// `handoff-site`): every `CqNotify` leaves through its `fire_cq_notify`.
const HANDOFF_FILE: &str = "crates/netsim/src/fabric.rs";

/// The crate that defines the primitive (and so calls it).
const HANDOFF_HOME_PREFIX: &str = "crates/simcore/src/";

/// The IO-free protocol state machines, command front ends, the host's
/// link owner, the master's write gate and egress plan, and Nic-KV's node
/// list (rule `io-free`): the actors around them do the dialling, sending
/// and charging.
const IO_FREE_FILES: [&str; 9] = [
    "crates/core/src/commitgate.rs",
    "crates/core/src/egress.rs",
    "crates/core/src/hostlinks.rs",
    "crates/core/src/hotcache.rs",
    "crates/core/src/nodelist.rs",
    "crates/core/src/replmode.rs",
    "crates/core/src/replsink.rs",
    "crates/core/src/replsource.rs",
    "crates/core/src/shard.rs",
];

/// Config structs whose public fields are drift-checked knobs, each with
/// the most fields it may have (rule `knob-budget`).
const CONFIG_STRUCTS: [(&str, &str, usize); 2] = [
    ("crates/core/src/config.rs", "ClusterConfig", 19),
    ("crates/netsim/src/params.rs", "NetParams", 15),
];

/// The tree whose files are held to a code-line budget (rule
/// `file-budget`), and the budget: the same for every file.
const FILE_BUDGET_PREFIX: &str = "crates/core/src/";
const FILE_BUDGET: usize = 800;

/// The most non-test code lines `rel` may have, if it is budgeted.
fn line_budget(rel: &str) -> Option<usize> {
    rel.starts_with(FILE_BUDGET_PREFIX).then_some(FILE_BUDGET)
}

/// The command table whose `cmd!(` rows name the commands (rule
/// `cmd-drift`).
const CMD_TABLE_FILE: &str = "crates/store/src/cmd/mod.rs";

/// The tree that must consume the table instead of matching names.
const CMD_CONSUMER_PREFIX: &str = "crates/core/src/";

/// Trees that count as "an experiment or ablation arm references it"
/// for rule `config-drift`.
const REF_CORPUS_PREFIXES: [&str; 2] = ["crates/bench/src/", "examples/"];

/// The benchmark package counts too. It is outside the workspace, so it
/// is read for the identifiers it names and scanned by no rule.
const BENCHMARK_SRC: &str = "benchmark/src";

/// Directory names never descended into.
const SKIP_DIRS: [&str; 5] = ["target", "fixtures", "tests", "benches", ".git"];

/// Which rule families apply to a workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scope {
    sim: bool,
    hot: bool,
    wire: bool,
    event_loop: bool,
    handoff_guarded: bool,
    io_free: bool,
}

fn scope_of(rel: &str) -> Scope {
    Scope {
        sim: SIM_CRATE_PREFIXES.iter().any(|p| rel.starts_with(p)),
        hot: HOT_PATH_FILES
            .iter()
            .any(|p| rel == *p || (p.ends_with('/') && rel.starts_with(p))),
        wire: WIRE_FILES.contains(&rel),
        event_loop: rel != CQDRAIN_FILE && EVENT_LOOP_PREFIXES.iter().any(|p| rel.starts_with(p)),
        handoff_guarded: rel != HANDOFF_FILE && !rel.starts_with(HANDOFF_HOME_PREFIX),
        io_free: IO_FREE_FILES.contains(&rel),
    }
}

fn rule_applies(rule: &str, scope: Scope) -> bool {
    match rule {
        "hashmap" | "wallclock" | "blocking" | "sync-in-sim" => scope.sim,
        "unwrap" => scope.hot,
        "pollcq" | "armcq" => scope.event_loop,
        "handoff-site" => scope.handoff_guarded,
        "io-free" => scope.io_free,
        _ => false,
    }
}

// ===========================================================================
// Diagnostics
// ===========================================================================

/// One diagnostic: a rule violated at a specific file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (see [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation with the offending token.
    pub message: String,
}

impl Violation {
    /// The violated rule's severity.
    pub fn severity(&self) -> Severity {
        severity_of(self.rule)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: rule({}): {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

// ===========================================================================
// Token patterns
// ===========================================================================

/// A token pattern belonging to a rule.
struct Pattern {
    needle: &'static str,
    /// Require identifier boundaries around the match (so `DetHashMap`
    /// or `unwrap_or` never match).
    ident: bool,
    rule: &'static str,
    message: &'static str,
}

/// Shared by both spellings of the call.
const HANDOFF_MESSAGE: &str = "handoff outside NetInner::fire_cq_notify; the primitive has one \
                               proven call site (its order argument is made there, DESIGN.md \
                               §24) — use Context::send";

/// Shared by the five types the rule names.
const IO_FREE_MESSAGE: &str = "IO or cost type in an IO-free state machine; take time as `now: \
                               SimTime`, return decisions as values, and leave dialling, sending \
                               and CPU charging to the actor (DESIGN.md §25, §26, §28)";

const PATTERNS: [Pattern; 21] = [
    Pattern {
        needle: "HashMap",
        ident: true,
        rule: "hashmap",
        message: "std HashMap iterates in nondeterministic order in sim code; \
                  use BTreeMap or skv_netsim::DetMap",
    },
    Pattern {
        needle: "HashSet",
        ident: true,
        rule: "hashmap",
        message: "std HashSet iterates in nondeterministic order in sim code; \
                  use BTreeSet or skv_netsim::DetSet",
    },
    Pattern {
        needle: "Instant::now",
        ident: true,
        rule: "wallclock",
        message: "wall-clock read in sim code; take time from Context::now()",
    },
    Pattern {
        needle: "SystemTime",
        ident: true,
        rule: "wallclock",
        message: "wall-clock read in sim code; take time from Context::now()",
    },
    Pattern {
        needle: "thread::spawn",
        ident: true,
        rule: "wallclock",
        message: "OS threads break deterministic replay; model concurrency as actors",
    },
    Pattern {
        needle: "thread_rng",
        ident: true,
        rule: "wallclock",
        message: "OS-seeded randomness in sim code; split a DetRng instead",
    },
    Pattern {
        needle: ".unwrap()",
        ident: false,
        rule: "unwrap",
        message: "unwrap() on a protocol hot path; convert to a typed error \
                  or completion-with-error",
    },
    Pattern {
        needle: ".expect(",
        ident: false,
        rule: "unwrap",
        message: "expect() on a protocol hot path; convert to a typed error \
                  or completion-with-error",
    },
    Pattern {
        needle: "thread::sleep",
        ident: true,
        rule: "blocking",
        message: "blocking sleep in sim code; schedule a Context::timer instead",
    },
    Pattern {
        needle: "std::net::",
        ident: true,
        rule: "blocking",
        message: "real-socket IO in sim code; all transport goes through skv_netsim::Net",
    },
    Pattern {
        needle: "std::fs::",
        ident: true,
        rule: "blocking",
        message: "blocking file IO in sim code; simulation state must stay in memory",
    },
    Pattern {
        needle: ".poll_cq(",
        ident: false,
        rule: "pollcq",
        message: "raw CQ poll outside cqdrain::drain_budgeted; completion drains \
                  must be budgeted so one burst cannot monopolise the event loop \
                  (DESIGN.md §12)",
    },
    Pattern {
        needle: ".handoff(",
        ident: false,
        rule: "handoff-site",
        message: HANDOFF_MESSAGE,
    },
    Pattern {
        needle: "std::sync::",
        ident: true,
        rule: "sync-in-sim",
        message: "thread synchronisation in sim code; the simulation is one thread by \
                  construction — use Rc / Cell / RefCell (a locked read-modify-write is a \
                  full fence the event loop pays for nothing)",
    },
    Pattern {
        needle: "Net",
        ident: true,
        rule: "io-free",
        message: IO_FREE_MESSAGE,
    },
    Pattern {
        needle: "Context",
        ident: true,
        rule: "io-free",
        message: IO_FREE_MESSAGE,
    },
    Pattern {
        needle: "ConnTable",
        ident: true,
        rule: "io-free",
        message: IO_FREE_MESSAGE,
    },
    Pattern {
        needle: "CorePool",
        ident: true,
        rule: "io-free",
        message: IO_FREE_MESSAGE,
    },
    Pattern {
        needle: "Channel",
        ident: true,
        rule: "io-free",
        message: IO_FREE_MESSAGE,
    },
    Pattern {
        needle: ".poll_cq_into(",
        ident: false,
        rule: "pollcq",
        message: "raw CQ poll outside cqdrain::drain_budgeted; completion drains \
                  must be budgeted so one burst cannot monopolise the event loop \
                  (DESIGN.md §12)",
    },
    Pattern {
        needle: ".req_notify_cq(",
        ident: false,
        rule: "armcq",
        message: "CQ armed outside cqdrain; create it with cqdrain::create_armed and \
                  leave re-arming to the drain, which arms only when a poll leaves \
                  nothing behind (DESIGN.md §12.3)",
    },
];

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Find `needle` in `haystack` respecting identifier boundaries when
/// `ident` is set. Returns the byte offset of the first match.
fn find_token(haystack: &str, needle: &str, ident: bool) -> Option<usize> {
    // A boundary is only demanded on a side where the needle itself ends in
    // an identifier char: `std::net::` must match `std::net::TcpStream`, but
    // `thread_rng` must not match `thread_rng_like`.
    let needs_before = ident && needle.chars().next().is_some_and(is_ident_char);
    let needs_after = ident && needle.chars().next_back().is_some_and(is_ident_char);
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let pos = from + pos;
        if !ident {
            return Some(pos);
        }
        let before_ok = !needs_before
            || haystack[..pos]
                .chars()
                .next_back()
                .is_none_or(|c| !is_ident_char(c));
        let after_ok = !needs_after
            || haystack[pos + needle.len()..]
                .chars()
                .next()
                .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return Some(pos);
        }
        from = pos + needle.len();
    }
    None
}

/// Iterate the identifiers of a blanked code line as `(offset, ident)`.
/// Runs that start with a digit (numeric literals like `0u32`) are
/// consumed without being reported.
fn idents(code: &str) -> Vec<(usize, &str)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push((start, &code[start..i]));
        } else if b.is_ascii_digit() {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Byte offsets of narrowing `as u8`/`as u16`/`as u32` casts. Widening
/// casts (`as u64`, `as usize`) are not flagged: the codecs' real risk
/// is silent truncation of lengths and offsets.
fn truncating_casts(code: &str) -> Vec<(usize, &'static str)> {
    let ids = idents(code);
    let mut out = Vec::new();
    for pair in ids.windows(2) {
        let (a_off, a) = pair[0];
        let (b_off, b) = pair[1];
        if a != "as" {
            continue;
        }
        if !code[a_off + 2..b_off].trim().is_empty() {
            continue;
        }
        let target = match b {
            "u8" => "u8",
            "u16" => "u16",
            "u32" => "u32",
            _ => continue,
        };
        out.push((b_off, target));
    }
    out
}

/// Byte offsets of range-indexing expressions (`buf[a..b]`, `&x[p..]`)
/// applied to a value (identifier, call or index result). Per-line best
/// effort: an index bracket that spans lines is not matched.
fn unchecked_range_indexing(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let Some(prev) = code[..i].trim_end().chars().next_back() else {
            continue;
        };
        if !(is_ident_char(prev) || prev == ')' || prev == ']') {
            continue;
        }
        let mut depth = 1usize;
        let mut j = i + 1;
        while j < bytes.len() && depth > 0 {
            match bytes[j] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if depth != 0 {
            continue;
        }
        if code[i + 1..j - 1].contains("..") {
            out.push(i);
        }
    }
    out
}

/// Contents of the byte-string literals on one line that sit in a
/// comparing position: a `match`/`matches!` pattern (followed by `=>` or
/// joined by `|`), an operand of `==`/`!=`, or the argument of
/// `eq_ignore_ascii_case`. A literal merely passed along (`sink.arg(b"GET")`
/// builds a command, it compares nothing) is not reported. `raw` is the
/// source line, `code` its blanked twin; per-line best effort.
fn compared_byte_literals(raw: &str, code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = raw[from..].find("b\"").map(|p| from + p) {
        from = pos + 2;
        // A literal opens here only if the lexer kept the `b` as code and
        // blanked the quote; inside a comment or string both are blank.
        let opens = code.as_bytes().get(pos..pos + 2) == Some(b"b ".as_slice())
            && code[..pos]
                .chars()
                .next_back()
                .is_none_or(|c| !is_ident_char(c));
        let Some(len) = raw[from..].find('"').filter(|_| opens) else {
            continue;
        };
        let (before, after) = (code[..pos].trim_end(), code[from + len + 1..].trim_start());
        // One `|` joins pattern alternatives; `||` is boolean or.
        let alternative = (after.starts_with('|') && !after.starts_with("||"))
            || (before.ends_with('|') && !before.ends_with("||"));
        let compares = ["==", "!="];
        if after.starts_with("=>")
            || alternative
            || compares
                .iter()
                .any(|op| after.starts_with(op) || before.ends_with(op))
            || before.ends_with("eq_ignore_ascii_case(")
            || (before.ends_with(',') && code.contains("matches!("))
        {
            out.push(raw[from..from + len].to_string());
        }
        from += len + 1;
    }
    out
}

// ===========================================================================
// Allow directives
// ===========================================================================

/// A well-formed `// skv-lint: allow(rule, ...) -- reason` directive.
#[derive(Debug, Clone)]
struct Allow {
    /// Line the directive is written on.
    line: usize,
    /// Line whose findings it suppresses (itself, or the next line for a
    /// standalone directive).
    covers: usize,
    rules: Vec<String>,
    /// Findings suppressed so far; zero at the end means `allow-unused`.
    hits: usize,
}

const ALLOW_MARKER: &str = "skv-lint: allow(";

/// Parse a directive from a line comment (`comment` starts at `//`).
/// Doc comments (`///`, `//!`) are prose and never carry directives, so
/// the analyzer's own documentation can discuss the syntax freely.
/// Returns `None` when there is no directive, `Some(Err(_))` when it is
/// malformed.
fn parse_allow(comment: &str) -> Option<Result<Vec<String>, &'static str>> {
    if comment.starts_with("///") || comment.starts_with("//!") {
        return None;
    }
    let marker = comment.find(ALLOW_MARKER)?;
    let rest = &comment[marker + ALLOW_MARKER.len()..];
    let Some(close) = rest.find(')') else {
        return Some(Err("unterminated allow(...) directive"));
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() || rules.iter().any(|r| !known_rule(r)) {
        return Some(Err(
            "allow(...) must name known rules (run with --help for the list)",
        ));
    }
    let after = rest[close + 1..].trim_start();
    let reason_ok = after
        .strip_prefix("--")
        .is_some_and(|r| !r.trim().is_empty());
    if !reason_ok {
        return Some(Err("allow(...) requires a justification: `-- <reason>`"));
    }
    Some(Ok(rules))
}

/// Record a suppression: returns true (and counts the hit) when an
/// allow directive covers `line` for `rule`.
fn suppress(allows: &mut [Allow], line: usize, rule: &str) -> bool {
    for a in allows.iter_mut() {
        if a.covers == line && a.rules.iter().any(|r| r == rule) {
            a.hits += 1;
            return true;
        }
    }
    false
}

// ===========================================================================
// Per-file analysis (pass 1)
// ===========================================================================

/// Cross-file facts gathered while scanning one file.
#[derive(Debug, Default)]
struct Facts {
    /// Public config-struct fields (config.rs / params.rs): (line, name).
    knob_defs: Vec<(usize, String)>,
    /// All identifiers in the experiment/ablation reference corpus.
    ref_idents: BTreeSet<String>,
    /// Command names on the table's `cmd!(` rows (cmd/mod.rs only).
    cmd_names: Vec<String>,
    /// Byte-string literals compared or matched in core: (line, literal).
    cmd_compares: Vec<(usize, String)>,
}

/// Result of scanning one file.
struct FileAnalysis {
    violations: Vec<Violation>,
    facts: Facts,
    allows: Vec<Allow>,
    /// Lines that still hold code once comments, blanks and
    /// `#[cfg(test)]` items are stripped (the `--stats` size measure).
    code_lines: usize,
}

/// Collect the public fields of `struct_name` from blanked code lines.
fn collect_pub_fields(lines: &[LexedLine], struct_name: &str) -> Vec<(usize, String)> {
    let needle = format!("pub struct {struct_name}");
    let mut out = Vec::new();
    let mut inside = false;
    let mut depth = 0usize;
    for (idx, l) in lines.iter().enumerate() {
        let code = l.code.as_str();
        if !inside {
            let Some(p) = code.find(&needle) else {
                continue;
            };
            let boundary_ok = code[p + needle.len()..]
                .chars()
                .next()
                .is_none_or(|c| !is_ident_char(c));
            if !boundary_ok {
                continue;
            }
            depth = code[p..].matches('{').count();
            depth = depth.saturating_sub(code[p..].matches('}').count());
            inside = depth > 0 || !code[p..].contains('{');
            continue;
        }
        if depth == 1 {
            let trimmed = code.trim_start();
            if let Some(rest) = trimmed.strip_prefix("pub ") {
                let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
                if !name.is_empty() && rest[name.len()..].trim_start().starts_with(':') {
                    out.push((idx + 1, name));
                }
            }
        }
        depth += code.matches('{').count();
        depth = depth.saturating_sub(code.matches('}').count());
        if depth == 0 {
            inside = false;
        }
    }
    out
}

fn analyze_file(rel: &str, contents: &str) -> FileAnalysis {
    let lines = lex(contents);
    let scope = scope_of(rel);
    let mut violations = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();
    let mut facts = Facts::default();

    // --- allow directives (test lines exempt, like everything else) ---
    for (idx, l) in lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let Some((at, text)) = &l.comment else {
            continue;
        };
        match parse_allow(text) {
            None => {}
            Some(Err(err)) => violations.push(Violation {
                file: rel.to_string(),
                line: idx + 1,
                rule: "allow-syntax",
                message: err.to_string(),
            }),
            Some(Ok(rules)) => {
                let standalone = l.code[..*at].trim().is_empty();
                allows.push(Allow {
                    line: idx + 1,
                    covers: if standalone { idx + 2 } else { idx + 1 },
                    rules,
                    hits: 0,
                });
            }
        }
    }

    // --- token rules --------------------------------------------------
    for (idx, l) in lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let lineno = idx + 1;
        let code = l.code.as_str();
        for p in &PATTERNS {
            if !rule_applies(p.rule, scope) {
                continue;
            }
            if find_token(code, p.needle, p.ident).is_none() {
                continue;
            }
            if !suppress(&mut allows, lineno, p.rule) {
                violations.push(Violation {
                    file: rel.to_string(),
                    line: lineno,
                    rule: p.rule,
                    message: format!("`{}`: {}", p.needle.trim_start_matches('.'), p.message),
                });
            }
        }
        if scope.wire {
            for (_, target) in truncating_casts(code) {
                if !suppress(&mut allows, lineno, "cast-truncate") {
                    violations.push(Violation {
                        file: rel.to_string(),
                        line: lineno,
                        rule: "cast-truncate",
                        message: format!(
                            "narrowing `as {target}` cast in a frame codec silently \
                             truncates lengths/offsets; use {target}::try_from with a \
                             typed error"
                        ),
                    });
                }
            }
            if !unchecked_range_indexing(code).is_empty()
                && !suppress(&mut allows, lineno, "index-unchecked")
            {
                violations.push(Violation {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "index-unchecked",
                    message: "unchecked range indexing in a frame codec panics on a \
                              malformed frame; use .get(range) and handle None"
                        .to_string(),
                });
            }
        }
    }

    // --- cross-file facts ---------------------------------------------
    if rel == CMD_TABLE_FILE {
        let rows = lines
            .iter()
            .filter(|l| !l.in_test && l.code.contains("cmd!("));
        facts.cmd_names = rows.filter_map(|l| l.strings.first().cloned()).collect();
    } else if rel.starts_with(CMD_CONSUMER_PREFIX) {
        for (idx, (l, raw)) in lines.iter().zip(contents.lines()).enumerate() {
            if !l.in_test {
                let found = compared_byte_literals(raw, &l.code);
                facts
                    .cmd_compares
                    .extend(found.into_iter().map(|lit| (idx + 1, lit)));
            }
        }
    }
    if REF_CORPUS_PREFIXES.iter().any(|p| rel.starts_with(p)) {
        // Include `#[cfg(test)]` lines here: a knob a bench test sweeps
        // is still exercised.
        for l in &lines {
            for (_, id) in idents(&l.code) {
                facts.ref_idents.insert(id.to_string());
            }
        }
    }
    for (file, struct_name, _) in CONFIG_STRUCTS {
        if rel == file {
            facts.knob_defs = collect_pub_fields(&lines, struct_name);
        }
    }

    // --- file-budget: the `--stats` count against the file's budget ---
    let code: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.in_test && !l.code.trim().is_empty())
        .map(|(idx, _)| idx + 1)
        .collect();
    if let Some(budget) = line_budget(rel) {
        if let Some(&line) = code.get(budget) {
            violations.push(Violation {
                file: rel.to_string(),
                line,
                rule: "file-budget",
                message: format!(
                    "{} non-test code lines, budget {budget}: this is the first line past \
                     it. Delete code or give a decision an IO-free owner; do not split the \
                     file (DESIGN.md §14.1)",
                    code.len()
                ),
            });
        }
    }
    FileAnalysis {
        violations,
        facts,
        allows,
        code_lines: code.len(),
    }
}

/// Scan one file's contents with the file-scoped rules; `rel` is the
/// workspace-relative path used for scoping and diagnostics. Cross-file
/// rules (`config-drift`, `cmd-drift`, `allow-unused`) need the
/// whole workspace and only fire from [`analyze_workspace`].
pub fn check_source(rel: &str, contents: &str) -> Vec<Violation> {
    analyze_file(rel, contents).violations
}

// ===========================================================================
// Workspace analysis (pass 2)
// ===========================================================================

/// Result of a whole-workspace run.
#[derive(Debug)]
pub struct Analysis {
    /// All findings, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Non-test code lines per scanned file, in path order: lines that
    /// still hold code after the lexer blanked comments and literal
    /// bodies, outside every `#[cfg(test)]` item. Moving code between
    /// files, reflowing comments or growing tests changes no total.
    pub code_lines: Vec<(String, usize)>,
    /// Public field count of each drift-checked config struct.
    pub config_fields: Vec<(&'static str, usize)>,
}

impl Analysis {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.violations.len() - self.errors()
    }
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort(); // deterministic diagnostic order
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            walk(&path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Analyze every non-test `.rs` file under `<root>/crates/` and
/// `<root>/examples/`, then run the cross-file drift and allow-audit
/// rules.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let crates = root.join("crates");
    if !crates.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a workspace root (no crates/)", root.display()),
        ));
    }
    let mut files = Vec::new();
    walk(&crates, &mut files)?;
    let examples = root.join("examples");
    if examples.is_dir() {
        walk(&examples, &mut files)?;
    }

    let mut per_file: Vec<(String, FileAnalysis)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let contents = fs::read_to_string(path)?;
        per_file.push((rel.clone(), analyze_file(&rel, &contents)));
    }

    let mut violations: Vec<Violation> = Vec::new();

    fn allows_of<'a>(
        per_file: &'a mut [(String, FileAnalysis)],
        file: &str,
    ) -> Option<&'a mut Vec<Allow>> {
        per_file
            .iter_mut()
            .find(|(rel, _)| rel == file)
            .map(|(_, fa)| &mut fa.allows)
    }

    // --- config-drift --------------------------------------------------
    let mut ref_idents: BTreeSet<String> = per_file
        .iter()
        .flat_map(|(_, fa)| fa.facts.ref_idents.iter().cloned())
        .collect();
    let mut benchmark_files = Vec::new();
    let benchmark = root.join(BENCHMARK_SRC);
    if benchmark.is_dir() {
        walk(&benchmark, &mut benchmark_files)?;
    }
    for path in &benchmark_files {
        for l in lex(&fs::read_to_string(path)?) {
            ref_idents.extend(idents(&l.code).into_iter().map(|(_, id)| id.to_string()));
        }
    }
    let knob_files: Vec<String> = per_file
        .iter()
        .filter(|(_, fa)| !fa.facts.knob_defs.is_empty())
        .map(|(rel, _)| rel.clone())
        .collect();
    for file in knob_files {
        let knobs = per_file
            .iter()
            .find(|(rel, _)| *rel == file)
            .map(|(_, fa)| fa.facts.knob_defs.clone())
            .unwrap_or_default();
        for (line, knob) in knobs {
            if ref_idents.contains(&knob) {
                continue;
            }
            let suppressed = allows_of(&mut per_file, &file)
                .is_some_and(|allows| suppress(allows, line, "config-drift"));
            if !suppressed {
                violations.push(Violation {
                    file: file.clone(),
                    line,
                    rule: "config-drift",
                    message: format!(
                        "config knob `{knob}` is not referenced by any experiment arm, \
                         example or benchmark workload (crates/bench, examples, \
                         benchmark/src); wire it into one or add \
                         `// skv-lint: allow(config-drift) -- <reason>`"
                    ),
                });
            }
        }
    }

    // --- knob-budget ---------------------------------------------------
    for (file, struct_name, budget) in CONFIG_STRUCTS {
        let knobs = per_file
            .iter()
            .find(|(rel, _)| rel == file)
            .map_or(&[][..], |(_, fa)| &fa.facts.knob_defs[..]);
        if let Some((line, knob)) = knobs.get(budget) {
            violations.push(Violation {
                file: file.to_string(),
                line: *line,
                rule: "knob-budget",
                message: format!(
                    "`{struct_name}` has {} public fields, budget {budget}: `{knob}` is one \
                     too many. A knob needs two non-test callers that want different \
                     values; make it a constant or retire another (DESIGN.md §27)",
                    knobs.len()
                ),
            });
        }
    }

    // --- cmd-drift -----------------------------------------------------
    let cmd_names: BTreeSet<String> = per_file
        .iter()
        .flat_map(|(_, fa)| fa.facts.cmd_names.iter().cloned())
        .collect();
    for (rel, fa) in &mut per_file {
        for (line, literal) in &fa.facts.cmd_compares {
            if cmd_names.contains(literal) && !suppress(&mut fa.allows, *line, "cmd-drift") {
                violations.push(Violation {
                    file: rel.clone(),
                    line: *line,
                    rule: "cmd-drift",
                    message: format!(
                        "command name `{literal}` matched outside the command table; \
                         read what its arguments mean from `CommandSpec` (key spec, \
                         route, flags) so the copies cannot drift"
                    ),
                });
            }
        }
    }

    // --- file-scoped findings and allow audit -------------------------
    for (_, fa) in &per_file {
        violations.extend(fa.violations.iter().cloned());
    }
    for (rel, fa) in &per_file {
        for a in &fa.allows {
            if a.hits == 0 {
                violations.push(Violation {
                    file: rel.clone(),
                    line: a.line,
                    rule: "allow-unused",
                    message: format!(
                        "allow({}) suppresses nothing; the code it excused is gone \
                         — remove the stale directive",
                        a.rules.join(", ")
                    ),
                });
            }
        }
    }

    violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    let config_fields = CONFIG_STRUCTS
        .iter()
        .map(|&(file, name, _)| {
            let fields = per_file
                .iter()
                .find(|(rel, _)| rel == file)
                .map_or(0, |(_, fa)| fa.facts.knob_defs.len());
            (name, fields)
        })
        .collect();
    Ok(Analysis {
        violations,
        files_scanned: files.len(),
        code_lines: per_file
            .iter()
            .map(|(rel, fa)| (rel.clone(), fa.code_lines))
            .collect(),
        config_fields,
    })
}

/// Back-compatible entry point: analyze the workspace and return the
/// findings only.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    analyze_workspace(root).map(|a| a.violations)
}

// ===========================================================================
// Size statistics (`--stats`)
// ===========================================================================

/// Render the `--stats` table: non-test code lines per file, a subtotal
/// per source directory, and the public field count of each config
/// struct — the one way "net negative" is measured in this repo.
pub fn stats_table(analysis: &Analysis) -> String {
    let mut out =
        String::from("non-test code lines (comments, blank lines and cfg(test) items stripped)\n");
    let mut dirs: BTreeMap<&str, usize> = BTreeMap::new();
    for (file, lines) in &analysis.code_lines {
        out.push_str(&format!("{lines:>7}  {file}\n"));
        let dir = file.rfind('/').map_or("", |at| &file[..at]);
        *dirs.entry(dir).or_default() += lines;
    }
    out.push_str("per directory\n");
    for (dir, lines) in &dirs {
        out.push_str(&format!("{lines:>7}  {dir}/\n"));
    }
    out.push_str("public config fields\n");
    for (name, fields) in &analysis.config_fields {
        out.push_str(&format!("{fields:>7}  {name}\n"));
    }
    out
}

// ===========================================================================
// JSON output
// ===========================================================================

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an [`Analysis`] as the machine-readable report consumed by CI
/// (`--format json`). Hand-rolled: the analyzer is zero-dependency by
/// design. Schema documented in DESIGN.md §14.
pub fn to_json(analysis: &Analysis) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"tool\": \"skv-analyze\",\n  \"rules\": [\n");
    for (i, r) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"severity\": \"{}\", \"summary\": \"{}\", \"scope\": \"{}\"}}{}\n",
            r.name,
            r.severity.as_str(),
            json_escape(r.summary),
            json_escape(r.scope),
            if i + 1 < RULES.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"errors\": {},\n  \"warnings\": {},\n",
        analysis.files_scanned,
        analysis.errors(),
        analysis.warnings()
    ));
    out.push_str("  \"violations\": [\n");
    for (i, v) in analysis.violations.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\"}}{}\n",
            json_escape(&v.file),
            v.line,
            v.rule,
            v.severity().as_str(),
            json_escape(&v.message),
            if i + 1 < analysis.violations.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ===========================================================================
// Tests
// ===========================================================================

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_boundaries() {
        assert!(find_token("use std::collections::HashMap;", "HashMap", true).is_some());
        assert!(find_token("DetHashMap", "HashMap", true).is_none());
        assert!(find_token("HashMapLike", "HashMap", true).is_none());
        assert!(find_token("x.unwrap()", ".unwrap()", false).is_some());
        assert!(find_token("x.unwrap_or(0)", ".unwrap()", false).is_none());
    }

    #[test]
    fn strings_and_comments_are_ignored() {
        let v = check_source(
            "crates/core/src/server.rs",
            "fn f() { let s = \"call .unwrap() here\"; } // .unwrap()\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn raw_strings_are_ignored() {
        let v = check_source(
            "crates/core/src/server.rs",
            "fn f() { let s = r#\"x.unwrap() and HashMap\"#; }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn scope_excludes_other_crates() {
        let v = check_source(
            "crates/bench/src/experiments.rs",
            "use std::collections::HashMap;\n",
        );
        assert!(v.is_empty());
        // The store runs inside every simulation: it is sim code, and its
        // command handlers and RESP codec are on the client's hot path.
        let v = check_source(
            "crates/store/src/dict.rs",
            "use std::collections::HashMap;\n",
        );
        assert_eq!(v.iter().map(|x| x.rule).collect::<Vec<_>>(), ["hashmap"]);
        for hot in ["crates/store/src/cmd/zset.rs", "crates/store/src/resp.rs"] {
            let v = check_source(hot, "fn f() { x.unwrap(); }\n");
            assert_eq!(
                v.iter().map(|x| x.rule).collect::<Vec<_>>(),
                ["unwrap"],
                "{hot}"
            );
        }
        assert!(check_source("crates/store/src/dict.rs", "fn f() { x.unwrap(); }\n").is_empty());
    }

    #[test]
    fn allow_requires_reason() {
        let src = "use std::collections::HashMap; // skv-lint: allow(hashmap)\n";
        let v = check_source("crates/core/src/server.rs", src);
        assert_eq!(v.len(), 2, "{v:?}"); // malformed allow + the violation
        assert!(v.iter().any(|x| x.rule == "allow-syntax"));
        assert!(v.iter().any(|x| x.rule == "hashmap"));
    }

    #[test]
    fn allow_with_reason_suppresses_same_line_and_next_line() {
        let same = "use std::collections::HashMap; // skv-lint: allow(hashmap) -- doc example\n";
        assert!(check_source("crates/core/src/server.rs", same).is_empty());
        let next = "// skv-lint: allow(unwrap) -- invariant: queue non-empty\nq.pop().unwrap();\n";
        assert!(check_source("crates/core/src/server.rs", next).is_empty());
        // ...but only the next line, not the one after.
        let stale = "// skv-lint: allow(unwrap) -- reason\nlet x = 1;\nq.pop().unwrap();\n";
        assert_eq!(check_source("crates/core/src/server.rs", stale).len(), 1);
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let m: HashMap<u8, u8> = HashMap::new(); assert!(m.is_empty()); }
}
";
        assert!(check_source("crates/netsim/src/fabric.rs", src).is_empty());
    }

    #[test]
    fn pollcq_scope() {
        let src = "fn f(net: &Net, cq: CqId) { let wcs = net.poll_cq(cq, 8); }\n";
        let v = check_source("crates/core/src/nickv.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "pollcq");
        // The caller-buffer form is the same raw poll.
        let into = "fn f(net: &Net, cq: CqId, b: &mut Vec<Wc>) { net.poll_cq_into(cq, 8, b); }\n";
        let v = check_source("crates/core/src/server.rs", into);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "pollcq");
        // cqdrain.rs is the sanctioned home of the raw poll.
        assert!(check_source("crates/core/src/cqdrain.rs", src).is_empty());
        // Out-of-scope crates are not event loops.
        assert!(check_source("crates/store/src/db.rs", src).is_empty());
    }

    #[test]
    fn armcq_scope() {
        let src =
            "fn f(net: &Net, ctx: &mut Context<'_>, cq: CqId) { net.req_notify_cq(ctx, cq); }\n";
        for file in [
            "crates/core/src/server.rs",
            "crates/bench/src/experiments.rs",
            "examples/quickstart.rs",
        ] {
            let v = check_source(file, src);
            assert_eq!(v.len(), 1, "{file}: {v:?}");
            assert_eq!(v[0].rule, "armcq");
        }
        // cqdrain.rs owns arming; the fabric defines the verb.
        assert!(check_source("crates/core/src/cqdrain.rs", src).is_empty());
        assert!(check_source("crates/netsim/src/rdma.rs", src).is_empty());
        // The helper every event loop creates its CQs with is not a raw arm.
        let ok = "fn f(net: &Net, ctx: &mut Context<'_>) { let cq = cqdrain::create_armed(net, ctx); }\n";
        assert!(check_source("crates/core/src/nickv.rs", ok).is_empty());
    }

    #[test]
    fn handoff_site_scope() {
        let src = "fn f(ctx: &mut Context<'_>, to: ActorId) { ctx.handoff(to, Tick); }\n";
        for file in ["crates/core/src/nickv.rs", "crates/netsim/src/rdma.rs"] {
            let v = check_source(file, src);
            assert_eq!(v.len(), 1, "{file}: {v:?}");
            assert_eq!(v[0].rule, "handoff-site");
        }
        let v = check_source("examples/quickstart.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "handoff-site");
        // The fabric's notify site and the defining crate are exempt.
        assert!(check_source("crates/netsim/src/fabric.rs", src).is_empty());
        assert!(check_source("crates/simcore/src/actor.rs", src).is_empty());
        // A field or a definition of that name is not a call.
        let field = "fn f(s: &mut Simulation) { let h = s.handoff.take(); }\n";
        assert!(check_source("crates/core/src/nickv.rs", field).is_empty());
    }

    #[test]
    fn io_free_scope() {
        let src = "use skv_netsim::Net;\nfn f(ctx: &mut Context<'_>, cpu: &mut CorePool) {}\n\
                   fn g(t: &ConnTable<()>, ch: &Channel) {}\n";
        for file in IO_FREE_FILES {
            let v = check_source(file, src);
            assert_eq!(v.len(), 5, "{file}: {v:?}");
            assert!(v.iter().all(|x| x.rule == "io-free"));
        }
        // The actors around the state machines are made of exactly these.
        assert!(check_source("crates/core/src/server.rs", src).is_empty());
        assert!(check_source("crates/core/src/nickv.rs", src).is_empty());
        // Longer names, plain data from the same crates and time as a value
        // are what the state machines are built from.
        let ok = "use skv_netsim::{Frame, NetEvent, QpId};\nuse crate::channel::RING_SIZE;\n\
                  fn f(now: SimTime, msg: &ChannelMsg, nets: usize) {}\n";
        assert!(check_source("crates/core/src/replsink.rs", ok).is_empty());
        // What the master's half is built from: the store's plain data, the
        // wire enum, time as a value.
        let ok = "use skv_store::backlog::Backlog;\nuse crate::protocol::{tag, NodeMsg};\n\
                  fn f(now: SimTime, conn_open: bool, open: impl Iterator<Item = SocketAddr>) {}\n";
        assert!(check_source("crates/core/src/replsource.rs", ok).is_empty());
        // What the two command front ends are built from: the store's
        // engines and command table, a frame pool, time as a value.
        let ok = "use skv_simcore::{Frame, FramePool, SimDuration};
use skv_store::engine::Engine;
                  fn f(now_ms: u64, spec: Option<&CommandSpec>, conn: usize, nets: &[Engine]) {}
";
        assert!(check_source("crates/core/src/shard.rs", ok).is_empty());
        assert!(check_source("crates/core/src/hotcache.rs", ok).is_empty());
        // What the master's write gate is built from: a frame, a queue, an
        // open-connection predicate and a census closure.
        let ok = "use std::collections::VecDeque;\nuse skv_netsim::Frame;\n\
                  fn f(open: impl Fn(usize) -> bool, own_slaves: impl FnOnce() -> usize) {}\n";
        assert!(check_source("crates/core/src/commitgate.rs", ok).is_empty());
        // What the egress plan is built from: the fabric's cost parameters
        // (a longer name than `Net`), a frame pool, a Nic-KV lookup and the
        // synced slaves as values.
        let ok = "use skv_netsim::NetParams;\nuse skv_simcore::{FramePool, SimTime};\n\
                  fn f(nic: impl FnOnce() -> Option<usize>, slaves: impl Iterator<Item = usize>) {}\n";
        assert!(check_source("crates/core/src/egress.rs", ok).is_empty());
        // Hot path too: a sync decision must not panic on a peer's input.
        let v = check_source("crates/core/src/replsource.rs", "fn f() { x.unwrap(); }\n");
        assert_eq!(v.iter().map(|x| x.rule).collect::<Vec<_>>(), ["unwrap"]);
    }

    #[test]
    fn sync_in_sim_scope() {
        let src = "use std::sync::{Arc, Mutex};\nstatic N: std::sync::atomic::AtomicU64 = X;\n";
        let v = check_source("crates/simcore/src/pool.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "sync-in-sim"));
        // The store is simulation code; the benches and the analyzer are not.
        assert_eq!(check_source("crates/store/src/db.rs", src).len(), 2);
        assert!(check_source("crates/bench/src/experiments.rs", src).is_empty());
        // `Rc` and friends are what sim code uses instead.
        let rc = "use std::rc::Rc;\nuse std::cell::{Cell, RefCell};\n";
        assert!(check_source("crates/simcore/src/pool.rs", rc).is_empty());
    }

    #[test]
    fn blocking_scope() {
        let src = "fn f() { std::thread::sleep(d); }\n";
        let v = check_source("crates/simcore/src/engine.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "blocking");
        assert!(check_source("crates/bench/src/experiments.rs", src).is_empty());
    }

    #[test]
    fn cast_truncate_flags_narrowing_only() {
        let narrowing = "fn f(len: usize) -> u32 { len as u32 }\n";
        let v = check_source("crates/core/src/channel.rs", narrowing);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "cast-truncate");
        let widening = "fn f(len: u32) -> usize { len as usize }\n";
        assert!(check_source("crates/core/src/channel.rs", widening).is_empty());
        // Out of the wire scope the cast is fine.
        assert!(check_source("crates/core/src/cluster.rs", narrowing).is_empty());
    }

    #[test]
    fn index_unchecked_flags_ranges_not_lookups() {
        let range = "let h = &bytes[pos..pos + 4];\n";
        let v = check_source("crates/core/src/channel.rs", range);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "index-unchecked");
        // Plain single-element table lookups are not frame parsing.
        let lookup = "let qp = &qps[id.0 as usize];\n";
        let v = check_source("crates/netsim/src/rdma.rs", lookup);
        assert!(v.iter().all(|x| x.rule != "index-unchecked"), "{v:?}");
        // Checked access is the fix.
        let checked = "let h = bytes.get(pos..pos + 4)?;\n";
        assert!(check_source("crates/core/src/channel.rs", checked).is_empty());
        // Array type syntax is not indexing.
        let ty = "fn f(x: [u8; 4]) {}\n";
        assert!(check_source("crates/core/src/channel.rs", ty).is_empty());
    }

    #[test]
    fn compared_byte_literals_sees_patterns_not_construction() {
        let found = |src: &str| {
            let l = &lex(src)[0];
            compared_byte_literals(src, &l.code)
        };
        assert_eq!(found("    b\"MSET\" => plan_pairs(args),"), ["MSET"]);
        assert_eq!(
            found("    b\"DEL\" | b\"UNLINK\" | b\"EXISTS\" => x,"),
            ["DEL", "UNLINK", "EXISTS"]
        );
        assert_eq!(found("    | b\"PEXPIREAT\" => {"), ["PEXPIREAT"]);
        assert_eq!(found("if a[0].eq_ignore_ascii_case(b\"GET\") {"), ["GET"]);
        assert_eq!(
            found("if name == b\"GET\" || b\"SET\" != name {"),
            ["GET", "SET"]
        );
        assert_eq!(found("matches!(upper(a), b\"EX\" | b\"PX\")"), ["EX", "PX"]);
        assert_eq!(found("matches!(name, b\"GET\")"), ["GET"]);
        assert!(found("sink.arg(b\"GET\");").is_empty());
        assert!(found("let c = Resp::command([b\"SET\".as_slice(), k]);").is_empty());
        assert!(found("let a = x || y; f(b\"GET\")").is_empty());
        assert!(found("// b\"GET\" => in a comment").is_empty());
        assert!(found("let s = \"b\\\"GET\\\" =>\";").is_empty());
    }

    #[test]
    fn wallclock_tokens() {
        let v = check_source(
            "crates/simcore/src/engine.rs",
            "let t = std::time::Instant::now();\nstd::thread::spawn(|| {});\n",
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "wallclock"));
    }

    #[test]
    fn pub_field_collection() {
        let lines = lex("pub struct NetParams {\n    /// doc\n    pub bandwidth_bps: u64,\n    pub nested: Inner,\n}\npub struct Other { pub x: u8 }\n");
        let fields = collect_pub_fields(&lines, "NetParams");
        let names: Vec<_> = fields.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, vec!["bandwidth_bps", "nested"]);
    }

    #[test]
    fn stats_count_code_outside_tests_and_comments() {
        let src = "\
//! Module docs.

/// Item docs.
pub fn prod() {
    // a comment
    let s = \"text\"; /* trailing */
}

#[cfg(test)]
mod tests {
    fn t() {}
}
";
        assert_eq!(analyze_file("crates/core/src/x.rs", src).code_lines, 3);
        let a = Analysis {
            violations: Vec::new(),
            files_scanned: 2,
            code_lines: vec![
                ("crates/a/src/x.rs".into(), 3),
                ("crates/a/src/y.rs".into(), 4),
            ],
            config_fields: vec![("ClusterConfig", 24)],
        };
        let table = stats_table(&a);
        assert!(table.contains("      3  crates/a/src/x.rs\n"), "{table}");
        assert!(table.contains("      7  crates/a/src/\n"), "{table}");
        assert!(table.contains("     24  ClusterConfig\n"), "{table}");
    }

    #[test]
    fn file_budget_counts_what_stats_counts() {
        let body = |n: usize| "fn f() {}\n".repeat(n);
        // Comments, blanks and test items are free; the 801st code line is
        // the finding, on its own line number.
        let tail = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let at = format!("//! Docs.\n\n{}{tail}", body(800));
        assert!(check_source("crates/core/src/x.rs", &at).is_empty());
        let over = format!("//! Docs.\n\n{}{tail}", body(801));
        let v = check_source("crates/core/src/x.rs", &over);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].line, v[0].rule), (803, "file-budget"));
        assert!(v[0]
            .message
            .starts_with("801 non-test code lines, budget 800"));
        // Only core is budgeted, and every core file to the same 800:
        // `server.rs`, which had a ceiling of its own, included.
        assert!(check_source("crates/store/src/x.rs", &over).is_empty());
        let server = "crates/core/src/server.rs";
        assert!(check_source(server, &body(FILE_BUDGET)).is_empty());
        let v = check_source(server, &body(FILE_BUDGET + 1));
        assert_eq!((v.len(), v[0].line), (1, FILE_BUDGET + 1), "{v:?}");
    }

    #[test]
    fn severity_lookup() {
        assert_eq!(severity_of("hashmap"), Severity::Error);
        assert_eq!(severity_of("allow-unused"), Severity::Warning);
    }

    #[test]
    fn json_output_escapes() {
        let a = Analysis {
            violations: vec![Violation {
                file: "crates/x.rs".into(),
                line: 3,
                rule: "hashmap",
                message: "say \"hi\"".into(),
            }],
            files_scanned: 1,
            code_lines: Vec::new(),
            config_fields: Vec::new(),
        };
        let j = to_json(&a);
        assert!(j.contains("\"say \\\"hi\\\"\""), "{j}");
        assert!(j.contains("\"errors\": 1"), "{j}");
        assert!(j.contains("\"files_scanned\": 1"), "{j}");
    }
}
