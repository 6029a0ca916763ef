//! Host-time spans recorded by the benchmark around each phase of a rep,
//! each measurement slice and each layer replay.
//!
//! The recorder always times (`close` returns the duration, which is where
//! `setup_s`, `measure_s` and friends come from); it only *keeps* spans —
//! and the counter readings taken at the same boundaries — when tracing is
//! on, with allocation counting paused so the recorder never shows up in
//! a workload's heap metrics. Everything stays in memory until
//! [`Tracer::to_json`] at the end of the run. Spans inside the simulator
//! crates are a later change (`skv_simcore::trace` has no call sites in
//! `core`/`netsim` today).

use std::time::{Duration, Instant};

use crate::alloc;
use crate::json::Json;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An open span: pass it back to [`Tracer::close`].
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Span and counter recorder for one run (`run_id` is shared by all of its
/// spans).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run_id: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: Vec<Json>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start a span nested in the innermost open one.
    pub fn open(&mut self, name: impl FnOnce() -> String) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let _uncounted = alloc::pause();
            self.spans.push(Span {
                name: name(),
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// End a span; returns how long it was open.
    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.ns_since_origin(end);
            // Spans nest strictly, so the one being closed is innermost.
            debug_assert_eq!(self.stack.last(), Some(&i));
            self.stack.pop();
        }
        end.duration_since(open.start)
    }

    /// Record counter readings taken at a span boundary.
    pub fn counters(&mut self, at: impl FnOnce() -> String, values: impl FnOnce() -> Json) {
        if self.enabled {
            let _uncounted = alloc::pause();
            let at_ns = self.ns_since_origin(Instant::now());
            self.counters.push(Json::obj([
                ("at", Json::Str(at())),
                ("at_ns", Json::from(at_ns)),
                ("values", values()),
            ]));
        }
    }

    /// Largest share of any `parent_name` span that its direct children
    /// leave uncovered — the "phases tile the rep" check.
    pub fn worst_gap_share(&self, parent_name: &str) -> f64 {
        let mut worst = 0.0f64;
        for (p, parent) in self.spans.iter().enumerate() {
            if parent.name != parent_name {
                continue;
            }
            let covered: u64 = self
                .spans
                .iter()
                .filter(|s| s.parent == Some(p))
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            let total = (parent.end_ns - parent.start_ns).max(1);
            worst = worst.max(1.0 - covered as f64 / total as f64);
        }
        worst
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::from(i as u64)),
                    ("name", Json::from(s.name.as_str())),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("run_id", Json::from(self.run_id)),
            ("spans", Json::Arr(spans)),
            ("counters", Json::Arr(self.counters.clone())),
        ])
    }
}
