//! The SKV benchmark: six closed-loop workloads driven through the public
//! API of the simulator crates, from one process and one thread.
//!
//! ```text
//! skv-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!               [--smoke] [--alloc-count 0|1]
//! skv-benchmark compare A.json B.json [--same-commit]
//! skv-benchmark describe
//! ```
//!
//! Progress goes to stderr; the last line of stdout is the result as JSON.
//! See `README.md` beside this package for every definition.

// The repository's clippy.toml bans wall-clock reads because simulator code
// must take time from `Context::now()`; host time is what this crate is for.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod cal;
mod compare;
mod json;
mod metrics;
mod model;
mod rep;
mod replay;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use metrics::{Def, Values};
use rep::Rep;
use trace::Tracer;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// How long one driver run measures (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: u64 = 15;
/// Timed reps a run makes at least: enough for a median, and for the
/// rep-to-rep determinism check to have something to compare.
const MIN_REPS: usize = 3;
/// `--smoke` divides every fault-free simulated window by this.
const SMOKE_WINDOW_DIV: u64 = 5;
/// Share of `--seconds` a traced run spends on timed reps before the traced
/// rep, the replays and the drift gauge.
const TRACED_TIMED_SHARE: f64 = 0.4;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    alloc_count: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: skv-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
         [--smoke] [--alloc-count 0|1]\n       skv-benchmark compare A.json B.json \
         [--same-commit]\n       skv-benchmark describe\nworkloads: {}",
        workloads::ALL
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn parse_options(args: &[String]) -> Option<Options> {
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        alloc_count: true,
    };
    let flag = |v: &str| match v {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => o.workload = Some(it.next()?.clone()).filter(|w| w != "all"),
            "--seed" => o.seed = it.next()?.parse().ok()?,
            "--seconds" => o.seconds = it.next()?.parse().ok()?,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => match it.peek().and_then(|v| flag(v)) {
                Some(on) => {
                    o.trace = on;
                    it.next();
                }
                None => o.trace = true,
            },
            "--smoke" => o.smoke = true,
            "--alloc-count" => o.alloc_count = flag(it.next()?)?,
            _ => return None,
        }
    }
    Some(o)
}

/// `BENCHMARK.json`, generated from the tables in `workloads` and `metrics`.
fn describe() -> Json {
    let metric = |d: &Def| {
        let mut pairs = vec![
            ("name", Json::from(d.name.as_str())),
            ("unit", Json::from(d.unit)),
            ("better", Json::from(d.better)),
        ];
        if let Some(bound) = d.bound {
            pairs.push(("bound", Json::from(bound)));
        }
        Json::obj(pairs)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::from).collect()),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(metrics::end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(metrics::per_layer().iter().map(metric).collect()),
        ),
    ])
}

/// Distance between the first and third quartile as a share of the median
/// (quartiles as Python's `statistics.quantiles(values, n=4)` gives them).
fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |p: f64| {
        let pos = ((v.len() + 1) as f64 * p - 1.0).clamp(0.0, (v.len() - 1) as f64);
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        v[lo] + frac * (v[(lo + 1).min(v.len() - 1)] - v[lo])
    };
    (quartile(0.75) - quartile(0.25)) / metrics::median(v.iter().copied())
}

struct Outcome {
    attempted: u64,
    failed: u64,
    values: Values,
    defs: Vec<Def>,
    /// Rep-to-rep spread of the host-time end-to-end metrics.
    rep_spread: Vec<(&'static str, f64)>,
    /// Failed correctness checks, with the offending counter.
    failures: Vec<String>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        let metrics = self.defs.iter().map(|d| {
            let value = *self
                .values
                .get(&d.name)
                .unwrap_or_else(|| panic!("metric {} was defined but not computed", d.name));
            (
                d.name.clone(),
                Json::obj([("value", Json::from(value)), ("unit", Json::from(d.unit))]),
            )
        });
        let mut pairs = vec![
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ];
        if !self.failures.is_empty() {
            let list = self
                .failures
                .iter()
                .map(|f| Json::from(f.as_str()))
                .collect();
            pairs.push(("failed_checks", Json::Arr(list)));
        }
        Json::obj(pairs)
    }
}

fn log_rep(label: &str, r: &Rep) {
    let kops = r.sim.ops as f64 / 1000.0;
    eprintln!(
        "  {label}: setup {:.3} s, measure {:.3} s ({:.1} sim kops/s, {:.4} cal/kop), \
         drain {:.3} s, verify {:.3} s, calibration pass {:.1} ms",
        r.host.setup_s(),
        r.host.measure_s,
        kops / r.sim.window_s,
        r.cal_per_kop(),
        r.host.drain_s,
        r.host.verify_s,
        r.host.calibration_pass_s * 1e3,
    );
}

/// Run `wl` until the time budget is used and fold the reps into metrics.
fn run_workload(wl: &Workload, o: &Options) -> Outcome {
    eprintln!(
        "{} (seed {}, {}{})",
        wl.name,
        o.seed,
        if o.smoke {
            "smoke".to_string()
        } else {
            format!("{} s", o.seconds)
        },
        if o.trace { ", traced" } else { "" }
    );
    let window_div = if o.smoke { SMOKE_WINDOW_DIV } else { 1 };
    let (budget, min_reps) = match (o.smoke, o.trace) {
        (true, _) => (0.0, 1),
        (false, true) => (o.seconds * TRACED_TIMED_SHARE, MIN_REPS - 1),
        (false, false) => (o.seconds, MIN_REPS),
    };
    alloc::set_enabled(o.alloc_count);
    let start = Instant::now();
    let mut off = Tracer::new(false, o.seed);
    let mut reps: Vec<Rep> = Vec::new();
    let mut longest = 0.0f64;
    while reps.len() < min_reps || start.elapsed().as_secs_f64() + longest <= budget {
        let t = Instant::now();
        let r = rep::run(wl, o.seed, window_div, &mut off);
        longest = longest.max(t.elapsed().as_secs_f64());
        log_rep(&format!("rep {}", reps.len() + 1), &r);
        reps.push(r);
    }

    let mut failures: Vec<String> = Vec::new();
    let mut check_rep = |label: &str, r: &Rep, first: &Rep| {
        for c in r.checks.iter().filter(|c| !c.ok) {
            failures.push(format!("{label}: {}: {}", c.name, c.detail));
        }
        if r.sim != first.sim {
            failures.push(format!(
                "{label}: simulated statistics differ from rep 1:\n{:?}\nvs\n{:?}",
                r.sim, first.sim
            ));
        }
    };
    for (i, r) in reps.iter().enumerate() {
        check_rep(&format!("rep {}", i + 1), r, &reps[0]);
    }

    let (defs, values) = if o.trace {
        let mut on = Tracer::new(true, o.seed);
        let traced = rep::run(wl, o.seed, window_div, &mut on);
        log_rep("traced rep", &traced);
        check_rep("traced rep", &traced, &reps[0]);
        let gap_share = on.worst_gap_share("rep");
        if gap_share > 0.01 {
            failures.push(format!(
                "traced rep: phase spans leave {:.2} % of the rep uncovered",
                gap_share * 100.0
            ));
        }
        let replays = replay::run(wl, o.seed, &mut on);
        let span = on.open(|| "fig11 gauge".into());
        let fig11 = model::fig11(o.seed);
        on.close(span);
        let values = metrics::per_layer_values(&reps, &traced, gap_share, &replays, &fig11);
        let doc = Json::obj([
            ("workload", Json::from(wl.name)),
            ("seed", Json::from(o.seed)),
            (
                "metrics",
                Json::obj(values.iter().map(|(k, v)| (k.as_str(), Json::from(*v)))),
            ),
            ("trace", on.to_json()),
        ]);
        let path = format!("{OUT_DIR}/trace-{}.json", wl.name);
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, format!("{}\n", doc.pretty())));
        match written {
            Ok(()) => eprintln!("  trace written to {path}"),
            Err(e) => failures.push(format!("cannot write {path}: {e}")),
        }
        (metrics::per_layer(), values)
    } else {
        (metrics::end_to_end(), metrics::end_to_end_values(&reps))
    };

    let per_rep = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    Outcome {
        attempted: reps.iter().map(|r| r.sim.issued).sum(),
        failed: reps.iter().map(|r| r.sim.failed()).sum(),
        values,
        defs,
        rep_spread: vec![
            (
                "host_cal_per_kop",
                quartile_spread(&per_rep(Rep::cal_per_kop)),
            ),
            ("setup_s", quartile_spread(&per_rep(|r| r.host.setup_s()))),
        ],
        failures,
    }
}

fn run(o: &Options) -> ExitCode {
    if Json::parse(MANIFEST).as_ref() != Ok(&describe()) {
        eprintln!(
            "BENCHMARK.json differs from the benchmark's tables; regenerate it with `describe`"
        );
        return ExitCode::from(2);
    }
    let selected: Vec<&Workload> = match &o.workload {
        Some(name) => match Workload::by_name(name) {
            Some(wl) => vec![wl],
            None => return usage(),
        },
        None => workloads::ALL.iter().collect(),
    };
    let outcomes: Vec<(&Workload, Outcome)> = selected
        .into_iter()
        .map(|wl| (wl, run_workload(wl, o)))
        .collect();
    let mut correct = true;
    for (wl, outcome) in &outcomes {
        for f in &outcome.failures {
            eprintln!("FAILED {}: {f}", wl.name);
            correct = false;
        }
    }
    // One workload: the driver's result line. All of them: one document
    // keyed by workload, the input of `compare`.
    let result = if o.workload.is_some() {
        outcomes[0].1.to_json()
    } else {
        let results = outcomes.iter().map(|(wl, out)| {
            let Json::Obj(mut pairs) = out.to_json() else {
                unreachable!("an outcome is an object")
            };
            let spread = out.rep_spread.iter().map(|&(k, v)| (k, Json::from(v)));
            pairs.push(("rep_spread".into(), Json::obj(spread)));
            (wl.name, Json::Obj(pairs))
        });
        Json::obj([
            ("seed", Json::from(o.seed)),
            ("trace", Json::Bool(o.trace)),
            ("results", Json::obj(results)),
        ])
    };
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("describe") => {
            println!("{}", describe().pretty());
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let same_commit = args.iter().any(|a| a == "--same-commit");
            let files: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
            let [a, b] = files[..] else { return usage() };
            match compare::run(a, b, same_commit) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => match parse_options(&args) {
            Some(o) => run(&o),
            None => usage(),
        },
    }
}
