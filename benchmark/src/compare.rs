//! `compare A.json B.json`: per workload × end-to-end metric, both values,
//! the ratio with its base, the bound, and a verdict.
//!
//! * `worse` — B is worse than A by more than the metric's bound.
//! * `unresolved` — not worse, but the rep-to-rep spread of a host-time
//!   metric in either file is wider than its bound, so "unchanged" cannot
//!   be claimed.
//! * `ok` — otherwise.
//!
//! Exact metrics (everything simulated or counted) are also marked `=` or
//! `!=`; two runs of one commit with one seed must show `=` everywhere,
//! which `--same-commit` enforces.

use crate::json::Json;
use crate::metrics::{end_to_end, HIGHER};

/// The result document in `path`: its last non-empty line, as printed by a
/// run without `--workload` (or one driver-format line, shown as `run`).
fn load(path: &str) -> Result<Vec<(String, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or(format!("{path} is empty"))?;
    let doc = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("metrics").is_some() {
        return Ok(vec![("run".to_string(), doc)]);
    }
    doc.get("results")
        .and_then(Json::as_obj)
        .map(<[_]>::to_vec)
        .ok_or(format!("{path}: no \"results\" object"))
}

fn value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn spread(result: &Json, metric: &str) -> f64 {
    result
        .get("rep_spread")
        .and_then(|s| s.get(metric))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Print the table; `Ok(true)` when nothing is worse (and, with
/// `same_commit`, every exact metric matched).
pub fn run(path_a: &str, path_b: &str, same_commit: bool) -> Result<bool, String> {
    let a = load(path_a)?;
    let b = load(path_b)?;
    let mut clean = true;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for (workload, result_a) in &a {
        let Some((_, result_b)) = b.iter().find(|(w, _)| w == workload) else {
            println!("{workload:<16} missing from {path_b}");
            clean = false;
            continue;
        };
        for def in end_to_end() {
            let (Some(va), Some(vb)) = (value(result_a, &def.name), value(result_b, &def.name))
            else {
                println!("{workload:<16} {:<20} missing", def.name);
                clean = false;
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            let ratio = vb / va;
            let worse_by = if def.better == HIGHER {
                1.0 - ratio
            } else {
                ratio - 1.0
            };
            let noisy = spread(result_a, &def.name).max(spread(result_b, &def.name)) > bound;
            let mut verdict = if worse_by > bound {
                "worse"
            } else if noisy {
                "unresolved"
            } else {
                "ok"
            }
            .to_string();
            if def.exact {
                verdict.push_str(if va == vb { "  =" } else { "  !=" });
            }
            if worse_by > bound || (same_commit && def.exact && va != vb) {
                clean = false;
            }
            println!(
                "{workload:<16} {:<20} {va:>14.6} {vb:>14.6} {ratio:>9.4} {bound:>6.3}  {verdict}",
                def.name
            );
        }
    }
    Ok(clean)
}
