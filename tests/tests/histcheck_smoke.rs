//! CI-bounded linearizability smoke: one small recorded bench run per
//! replication mode, fed through the multi-writer checker. Sized to
//! finish in seconds — `scripts/check.sh` runs this file as its history
//! gate. On an unexpected violation the full event log is dumped to
//! `target/histcheck_events.json` (the CI failure artifact) before the
//! assertion fires, so the counterexample survives the panic.

use std::io::Write;

use skv_core::cluster::{Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::histcheck::check_linearizable;
use skv_core::replmode::ReplModeKind;
use skv_simcore::SimDuration;

/// Where the failure artifact lands, relative to the workspace root
/// (integration tests run with the package dir as cwd, one level down).
const ARTIFACT: &str = "../target/histcheck_events.json";

/// Small, bounded history: 2 writers, a compressed measurement window,
/// and a narrow key space so per-key searches stay trivial.
fn smoke_spec(mode: ReplModeKind, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = 2;
    cfg.repl_mode = mode;
    cfg.probe_interval = SimDuration::from_millis(200);
    cfg.waiting_time = SimDuration::from_millis(300);
    cfg.upstream_silence = SimDuration::from_millis(600);
    cfg.reconnect_base = SimDuration::from_millis(5);
    cfg.client_retry_timeout = SimDuration::from_millis(100);
    RunSpec {
        cfg,
        num_clients: 2,
        pipeline: 1,
        set_ratio: 0.5,
        mset_keys: 0,
        value_size: 64,
        key_space: 200,
        warmup: SimDuration::from_millis(100),
        measure: SimDuration::from_millis(400),
        seed,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

/// Run one mode, check the recorded history, dump the event log and
/// fail if the checker finds a counterexample.
fn smoke(mode: ReplModeKind, seed: u64) {
    let mut cluster = Cluster::build(smoke_spec(mode, seed));
    let history = cluster.record_history();
    cluster.run();
    cluster
        .sim
        .run_until(cluster.measure_until + SimDuration::from_secs(1));

    let h = history.borrow();
    assert!(
        h.ops.len() > 100,
        "{mode}: only {} ops recorded",
        h.ops.len()
    );
    let violations = check_linearizable(&h);
    if !violations.is_empty() {
        // Persist the counterexample for CI before failing.
        if let Ok(mut f) = std::fs::File::create(ARTIFACT) {
            let _ = f.write_all(h.event_log_json().as_bytes());
        }
        panic!(
            "{mode}: bench history not linearizable ({} violations, \
             event log at {ARTIFACT}): {violations:?}",
            violations.len()
        );
    }
}

#[test]
fn histcheck_smoke_async() {
    smoke(ReplModeKind::Async, 51);
}

#[test]
fn histcheck_smoke_quorum() {
    smoke(ReplModeKind::Quorum, 52);
}
