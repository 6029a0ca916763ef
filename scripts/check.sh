#!/usr/bin/env bash
# Full local gate: everything CI would run.
#
#   scripts/check.sh            # skv-analyze + tests + clippy + benchmark smoke
#                               # + the calibrated figures against their record
#   scripts/check.sh --nightly  # the same, then the slower tooling self-tests
#
# Fails on the first red step.
set -euo pipefail
cd "$(dirname "$0")/.."
nightly=0
for arg in "$@"; do
  case $arg in
    --nightly) nightly=1 ;;
    *) echo "usage: scripts/check.sh [--nightly]" >&2; exit 2 ;;
  esac
done

echo "==> skv-analyze (determinism, event-loop, wire-format & drift rules)"
# JSON report first (CI uploads target/skv-analyze.json as an artifact);
# on failure re-run in text mode so the log shows readable diagnostics.
mkdir -p target
if ! cargo run -q -p skv-analyze -- --format json > target/skv-analyze.json; then
  cargo run -q -p skv-analyze || true
  echo "FAIL: skv-analyze found violations (report: target/skv-analyze.json)"
  exit 1
fi
# Size of what was just scanned: non-test code lines per file and the
# config structs' field counts (CI uploads it with the report).
cargo run -q -p skv-analyze -- --stats | tee target/skv-analyze-stats.txt

echo "==> cargo test --workspace (with the histcheck smoke: bounded linearizability gate, all repl modes)"
# tests/tests/histcheck_smoke.rs feeds small recorded bench runs
# (async and quorum) through the checker. On a violation it writes the
# full event log to target/histcheck_events.json before failing — CI
# uploads it as the counterexample artifact (ci.yml, `if: failure()`).
rm -f target/histcheck_events.json
if ! cargo test -q --workspace; then
  if [ -e target/histcheck_events.json ]; then
    echo "FAIL: linearizability smoke (event log: target/histcheck_events.json)"
  fi
  exit 1
fi

echo "==> cargo clippy (deny warnings + curated pedantic subset)"
# The pedantic lints are opt-in one by one: each either mirrors an
# skv-analyze rule workspace-wide (casts, indexing) or keeps the codebase
# idiomatic without fighting the simulator's style.
cargo clippy --workspace --all-targets -- -D warnings \
  -D clippy::cast_possible_truncation \
  -D clippy::string_slice \
  -D clippy::semicolon_if_nothing_returned \
  -D clippy::explicit_iter_loop \
  -D clippy::redundant_closure_for_method_calls \
  -D clippy::uninlined_format_args

echo "==> benchmark smoke (benchmark/ builds against the crate APIs and runs clean)"
# One rep of all six workloads with the windows cut to a fifth (< 20 s once
# built). benchmark/ is a package of its own, outside the workspace, so
# nothing above compiles it: this is where an API change that breaks it, an
# operation that fails, replicas that diverge or a workload whose mechanism
# no longer engages stops the gate instead of surfacing in the bench
# pipeline.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke > /dev/null

echo "==> experiments --check fig7 fig10 fig11 fig14 failparams replmode shards hotcache threadnum wrbatch backoff (calibration, recovery, the failure detector, quorum, both front ends and Nic-KV's fan-out have not moved)"
# Figures 7, 10 and 11 are the calibrated points every other number hangs
# off (master throughput with and without slaves, the RDMA-Redis no-slave
# plateau and its one-client row, the offload gain); `shards` and
# `hotcache` are the arms that run the two command front ends (ShardSet,
# SocFrontEnd) hardest; Figure 14 is a slave's crash and recovery under
# load, the full sync and its catch-up range end to end; `failparams` is
# the failure detector's arm (a slave crash under each `waiting-time`) and
# `replmode` the one that runs quorum against the async stream;
# `threadnum` parks ≈ 2 200 async fan-out timers behind one ARM thread,
# `wrbatch` reads Nic-KV's doorbells and WRs per write over 1–8 slaves, and
# `backoff` runs a master's `Hello` after a crash. Each
# arm is rendered in release (≈ 50 s for Figures 7 and 11, ≈ 11 s more for
# Figure 10, ≈ 54 s for Figure 14 on a 2-core box, ≈ 59 s for
# `failparams`, ≈ 13 s for `replmode`, ≈ 70 s for `shards` and
# `hotcache`, ≈ 51 s, 33 s and 8 s for `threadnum`, `wrbatch` and
# `backoff`) and compared with its block of the committed
# experiments_output.txt; a mismatch prints a unified diff. A change that
# moves them on purpose regenerates the file and says so.
cargo run --release --quiet -p skv-bench --bin experiments -- --check fig7 fig10 fig11 fig14 failparams replmode shards hotcache threadnum wrbatch backoff

if [ "$nightly" = 1 ]; then
  echo "==> nightly: scripts/hostprof.sh --allocs self-test (the census finds set-fanout's new-key row)"
  # Of set-fanout's 1.1 allocations per SET, 0.44 are a new key's entry
  # pushed into its Dict bucket (`push_new` < `Dict::upsert`, DESIGN.md
  # §18.3); a sampler, frame walk or symboliser that broke would lose that
  # row or misplace it. The census is deterministic for a build.
  census=$(HOSTPROF_SECONDS=2 scripts/hostprof.sh set-fanout --allocs)
  echo "$census"
  if ! echo "$census" | awk '/push_new/ && /Dict<V>::upsert/ && $1 > 0.41 && $1 < 0.47 { ok = 1 } END { exit !ok }'; then
    echo "FAIL: hostprof --allocs did not find ≈ 0.44 new-key Dict::upsert allocations per op"
    exit 1
  fi
  # Every event travels in a box the event queue recycles (DESIGN.md §18.4):
  # a row allocating a message box — sited in simcore's event.rs or actor.rs,
  # or in a send_at / timer_at / handoff / boxed frame — means a receiver on
  # the op path stopped opening its messages.
  if ! echo "$census" | awk '{ site = $0; sub(/ < .*/, "", site) }
      (site ~ / (event|actor)\.rs:[0-9]/ || $0 ~ /send_at<|timer_at<|boxed<|handoff/) && $1 >= 0.1 { print "  " $0; bad = 1 }
      END { exit bad }'; then
    echo "FAIL: hostprof --allocs attributes ≥ 0.1 allocations per op to an event box"
    exit 1
  fi
  # A warm FramePool hands out its recycled Rc<Storage> headers, so nothing
  # in simcore's frame.rs or pool.rs allocates per message (DESIGN.md §11.2);
  # a row there means a per-message header came back. The site is the text
  # before " < " (its caller).
  if ! echo "$census" | awk '{ site = $0; sub(/ < .*/, "", site) }
      site ~ / (frame|pool)\.rs:[0-9]/ && $1 >= 0.1 { print "  " $0; bad = 1 }
      END { exit bad }'; then
    echo "FAIL: hostprof --allocs attributes ≥ 0.1 allocations per op to simcore's frame.rs / pool.rs"
    exit 1
  fi
fi

echo "OK"
