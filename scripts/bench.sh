#!/usr/bin/env bash
# Regenerate every perf number the repo commits (≈ 3 min): the benchmark's
# own result documents at seed 42, all six workloads, 15 s each.
#   BENCH_results.json  end-to-end block, both clocks (--trace 0)
#   BENCH_layers.json   per-layer trajectory and layer replays (--trace 1)
# Diff and gate two documents with benchmark/compare.sh OLD NEW; which
# fields are exact and which are host time: EXPERIMENTS.md.
set -euo pipefail
cd "$(dirname "$0")/.."
run() { cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --seed 42 "$@"; }
run --trace 0 > BENCH_results.json
run --trace 1 > BENCH_layers.json
