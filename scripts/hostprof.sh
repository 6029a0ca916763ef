#!/usr/bin/env bash
# Sampling profile of one benchmark workload's host time or allocations
# (DESIGN.md §19, §18.3).
#
#   scripts/hostprof.sh set-fanout                 # top functions, self + inclusive
#   scripts/hostprof.sh set-fanout --grep EventQueue --grep 'Dict<V>'
#   scripts/hostprof.sh set-fanout --lines push_wc
#   scripts/hostprof.sh set-fanout --allocs        # allocation sites, per op
#   scripts/hostprof.sh set-fanout --allocs --top 10
#
# Builds benchmark/ with frame pointers into target/hostprof (the normal
# build is untouched), runs the workload for HOSTPROF_SECONDS under the
# sampler in scripts/hostprof/, and symbolises the dump with the
# calibration kernel's samples excluded. Needs gcc, addr2line, nm.
#
# Time (default, 24 s): SIGPROF at HOSTPROF_HZ (250) per CPU-second.
# --allocs (default 6 s): every 97th malloc, calloc or realloc inside the
# measurement window, scaled to the run's exact allocs_per_op (which
# counts the same window).
set -euo pipefail
cd "$(dirname "$0")/.."
workload=${1:?usage: scripts/hostprof.sh WORKLOAD [--allocs] [hostprof.py options]}
shift
allocs=
if [ "${1:-}" = --allocs ]; then
  allocs=1
  shift
fi

out=target/hostprof
mkdir -p "$out"
gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$out/hostprof.so" scripts/hostprof/hostprof.c
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$out/build" \
  cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$out/build/release/skv-benchmark"
raw="$PWD/$out/$workload${allocs:+.allocs}.raw"

run() {
  HOSTPROF_OUT="$raw" LD_PRELOAD="$PWD/$out/hostprof.so" \
    "$bin" --workload "$workload" --seed "${HOSTPROF_SEED:-42}" --seconds "$1" --trace 0 2>/dev/null
}

if [ -z "$allocs" ]; then
  run "${HOSTPROF_SECONDS:-24}" >/dev/null
  exec python3 scripts/hostprof/hostprof.py "$bin" "$raw" --exclude traced_pass "$@"
fi
# The window is the one call the benchmark counts allocs_per_op around;
# the benchmark's last line is its metrics, and allocs_per_op is exact.
window=$(grep -n 'cluster.sim.run_until(until)' benchmark/src/rep.rs | cut -d: -f1)
metrics=$(HOSTPROF_ALLOC_EVERY=97 run "${HOSTPROF_SECONDS:-6}" | tail -n 1)
per_op=$(python3 -c 'import json, sys; print(json.loads(sys.argv[1])["metrics"]["allocs_per_op"]["value"])' "$metrics")
exec python3 scripts/hostprof/hostprof.py "$bin" "$raw" --exclude traced_pass --only "rep.rs:${window:?measurement loop not found in benchmark/src/rep.rs}" \
  --allocs "$per_op" "$@"
