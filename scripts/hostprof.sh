#!/usr/bin/env bash
# Sampling profile of one benchmark workload's host time (DESIGN.md §19).
#
#   scripts/hostprof.sh set-fanout                 # top functions, self + inclusive
#   scripts/hostprof.sh set-fanout --grep EventQueue --grep 'Dict<V>'
#   scripts/hostprof.sh set-fanout --lines push_wc
#
# Builds benchmark/ with frame pointers into target/hostprof (the normal
# build is untouched), runs the workload for HOSTPROF_SECONDS (default 24)
# under the SIGPROF sampler in scripts/hostprof/, and symbolises the dump
# with the calibration kernel's samples excluded. Needs gcc, addr2line, nm.
set -euo pipefail
cd "$(dirname "$0")/.."
workload=${1:?usage: scripts/hostprof.sh WORKLOAD [hostprof.py options]}
shift

out=target/hostprof
mkdir -p "$out"
gcc -O2 -shared -fPIC -o "$out/hostprof.so" scripts/hostprof/hostprof.c
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$out/build" \
  cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$out/build/release/skv-benchmark"

HOSTPROF_OUT="$PWD/$out/$workload.raw" LD_PRELOAD="$PWD/$out/hostprof.so" \
  "$bin" --workload "$workload" --seed "${HOSTPROF_SEED:-42}" \
  --seconds "${HOSTPROF_SECONDS:-24}" --trace 0 >/dev/null 2>&1
python3 scripts/hostprof/hostprof.py "$bin" "$out/$workload.raw" --exclude traced_pass "$@"
