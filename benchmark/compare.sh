#!/usr/bin/env bash
# compare.sh A.json B.json [--same-commit]
#
# Compare two result documents of the SKV benchmark (stdout of a run without
# --workload) metric by metric against the bounds in BENCHMARK.json.
# Exits 1 when any metric is worse than its bound allows (or, with
# --same-commit, when an exact metric differs), 2 on a usage or read error.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- compare "$@"
