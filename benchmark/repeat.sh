#!/usr/bin/env bash
# Repeat check: two complete run-sets of the same commit and seed, the
# second with the workloads in reverse order (so drift over the session is
# not confounded with a workload), then `compare`.  Exits 0 only when every
# (end-to-end metric, workload) pair is `within` its bound.
#
#   benchmark/repeat.sh [seed] [extra run flags, e.g. --quick]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
shift || true
out=benchmark/out
mkdir -p "$out"
run() { cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }
run run --workload all --seed "$seed" "$@" >"$out/set-a.json"
run run --workload all --seed "$seed" --reverse "$@" >"$out/set-b.json"
run compare "$out/set-a.json" "$out/set-b.json"
