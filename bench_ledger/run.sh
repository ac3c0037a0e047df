#!/usr/bin/env bash
# bench_ledger: builds the benchmark (once) and runs workloads, each in a
# fresh process.
#
#   bench_ledger/run.sh [--workload W] [--seed N] [--trace 0|1] [--out DIR]
#                       [--smoke]
#
# Without --workload every workload runs in turn. Run from anywhere; all
# build output, journals and results stay under <repo>/.bench_build/ledger.
# Build logs go to stderr, so the last stdout line is the run's JSON result.
#
# The measured window is fixed (RunConfig::window_seconds, BENCHMARK.json's
# run_seconds), so two commits are always measured over the same length.
# `--seconds S` is accepted only with that length, for callers that pass
# run_seconds back.
set -euo pipefail

window=10

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build/ledger"

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "bench_ledger: no source tree at $root/src; nothing to benchmark" >&2
  exit 2
fi

workload=""
out="$build/results"
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --seconds)
      if [[ "$2" != "$window" ]]; then
        echo "bench_ledger: the window is fixed at $window s, not $2" >&2
        exit 2
      fi
      shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target bench_ledger -j "$(nproc)" >&2

run() {
  "$build/bench_ledger" --workload "$1" --out "$out" \
    --scratch "$build/scratch" "${args[@]+"${args[@]}"}"
}

if [[ -n "$workload" ]]; then
  run "$workload"
else
  status=0
  for w in bulk sensitive smallops maintenance; do
    run "$w" || status=$?
  done
  exit "$status"
fi
