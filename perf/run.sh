#!/usr/bin/env bash
# Builds the repo benchmark into build/perf (Release) and runs it.
#
#   perf/run.sh [--seed N] [--seconds S] [--trace 0|1|DIR] [--update-expected]
#       self-test, then all four workloads, each in a fresh process.
#   perf/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1|DIR]
#       self-test, then one workload; the last line of stdout is its JSON.
#
# Run it from anywhere; it works from the repo root. Build output goes to
# stderr, so stdout carries only the report.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=build/perf
workloads=(paper_full adaptive_full quick_serial serve_mix)
args=()
while (($#)); do
  case $1 in
    --workload) workloads=("$2"); shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done

jobs=$(nproc)
((jobs > 4)) && jobs=4
cmake -S perf -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$jobs" >&2

bench=("$build/amdmb_bench" --expected perf/expected_digests.json
       --serve "$build/amdmb_serve" --work "$build")
"${bench[@]}" --selftest
status=0
for workload in "${workloads[@]}"; do
  "${bench[@]}" --workload "$workload" "${args[@]}" || status=1
done
exit "$status"
