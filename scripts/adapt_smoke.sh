#!/usr/bin/env bash
# End-to-end smoke test of the adaptive sweep subsystem:
#
#   1. amdmb_adapt figure: run three representative figures (ALU:Fetch
#      crossover, fetch-latency slope, register-usage ladder) densely
#      and adaptively at quick scale and diff every crossover — the
#      tool exits 4 on any disagreement beyond the tolerance,
#   2. amdmb_adapt figure --max-ratio: the Fig. 7-9 family at paper
#      scale (the 32-ratio grid) must spend at most a fifth of the dense
#      point count while agreeing on every crossover; a run over its
#      limit exits 5, and a malformed limit exits 1 before any sweep,
#   3. amdmb_adapt frontier: the 2D bottleneck frontier map builds, is
#      byte-deterministic across AMDMB_THREADS (meta.threads aside),
#      emits the pm3d heatmap artifacts under AMDMB_DUMP_DIR, and
#      writes its BENCH JSON and CSV under AMDMB_JSON_DIR; an unusable
#      AMDMB_JSON_DIR exits 1, naming the variable, before any sweep.
#
# Throughput is measured by the repo benchmark (perf/README.md), not here.
#
# Usage: scripts/adapt_smoke.sh <build-dir>
set -euo pipefail

BUILD_DIR=${1:?usage: adapt_smoke.sh <build-dir>}
BUILD_DIR=$(cd "$BUILD_DIR" && pwd)
WORK_DIR=$(mktemp -d)
ADAPT="$BUILD_DIR/tools/amdmb_adapt"

cleanup() { rm -rf "$WORK_DIR"; }
trap cleanup EXIT

echo "== adaptive vs dense crossover agreement (three figure families)"
for fig in fig_7 fig_11 fig_16; do
  "$ADAPT" figure "$fig" --quick
done

echo "== Fig. 7-9 family point budget at paper scale (adaptive <= 20% of dense)"
for fig in fig_7 fig_8 fig_9; do
  "$ADAPT" figure "$fig" --max-ratio 0.2
done

# expect_exit <code> <args...>: amdmb_adapt must exit with exactly <code>.
expect_exit() {
  local want=$1 got=0
  shift
  "$ADAPT" "$@" > /dev/null 2>&1 || got=$?
  if [ "$got" -ne "$want" ]; then
    echo "amdmb_adapt $*: exit $got, expected $want" >&2
    exit 1
  fi
}

echo "== budget gate: over the limit, malformed limit, dense with a budget"
expect_exit 5 figure fig_7 --quick --max-ratio 0.01
expect_exit 1 figure fig_7 --quick --max-ratio 0.2abc
expect_exit 2 frontier --dense --budget 4

echo "== frontier map: determinism across thread counts + output files"
# meta.threads records the width itself, so it is left out of the cmp.
AMDMB_THREADS=1 "$ADAPT" frontier --quick --json | grep -v '"threads":' \
  > "$WORK_DIR/frontier_t1.json"
AMDMB_THREADS=8 "$ADAPT" frontier --quick --json | grep -v '"threads":' \
  > "$WORK_DIR/frontier_t8.json"
cmp "$WORK_DIR/frontier_t1.json" "$WORK_DIR/frontier_t8.json"
AMDMB_DUMP_DIR="$WORK_DIR/plots" "$ADAPT" frontier --quick > /dev/null
ls "$WORK_DIR"/plots/*_frontier.dat "$WORK_DIR"/plots/*_frontier.gp > /dev/null
grep -q "with image" "$WORK_DIR"/plots/*_frontier.gp
AMDMB_JSON_DIR="$WORK_DIR/json" "$ADAPT" frontier --quick > /dev/null
ls "$WORK_DIR/json/BENCH_frontier_alu_fetch_x_gpr.json" \
  "$WORK_DIR/json/frontier_alu_fetch_x_gpr.csv" > /dev/null
touch "$WORK_DIR/not_a_dir"
got=0
AMDMB_JSON_DIR="$WORK_DIR/not_a_dir/json" "$ADAPT" frontier --quick \
  > "$WORK_DIR/bad_dir.out" 2> "$WORK_DIR/bad_dir.err" || got=$?
if [ "$got" -ne 1 ] || ! grep -q AMDMB_JSON_DIR "$WORK_DIR/bad_dir.err" ||
   [ -s "$WORK_DIR/bad_dir.out" ]; then
  echo "frontier with AMDMB_JSON_DIR under a file: exit $got, expected 1" \
       "with the variable named on stderr and nothing on stdout" >&2
  exit 1
fi

echo "== adapt smoke passed"
