#!/usr/bin/env bash
# Prints the address mod 64 of the simulator's hottest functions in a
# binary. The linker lays every object's cold code ahead of the hot
# text, so a size change in an unrelated object (say src/suite) can
# shift these functions and move the figure workloads' speed. A report
# for comparing two builds, never a gate.
#
# Usage: scripts/hot_placement.sh <binary>   (e.g. build/perf/amdmb_bench)
set -euo pipefail

BIN=${1:?usage: hot_placement.sh <binary>}
SYMS=$(nm -C "$BIN" | grep -v '\[clone')
for fn in mem::TextureCache::ProbeLines mem::MemoryController::RowPenalty \
          mem::MemoryController::FillLines mem::TextureUnitBlock::ServeClause \
          sim::Gpu::Execute; do
  addr=$(grep -F " amdmb::$fn(" <<< "$SYMS" | head -n1 | cut -d' ' -f1 || true)
  if [ -z "$addr" ]; then echo "$fn: not found"; continue; fi
  printf '%s: 0x%s mod 64 = %d\n' "$fn" "$addr" $((16#$addr % 64))
done
