#include "mem/texture_unit.hpp"

#include <algorithm>
#include <cmath>

#include "common/status.hpp"
#include "prof/collector.hpp"

namespace amdmb::mem {

TextureUnitBlock::TextureUnitBlock(const GpuArch& arch, TextureCache& cache,
                                   MemoryController& controller)
    : arch_(&arch), cache_(&cache), controller_(&controller) {}

Cycles TextureUnitBlock::ServicePerFetch(DataType type,
                                         unsigned active_threads) const {
  const double bytes =
      static_cast<double>(active_threads) * ElementBytes(type);
  const double per_cycle =
      arch_->tex_units_per_simd * arch_->tex_bytes_per_unit_cycle;
  return static_cast<Cycles>(std::ceil(bytes / per_cycle));
}

TexClauseTiming TextureUnitBlock::ServeClause(
    Cycles now, DataType type, unsigned active_threads,
    std::span<const LineId> tile_lines,
    std::span<const std::uint64_t> fetch_bases) {
  TexClauseTiming t;
  t.start = std::max(now, free_at_);
  const Cycles per_fetch = ServicePerFetch(type, active_threads);
  const Cycles service = per_fetch * fetch_bases.size();
  free_at_ = t.start + service;
  t.service_end = free_at_;
  busy_ += service;

  // All of the clause's misses coalesce into a single controller batch:
  // the texture units stream the clause's fills back-to-back, so the
  // shared controller charges one contiguous transfer rather than one
  // (rounded-up) transaction per fetch instruction.
  Cycles last_fill_end = 0;
  fill_addrs_.clear();
  for (const std::uint64_t base : fetch_bases) {
    const std::size_t missed_before = fill_addrs_.size();
    t.line_hits += cache_->ProbeLines(base, tile_lines, fill_addrs_);
    if (fill_addrs_.size() != missed_before) ++t.miss_instrs;
  }
  if (!fill_addrs_.empty()) {
    t.line_misses = static_cast<unsigned>(fill_addrs_.size());
    const BatchResult fill =
        controller_->FillLines(t.start, fill_addrs_, arch_->l1.line_bytes);
    last_fill_end = fill.end;
  }

  t.complete = t.service_end + arch_->tex_hit_latency +
               static_cast<Cycles>(t.miss_instrs) *
                   arch_->tex_miss_stall_cycles;
  if (last_fill_end != 0) {
    t.complete = std::max(t.complete, last_fill_end + arch_->tex_hit_latency);
  }
  if (collector_ != nullptr) {
    collector_->OnTexClause(simd_, service, t.miss_instrs);
  }
  return t;
}

}  // namespace amdmb::mem
