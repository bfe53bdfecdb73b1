// Per-SIMD texture fetch unit block (four 128-bit units per SIMD).
//
// Serving a TEX clause has two separable costs:
//  * service — the units stream data at `tex_bytes_per_unit_cycle` per
//    unit; this occupies the block and is what makes one float4 fetch
//    cost four float fetches (Fig. 11);
//  * latency — the requesting wavefront additionally waits for the clause
//    results: a pipelined hit latency per clause plus a per-instruction
//    stall whenever a fetch misses the texture cache. The wait does NOT
//    occupy the units, so other wavefronts hide it by clause switching.
// Cache-line fills go to the shared MemoryController and consume its
// bandwidth.
#pragma once

#include <span>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"

namespace amdmb::prof {
class Collector;
}  // namespace amdmb::prof

namespace amdmb::mem {

/// Timing outcome of one TEX clause for one wavefront.
struct TexClauseTiming {
  Cycles start = 0;        ///< When the units began serving the clause.
  Cycles service_end = 0;  ///< When the units became free again.
  Cycles complete = 0;     ///< When the wavefront may resume.
  unsigned miss_instrs = 0;
  unsigned line_hits = 0;
  unsigned line_misses = 0;
};

class TextureUnitBlock {
 public:
  TextureUnitBlock(const GpuArch& arch, TextureCache& cache,
                   MemoryController& controller);

  /// Serves one TEX clause. `tile_lines` holds the distinct cache lines
  /// of this wavefront's footprint in a texture at base address 0 (see
  /// TiledLayout); fetch instruction i reads the texture at
  /// `fetch_bases[i]`, so it touches {fetch_bases[i] + line.address,
  /// line.tile_row} for each of them. `active_threads` is the wavefront
  /// population (64 unless the domain edge truncated it).
  TexClauseTiming ServeClause(Cycles now, DataType type,
                              unsigned active_threads,
                              std::span<const LineId> tile_lines,
                              std::span<const std::uint64_t> fetch_bases);

  /// Cycles the units spent streaming data (service only).
  Cycles BusyCycles() const { return busy_; }

  /// Service cycles for one fetch instruction of the given shape.
  Cycles ServicePerFetch(DataType type, unsigned active_threads) const;

  /// Attaches the profiler's per-launch collector under this block's
  /// SIMD id (nullptr detaches). Pure observation.
  void SetCollector(prof::Collector* collector, unsigned simd) {
    collector_ = collector;
    simd_ = simd;
  }

 private:
  const GpuArch* arch_;
  TextureCache* cache_;
  MemoryController* controller_;
  Cycles free_at_ = 0;
  Cycles busy_ = 0;
  std::vector<std::uint64_t> fill_addrs_;  // scratch, reused across clauses
  prof::Collector* collector_ = nullptr;
  unsigned simd_ = 0;
};

}  // namespace amdmb::mem
