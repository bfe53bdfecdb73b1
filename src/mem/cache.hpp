// Set-associative texture cache with 2-D set indexing.
//
// The paper observes (Sec. IV-A) that the texture cache "is two
// dimensions, so when using a 64x1 block size (a one dimension block
// size) only half the cache is used". We model that by splitting the
// sets into two groups selected by the low bit of the texel *tile row*:
// an access pattern confined to one tile row at a time can only ever
// index half the sets, while 2-D patterns (the pixel-shader rasterizer,
// 4x16 compute blocks) spread over both groups.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "mem/tiling.hpp"

namespace amdmb::prof {
class Collector;
}  // namespace amdmb::prof

namespace amdmb::mem {

struct CacheConfig {
  Bytes size_bytes = 160 * 1024;
  Bytes line_bytes = 64;
  unsigned associativity = 8;
  bool two_d_index = true;  ///< Ablation switch for the 2-D set split.
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double HitRate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
  bool operator==(const CacheStats&) const = default;
};

/// Exact `n % d` by multiplication (Lemire, Kaser and Kurz, "Faster
/// remainder by direct computation", 2019): exact for every n below 2^32
/// and every 32-bit d; larger n take the `%` fallback.
class FastMod {
 public:
  explicit FastMod(std::uint32_t divisor)
      : divisor_(divisor), magic_(~0ull / divisor + 1) {}

  std::uint32_t operator()(std::uint64_t n) const {
    if ((n >> 32) != 0) return static_cast<std::uint32_t>(n % divisor_);
    // High 64 bits of the 128-bit product (magic * n mod 2^64) * divisor,
    // assembled from 32-bit halves (the divisor fits in 32 bits).
    const std::uint64_t low = magic_ * n;
    return static_cast<std::uint32_t>(
        ((low >> 32) * divisor_ + (((low & 0xFFFF'FFFFull) * divisor_) >> 32))
        >> 32);
  }

 private:
  std::uint64_t divisor_;
  std::uint64_t magic_;
};

/// LRU set-associative cache over line ids. Probe() inserts on miss and
/// reports whether the line was already resident.
class TextureCache {
 public:
  explicit TextureCache(const CacheConfig& config);

  /// True on hit. On miss the line is filled (possibly evicting LRU).
  bool Probe(const LineId& line);

  /// Probes lines {base + line.address, line.tile_row} for each of
  /// `lines` in order, as Probe would, and appends each missed address
  /// to `misses`. Returns the number of hits.
  unsigned ProbeLines(std::uint64_t base, std::span<const LineId> lines,
                      std::vector<std::uint64_t>& misses);

  void Reset();

  const CacheStats& Stats() const { return stats_; }

  /// Attaches the profiler's per-launch collector (nullptr detaches).
  /// Pure observation: Probe's outcome and the cache state are
  /// identical with or without one attached.
  void SetCollector(prof::Collector* collector) { collector_ = collector; }

 private:
  bool ProbeAt(std::uint64_t address, std::uint32_t tile_row);
  /// Set of `line_number` on tile row `tile_row`.
  unsigned SetIndex(std::uint64_t line_number, std::uint32_t tile_row) const {
    // Two set groups selected by the tile-row parity; the line number
    // indexes within a group. A pattern that stays on one tile row (64x1
    // blocks) touches only one group => half the effective capacity.
    const unsigned group = config_.two_d_index ? (tile_row & 1u) : 0u;
    return set_in_group_(line_number) + group * group_sets_;
  }
  /// address -> line number; a shift when the line size is a power of
  /// two (it always is on real parts), so the per-probe hot path never
  /// divides.
  std::uint64_t LineNumber(std::uint64_t address) const {
    return line_shift_ >= 0 ? address >> line_shift_
                            : address / config_.line_bytes;
  }

  static constexpr std::uint64_t kInvalid = ~0ull;

  CacheConfig config_;
  unsigned set_count_;
  unsigned group_sets_;   ///< Sets per tile-row group (all of them if flat).
  FastMod set_in_group_;  ///< line number -> set within its group.
  int line_shift_ = -1;  ///< log2(line_bytes), or -1 if not a power of two.
  /// Set-major, associativity tags per set, each set most recently used
  /// first; kInvalid marks a way never filled (they sit at the back).
  std::vector<std::uint64_t> tags_;
  CacheStats stats_;
  prof::Collector* collector_ = nullptr;
};

}  // namespace amdmb::mem
