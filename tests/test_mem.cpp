// Unit tests for src/mem: tiling, the 2-D-indexed texture cache, the
// memory controller, and the texture unit block.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/texture_unit.hpp"
#include "mem/tiling.hpp"
#include "prof/collector.hpp"

namespace amdmb::mem {
namespace {

TEST(TilingTest, TileShapesForPaperFormats) {
  // 64B line: float -> 4x4 texels, float4 -> 2x2 (RV670/RV770).
  EXPECT_EQ(TileFor(64, 4).width, 4u);
  EXPECT_EQ(TileFor(64, 4).height, 4u);
  EXPECT_EQ(TileFor(64, 16).width, 2u);
  EXPECT_EQ(TileFor(64, 16).height, 2u);
  // 128B line (RV870): float -> 8x4, float4 -> 4x2.
  EXPECT_EQ(TileFor(128, 4).width, 8u);
  EXPECT_EQ(TileFor(128, 4).height, 4u);
  EXPECT_EQ(TileFor(128, 16).width, 4u);
  EXPECT_EQ(TileFor(128, 16).height, 2u);
  EXPECT_THROW(TileFor(60, 16), ConfigError);
}

TEST(TilingTest, LineIdsCoverTileRectangles) {
  const TileShape tile = TileFor(64, 4);
  const TiledLayout layout(tile, 64);
  const auto line_of = [&](unsigned x, unsigned y) {
    std::vector<LineId> lines;
    layout.AppendLines(x, y, 1, 1, lines);
    EXPECT_EQ(lines.size(), 1u);
    return lines.at(0);
  };
  // All texels of one 4x4 tile share a line; addresses are relative to
  // the texture's base.
  const LineId l00 = line_of(0, 0);
  EXPECT_EQ(l00.address, 0u);
  EXPECT_EQ(line_of(3, 3).address, l00.address);
  EXPECT_NE(line_of(4, 0).address, l00.address);
  EXPECT_NE(line_of(0, 4).address, l00.address);
  // Tile row changes every `tile.height` rows.
  EXPECT_EQ(line_of(0, 3).tile_row, 0u);
  EXPECT_EQ(line_of(0, 4).tile_row, 1u);
  // Lines are 64B apart along a tile row.
  EXPECT_EQ(line_of(4, 0).address, l00.address + 64);
  // A rectangle's lines are its tiles' lines, in row-major tile order.
  std::vector<LineId> lines;
  layout.AppendLines(2, 2, 8, 4, lines);
  const std::vector<LineId> expected = {line_of(0, 0), line_of(4, 0),
                                        line_of(8, 0), line_of(0, 4),
                                        line_of(4, 4), line_of(8, 4)};
  EXPECT_EQ(lines, expected);
}

TEST(TilingTest, LinearAddressRowMajor) {
  EXPECT_EQ(LinearAddress(100, 10, 3, 2, 4), 100u + (2 * 10 + 3) * 4);
}

TEST(CacheTest, HitsAfterFill) {
  TextureCache cache({.size_bytes = 1024, .line_bytes = 64,
                      .associativity = 2, .two_d_index = false});
  const LineId line{0x1000, 0};
  EXPECT_FALSE(cache.Probe(line));
  EXPECT_TRUE(cache.Probe(line));
  EXPECT_EQ(cache.Stats().hits, 1u);
  EXPECT_EQ(cache.Stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.Stats().HitRate(), 0.5);
}

TEST(CacheTest, LruEvictionWithinSet) {
  // 2 ways, 8 sets: three lines mapping to one set evict LRU.
  TextureCache cache({.size_bytes = 1024, .line_bytes = 64,
                      .associativity = 2, .two_d_index = false});
  const auto set_stride = 8ull * 64;  // Same set every 8 lines.
  const LineId a{0 * set_stride, 0};
  const LineId b{1 * set_stride, 0};
  const LineId c{2 * set_stride, 0};
  cache.Probe(a);
  cache.Probe(b);
  cache.Probe(a);   // a is MRU.
  cache.Probe(c);   // Evicts b.
  EXPECT_TRUE(cache.Probe(a));
  EXPECT_FALSE(cache.Probe(b));
}

// The paper's "only half the cache is used" with 1-D access: a pattern
// confined to one tile row thrashes at half capacity under 2-D indexing
// but fits with plain indexing.
TEST(CacheTest, TwoDIndexHalvesCapacityForOneDimensionalPatterns) {
  const CacheConfig base{.size_bytes = 4096, .line_bytes = 64,
                         .associativity = 1, .two_d_index = true};
  TextureCache two_d(base);
  CacheConfig flat_cfg = base;
  flat_cfg.two_d_index = false;
  TextureCache flat(flat_cfg);
  // 64 distinct lines on tile row 0 (exactly the cache's line count):
  // fits flat (64 sets) but thrashes 2-D (32 usable sets) completely.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      const LineId line{i * 64, 0};
      two_d.Probe(line);
      flat.Probe(line);
    }
  }
  EXPECT_EQ(flat.Stats().hits, 64u);  // Second pass all hits.
  EXPECT_EQ(two_d.Stats().hits, 0u);  // Pure conflict misses.
}

TEST(CacheTest, TwoDPatternUsesBothSetGroups) {
  TextureCache cache({.size_bytes = 4096, .line_bytes = 64,
                      .associativity = 1, .two_d_index = true});
  // 64 lines spread over two tile rows: 32 per group, fills both halves
  // without a single conflict.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      cache.Probe(LineId{i * 64, static_cast<std::uint32_t>(i / 32)});
    }
  }
  EXPECT_EQ(cache.Stats().hits, 64u);
}

TEST(CacheTest, ResetClearsContentsAndStats) {
  TextureCache cache({.size_bytes = 1024, .line_bytes = 64,
                      .associativity = 2, .two_d_index = false});
  cache.Probe(LineId{0, 0});
  cache.Reset();
  EXPECT_EQ(cache.Stats().misses, 0u);
  EXPECT_FALSE(cache.Probe(LineId{0, 0}));
}

TEST(CacheTest, RejectsDegenerateGeometry) {
  EXPECT_THROW(TextureCache({.size_bytes = 64, .line_bytes = 64,
                             .associativity = 2, .two_d_index = false}),
               ConfigError);
}

// ---- exactness of the recency-ordered cache against the stamp LRU

/// The reference model: per-way tags and LRU stamps from a global tick,
/// the victim the first way with the smallest stamp (never-filled ways
/// have stamp 0), and the set index taken with `%`.
class ReferenceLru {
 public:
  explicit ReferenceLru(const CacheConfig& config)
      : config_(config),
        sets_(config.size_bytes / config.line_bytes / config.associativity),
        ways_(sets_ * config.associativity),
        per_set_(sets_) {}

  bool Probe(const LineId& line) {
    const std::uint64_t tag = line.address / config_.line_bytes;
    std::uint64_t set = tag % sets_;
    if (config_.two_d_index) {
      const std::uint64_t half = sets_ / 2;
      set = tag % half + (line.tile_row & 1u) * half;
    }
    Way* begin = &ways_[set * config_.associativity];
    Way* end = begin + config_.associativity;
    ++tick_;
    Way* victim = begin;
    for (Way* w = begin; w != end; ++w) {
      if (w->tag == tag) {
        w->lru = tick_;
        ++stats_.hits;
        ++per_set_[set].hits;
        return true;
      }
      if (w->lru < victim->lru) victim = w;
    }
    victim->tag = tag;
    victim->lru = tick_;
    ++stats_.misses;
    ++per_set_[set].misses;
    return false;
  }

  const CacheStats& Stats() const { return stats_; }
  const std::vector<CacheStats>& PerSet() const { return per_set_; }
  std::uint64_t GroupSets() const {
    return config_.two_d_index ? sets_ / 2 : sets_;
  }

 private:
  struct Way {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;
  };
  CacheConfig config_;
  std::uint64_t sets_;
  std::vector<Way> ways_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
  std::vector<CacheStats> per_set_;
};

/// Drives TextureCache and ReferenceLru with one seeded stream that mixes
/// re-touches of recent lines, new lines (some above 2^32 line numbers)
/// and bursts of lines that all map to one set; every probe, the final
/// stats and the per-set counts the collector saw must agree.
void ExpectMatchesReference(const CacheConfig& config, std::uint64_t seed,
                            const std::string& label) {
  TextureCache cache(config);
  prof::Collector collector(0);
  cache.SetCollector(&collector);
  ReferenceLru reference(config);
  XorShift128 rng(seed);
  const std::uint64_t group_sets = reference.GroupSets();
  const std::uint64_t lines = config.size_bytes / config.line_bytes;
  std::vector<LineId> recent;
  for (int i = 0; i < 60000; ++i) {
    LineId line;
    const std::uint64_t kind = rng.NextBelow(10);
    if (kind < 4 && !recent.empty()) {
      line = recent[rng.NextBelow(recent.size())];
    } else if (kind < 7) {
      std::uint64_t number = rng.NextBelow(4 * lines);
      if (rng.NextBelow(20) == 0) number += 1ull << 32;
      line = LineId{number * config.line_bytes,
                    static_cast<std::uint32_t>(rng.NextBelow(8))};
    } else {
      // One set: the same residue and tile-row parity, more distinct
      // tags than the set has ways.
      const std::uint64_t number =
          7 + group_sets * rng.NextBelow(config.associativity + 2);
      line = LineId{number * config.line_bytes,
                    static_cast<std::uint32_t>(2 * rng.NextBelow(4))};
    }
    if (recent.size() < 64) {
      recent.push_back(line);
    } else {
      recent[rng.NextBelow(recent.size())] = line;
    }
    ASSERT_EQ(cache.Probe(line), reference.Probe(line))
        << label << " probe " << i << " line " << line.address;
  }
  EXPECT_EQ(cache.Stats(), reference.Stats()) << label;
  EXPECT_GT(reference.Stats().hits, 0u) << label;
  EXPECT_GT(reference.Stats().misses, 0u) << label;
  const auto& per_set = collector.Current().per_cache_set;
  ASSERT_LE(per_set.size(), reference.PerSet().size()) << label;
  for (std::size_t set = 0; set < reference.PerSet().size(); ++set) {
    const std::uint64_t hits = set < per_set.size() ? per_set[set].hits : 0;
    const std::uint64_t misses =
        set < per_set.size() ? per_set[set].misses : 0;
    EXPECT_EQ(hits, reference.PerSet()[set].hits) << label << " set " << set;
    EXPECT_EQ(misses, reference.PerSet()[set].misses)
        << label << " set " << set;
  }
}

TEST(CacheExactnessTest, MatchesStampLruOnEveryChipGeometry) {
  std::uint64_t seed = 1;
  for (const GpuArch& arch : AllArchs()) {
    for (const unsigned ways : {arch.l1.associativity, 1u, 2u}) {
      for (const bool two_d : {true, false}) {
        const CacheConfig config{.size_bytes = arch.TotalTexCacheBytes(),
                                 .line_bytes = arch.l1.line_bytes,
                                 .associativity = ways,
                                 .two_d_index = two_d};
        ExpectMatchesReference(config, seed++,
                               arch.name + " ways " + std::to_string(ways) +
                                   (two_d ? " 2-D" : " flat"));
      }
    }
  }
}

TEST(CacheExactnessTest, FastModEqualsRemainderForEveryDivisorInUse) {
  std::set<std::uint32_t> divisors = {1, 2, 3, 7, 0xFFFF'FFFFu};
  for (const GpuArch& arch : AllArchs()) {
    for (const unsigned ways : {arch.l1.associativity, 1u, 2u}) {
      const auto sets = static_cast<std::uint32_t>(
          arch.TotalTexCacheBytes() / arch.l1.line_bytes / ways);
      divisors.insert(sets);
      divisors.insert(sets / 2);
    }
  }
  EXPECT_TRUE(divisors.contains(160u));  // RV770's group, not a power of 2.
  XorShift128 rng(42);
  for (const std::uint32_t d : divisors) {
    const FastMod mod(d);
    std::vector<std::uint64_t> numbers = {
        0, 1, d - 1ull, d, d + 1ull, 0xFFFF'FFFFull, 1ull << 32,
        (1ull << 32) + 1, (1ull << 32) + d, 1ull << 40, ~0ull};
    for (std::uint64_t n = 0; n < 4096; ++n) numbers.push_back(n);
    for (int i = 0; i < 4096; ++i) {
      numbers.push_back(rng.Next() & 0xFFFF'FFFFull);
      numbers.push_back(rng.Next());
    }
    for (const std::uint64_t n : numbers) {
      ASSERT_EQ(mod(n), n % d) << n << " % " << d;
    }
  }
}

// ProbeLines is the per-fetch form of Probe: the same outcomes, each
// miss's address appended in probe order, the same stats.
TEST(CacheExactnessTest, ProbeLinesMatchesProbeOneByOne) {
  const GpuArch arch = MakeRV770();
  const CacheConfig config{.size_bytes = arch.TotalTexCacheBytes(),
                           .line_bytes = arch.l1.line_bytes,
                           .associativity = arch.l1.associativity,
                           .two_d_index = true};
  TextureCache batched(config);
  TextureCache single(config);
  XorShift128 rng(11);
  for (int fetch = 0; fetch < 2000; ++fetch) {
    std::vector<LineId> lines;
    const std::uint64_t count = 1 + rng.NextBelow(32);
    for (std::uint64_t i = 0; i < count; ++i) {
      lines.push_back({rng.NextBelow(1024) * config.line_bytes,
                       static_cast<std::uint32_t>(rng.NextBelow(8))});
    }
    const std::uint64_t base = (1 + rng.NextBelow(4)) << 24;
    std::vector<std::uint64_t> misses = {7};  // Appended to, not replaced.
    const unsigned hits = batched.ProbeLines(base, lines, misses);
    unsigned expected_hits = 0;
    std::vector<std::uint64_t> expected_misses = {7};
    for (const LineId& line : lines) {
      const LineId probed{base + line.address, line.tile_row};
      if (single.Probe(probed)) {
        ++expected_hits;
      } else {
        expected_misses.push_back(probed.address);
      }
    }
    ASSERT_EQ(hits, expected_hits) << "fetch " << fetch;
    ASSERT_EQ(misses, expected_misses) << "fetch " << fetch;
  }
  EXPECT_EQ(batched.Stats(), single.Stats());
  EXPECT_GT(single.Stats().hits, 0u);
  EXPECT_GT(single.Stats().misses, 0u);
}

// ---- exactness of the open-row model

/// Feeds `mc` batches of line addresses with long runs in one row and
/// revisits of earlier rows, and checks every batch's row switches and
/// duration against a count kept here with `/` and `%`.
void ExpectRowSwitchesCounted(const GpuArch& arch, std::uint64_t seed) {
  MemoryController mc(arch);
  prof::Collector collector(0);
  mc.SetCollector(&collector);
  std::vector<std::uint64_t> open(arch.dram.banks, ~0ull);
  std::vector<std::uint64_t> per_bank(arch.dram.banks, 0);
  std::uint64_t switches = 0;
  XorShift128 rng(seed);
  Cycles now = 0;
  std::uint64_t addr = 0;
  for (int batch = 0; batch < 400; ++batch) {
    std::vector<std::uint64_t> addrs;
    const std::uint64_t size = 1 + rng.NextBelow(40);
    for (std::uint64_t i = 0; i < size; ++i) {
      const std::uint64_t kind = rng.NextBelow(4);
      if (kind == 0) {
        addr = rng.NextBelow(64 * arch.dram.row_bytes * arch.dram.banks);
      } else if (kind == 1) {
        addr += arch.dram.row_bytes * (1 + rng.NextBelow(3));
      }  // Otherwise: the same address again.
      addrs.push_back(addr / 64 * 64);
    }
    std::uint64_t batch_switches = 0;
    for (const std::uint64_t a : addrs) {
      const std::uint64_t row = a / arch.dram.row_bytes;
      const std::uint64_t bank = row % arch.dram.banks;
      if (open[bank] != row) {
        open[bank] = row;
        ++batch_switches;
        ++per_bank[bank];
      }
    }
    switches += batch_switches;
    const BatchResult r = mc.FillLines(now, addrs, 64);
    const auto transfer = static_cast<Cycles>(std::ceil(
        static_cast<double>(addrs.size() * 64) /
        arch.dram.fill_bytes_per_cycle));
    EXPECT_EQ(r.end - r.start,
              transfer + batch_switches * arch.dram.row_switch_cycles)
        << arch.name << " batch " << batch;
    ASSERT_EQ(mc.Stats().row_switches, switches)
        << arch.name << " batch " << batch;
    now = r.end;
  }
  EXPECT_GT(switches, 400u);
  std::vector<std::uint64_t> seen = collector.Current().row_switches_per_bank;
  seen.resize(arch.dram.banks, 0);
  EXPECT_EQ(seen, per_bank) << arch.name;
}

TEST(DramTest, RowSwitchesMatchACountWithRepeatedRows) {
  GpuArch rv770 = MakeRV770();
  rv770.dram.row_switch_cycles = 11;
  ExpectRowSwitchesCounted(rv770, 3);
  GpuArch odd = MakeRV770();  // Neither size is a power of two.
  odd.dram.row_switch_cycles = 5;
  odd.dram.row_bytes = 1536;
  odd.dram.banks = 6;
  ExpectRowSwitchesCounted(odd, 4);
}

TEST(DramTest, BandwidthAndOverheadAccounting) {
  GpuArch arch = MakeRV770();
  arch.dram.read_bytes_per_cycle = 64.0;
  arch.global_read_instr_overhead = 10;
  MemoryController mc(arch);
  const BatchResult r = mc.GlobalRead(100, 0x0, 640);
  EXPECT_EQ(r.start, 100u);
  EXPECT_EQ(r.end, 100u + 10 + 10);  // overhead + 640/64.
  EXPECT_EQ(mc.Stats().read_bytes, 640u);
  EXPECT_EQ(mc.Stats().batches, 1u);
}

TEST(DramTest, SerializesOverlappingBatches) {
  const GpuArch arch = MakeRV770();  // The controller keeps a pointer.
  MemoryController mc(arch);
  const BatchResult a = mc.GlobalRead(0, 0, 1024);
  const BatchResult b = mc.GlobalRead(0, 4096, 1024);
  EXPECT_EQ(b.start, a.end);  // Second batch queues behind the first.
  EXPECT_EQ(mc.FreeAt(), b.end);
}

// Fig. 14: each 32-bit element writes at a constant rate, so a float4
// write (4x bytes) takes ~4x a float write once past the overhead.
TEST(DramTest, GlobalWriteScalesWithBytes) {
  GpuArch arch = MakeRV770();
  arch.global_write_instr_overhead = 0;
  MemoryController mc(arch);
  const Cycles t_float = mc.GlobalWrite(0, 0, 64 * 4).end;
  mc.Reset();
  const Cycles t_float4 = mc.GlobalWrite(0, 0, 64 * 16).end;
  EXPECT_NEAR(static_cast<double>(t_float4) / t_float, 4.0, 0.35);
}

// Fig. 13: streaming stores burst — the per-instruction cost is mostly
// overhead, so float4 is close to float.
TEST(DramTest, StreamStoreIsOverheadDominated) {
  const GpuArch arch = MakeRV770();
  MemoryController mc(arch);
  const Cycles t_float = mc.StreamStore(0, 0, 64 * 4).end;
  mc.Reset();
  const Cycles t_float4 = mc.StreamStore(0, 0, 64 * 16).end;
  EXPECT_LT(static_cast<double>(t_float4) / t_float, 2.0);
}

TEST(DramTest, RowSwitchPenaltyOnFills) {
  GpuArch arch = MakeRV770();
  arch.dram.row_switch_cycles = 50;
  arch.dram.row_bytes = 2048;
  MemoryController mc(arch);
  // Two lines in the same row: one switch. Then a different row: another.
  const std::uint64_t same_row[] = {0, 64};
  const std::uint64_t other_row[] = {4096};
  const BatchResult a = mc.FillLines(0, same_row, 64);
  EXPECT_EQ(mc.Stats().row_switches, 1u);
  const BatchResult b = mc.FillLines(a.end, other_row, 64);
  EXPECT_EQ(mc.Stats().row_switches, 2u);
  EXPECT_GT(b.end - b.start, 50u);
  EXPECT_GT(mc.Stats().fill_busy_cycles, 0u);
}

TEST(DramTest, EmptyFillIsFree) {
  const GpuArch arch = MakeRV770();  // The controller keeps a pointer.
  MemoryController mc(arch);
  const BatchResult r = mc.FillLines(42, {}, 64);
  EXPECT_EQ(r.start, 42u);
  EXPECT_EQ(r.end, 42u);
  EXPECT_EQ(mc.Stats().batches, 0u);
}

// Texture unit service must be byte-proportional: one float4 fetch costs
// four float fetches (the Fig. 11 slope relationship).
TEST(TextureUnitTest, ServiceProportionalToBytes) {
  const GpuArch arch = MakeRV770();
  TextureCache cache({.size_bytes = arch.TotalTexCacheBytes(),
                      .line_bytes = 64, .associativity = 8,
                      .two_d_index = true});
  MemoryController mc(arch);
  TextureUnitBlock block(arch, cache, mc);
  EXPECT_EQ(block.ServicePerFetch(DataType::kFloat, 64), 16u);
  EXPECT_EQ(block.ServicePerFetch(DataType::kFloat4, 64), 64u);
}

TEST(TextureUnitTest, MissesStallAndHitsDoNot) {
  const GpuArch arch = MakeRV770();
  TextureCache cache({.size_bytes = arch.TotalTexCacheBytes(),
                      .line_bytes = 64, .associativity = 8,
                      .two_d_index = true});
  MemoryController mc(arch);
  TextureUnitBlock block(arch, cache, mc);
  std::vector<LineId> lines;
  for (std::uint64_t i = 0; i < 4; ++i) lines.push_back({i * 64, 0});
  const std::uint64_t bases[] = {0};

  const TexClauseTiming cold = block.ServeClause(0, DataType::kFloat, 64,
                                                 lines, bases);
  EXPECT_EQ(cold.miss_instrs, 1u);
  EXPECT_EQ(cold.line_misses, 4u);

  const TexClauseTiming warm =
      block.ServeClause(cold.complete, DataType::kFloat, 64, lines, bases);
  EXPECT_EQ(warm.miss_instrs, 0u);
  EXPECT_EQ(warm.line_hits, 4u);
  EXPECT_GT(cold.complete - cold.start, warm.complete - warm.start);
  // The stall does not occupy the units: service time is identical.
  EXPECT_EQ(cold.service_end - cold.start, warm.service_end - warm.start);
}

}  // namespace
}  // namespace amdmb::mem
