// The per-launch profile record: what one kernel launch did, counter by
// counter, with enough structure to render a counter table, attribute
// the bottleneck from evidence, and export a Chrome trace.
//
// A Profile is produced by prof::Collector (attached to Gpu::Execute via
// the instrumentation hooks), travels inside cal::RunEvent /
// suite::Measurement readback, and lands in the report layer as the
// additive "profile" block of the schema-v2 BENCH JSON.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "prof/counters.hpp"
#include "sim/gpu.hpp"

namespace amdmb::prof {

/// Number of isa::ClauseType values (kTex, kMemRead, kAlu, kExport,
/// kMemWrite) — the per-clause-type aggregation width.
inline constexpr std::size_t kClauseTypeCount = 5;

/// Queueing vs. service decomposition for one clause type: how long
/// wavefronts waited for the resource (start - issue) against how long
/// the resource actually served them (complete - start).
struct ClauseAgg {
  std::uint64_t events = 0;
  std::uint64_t queue_cycles = 0;
  std::uint64_t service_cycles = 0;

  bool operator==(const ClauseAgg&) const = default;
};

/// Per-SIMD busy accumulation (the per-engine detail behind the
/// kAluBusyCyclesMax / kTexBusyCyclesMax counters).
struct SimdBusy {
  std::uint64_t alu_cycles = 0;
  std::uint64_t tex_cycles = 0;

  bool operator==(const SimdBusy&) const = default;
};

/// Hits/misses of one texture-cache set (320 sets on RV770's shared
/// model); the 2-D indexing split means a 64x1 access pattern leaves one
/// set group cold — visible here as untouched sets.
struct CacheSetStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  bool operator==(const CacheSetStats&) const = default;
};

/// One point of the per-SIMD wavefront-occupancy timeline, recorded
/// whenever a SIMD's resident count changes (admission at t=0, retires
/// without replacement later).
struct OccupancySample {
  Cycles t = 0;
  std::uint16_t simd = 0;
  std::uint32_t resident = 0;

  bool operator==(const OccupancySample&) const = default;
};

/// Counter-derived bottleneck attribution: the same three-way
/// classification as the heuristic in Gpu::Execute, but computed purely
/// from the sampled CounterSet — so agreement between the two is
/// evidence that the counter plumbing measures what the timing model
/// does (and divergence pinpoints which counter disagrees).
struct Attribution {
  sim::Bottleneck bottleneck = sim::Bottleneck::kAlu;
  double alu_score = 0.0;
  double fetch_score = 0.0;
  double memory_score = 0.0;

  bool operator==(const Attribution&) const = default;
};

/// Everything one profiled launch recorded.
struct Profile {
  // ---- Identity (filled by cal::Launch) ----
  std::string kernel;   ///< Kernel name ("alufetch_r2.00").
  std::string point;    ///< Sweep-point label; defaults to the kernel.
  std::string arch;     ///< Chip name ("RV770").
  std::string mode;     ///< "pixel" / "compute".
  std::string type;     ///< "Float" / "Float4".
  unsigned attempt = 1; ///< Retry attempt that produced this profile.

  // ---- Sampled state ----
  CounterSet counters;
  std::array<ClauseAgg, kClauseTypeCount> clauses{};
  std::vector<SimdBusy> per_simd;
  std::vector<std::uint64_t> row_switches_per_bank;
  std::vector<CacheSetStats> per_cache_set;
  std::vector<OccupancySample> occupancy;
  std::vector<sim::TraceEvent> events;  ///< Chrome-trace source, capped.
  std::uint64_t dropped_events = 0;     ///< Events past the trace cap.

  Attribution attribution;

  /// Texture-cache sets with at least one probe (the 2-D half-cache
  /// effect: 64x1 patterns touch only one set group).
  std::size_t TouchedCacheSets() const;

  /// Per-clause-type aggregate for rendering/tests.
  const ClauseAgg& Clause(isa::ClauseType type) const {
    return clauses[static_cast<std::size_t>(type)];
  }

  /// Counter table + clause decomposition + attribution, human-readable.
  std::string Render() const;
};

/// True when AMDMB_PROF enables profiling process-wide (launches may
/// also opt in explicitly via LaunchConfig::profile).
bool ProfilingEnabled();

/// The AMDMB_TRACE_DIR Chrome-trace output directory; empty when traces
/// are not requested. Only consulted when profiling is active.
std::string TraceDirectory();

}  // namespace amdmb::prof
