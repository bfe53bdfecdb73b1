// Domain-size micro-benchmark (paper Sec. III-D, Fig. 15).
//
// Sweeps square domains with an ALU:Fetch ratio of 10 (firmly ALU-bound),
// eight inputs and one output (constant GPRs, constant occupancy). The
// expected picture is overall-linear growth with small local wobble from
// wavefront-count imbalance across SIMD engines — the paper's evidence
// that a large thread count is needed to keep the GPU busy.
#pragma once

#include <optional>
#include <vector>

#include "adapt/refiner.hpp"
#include "report/record.hpp"
#include "suite/microbench.hpp"

namespace amdmb::suite {

struct DomainSizeConfig {
  unsigned min_size = 256;
  unsigned max_size = 1024;
  unsigned pixel_increment = 8;     ///< Paper: 8x8 steps in pixel mode.
  unsigned compute_increment = 64;  ///< Paper: 64x64 steps (pad to 64).
  unsigned inputs = 8;
  double alu_fetch_ratio = 10.0;
  BlockShape block{64, 1};
  unsigned repetitions = kPaperRepetitions;
  /// Force hardware-counter profiling for every point of this sweep
  /// (tests use this to bypass the cached AMDMB_PROF snapshot).
  bool profile = false;
  /// Sweep points run through this executor (null = the process default).
  const exec::SweepExecutor* executor = nullptr;
  /// Per-point retry/skip behaviour under faults (AMDMB_RETRY default).
  exec::RetryPolicy retry = exec::RetryPolicy::FromEnv();
  /// Optional cooperative cancellation: points not yet started when the
  /// token fires are skipped (the bench binaries wire their SIGINT/
  /// SIGTERM flag here so an interrupted run still flushes a partial
  /// figure).
  const exec::CancelToken* cancel = nullptr;
  /// Non-null switches the sweep to adaptive refinement (adapt::Refiner).
  const adapt::Settings* adaptive = nullptr;
};

struct DomainSizePoint {
  unsigned size = 0;  ///< Square domain edge.
  Measurement m;
};

struct DomainSizeResult {
  std::vector<DomainSizePoint> points;  ///< Successful points only.
  /// Per-point outcome (ok / retried / skipped) of the whole sweep.
  exec::RunReport report;
  /// Refinement record; present only when the sweep ran adaptively.
  std::optional<adapt::Outcome> adaptive;
};

DomainSizeResult RunDomainSize(const Runner& runner, ShaderMode mode,
                               DataType type, const DomainSizeConfig& config);

/// Typed findings of one sweep, attributed to `curve`: "sweep_growth"
/// (largest over smallest domain time) and "max_domain_seconds". Empty
/// when the sweep produced no points.
std::vector<report::Finding> Findings(const DomainSizeResult& result,
                                      const std::string& curve);

}  // namespace amdmb::suite
