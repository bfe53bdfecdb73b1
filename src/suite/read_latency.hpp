// Texture-fetch / global-read latency micro-benchmark
// (paper Sec. III-B, Figs. 11-12).
//
// Sweeps the number of inputs with the ALU budget pinned to inputs - 1
// (just enough to fold every input) and one output, so the fetch path
// stays the bottleneck. Reports the per-input latency slope.
#pragma once

#include <optional>
#include <vector>

#include "adapt/refiner.hpp"
#include "common/stats.hpp"
#include "report/record.hpp"
#include "suite/microbench.hpp"

namespace amdmb::suite {

struct ReadLatencyConfig {
  unsigned min_inputs = 2;
  unsigned max_inputs = 18;
  Domain domain{1024, 1024};
  BlockShape block{64, 1};
  ReadPath read_path = ReadPath::kTexture;  ///< kGlobal for Fig. 12.
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
  /// Non-null switches the sweep to adaptive refinement (adapt::Refiner);
  /// the latency fit then uses only the refined points.
  const adapt::Settings* adaptive = nullptr;
};

struct ReadLatencyPoint {
  unsigned inputs = 0;
  Measurement m;
};

struct ReadLatencyResult {
  std::vector<ReadLatencyPoint> points;  ///< Successful points only.
  LineFit fit;  ///< seconds vs inputs.
  /// Per-point outcome (ok / retried / skipped) of the whole sweep.
  exec::RunReport report;
  /// Refinement record; present only when the sweep ran adaptively.
  std::optional<adapt::Outcome> adaptive;
};

ReadLatencyResult RunReadLatency(const Runner& runner, ShaderMode mode,
                                 DataType type,
                                 const ReadLatencyConfig& config);

/// Typed findings of one sweep, attributed to `curve`: the fitted
/// "seconds_per_input" slope and its "fit_r2" quality. Emitted even for
/// an empty sweep (zeros), so faulted runs stay deterministic.
std::vector<report::Finding> Findings(const ReadLatencyResult& result,
                                      const std::string& curve);

}  // namespace amdmb::suite
