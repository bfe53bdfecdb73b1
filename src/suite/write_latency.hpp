// Streaming-store / global-write latency micro-benchmark
// (paper Sec. III-C, Figs. 13-14).
//
// Sweeps the number of outputs with the input size fixed at eight —
// which pins the GPR count to the input size and keeps occupancy
// constant across the sweep — and a low constant ALU budget, so larger
// output counts become memory-bound while the smallest stay fetch-bound
// (the flat left end of Fig. 13).
#pragma once

#include <optional>
#include <vector>

#include "adapt/refiner.hpp"
#include "common/stats.hpp"
#include "report/record.hpp"
#include "suite/microbench.hpp"

namespace amdmb::suite {

struct WriteLatencyConfig {
  unsigned inputs = 8;
  unsigned min_outputs = 1;
  unsigned max_outputs = 8;
  unsigned alu_ops = 16;  ///< "relatively low constant value" (Sec. III-C).
  Domain domain{1024, 1024};
  BlockShape block{64, 1};
  WritePath write_path = WritePath::kStream;  ///< kGlobal for Fig. 14.
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

struct WriteLatencyPoint {
  unsigned outputs = 0;
  Measurement m;
};

struct WriteLatencyResult {
  std::vector<WriteLatencyPoint> points;  ///< Successful points only.
  LineFit fit;  ///< seconds vs outputs.
  /// Per-point outcome (ok / retried / skipped) of the whole sweep.
  exec::RunReport report;
  /// Refinement record; present only when the sweep ran adaptively.
  std::optional<adapt::Outcome> adaptive;
};

WriteLatencyResult RunWriteLatency(const Runner& runner, ShaderMode mode,
                                   DataType type,
                                   const WriteLatencyConfig& config);

/// Typed findings of one sweep, attributed to `curve`: the fitted
/// "seconds_per_output" slope and its "fit_r2" quality. Emitted even
/// for an empty sweep (zeros), so faulted runs stay deterministic.
std::vector<report::Finding> Findings(const WriteLatencyResult& result,
                                      const std::string& curve);

}  // namespace amdmb::suite
