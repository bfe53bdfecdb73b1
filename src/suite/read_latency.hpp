// Texture-fetch / global-read latency micro-benchmark
// (paper Sec. III-B, Figs. 11-12).
//
// Sweeps the number of inputs with the ALU budget pinned to inputs - 1
// (just enough to fold every input) and one output, so the fetch path
// stays the bottleneck. Reports the per-input latency slope.
#pragma once

#include <vector>

#include "adapt/refiner.hpp"
#include "common/stats.hpp"
#include "report/record.hpp"
#include "suite/microbench.hpp"
#include "suite/sweep.hpp"

namespace amdmb::suite {

struct ReadLatencyConfig : SweepOptions {
  unsigned min_inputs = 2;
  unsigned max_inputs = 18;
  Domain domain{1024, 1024};
  BlockShape block{64, 1};
  ReadPath read_path = ReadPath::kTexture;  ///< kGlobal for Fig. 12.
  /// Non-null switches the sweep to adaptive refinement (adapt::Refiner);
  /// the latency fit then uses only the refined points.
  const adapt::Settings* adaptive = nullptr;
};

struct ReadLatencyPoint {
  unsigned inputs = 0;
  Measurement m;
};

struct ReadLatencyResult : SweepResult<ReadLatencyPoint> {
  LineFit fit;  ///< seconds vs inputs.
};

/// The kernel the sweep measures at `inputs`, named "readlat_in<inputs>".
il::Kernel ReadLatencyKernel(const ReadLatencyConfig& config,
                             ShaderMode mode, DataType type,
                             unsigned inputs);

ReadLatencyResult RunReadLatency(const Runner& runner, ShaderMode mode,
                                 DataType type,
                                 const ReadLatencyConfig& config);

/// Typed findings of one sweep, attributed to `curve`: the fitted
/// "seconds_per_input" slope and its "fit_r2" quality. Emitted even for
/// an empty sweep (zeros), so faulted runs stay deterministic.
std::vector<report::Finding> Findings(const ReadLatencyResult& result,
                                      const std::string& curve);

}  // namespace amdmb::suite
