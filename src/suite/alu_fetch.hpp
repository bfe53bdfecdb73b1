// ALU:Fetch ratio micro-benchmark (paper Sec. III-A / IV-A, Figs. 7-10).
//
// Sweeps the SKA-normalised ALU:Fetch ratio and locates the crossover
// where the kernel's bottleneck flips from the fetch path to the ALUs.
// Output size stays 1 to keep the bottleneck on the ALU/fetch
// relationship; read and write paths are configurable so the same sweep
// reproduces Fig. 7 (texture read, streaming store), Fig. 9 (global
// read, streaming store) and Fig. 10 (global read, global write).
#pragma once

#include <optional>
#include <vector>

#include "adapt/refiner.hpp"
#include "report/record.hpp"
#include "suite/microbench.hpp"
#include "suite/sweep.hpp"

namespace amdmb::suite {

struct AluFetchConfig : SweepOptions {
  unsigned inputs = 16;
  unsigned outputs = 1;
  double ratio_min = 0.25;
  double ratio_max = 8.0;
  double ratio_step = 0.25;
  Domain domain{1024, 1024};
  BlockShape block{64, 1};
  ReadPath read_path = ReadPath::kTexture;
  WritePath write_path = WritePath::kStream;
  /// Non-null switches the sweep to adaptive refinement (adapt::Refiner):
  /// only the coarse pass plus bisection points around bottleneck flips
  /// are measured. Dense output is unchanged when null.
  const adapt::Settings* adaptive = nullptr;
};

struct AluFetchPoint {
  double ratio = 0.0;
  Measurement m;
};

struct AluFetchResult : SweepResult<AluFetchPoint> {
  /// First swept ratio at which the simulator classifies the kernel as
  /// ALU-bound, if it happens within the sweep.
  std::optional<double> crossover;
};

/// The kernel the sweep measures at `ratio`, named "alufetch_r<ratio>".
/// Compute mode writes globally whatever `config.write_path` says.
il::Kernel AluFetchKernel(const AluFetchConfig& config, ShaderMode mode,
                          DataType type, double ratio);

AluFetchResult RunAluFetch(const Runner& runner, ShaderMode mode,
                           DataType type, const AluFetchConfig& config);

/// Typed findings of one sweep, attributed to `curve`: the
/// "alu_bound_crossover" (censored when the flip never happens within
/// the sweep) plus the flat-region and max-ratio plateau levels.
/// Empty when the sweep produced no points.
std::vector<report::Finding> Findings(const AluFetchResult& result,
                                      const std::string& curve);

}  // namespace amdmb::suite
