// Register-usage micro-benchmark (paper Sec. III-E / IV-E, Figs. 16-17)
// and its clause-usage control (Fig. 5).
//
// Sweeps the `step` parameter of the Fig. 6 generator: more late TEX
// clauses mean fewer inputs sampled up front, fewer peak GPRs, and more
// simultaneous wavefronts — which hide fetch latency until the kernel
// goes ALU-bound and the curve levels off. The control kernel keeps the
// identical ALU segmentation but samples everything up front, so its GPR
// count (and hence its runtime) stays constant — proving the benefit
// comes from register pressure, not from moving ALU ops across clauses.
#pragma once

#include <vector>

#include "adapt/refiner.hpp"
#include "report/record.hpp"
#include "suite/kernelgen.hpp"
#include "suite/microbench.hpp"
#include "suite/sweep.hpp"

namespace amdmb::suite {

struct RegisterUsageConfig : SweepOptions {
  unsigned inputs = 64;
  unsigned space = 8;
  unsigned min_step = 0;
  unsigned max_step = 7;
  double alu_fetch_ratio = 4.0;
  /// The paper does not state the Fig. 16 domain; 512x512 reproduces the
  /// published magnitudes (documented in EXPERIMENTS.md).
  Domain domain{512, 512};
  BlockShape block{64, 1};
  bool clause_control = false;  ///< true -> the Fig. 5 control kernel.
  /// Non-null switches the sweep to adaptive refinement (adapt::Refiner).
  const adapt::Settings* adaptive = nullptr;
};

struct RegisterUsagePoint {
  unsigned step = 0;
  unsigned gpr_count = 0;  ///< Compiled register usage (figure x-axis).
  Measurement m;
};

using RegisterUsageResult = SweepResult<RegisterUsagePoint>;

/// The kernel the sweep measures at `step`, named "regusage_s<step>"
/// (the clause-usage control appends "_clause_control").
il::Kernel RegisterUsageKernel(const RegisterUsageConfig& config,
                               ShaderMode mode, DataType type,
                               unsigned step);

RegisterUsageResult RunRegisterUsage(const Runner& runner, ShaderMode mode,
                                     DataType type,
                                     const RegisterUsageConfig& config);

/// Typed findings of one register-pressure sweep, attributed to `curve`:
/// the GPR/time endpoints ("gpr_max", "gpr_max_seconds", "gpr_min",
/// "gpr_min_seconds") and the "register_speedup" ratio between them.
/// Empty when the sweep produced no points.
std::vector<report::Finding> Findings(const RegisterUsageResult& result,
                                      const std::string& curve);

/// Typed finding of a clause-control sweep (clause_control = true):
/// "level_variation", the (max - min) / max spread of the pinned-GPR
/// control's times — flat (< 0.2) when the Fig. 16 speedup really comes
/// from register pressure. Empty when the sweep produced no points.
std::vector<report::Finding> ControlFindings(
    const RegisterUsageResult& control, const std::string& curve);

}  // namespace amdmb::suite
