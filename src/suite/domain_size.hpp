// Domain-size micro-benchmark (paper Sec. III-D, Fig. 15).
//
// Sweeps square domains with an ALU:Fetch ratio of 10 (firmly ALU-bound),
// eight inputs and one output (constant GPRs, constant occupancy). The
// expected picture is overall-linear growth with small local wobble from
// wavefront-count imbalance across SIMD engines — the paper's evidence
// that a large thread count is needed to keep the GPU busy.
#pragma once

#include <vector>

#include "report/record.hpp"
#include "suite/microbench.hpp"
#include "suite/sweep.hpp"

namespace amdmb::suite {

struct DomainSizeConfig : SweepOptions {
  unsigned min_size = 256;
  unsigned max_size = 1024;
  unsigned pixel_increment = 8;     ///< Paper: 8x8 steps in pixel mode.
  unsigned compute_increment = 64;  ///< Paper: 64x64 steps (pad to 64).
  unsigned inputs = 8;
  double alu_fetch_ratio = 10.0;
  BlockShape block{64, 1};
};

/// Points are at x = the square domain's edge.
using DomainSizeResult = SweepResult;

/// The one kernel the sweep launches at every domain, named
/// "domain_sweep".
il::Kernel DomainSizeKernel(const DomainSizeConfig& config, ShaderMode mode,
                            DataType type);

DomainSizeResult RunDomainSize(const Runner& runner, ShaderMode mode,
                               DataType type, const DomainSizeConfig& config);

/// Typed findings of one sweep, attributed to `curve`: "sweep_growth"
/// (largest over smallest domain time) and "max_domain_seconds". Empty
/// when the sweep produced no points.
std::vector<report::Finding> DomainSizeFindings(
    const DomainSizeResult& result, const std::string& curve);

}  // namespace amdmb::suite
