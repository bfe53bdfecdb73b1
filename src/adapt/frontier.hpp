// 2D bottleneck frontier maps via recursive quadrant refinement.
//
// The 1D figures each chase one crossover; the frontier map answers the
// 2D question "where does the bottleneck flip across ALU:Fetch ratio ×
// register-ladder step" (the Fig. 7 and Fig. 16 axes crossed). Dense
// resolution costs nx*ny simulated kernels; the quadrant refiner
// measures only cell corners, fills any cell whose four corners agree,
// and recursively splits disagreeing cells at their midpoints — the 2D
// analogue of the 1D bisection in adapt/refiner.hpp, with the same
// determinism argument: each level's corner batch is an index-ordered
// MapWithPolicy wave whose composition is a pure function of prior
// labels.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "adapt/refiner.hpp"
#include "exec/run_report.hpp"
#include "exec/sweep_executor.hpp"
#include "report/record.hpp"

namespace amdmb::adapt {

/// A measured frontier plus its per-node sweep report.
struct FrontierResult {
  report::Frontier frontier;
  exec::RunReport report;
};

/// Quadrant refinement over an nx × ny grid of labelled nodes.
/// `measure(ix, iy, attempt)` returns the node's label; `x_of`/`y_of`
/// give node coordinates. A null `adaptive` measures every node in one
/// wave. Otherwise each refinement level is one wave, the total is
/// capped by `adaptive->budget`, and every wave is reported to
/// `adaptive->on_wave`, as Refiner does. `executor` (null = the process
/// default), `retry` and `cancel` act as in MapWithPolicy.
FrontierResult RefineGrid(
    std::size_t nx, std::size_t ny,
    const std::function<double(std::size_t)>& x_of,
    const std::function<double(std::size_t)>& y_of,
    const std::function<std::string(std::size_t ix, std::size_t iy,
                                    unsigned attempt)>& measure,
    const Settings* adaptive, const exec::SweepExecutor* executor,
    const exec::RetryPolicy& retry,
    const exec::CancelToken* cancel = nullptr);

}  // namespace amdmb::adapt
