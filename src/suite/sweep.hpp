// The one 1-D point sweep behind every micro-benchmark runner.
//
// Each of the paper's micro-benchmarks (Sec. III) varies one kernel
// parameter over a grid and asks where the bottleneck flips. A dense
// sweep is a refinement whose coarse pass already covers the whole
// grid, so SweepPoints always runs adapt::Refiner. Without adaptive
// settings it sets coarse_points to the grid size: the coarse pass
// measures every index in one index-ordered wave, and no bisection wave
// can follow, because every midpoint has already been attempted. That
// wave is one exec::SweepExecutor::MapWithPolicy batch over the grid, so
// a dense sweep keeps its points, retry/skip semantics and RunReport
// order at any thread width.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adapt/refiner.hpp"
#include "exec/run_report.hpp"
#include "exec/sweep_executor.hpp"
#include "sim/gpu.hpp"

namespace amdmb::suite {

/// Sweeps grid indices 0 .. count-1 and returns the successful points in
/// grid order.
///
/// - `measure(index, attempt)` measures one Point, a struct with a
///   Measurement `m`; its bottleneck verdict is the label refinement
///   bisects on. `x_of(index)` is the index's x coordinate.
/// - `adaptive` null sweeps the whole grid; otherwise it holds the
///   refinement settings.
/// - `executor`, `retry` and `cancel` act as in MapWithPolicy.
/// - `report` (may be null) receives one PointOutcome per measured
///   point, labelled `label_of(index)`.
/// - `outcome` (may be null) receives the refinement record of adaptive
///   sweeps only, so dense documents gain no adaptive findings.
template <typename Point>
std::vector<Point> SweepPoints(
    std::size_t count, const adapt::Refiner::XOfFn& x_of,
    const std::function<Point(std::size_t, unsigned)>& measure,
    const std::function<std::string(std::size_t)>& label_of,
    const adapt::Settings* adaptive, const exec::SweepExecutor* executor,
    const exec::RetryPolicy& retry, const exec::CancelToken* cancel,
    exec::RunReport* report, std::optional<adapt::Outcome>* outcome) {
  adapt::Settings settings;
  if (adaptive != nullptr) {
    settings = *adaptive;
  } else {
    settings.coarse_points = std::max<std::size_t>(count, 2);
  }
  // Waves touch distinct indices, so the slot writes never race.
  std::vector<std::optional<Point>> slots(count);
  const adapt::Refiner refiner(std::move(settings), executor, retry, cancel);
  adapt::Outcome refined = refiner.Run(
      count, x_of,
      [&](std::size_t i, unsigned attempt) {
        Point point = measure(i, attempt);
        std::string label(sim::ToString(point.m.stats.bottleneck));
        slots[i] = std::move(point);
        return label;
      },
      report);
  if (report != nullptr) {
    for (exec::PointOutcome& p : report->points) p.label = label_of(p.index);
  }
  std::vector<Point> points;
  for (std::optional<Point>& slot : slots) {
    if (slot) points.push_back(std::move(*slot));
  }
  if (adaptive != nullptr && outcome != nullptr) *outcome = std::move(refined);
  return points;
}

}  // namespace amdmb::suite
