// The one sweep shape behind every micro-benchmark runner.
//
// Each of the paper's micro-benchmarks (Sec. III) varies one kernel
// parameter over a grid and asks where the bottleneck flips. Every
// runner's config derives from SweepOptions (how a point executes) and
// adds its grid; every result is, or derives from, SweepResult (what a
// sweep yields) and adds its analysis.
//
// A dense sweep is a refinement whose coarse pass already covers the
// whole grid, so SweepPoints always runs adapt::Refiner. Without
// adaptive settings it sets coarse_points to the grid size: the coarse
// pass measures every index in one index-ordered wave, and no bisection
// wave can follow, because every midpoint has already been attempted.
// That wave is one exec::SweepExecutor::MapWithPolicy batch over the
// grid, so a dense sweep keeps its points, retry/skip semantics and
// RunReport order at any thread width.
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
#include "report/record.hpp"
#include "sim/gpu.hpp"
#include "suite/microbench.hpp"

namespace amdmb::suite {

/// How every point of a sweep executes.
struct SweepOptions {
  unsigned repetitions = kPaperRepetitions;
  /// Force hardware-counter profiling for every point of this sweep
  /// (tests use this to bypass the cached AMDMB_PROF snapshot).
  bool profile = false;
  /// Sweep points run through this executor (null = the process default,
  /// AMDMB_THREADS workers). Results are bit-identical at any width.
  const exec::SweepExecutor* executor = nullptr;
  /// Per-point retry/skip behaviour under faults (AMDMB_RETRY default).
  exec::RetryPolicy retry = exec::RetryPolicy::FromEnv();
  /// Optional cooperative cancellation: points not yet started when the
  /// token fires are skipped (the bench binaries wire their SIGINT/
  /// SIGTERM flag here so an interrupted run still flushes a partial
  /// figure).
  const exec::CancelToken* cancel = nullptr;

  /// One point's launch, with these options' repetitions and profiling.
  sim::LaunchConfig Launch(Domain domain, ShaderMode mode,
                           BlockShape block) const {
    sim::LaunchConfig launch;
    launch.domain = domain;
    launch.mode = mode;
    launch.block = block;
    launch.repetitions = repetitions;
    launch.profile = profile;
    return launch;
  }
};

/// What every sweep yields. `Point` is a struct with a Measurement `m`.
template <typename Point>
struct SweepResult {
  std::vector<Point> points;  ///< Successful points only, in grid order.
  /// Per-point outcome (ok / retried / skipped) of the whole sweep.
  exec::RunReport report;
  /// Refinement record (points spent, typed transitions); present only
  /// when the sweep ran adaptively.
  std::optional<adapt::Outcome> adaptive;

  /// Appends the refinement's findings for `curve`, x in `unit`. Adds
  /// nothing for a dense sweep, so dense documents stay byte-identical.
  void AppendAdaptiveFindings(std::vector<report::Finding>& findings,
                              const std::string& curve,
                              const std::string& unit) const {
    if (!adaptive.has_value()) return;
    const auto extra = adapt::AdaptiveFindings(*adaptive, curve, unit);
    findings.insert(findings.end(), extra.begin(), extra.end());
  }
};

/// Sweeps grid indices 0 .. count-1 into `result`: the successful
/// points in grid order, one PointOutcome per measured point labelled
/// `label_of(index)`, and the refinement record of adaptive sweeps only.
///
/// - `measure(index, attempt)` measures one Point; its bottleneck
///   verdict is the label refinement bisects on. `x_of(index)` is the
///   index's x coordinate.
/// - `options`' executor, retry and cancel act as in MapWithPolicy.
/// - `adaptive` null sweeps the whole grid; otherwise it holds the
///   refinement settings.
template <typename Point>
void SweepPoints(std::size_t count, const adapt::Refiner::XOfFn& x_of,
                 const std::function<Point(std::size_t, unsigned)>& measure,
                 const std::function<std::string(std::size_t)>& label_of,
                 const SweepOptions& options,
                 const adapt::Settings* adaptive,
                 SweepResult<Point>& result) {
  adapt::Settings settings;
  if (adaptive != nullptr) {
    settings = *adaptive;
  } else {
    settings.coarse_points = std::max<std::size_t>(count, 2);
  }
  // Waves touch distinct indices, so the slot writes never race.
  std::vector<std::optional<Point>> slots(count);
  const adapt::Refiner refiner(std::move(settings), options.executor,
                               options.retry, options.cancel);
  adapt::Outcome refined = refiner.Run(
      count, x_of,
      [&](std::size_t i, unsigned attempt) {
        Point point = measure(i, attempt);
        std::string label(sim::ToString(point.m.stats.bottleneck));
        slots[i] = std::move(point);
        return label;
      },
      &result.report);
  for (exec::PointOutcome& p : result.report.points) {
    p.label = label_of(p.index);
  }
  for (std::optional<Point>& slot : slots) {
    if (slot) result.points.push_back(std::move(*slot));
  }
  if (adaptive != nullptr) result.adaptive = std::move(refined);
}

}  // namespace amdmb::suite
