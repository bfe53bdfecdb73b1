// The one sweep shape behind every micro-benchmark runner.
//
// Each of the paper's micro-benchmarks (Sec. III) varies one kernel
// parameter over a grid and asks where the bottleneck flips, so every
// sweep yields the same record: a measurement at an x. Every runner's
// config derives from SweepOptions (how a point executes) and adds its
// grid; every result is, or derives from, SweepResult (what a sweep
// yields) and adds its analysis.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
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
  /// Non-null switches the sweep to adaptive refinement (adapt::Refine):
  /// only the coarse pass plus bisection points around bottleneck flips
  /// are measured. Dense output is unchanged when null.
  const adapt::Settings* adaptive = nullptr;

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

/// One measured point of a sweep.
struct SweepPoint {
  std::size_t index = 0;  ///< Grid index.
  double x = 0.0;         ///< The sweep's x_of(index).
  Measurement m;
};

/// What every sweep yields.
struct SweepResult {
  std::vector<SweepPoint> points;  ///< Successful points only, in grid order.
  /// Per-point outcome (ok / retried / skipped) of the whole sweep.
  exec::RunReport report;
  /// Refinement record (points spent, typed transitions); present only
  /// when the sweep ran adaptively.
  std::optional<adapt::Outcome> adaptive;

  /// Appends the refinement's findings for `curve`, x in `unit`. Adds
  /// nothing for a dense sweep, so dense documents stay byte-identical.
  void AppendAdaptiveFindings(std::vector<report::Finding>& findings,
                              const std::string& curve,
                              const std::string& unit) const;
};

/// Sweeps grid indices 0 .. count-1 with adapt::Refine into `result`:
/// the successful points in grid order, one PointOutcome per measured
/// point labelled `label_of(index)`, and the refinement record of
/// adaptive sweeps only.
///
/// - `measure(index, attempt)` measures one point; its bottleneck
///   verdict is the label refinement bisects on. `x_of(index)` is the
///   index's x coordinate, recorded on the point.
/// - `options`' executor, retry and cancel act as in MapWithPolicy;
///   its `adaptive` settings, null for a dense sweep, go to Refine.
void SweepPoints(
    std::size_t count, const adapt::XOfFn& x_of,
    const std::function<Measurement(std::size_t, unsigned)>& measure,
    const std::function<std::string(std::size_t)>& label_of,
    const SweepOptions& options, SweepResult& result);

}  // namespace amdmb::suite
