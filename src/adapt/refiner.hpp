// Coarse-to-fine sweep refinement, in one and two dimensions.
//
// Every figure in the paper is a dense 1D sweep whose payoff is a
// handful of transition points — where the bottleneck classification
// flips, or a curve bends. Refine finds those transitions with a
// fraction of the dense point count: a coarse pass over a few evenly
// spaced grid indices, then repeated bisection of every bracketing
// interval whose endpoints disagree, until each bracket is at most
// `tol_steps` dense grid steps wide (or the point budget runs out).
// RefineGrid is the 2D analogue behind the frontier map: it measures
// cell corners, fills any cell whose four corners agree, and splits
// disagreeing cells at their midpoints. Without settings, either one
// measures its whole grid in one wave, which is how every dense sweep
// runs.
//
// Determinism: both refiners run on one wave engine. Each wave is an
// index-ordered batch run through exec::SweepExecutor::MapWithPolicy,
// and the composition of wave k+1 is a pure function of the labels
// measured in waves 0..k. Labels are classifier outputs, which are
// themselves deterministic per point, so the full refinement
// trajectory — which points run, in which waves — is identical at any
// AMDMB_THREADS and under any scheduling. Fault retries draw their
// decisions from (site, "<point>#<attempt>") keys (src/fault),
// independent of which points the refiner selects, so a seeded retry
// changes attempt counts but never the selected points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "adapt/transition.hpp"
#include "exec/run_report.hpp"
#include "exec/sweep_executor.hpp"
#include "report/record.hpp"

namespace amdmb::adapt {

/// Progress snapshot handed to Settings::on_wave after each wave (the
/// serve layer streams these as `refine` events).
struct WaveInfo {
  std::size_t wave = 0;          ///< 0 = the coarse pass.
  std::size_t wave_points = 0;   ///< Points measured in this wave.
  std::size_t points_spent = 0;  ///< Cumulative points measured so far.
  std::size_t dense_points = 0;  ///< Size of the dense grid being avoided.
};

/// Refinement knobs. The env-backed defaults come from AMDMB_ADAPT_TOL
/// and AMDMB_ADAPT_BUDGET (src/common/env).
struct Settings {
  /// Stop refining an interval once its endpoints are at most this many
  /// dense grid steps apart (>= 1). The adaptive/dense agreement
  /// guarantee follows: a reported transition x is within `tol_steps`
  /// grid steps of the dense run's answer.
  unsigned tol_steps = 2;
  /// Hard cap on total points measured per refinement, the coarse pass
  /// included (0 = unlimited). When the cap bites, waves are truncated
  /// lowest-index-first, so the truncation itself is deterministic.
  std::uint64_t budget = 0;
  /// Called after every completed wave, on the sweep thread. Under
  /// figures::Build the calls are recorded per curve and replayed on
  /// Build's calling thread, in curve order, before that curve's
  /// on_curve.
  std::function<void(const WaveInfo&)> on_wave;

  /// tol_steps/budget from the centralized env snapshot (env::Get()).
  static Settings FromEnv();
};

/// What one refinement did and found.
struct Outcome {
  std::size_t dense_points = 0;  ///< Dense grid size this run replaced.
  std::size_t points_spent = 0;  ///< Points actually measured.
  std::size_t waves = 0;         ///< Coarse pass + bisection waves.
  /// Dense grid indices measured (attempted), ascending. The fault
  /// determinism test asserts this is identical with and without a
  /// seeded retry schedule.
  std::vector<std::size_t> measured;
  /// Successfully classified samples in grid order (skipped points are
  /// absent).
  std::vector<Sample> samples;
  /// Every label flip in `samples` (see DetectTransitions). Transition
  /// indices refer to positions in `samples`.
  std::vector<Transition> transitions;

  /// points_spent / dense_points (1.0 for an empty grid).
  double SpendFraction() const;
};

/// Measures dense grid index `index` (attempt counter as in
/// MapWithPolicy) and returns its classifier label. Callers stash the
/// full measurement in their own slot vector keyed by index — waves
/// touch distinct indices, so slot writes never race.
using MeasureFn =
    std::function<std::string(std::size_t index, unsigned attempt)>;
/// The x coordinate of dense grid index `index` (pure).
using XOfFn = std::function<double(std::size_t index)>;

/// Sweeps a grid of `count` indices. A null `adaptive` measures every
/// index in one wave; otherwise a coarse pass and bisection waves run
/// under its tolerance, budget and wave callback. `executor` (null =
/// the process default), `retry` and `cancel` act as in MapWithPolicy,
/// and an interval whose midpoint was skipped is left unrefined rather
/// than retried forever. A non-null `report` receives one PointOutcome
/// per measured point in wave order, with `index` the grid index and
/// the label "point <index>" (callers may rename them afterwards).
Outcome Refine(std::size_t count, const XOfFn& x_of, const MeasureFn& measure,
               const Settings* adaptive, const exec::SweepExecutor* executor,
               const exec::RetryPolicy& retry,
               const exec::CancelToken* cancel = nullptr,
               exec::RunReport* report = nullptr);

/// A measured frontier plus its per-node sweep report.
struct FrontierResult {
  report::Frontier frontier;
  exec::RunReport report;
};

/// Quadrant refinement over an nx × ny grid of labelled nodes.
/// `measure(ix, iy, attempt)` returns the node's label; `x_of`/`y_of`
/// give node coordinates. A null `adaptive` measures every node in one
/// wave. Otherwise each refinement level is one wave, under the same
/// budget and wave callback as Refine. `executor`, `retry` and `cancel`
/// act as in Refine; report entries are labelled "node_x<ix>_y<iy>".
FrontierResult RefineGrid(
    std::size_t nx, std::size_t ny,
    const std::function<double(std::size_t)>& x_of,
    const std::function<double(std::size_t)>& y_of,
    const std::function<std::string(std::size_t ix, std::size_t iy,
                                    unsigned attempt)>& measure,
    const Settings* adaptive, const exec::SweepExecutor* executor,
    const exec::RetryPolicy& retry,
    const exec::CancelToken* cancel = nullptr);

/// Renders an Outcome as typed findings for a figure record: one
/// kCrossover finding per detected transition (value = the transition's
/// upper x, detail = the bracketing interval) plus one kEvent
/// "adaptive_points" finding stating points spent vs dense. `unit` is
/// the x-axis unit ("ratio", "inputs", ...). Only adaptive runs emit
/// these, so dense documents stay byte-identical.
std::vector<report::Finding> AdaptiveFindings(const Outcome& outcome,
                                              const std::string& curve,
                                              const std::string& unit);

}  // namespace amdmb::adapt
