// Every document the suite produces, as runnable definitions.
//
// A FigureDef carries a document's metadata plus one CurveDef per
// curve, and Build is the one path from definition to document. Two
// lists hold the definitions. Registry() has the paper's numbered
// figures, which the amdmb_serve daemon serves and the repo benchmark
// pins. Supplements() has Table I, the Fig. 5 control, three model
// ablations, the block-size extension and the 2D frontier map. The
// bench binaries (bench::Main), the daemon, the golden test,
// example_suite_report, amdmb_adapt and amdmb_prof all build from these
// definitions, so a served figure document is byte-identical to the
// one the standalone binary writes.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "adapt/refiner.hpp"
#include "exec/run_report.hpp"
#include "exec/sweep_executor.hpp"
#include "il/il.hpp"
#include "prof/profile.hpp"
#include "report/record.hpp"
#include "sim/gpu.hpp"
#include "suite/sweep.hpp"

namespace amdmb::suite::figures {

/// How to run a figure build. The bench binaries pass the environment
/// snapshot (quick = AMDMB_QUICK, process interrupt token); the serve
/// daemon passes the request's quick flag.
struct RunOptions {
  bool quick = false;
  /// Sweep executor for every curve (null = process default).
  const exec::SweepExecutor* executor = nullptr;
  /// Cooperative cancellation (may be null): every curve's sweep skips
  /// its remaining points, and Build emits and starts no further curve.
  const exec::CancelToken* cancel = nullptr;
  /// Non-null runs every curve's sweep adaptively (coarse pass +
  /// bisection, adapt::Refine) instead of densely. Reflected in
  /// `figure.meta.adaptive`.
  const adapt::Settings* adaptive = nullptr;
  /// Non-empty turns profiling on in every Quick config and receives,
  /// from Note, each ProfileEntry's curve and the launch's full profile,
  /// once and in `figure.profiles` order (Build replays the calls on its
  /// calling thread). The document keeps only the entries.
  std::function<void(const std::string&, const prof::Profile&)> on_profile;
};

/// One curve of a figure. `run` executes the sweep and appends the
/// curve's series / findings / degradations / profiles to the record it
/// is given: under Build, a fragment of the figure that holds only this
/// curve's output.
struct CurveDef {
  std::string name;  ///< Progress label ("4870 Pixel Float").
  std::function<void(report::Figure&, const RunOptions&)> run;
};

/// One reproducible document of the paper.
struct FigureDef {
  std::string slug;  ///< Canonical slug ("fig_7"), = FigureSlug(id).
  std::string id;    ///< "Fig. 7 — ALU:Fetch Ratio for 16 Inputs".
  std::string title;
  std::string x_label;
  std::string y_label;
  std::string paper_claim;
  std::string what;  ///< One-line description for listings.
  std::vector<CurveDef> curves;
};

/// Every registered figure, in paper order. Figs. 7-17 (Fig. 15 splits
/// into 15a/15b, one per shader mode, exactly as the bench binary
/// emits them).
const std::vector<FigureDef>& Registry();

/// The documents beside the numbered figures, in bench-binary order:
/// Table I (findings only), the block-size explorer, the Fig. 5
/// clause-usage control and the cache-index, residency-cap and DRAM
/// row-locality ablations, then the ALU:Fetch x register-step frontier
/// map that amdmb_adapt prints. Not served; Find(slug, Supplements())
/// reaches them.
const std::vector<FigureDef>& Supplements();

/// Slug normalization for lookups: lower-cases, drops every
/// non-alphanumeric character, and strips leading zeros from digit runs
/// so "fig07", "fig_7", "Fig7" all name the same figure.
std::string NormalizeSlug(std::string_view name);

/// Finds a figure by (normalized) slug in `registry`; nullptr when
/// unknown.
const FigureDef* Find(std::string_view name,
                      const std::vector<FigureDef>& registry = Registry());

/// Called after each curve completes, on Build's calling thread and in
/// curve order: (curve index, curve count, curve name, the figure record
/// built so far).
using CurveCallback = std::function<void(
    std::size_t, std::size_t, const std::string&, const report::Figure&)>;

/// Runs the curves of `def` as tasks on the executor's pool, curve i at
/// rank i, and returns the finalized figure record — the exact record
/// the bench binary prints. Each curve fills its own fragment. On the
/// calling thread, in curve order, Build merges each fragment into the
/// figure, replays the curve's opts.adaptive->on_wave and
/// opts.on_profile calls, then calls `on_curve`, so documents and
/// callback sequences are the same at any executor width. Once
/// opts.cancel has fired by the time a curve is emitted, no later curve
/// is emitted or started. Every curve task has finished when Build
/// returns or throws; a throwing curve's exception is rethrown as is,
/// after the curves before it were emitted. `figure.meta.quick`
/// reflects opts.quick (the request scale), not the process
/// environment.
report::Figure Build(const FigureDef& def, const RunOptions& opts,
                     const CurveCallback& on_curve = {});

/// Records one sweep on the figure, attributed to `curve`: every non-ok
/// point of `result.report` as a typed Degradation and every profiled
/// point as a ProfileEntry (none when profiling was off), handing its
/// profile to opts.on_profile.
void Note(report::Figure& figure, const RunOptions& opts,
          const std::string& curve, const SweepResult& result);

/// Adds every point of `result` to `series` as (x, seconds).
void Plot(Series& series, const SweepResult& result);

/// Appends `findings` to the record in order.
void Append(report::Figure& figure, std::vector<report::Finding> findings);

/// A runner config carrying opts: a 256x256 domain when quick (for
/// configs with one domain), the executor, the cancel token, profiling
/// when opts.on_profile is set, and the adaptive settings.
template <typename Config>
Config Quick(const RunOptions& opts) {
  Config config;
  if constexpr (requires { config.domain; }) {
    if (opts.quick) config.domain = Domain{256, 256};
  }
  config.adaptive = opts.adaptive;
  config.executor = opts.executor;
  config.cancel = opts.cancel;
  if (opts.on_profile) config.profile = true;
  return config;
}

/// One representative operating point of a registry figure: the kernel
/// the figure's runner generates there (from the runner's own kernel
/// builder and the figure's quick config), its architecture, and a
/// profiled launch at the quick 256x256 domain. Every point is on the
/// quick sweep's grid except the ALU:fetch ratio 8.0, which is the paper
/// grid's end (the quick grid stops at 7.25), launched at the quick
/// domain. The kerncap cross-validation test prints the kernel's IL,
/// re-ingests it through the untrusted-input intake, and measures at
/// this launch — the result must match the registry path bit-for-bit
/// (KernelStats operator==), bottleneck verdict included.
struct CrossCheckPoint {
  std::string figure;  ///< Registry slug ("fig_7").
  std::string curve;   ///< CurveKey name ("4870 Pixel Float").
  std::string point;   ///< Sweep point label ("alufetch_r0.25").
  il::Kernel kernel;
  GpuArch arch;
  sim::LaunchConfig config;
};

/// Quick-scale (256x256 domain) operating points covering every
/// registry figure family across its architectures and shader modes.
std::vector<CrossCheckPoint> CrossCheckPoints();

}  // namespace amdmb::suite::figures
