// Every document the suite produces, as runnable definitions.
//
// A FigureDef carries a document's metadata plus one CurveDef per
// curve, and Build is the one path from definition to document. Two
// lists hold the definitions. Registry() has the paper's numbered
// figures, which the amdmb_serve daemon serves and the repo benchmark
// pins. Supplements() has Table I, the Fig. 5 control, three model
// ablations, the block-size extension and the 2D frontier map. The
// bench binaries (bench::Main), the daemon, the golden test,
// example_suite_report and amdmb_adapt all build from these
// definitions, so a served figure document is byte-identical to the
// one the standalone binary writes.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adapt/refiner.hpp"
#include "exec/run_report.hpp"
#include "exec/sweep_executor.hpp"
#include "il/il.hpp"
#include "report/record.hpp"
#include "sim/gpu.hpp"

namespace amdmb::suite::figures {

/// How to run a figure build. The bench binaries pass the environment
/// snapshot (quick = AMDMB_QUICK, process interrupt token); the serve
/// daemon passes the request's quick flag.
struct RunOptions {
  bool quick = false;
  /// Sweep executor for every curve (null = process default).
  const exec::SweepExecutor* executor = nullptr;
  /// Cooperative cancellation (may be null): every curve's sweep skips
  /// its remaining points, and Build starts no further curve.
  const exec::CancelToken* cancel = nullptr;
  /// Non-null runs every curve's sweep adaptively (coarse pass +
  /// bisection, adapt::Refiner) instead of densely. Reflected in
  /// `figure.meta.adaptive`.
  const adapt::Settings* adaptive = nullptr;
};

/// One curve of a figure. `run` executes the sweep and appends the
/// curve's series / findings / degradations / profiles to the figure
/// record.
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

/// Called after each curve completes: (curve index, curve count, curve
/// name, the figure record built so far).
using CurveCallback = std::function<void(
    std::size_t, std::size_t, const std::string&, const report::Figure&)>;

/// Runs every curve of `def` in order and returns the finalized figure
/// record — the exact record the bench binary's sinks print. Once
/// opts.cancel has fired no further curve starts, so an interrupted
/// build keeps exactly the curves that had started. `figure.meta.quick`
/// reflects opts.quick (the request scale), not the process
/// environment.
report::Figure Build(const FigureDef& def, const RunOptions& opts,
                     const CurveCallback& on_curve = {});

/// Records one sweep on the figure, attributed to `curve`: every non-ok
/// point of `result.report` as a typed Degradation and every profiled
/// point as a ProfileEntry (none when profiling was off).
template <typename Result>
void Note(report::Figure& figure, const std::string& curve,
          const Result& result) {
  for (report::Degradation& d :
       report::DegradationsFrom(result.report, curve)) {
    figure.degradations.push_back(std::move(d));
  }
  for (const auto& point : result.points) {
    if (point.m.profile == nullptr) continue;
    figure.profiles.push_back(report::MakeProfileEntry(
        curve, *point.m.profile, sim::ToString(point.m.stats.bottleneck)));
  }
}

/// Appends `findings` to the record in order.
void Append(report::Figure& figure, std::vector<report::Finding> findings);

/// A runner config carrying opts: a 256x256 domain when quick (for
/// configs with one domain), the executor, the cancel token and the
/// adaptive settings (for configs that refine).
template <typename Config>
Config Quick(const RunOptions& opts) {
  Config config;
  if constexpr (requires { config.domain; }) {
    if (opts.quick) config.domain = Domain{256, 256};
  }
  if constexpr (requires { config.adaptive; }) {
    config.adaptive = opts.adaptive;
  }
  config.executor = opts.executor;
  config.cancel = opts.cancel;
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
