// amdmb_adapt — the adaptive-sweep driver and cross-checker.
//
// Verbs:
//   figure <slug> [--quick] [--tol N] [--budget N] [--max-ratio F] [--json]
//       Runs the registry figure twice — densely and adaptively — and
//       diffs every crossover finding between the two documents. Each
//       crossover must agree within the refinement tolerance (tol grid
//       steps); the points-spent ratio is reported and must be at most
//       F in (0, 1] when given. --json prints the adaptive document's
//       BENCH JSON to stdout. Exit 0 ok, 4 disagreement, 5 over budget.
//   frontier [--dense | --budget N] [--quick] [--json]
//       Builds the 2D ALU:Fetch x register-step bottleneck frontier map
//       (a supplement document) and prints it through the text sink, or
//       as BENCH JSON with --json. AMDMB_JSON_DIR / AMDMB_DUMP_DIR write
//       the document and the pm3d heatmap exactly like a bench binary.
//   --list
//       Prints every registry figure slug usable with `figure`.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "adapt/refiner.hpp"
#include "common/env.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/version.hpp"
#include "report/gnuplot_sink.hpp"
#include "report/json_sink.hpp"
#include "report/text_sink.hpp"
#include "suite/figures.hpp"

namespace {

using namespace amdmb;

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " <verb> [options]\n"
      << "  figure <slug> [--quick] [--tol N] [--budget N] [--max-ratio F]"
         " [--json]\n"
      << "  frontier [--dense | --budget N] [--quick] [--json]\n"
      << "  --list, --version\n";
  return 2;
}

/// The --max-ratio operand: the whole token must be a finite number in
/// (0, 1].
double ParseMaxRatio(std::string_view text) {
  double ratio = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), ratio);
  Require(ec == std::errc() && ptr == text.data() + text.size() &&
              std::isfinite(ratio) && ratio > 0.0 && ratio <= 1.0,
          "--max-ratio '" + std::string(text) +
              "': must be a point share in (0, 1]");
  return ratio;
}

/// Largest adjacent x spacing over every dense curve: the unit the
/// refinement tolerance is expressed in for this figure.
double DenseGridStep(const report::Figure& dense) {
  double step = 0.0;
  for (const Series& series : dense.set.All()) {
    const auto& points = series.Points();
    for (std::size_t i = 1; i < points.size(); ++i) {
      step = std::max(step, points[i].x - points[i - 1].x);
    }
  }
  return step;
}

struct CrossoverDiff {
  std::string curve;
  std::string label;
  std::optional<double> dense;
  std::optional<double> adaptive;
  bool agree = false;
};

/// Diffs every kCrossover finding of the dense document against the
/// adaptive one. Adaptive-only findings (transition_to_*, emitted by
/// AdaptiveFindings) are not expected densely and are skipped.
std::vector<CrossoverDiff> DiffCrossovers(const report::Figure& dense,
                                          const report::Figure& adaptive,
                                          double tolerance_x) {
  std::vector<CrossoverDiff> diffs;
  for (const report::Finding& d : dense.findings) {
    if (d.kind != report::FindingKind::kCrossover) continue;
    CrossoverDiff diff;
    diff.curve = d.curve;
    diff.label = d.label;
    diff.dense = d.value;
    const report::Finding* a =
        report::FindFinding(adaptive.findings, d.label, d.curve);
    if (a == nullptr) {
      diff.agree = false;  // The adaptive run lost the finding entirely.
    } else {
      diff.adaptive = a->value;
      if (!d.value.has_value() && !a->value.has_value()) {
        diff.agree = true;  // Censored in both runs.
      } else if (d.value.has_value() && a->value.has_value()) {
        diff.agree =
            std::abs(*d.value - *a->value) <= tolerance_x + 1e-9;
      } else {
        diff.agree = false;
      }
    }
    diffs.push_back(diff);
  }
  return diffs;
}

std::string RenderValue(const std::optional<double>& value) {
  return value.has_value() ? FormatDouble(*value, 4) : "censored";
}

/// Sum of the per-curve "adaptive_points" findings — the points the
/// refiner actually measured across the whole figure.
double AdaptivePointsSpent(const report::Figure& adaptive) {
  double spent = 0.0;
  for (const report::Finding& f : adaptive.findings) {
    if (f.label == "adaptive_points" && f.value.has_value()) {
      spent += *f.value;
    }
  }
  return spent;
}

int RunFigure(const std::string& slug, bool quick, adapt::Settings settings,
              std::optional<double> max_ratio, bool json) {
  const suite::figures::FigureDef* def = suite::figures::Find(slug);
  if (def == nullptr) {
    std::cerr << "error: unknown figure slug: " << slug << "\n";
    return 2;
  }
  suite::figures::RunOptions dense_opts;
  dense_opts.quick = quick;
  const report::Figure dense = suite::figures::Build(*def, dense_opts);

  suite::figures::RunOptions adaptive_opts = dense_opts;
  adaptive_opts.adaptive = &settings;
  const report::Figure adaptive = suite::figures::Build(*def, adaptive_opts);

  const double step = DenseGridStep(dense);
  const double tolerance_x = settings.tol_steps * step;
  const std::vector<CrossoverDiff> diffs =
      DiffCrossovers(dense, adaptive, tolerance_x);

  std::size_t dense_points = 0;
  for (const Series& series : dense.set.All()) {
    dense_points += series.Points().size();
  }
  const double spent = AdaptivePointsSpent(adaptive);

  std::size_t disagreements = 0;
  std::cerr << def->slug << ": " << diffs.size() << " crossover(s), "
            << "tolerance " << FormatDouble(tolerance_x, 4) << " ("
            << settings.tol_steps << " grid steps)\n";
  for (const CrossoverDiff& diff : diffs) {
    if (!diff.agree) ++disagreements;
    std::cerr << "  " << (diff.agree ? "ok      " : "DISAGREE") << "  "
              << diff.curve << "/" << diff.label << ": dense "
              << RenderValue(diff.dense) << ", adaptive "
              << RenderValue(diff.adaptive) << "\n";
  }
  const double ratio = dense_points > 0 ? spent / dense_points : 0.0;
  std::cerr << "  points: adaptive " << FormatDouble(spent, 0) << " of "
            << dense_points << " dense";
  if (dense_points > 0) {
    std::cerr << " (" << FormatDouble(100.0 * ratio, 1) << "%)";
  }
  if (max_ratio) {
    std::cerr << ", limit " << FormatDouble(100.0 * *max_ratio, 1) << "%";
  }
  std::cerr << "\n";
  if (json) std::cout << report::BenchJson(adaptive);
  if (disagreements > 0) return 4;
  return max_ratio && ratio > *max_ratio ? 5 : 0;
}

int RunFrontier(bool dense, bool quick, const adapt::Settings& settings,
                bool json) {
  const suite::figures::FigureDef* def = suite::figures::Find(
      "frontier_alu_fetch_x_gpr", suite::figures::Supplements());
  suite::figures::RunOptions opts;
  opts.quick = quick;
  opts.adaptive = dense ? nullptr : &settings;
  const report::Figure figure = suite::figures::Build(*def, opts);
  if (json) {
    std::cout << report::BenchJson(figure);
  } else {
    report::TextSink(std::cout).Write(figure);
  }
  const env::Options& options = env::Get();
  if (options.dump_dir) {
    report::GnuplotSink sink(*options.dump_dir);
    sink.Write(figure);
    for (const auto& path : sink.Written()) {
      std::cerr << sink.Label() << ": " << path.string() << "\n";
    }
  }
  if (options.json_dir) {
    report::JsonSink sink(*options.json_dir);
    sink.Write(figure);
    for (const auto& path : sink.Written()) {
      std::cerr << sink.Label() << ": " << path.string() << "\n";
    }
  }
  return 0;
}

int RunList() {
  for (const suite::figures::FigureDef& def :
       suite::figures::Registry()) {
    std::cout << def.slug << "  " << def.what << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string verb;
    std::string slug;
    bool quick = false;
    bool json = false;
    bool dense = false;
    bool has_budget = false;
    std::optional<double> max_ratio;
    adapt::Settings settings = adapt::Settings::FromEnv();
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--version") {
        std::cout << "amdmb_adapt " << SuiteVersion() << "\n";
        return 0;
      } else if (arg == "--list") {
        return RunList();
      } else if (arg == "--quick") {
        quick = true;
      } else if (arg == "--json") {
        json = true;
      } else if (arg == "--dense") {
        dense = true;
      } else if (arg == "--tol" && i + 1 < argc) {
        settings.tol_steps = env::ParseAdaptTol(argv[++i]);
      } else if (arg == "--budget" && i + 1 < argc) {
        settings.budget = env::ParseAdaptBudget(argv[++i]);
        has_budget = true;
      } else if (arg == "--max-ratio" && i + 1 < argc) {
        max_ratio = ParseMaxRatio(argv[++i]);
      } else if (!arg.empty() && arg[0] == '-') {
        return Usage(argv[0]);
      } else if (verb.empty()) {
        verb = arg;
      } else if (slug.empty()) {
        slug = arg;
      } else {
        return Usage(argv[0]);
      }
    }
    if (verb == "figure" && !slug.empty()) {
      return RunFigure(slug, quick, settings, max_ratio, json);
    }
    // A dense map measures every node, so a budget has no meaning there.
    if (verb == "frontier" && slug.empty() && !max_ratio &&
        !(dense && has_budget)) {
      return RunFrontier(dense, quick, settings, json);
    }
    return Usage(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "amdmb_adapt: " << e.what() << "\n";
    return 1;
  }
}
