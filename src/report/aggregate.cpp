#include "report/aggregate.hpp"

#include <algorithm>
#include <sstream>

#include "common/table.hpp"

namespace amdmb::report {
namespace {

/// The median of `values`, as the BENCH writer computes it.
double MedianOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void EmitRunMeta(std::ostringstream& out, const std::vector<Figure>& figures) {
  if (figures.empty()) return;
  const RunMeta& m = figures.front().meta;
  out << "Run: suite " << (m.suite_version.empty() ? "unknown"
                                                   : m.suite_version)
      << ", " << m.threads << " sweep thread" << (m.threads == 1 ? "" : "s")
      << ", " << (m.quick ? "quick" : "full") << " domains";
  if (!m.faults.empty()) out << ", faults `" << m.faults << "`";
  if (!m.retry.empty()) out << ", retry `" << m.retry << "`";
  if (m.watchdog_cycles != 0) {
    out << ", watchdog " << m.watchdog_cycles << " cycles";
  }
  out << ".\n\n";
}

void EmitFigure(std::ostringstream& out, const Figure& figure) {
  out << "## " << figure.id << " (`BENCH_" << figure.Slug() << ".json`)\n\n";
  if (!figure.paper_claim.empty()) {
    out << "Paper claim: " << figure.paper_claim << "\n\n";
  }
  if (!figure.set.All().empty()) {
    out << "| Curve | Points | Median (s) | Min (s) | Max (s) |\n"
        << "|---|---|---|---|---|\n";
    for (const Curve& curve : figure.set.All()) {
      const std::vector<double> ys = curve.Ys();
      const auto [min, max] = std::minmax_element(ys.begin(), ys.end());
      out << "| " << curve.Name() << " | " << ys.size() << " | "
          << FormatDouble(MedianOf(ys), 3) << " | "
          << FormatDouble(ys.empty() ? 0.0 : *min, 3) << " | "
          << FormatDouble(ys.empty() ? 0.0 : *max, 3) << " |\n";
    }
    out << "\n";
  }
  if (!figure.findings.empty()) {
    out << "Measured:\n";
    for (const Finding& finding : figure.findings) {
      out << "- " << finding.Render() << "\n";
    }
    out << "\n";
  }
  if (!figure.degradations.empty()) {
    out << "Fault annotations (degraded sweep points):\n";
    for (const Degradation& d : figure.degradations) {
      out << "- " << d.Render() << "\n";
    }
    out << "\n";
  }
}

std::string RenderExpected(const Expectation& e) {
  if (e.expect_censored) return "censored (beyond sweep)";
  std::ostringstream os;
  os << (e.min ? FormatDouble(*e.min, 3) : std::string("-inf")) << " .. "
     << (e.max ? FormatDouble(*e.max, 3) : std::string("+inf"));
  return os.str();
}

void EmitChecks(std::ostringstream& out,
                const std::vector<ExpectationResult>& checks) {
  out << "## Paper-expectation checks\n\n";
  if (checks.empty()) {
    out << "No expectations apply to the loaded figures.\n";
    return;
  }
  out << "| Figure | Curve | Finding | Expected | Status | Detail |\n"
      << "|---|---|---|---|---|---|\n";
  unsigned pass = 0, fail = 0, missing = 0;
  for (const ExpectationResult& check : checks) {
    const Expectation& e = check.expectation;
    out << "| " << e.figure_slug << " | " << e.curve_substr << " | "
        << e.label << " | " << RenderExpected(e) << " | "
        << ToString(check.status) << " | " << check.detail << " |\n";
    switch (check.status) {
      case ExpectationStatus::kPass: ++pass; break;
      case ExpectationStatus::kFail: ++fail; break;
      case ExpectationStatus::kMissing: ++missing; break;
    }
  }
  out << "\n" << pass << " pass, " << fail << " fail, " << missing
      << " missing (of " << checks.size() << " applicable checks).\n";
}

}  // namespace

std::string SuiteSummaryMarkdown(
    const std::vector<Figure>& figures,
    const std::vector<ExpectationResult>& checks) {
  std::ostringstream out;
  out << "# AMD micro-benchmark suite — merged results\n\n"
      << "Aggregated from " << figures.size() << " BENCH_*.json document"
      << (figures.size() == 1 ? "" : "s")
      << ". Regenerate with `amdmb_report <json-dir>`.\n\n";
  EmitRunMeta(out, figures);
  for (const Figure& figure : figures) {
    EmitFigure(out, figure);
  }
  EmitChecks(out, checks);
  return out.str();
}

}  // namespace amdmb::report
