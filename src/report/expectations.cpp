#include "report/expectations.hpp"

#include <sstream>

#include "common/status.hpp"
#include "common/table.hpp"

namespace amdmb::report {
namespace {

std::string RenderRange(const Expectation& e) {
  std::ostringstream os;
  os << "[" << (e.min ? FormatDouble(*e.min, 3) : std::string("-inf"))
     << ", " << (e.max ? FormatDouble(*e.max, 3) : std::string("+inf"))
     << "]";
  return os.str();
}

const Finding* MatchFinding(const std::vector<Finding>& findings,
                            const Expectation& e) {
  for (const Finding& f : findings) {
    if (f.label != e.label) continue;
    if (!e.curve_substr.empty() &&
        f.curve.find(e.curve_substr) == std::string::npos) {
      continue;
    }
    return &f;
  }
  return nullptr;
}

}  // namespace

std::vector<Expectation> PaperExpectations() {
  // Ranges are wide on purpose: they must hold for quick (256^2) and
  // full (1024^2) domains, so only scale-invariant quantities
  // (crossovers, ratios, R^2 fits) are bounded — never raw seconds.
  return {
      {"fig_7", "4870 Pixel Float", "alu_bound_crossover", 0.5, 3.5, false,
       "Sec. III-A: the RV770 float kernel turns ALU-bound at a low "
       "ALU:fetch ratio"},
      {"fig_7", "4870 Pixel Float4", "alu_bound_crossover", 3.0, 7.5,
       false,
       "Sec. III-A: float4 fetches cost ~4x, pushing the crossover right"},
      {"fig_7", "4870 Compute Float4", "alu_bound_crossover", std::nullopt,
       std::nullopt, true,
       "Sec. III-A/Fig. 7: the naive 64x1 compute block stays fetch-bound "
       "across the swept ratios"},
      {"fig_11", "4870 Pixel Float4", "fit_r2", 0.9, 1.001, false,
       "Sec. III-C: texture fetch latency is linear in the input count"},
      {"fig_12", "3870 Pixel Float", "fit_r2", 0.9, 1.001, false,
       "Sec. III-C: global read latency is linear in the input count"},
      {"fig_14", "4870 Pixel Float4", "fit_r2", 0.7, 1.001, false,
       "Sec. III-D: global write time is linear in the output count"},
      {"fig_16", "4870 Pixel Float", "register_speedup", 1.15, 3.0, false,
       "Sec. III-E: freeing GPRs adds wavefronts and hides fetch latency"},
      {"fig_15a", "3870", "sweep_growth", 2.0, 25.0, false,
       "Sec. III-B: time grows with the domain once the GPU is busy"},
      {"fig_15a", "3870", "float4_float_max_domain_ratio", 0.8, 1.3, false,
       "Sec. III-B: float == float4 when ALU-bound"},
      {"extension_compute_block_size_explorer", "4870 Compute Float4",
       "naive_penalty", 1.05, 5.0, false,
       "Sec. IV: the naive 64x1 compute block leaves fetch-bound "
       "performance on the table"},
      {"ablation_clause_usage_control_paper_fig_5", "RV770 clause control",
       "level_variation", 0.0, 0.2, false,
       "Fig. 5: the pinned-GPR control kernel stays flat across steps"},
  };
}

std::string_view ToString(ExpectationStatus status) {
  switch (status) {
    case ExpectationStatus::kPass: return "pass";
    case ExpectationStatus::kFail: return "FAIL";
    case ExpectationStatus::kMissing: return "MISSING";
  }
  throw SimError("ToString(ExpectationStatus): unknown value");
}

ExpectationResult CheckExpectation(const Expectation& expectation,
                                   const Figure& figure) {
  ExpectationResult result{expectation, ExpectationStatus::kMissing, ""};
  const Finding* finding = MatchFinding(figure.findings, expectation);
  if (finding == nullptr) {
    result.detail = "no '" + expectation.label +
                    "' finding on a curve containing '" +
                    expectation.curve_substr + "'";
    return result;
  }
  if (expectation.expect_censored) {
    if (!finding->value.has_value()) {
      result.status = ExpectationStatus::kPass;
      result.detail = "censored as expected (event beyond the sweep)";
    } else {
      result.status = ExpectationStatus::kFail;
      result.detail = "expected censored, measured " +
                      FormatDouble(*finding->value, 3);
    }
    return result;
  }
  if (!finding->value.has_value()) {
    result.status = ExpectationStatus::kFail;
    result.detail = "expected a value in " + RenderRange(expectation) +
                    ", finding is censored";
    return result;
  }
  const double v = *finding->value;
  const bool in_range = (!expectation.min || v >= *expectation.min) &&
                        (!expectation.max || v <= *expectation.max);
  result.status =
      in_range ? ExpectationStatus::kPass : ExpectationStatus::kFail;
  std::string measured = FormatDouble(v, 3);
  if (!finding->unit.empty()) measured += " " + finding->unit;
  result.detail = "measured " + measured + (in_range ? " in " : " outside ") +
                  RenderRange(expectation);
  return result;
}

std::vector<ExpectationResult> CheckExpectations(
    const std::vector<Figure>& figures) {
  std::vector<ExpectationResult> results;
  for (const Expectation& e : PaperExpectations()) {
    const Figure* match = nullptr;
    for (const Figure& figure : figures) {
      if (figure.Slug() == e.figure_slug) {
        match = &figure;
        break;
      }
    }
    if (match == nullptr) continue;  // Partial results dir: skip silently.
    results.push_back(CheckExpectation(e, *match));
  }
  return results;
}

}  // namespace amdmb::report
