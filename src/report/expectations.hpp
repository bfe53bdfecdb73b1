// Paper expectations encoded as data.
//
// Each Expectation names one typed Finding the suite should produce
// (figure slug + curve substring + finding label) and the numeric range
// the paper's qualitative claims imply. The amdmb_report aggregator
// checks a directory of BENCH_*.json results against this table, and
// the golden test checks the quick documents it builds, so "does the
// reproduction still match the paper" is a data lookup, not a human
// re-reading EXPERIMENTS.md. Ranges are deliberately wide and
// scale-invariant (crossovers, ratios, R^2) so they hold for both
// AMDMB_QUICK=1 and full-domain runs.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "report/record.hpp"

namespace amdmb::report {

/// One checkable claim about a Finding the suite should emit.
struct Expectation {
  std::string figure_slug;   ///< Slug of the figure ("fig_7").
  std::string curve_substr;  ///< First finding whose curve contains this.
  std::string label;         ///< Finding label ("alu_bound_crossover").
  std::optional<double> min;  ///< Inclusive lower bound (absent = -inf).
  std::optional<double> max;  ///< Inclusive upper bound (absent = +inf).
  /// True when the paper predicts the event does NOT occur within the
  /// sweep (the finding must be censored, i.e. carry no value).
  bool expect_censored = false;
  std::string paper_note;  ///< Where the claim comes from.
};

/// The built-in table of paper claims the suite checks by default.
std::vector<Expectation> PaperExpectations();

enum class ExpectationStatus {
  kPass,     ///< Finding present and inside the expected range.
  kFail,     ///< Finding present but outside the range (or censoring
             ///< mismatch).
  kMissing,  ///< No finding with that label/curve in the figure.
};

std::string_view ToString(ExpectationStatus status);

/// Outcome of checking one Expectation against one figure.
struct ExpectationResult {
  Expectation expectation;
  ExpectationStatus status = ExpectationStatus::kMissing;
  std::string detail;  ///< Measured value / reason, human-readable.
};

/// Checks one expectation against the figure it names. The figure must
/// already be the right one (Slug() == expectation.figure_slug).
ExpectationResult CheckExpectation(const Expectation& expectation,
                                   const Figure& figure);

/// Checks every built-in expectation whose figure is present in
/// `figures`. Expectations for figures absent from the set are skipped
/// (a partial results directory is not a failure); expectations whose
/// figure is present but whose finding is absent report kMissing.
std::vector<ExpectationResult> CheckExpectations(
    const std::vector<Figure>& figures);

}  // namespace amdmb::report
