// Cross-figure aggregation: a directory of BENCH_*.json documents →
// one suite-wide markdown summary plus paper-expectation checks.
// This is the top of the measurement → record → output pipeline: it
// only consumes typed Figure records (report/load.hpp), never raw
// bench stdout.
#pragma once

#include <string>
#include <vector>

#include "report/expectations.hpp"
#include "report/record.hpp"

namespace amdmb::report {

/// Renders the merged suite summary as markdown: run metadata, one
/// section per figure (paper claim, per-curve statistics, findings,
/// degradations), and the expectation-check table with a pass/fail
/// tally. Each section names its file `BENCH_<slug>.json`, the name
/// every writer gives it. Mirrors the hand-written EXPERIMENTS.md
/// layout.
std::string SuiteSummaryMarkdown(const std::vector<Figure>& figures,
                                 const std::vector<ExpectationResult>& checks);

}  // namespace amdmb::report
