// Tests for the adaptive sweep subsystem (src/adapt): typed transition
// detection, the coarse-to-fine Refiner, the 2D frontier quadrant
// refiner, and the end-to-end dense-vs-adaptive guarantees the ISSUE
// states — every dense crossover is reproduced within the refinement
// tolerance, the Fig. 7 family spends at most a fifth of the dense
// points, the refinement trajectory is bit-stable across executor
// widths, and a seeded fault-retry schedule never changes which points
// the refiner selects.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "adapt/frontier.hpp"
#include "adapt/refiner.hpp"
#include "adapt/transition.hpp"
#include "arch/gpu_arch.hpp"
#include "exec/sweep_executor.hpp"
#include "fault/fault.hpp"
#include "report/json_sink.hpp"
#include "report/record.hpp"
#include "suite/alu_fetch.hpp"
#include "suite/figures.hpp"
#include "suite/microbench.hpp"

namespace amdmb {
namespace {

using adapt::DetectTransitions;
using adapt::FirstTransitionTo;
using adapt::KneeIndex;
using adapt::Sample;
using adapt::Transition;
using adapt::TransitionKind;

std::vector<Sample> Labelled(const std::vector<std::string>& labels) {
  std::vector<Sample> samples;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    samples.push_back({static_cast<double>(i), labels[i]});
  }
  return samples;
}

// ---- Transition detection ---------------------------------------------

TEST(TransitionTest, PlateauYieldsNoTransitions) {
  EXPECT_TRUE(DetectTransitions({}).empty());
  EXPECT_TRUE(DetectTransitions(Labelled({"FETCH"})).empty());
  EXPECT_TRUE(
      DetectTransitions(Labelled({"FETCH", "FETCH", "FETCH"})).empty());
}

TEST(TransitionTest, InteriorFlipIsBracketed) {
  const auto transitions =
      DetectTransitions(Labelled({"FETCH", "FETCH", "ALU", "ALU"}));
  ASSERT_EQ(transitions.size(), 1u);
  const Transition& t = transitions[0];
  EXPECT_EQ(t.lower_index, 1u);
  EXPECT_EQ(t.upper_index, 2u);
  EXPECT_DOUBLE_EQ(t.lower_x, 1.0);
  EXPECT_DOUBLE_EQ(t.upper_x, 2.0);
  EXPECT_EQ(t.from, "FETCH");
  EXPECT_EQ(t.to, "ALU");
  EXPECT_EQ(t.kind, TransitionKind::kInterior);
  EXPECT_DOUBLE_EQ(t.Width(), 1.0);
}

TEST(TransitionTest, EveryFlipOfAMultiFlipCurveIsReported) {
  const auto transitions = DetectTransitions(
      Labelled({"FETCH", "ALU", "ALU", "MEMORY", "ALU"}));
  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0].to, "ALU");
  EXPECT_EQ(transitions[1].from, "ALU");
  EXPECT_EQ(transitions[1].to, "MEMORY");
  EXPECT_EQ(transitions[2].to, "ALU");
  EXPECT_EQ(transitions[2].upper_index, 4u);
}

TEST(TransitionTest, FirstTransitionAtBoundaryIsCensoredBelowDomain) {
  const auto t = FirstTransitionTo(Labelled({"ALU", "ALU"}), "ALU");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->kind, TransitionKind::kAtLowerBoundary);
  EXPECT_EQ(t->lower_index, t->upper_index);
  EXPECT_DOUBLE_EQ(t->Width(), 0.0);
  EXPECT_EQ(t->from, "");
  EXPECT_EQ(t->to, "ALU");
}

TEST(TransitionTest, FirstTransitionIsCensoredWhenLabelNeverAppears) {
  EXPECT_FALSE(
      FirstTransitionTo(Labelled({"FETCH", "FETCH"}), "ALU").has_value());
  EXPECT_FALSE(FirstTransitionTo({}, "ALU").has_value());
}

TEST(TransitionTest, FirstTransitionSkipsLaterFlips) {
  const auto t = FirstTransitionTo(
      Labelled({"FETCH", "ALU", "FETCH", "ALU"}), "ALU");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->upper_index, 1u);
  EXPECT_EQ(t->kind, TransitionKind::kInterior);
}

TEST(TransitionTest, KneeFindsTheBendAndRejectsDegenerates) {
  // Piecewise-linear elbow at x=4.
  std::vector<double> xs, ys;
  for (int i = 0; i <= 8; ++i) {
    xs.push_back(i);
    ys.push_back(i <= 4 ? 0.0 : (i - 4) * 2.0);
  }
  const auto knee = KneeIndex(xs, ys);
  ASSERT_TRUE(knee.has_value());
  EXPECT_EQ(*knee, 4u);
  EXPECT_FALSE(KneeIndex({0.0, 1.0}, {0.0, 1.0}).has_value());
  EXPECT_FALSE(KneeIndex({1.0, 1.0, 1.0}, {2.0, 2.0, 2.0}).has_value());
}

// ---- Refiner over synthetic label fields ------------------------------

/// A synthetic classifier: "FETCH" below the flip index, "ALU" at and
/// above it.
struct StepField {
  std::size_t flip;

  std::string operator()(std::size_t index, unsigned /*attempt*/) const {
    return index >= flip ? "ALU" : "FETCH";
  }
};

TEST(RefinerTest, BisectionBracketsTheFlipWithinTolerance) {
  adapt::Settings settings;
  settings.tol_steps = 1;
  const adapt::Refiner refiner(settings, nullptr, exec::RetryPolicy{});
  const StepField field{/*flip=*/20};
  const adapt::Outcome outcome = refiner.Run(
      33, [](std::size_t i) { return static_cast<double>(i); },
      [&](std::size_t i, unsigned a) { return field(i, a); });

  EXPECT_EQ(outcome.dense_points, 33u);
  EXPECT_LT(outcome.points_spent, 33u / 2);
  ASSERT_EQ(outcome.transitions.size(), 1u);
  const Transition& t = outcome.transitions[0];
  // tol_steps=1 pins the bracket to adjacent dense indices: the flip
  // itself is identified exactly.
  EXPECT_DOUBLE_EQ(t.upper_x, 20.0);
  EXPECT_DOUBLE_EQ(t.lower_x, 19.0);
  // `measured` is the sorted union of the waves.
  EXPECT_TRUE(std::is_sorted(outcome.measured.begin(),
                             outcome.measured.end()));
  EXPECT_EQ(outcome.measured.size(), outcome.points_spent);
}

TEST(RefinerTest, PlateauStopsAfterTheCoarsePass) {
  const adapt::Refiner refiner({}, nullptr, exec::RetryPolicy{});
  const adapt::Outcome outcome = refiner.Run(
      33, [](std::size_t i) { return static_cast<double>(i); },
      [](std::size_t, unsigned) { return "FETCH"; });
  EXPECT_EQ(outcome.points_spent, 3u);  // Default coarse pass only.
  EXPECT_EQ(outcome.waves, 1u);
  EXPECT_TRUE(outcome.transitions.empty());
}

TEST(RefinerTest, BudgetTruncatesDeterministically) {
  adapt::Settings settings;
  settings.tol_steps = 1;
  settings.budget = 4;  // Coarse pass (3) plus one bisection point.
  const adapt::Refiner refiner(settings, nullptr, exec::RetryPolicy{});
  const StepField field{/*flip=*/20};
  const adapt::Outcome outcome = refiner.Run(
      33, [](std::size_t i) { return static_cast<double>(i); },
      [&](std::size_t i, unsigned a) { return field(i, a); });
  EXPECT_EQ(outcome.points_spent, 4u);
  // The flip is still bracketed, just more coarsely than tol asks.
  ASSERT_EQ(outcome.transitions.size(), 1u);
  EXPECT_GE(outcome.transitions[0].upper_x, 20.0);
  EXPECT_LT(outcome.transitions[0].lower_x, 20.0);
}

TEST(RefinerTest, TrajectoryIsIdenticalAtAnyExecutorWidth) {
  adapt::Settings settings;
  settings.tol_steps = 1;
  const exec::SweepExecutor serial(1);
  const exec::SweepExecutor wide(8);
  const StepField f1{/*flip=*/11};
  const StepField f8{/*flip=*/11};
  const adapt::Outcome a =
      adapt::Refiner(settings, &serial, exec::RetryPolicy{})
          .Run(65, [](std::size_t i) { return static_cast<double>(i); },
               [&](std::size_t i, unsigned at) { return f1(i, at); });
  const adapt::Outcome b =
      adapt::Refiner(settings, &wide, exec::RetryPolicy{})
          .Run(65, [](std::size_t i) { return static_cast<double>(i); },
               [&](std::size_t i, unsigned at) { return f8(i, at); });
  EXPECT_EQ(a.measured, b.measured);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.waves, b.waves);
  EXPECT_EQ(a.points_spent, b.points_spent);
}

TEST(RefinerTest, AdaptiveFindingsCarryTransitionAndSpend) {
  const adapt::Refiner refiner({}, nullptr, exec::RetryPolicy{});
  const StepField field{/*flip=*/20};
  const adapt::Outcome outcome = refiner.Run(
      33, [](std::size_t i) { return 0.25 * static_cast<double>(i); },
      [&](std::size_t i, unsigned a) { return field(i, a); });
  const auto findings =
      adapt::AdaptiveFindings(outcome, "4870 Pixel Float", "ratio");
  const report::Finding* flip =
      report::FindFinding(findings, "transition_to_alu", "4870 Pixel Float");
  ASSERT_NE(flip, nullptr);
  EXPECT_EQ(flip->kind, report::FindingKind::kCrossover);
  ASSERT_TRUE(flip->value.has_value());
  EXPECT_NEAR(*flip->value, 5.0, 0.51);
  const report::Finding* spend =
      report::FindFinding(findings, "adaptive_points", "4870 Pixel Float");
  ASSERT_NE(spend, nullptr);
  EXPECT_EQ(spend->kind, report::FindingKind::kEvent);
  EXPECT_DOUBLE_EQ(*spend->value,
                   static_cast<double>(outcome.points_spent));
}

// ---- 2D frontier quadrant refinement ----------------------------------

/// Synthetic 2D field: "ALU" where ix >= iy + 3, else "FETCH" — a
/// diagonal frontier through the grid.
std::string DiagonalField(std::size_t ix, std::size_t iy) {
  return ix >= iy + 3 ? "ALU" : "FETCH";
}

TEST(FrontierTest, QuadrantRefinementMatchesDenseLabels) {
  const auto x_of = [](std::size_t i) { return static_cast<double>(i); };
  // Incremented from the default executor's pool threads.
  std::atomic<std::size_t> spent = 0;
  // on_wave runs on the sweep thread, after each wave.
  std::vector<adapt::WaveInfo> waves;
  adapt::Settings settings;
  settings.on_wave = [&](const adapt::WaveInfo& info) {
    waves.push_back(info);
  };
  const adapt::FrontierResult adaptive = adapt::RefineGrid(
      9, 8, x_of, x_of,
      [&](std::size_t ix, std::size_t iy, unsigned) {
        ++spent;
        return DiagonalField(ix, iy);
      },
      &settings, nullptr, exec::RetryPolicy{});
  const std::size_t adaptive_waves = waves.size();
  const adapt::FrontierResult dense = adapt::RefineGrid(
      9, 8, x_of, x_of,
      [](std::size_t ix, std::size_t iy, unsigned) {
        return DiagonalField(ix, iy);
      },
      nullptr, nullptr, exec::RetryPolicy{});
  ASSERT_EQ(adaptive.frontier.cells.size(), 9u * 8u);
  // Every cell — measured or filled from agreeing corners — matches the
  // dense truth, and refinement spent strictly fewer measurements.
  EXPECT_EQ(adaptive.frontier.cells, dense.frontier.cells);
  EXPECT_EQ(spent, adaptive.frontier.points_measured);
  EXPECT_LT(adaptive.frontier.points_measured,
            dense.frontier.points_measured);
  EXPECT_EQ(dense.frontier.points_measured, 9u * 8u);
  // One call per refinement level, numbered from 0, ending at the total
  // spend; the dense run has no settings and reports no wave.
  ASSERT_GT(adaptive_waves, 0u);
  EXPECT_EQ(waves.size(), adaptive_waves);
  for (std::size_t i = 0; i < waves.size(); ++i) {
    EXPECT_EQ(waves[i].wave, i);
    EXPECT_EQ(waves[i].dense_points, 9u * 8u);
  }
  EXPECT_EQ(waves.back().points_spent, adaptive.frontier.points_measured);
}

TEST(FrontierTest, GridIsIdenticalAtAnyExecutorWidth) {
  const exec::SweepExecutor serial(1);
  const exec::SweepExecutor wide(8);
  const auto x_of = [](std::size_t i) { return static_cast<double>(i); };
  const adapt::Settings settings;
  const auto measure = [](std::size_t ix, std::size_t iy, unsigned) {
    return DiagonalField(ix, iy);
  };
  const adapt::FrontierResult a = adapt::RefineGrid(
      9, 8, x_of, x_of, measure, &settings, &serial, exec::RetryPolicy{});
  const adapt::FrontierResult b = adapt::RefineGrid(
      9, 8, x_of, x_of, measure, &settings, &wide, exec::RetryPolicy{});
  EXPECT_EQ(a.frontier.cells, b.frontier.cells);
  EXPECT_EQ(a.frontier.measured, b.frontier.measured);
  EXPECT_EQ(a.frontier.points_measured, b.frontier.points_measured);
}

TEST(FrontierTest, BudgetLeavesUnresolvedCellsEmpty) {
  adapt::Settings settings;
  settings.budget = 4;  // Not even the first corner wave fits.
  const auto x_of = [](std::size_t i) { return static_cast<double>(i); };
  const adapt::FrontierResult r = adapt::RefineGrid(
      9, 8, x_of, x_of,
      [](std::size_t ix, std::size_t iy, unsigned) {
        return DiagonalField(ix, iy);
      },
      &settings, nullptr, exec::RetryPolicy{});
  EXPECT_LE(r.frontier.points_measured, 4u);
  EXPECT_GT(std::count(r.frontier.cells.begin(), r.frontier.cells.end(),
                       std::string()),
            0);
}

// ---- End-to-end: dense vs adaptive on the real suite ------------------

double MaxGridStep(const report::Figure& figure) {
  double step = 0.0;
  for (const Series& series : figure.set.All()) {
    const auto& points = series.Points();
    for (std::size_t i = 1; i < points.size(); ++i) {
      step = std::max(step, points[i].x - points[i - 1].x);
    }
  }
  return step;
}

// Every registry figure (the 12 sweep documents; the remaining 6 BENCH
// docs — ablations, ext_block_size, table1 — are not sweeps and have no
// crossovers to refine, see EXPERIMENTS.md): each dense crossover
// finding must be reproduced by the adaptive build within tol_steps
// dense grid steps, censored verdicts included.
TEST(AdaptiveAgreementTest, EveryRegistryCrossoverAgreesWithinTolerance) {
  adapt::Settings settings;  // tol_steps=2, the AMDMB_ADAPT_TOL default.
  for (const suite::figures::FigureDef& def : suite::figures::Registry()) {
    suite::figures::RunOptions dense_opts;
    dense_opts.quick = true;
    const report::Figure dense = suite::figures::Build(def, dense_opts);
    suite::figures::RunOptions adaptive_opts = dense_opts;
    adaptive_opts.adaptive = &settings;
    const report::Figure adaptive = suite::figures::Build(def, adaptive_opts);
    EXPECT_FALSE(dense.meta.adaptive);
    EXPECT_TRUE(adaptive.meta.adaptive);

    const double tolerance = settings.tol_steps * MaxGridStep(dense) + 1e-9;
    for (const report::Finding& d : dense.findings) {
      if (d.kind != report::FindingKind::kCrossover) continue;
      const report::Finding* a =
          report::FindFinding(adaptive.findings, d.label, d.curve);
      ASSERT_NE(a, nullptr)
          << def.slug << " " << d.curve << "/" << d.label
          << ": crossover lost by the adaptive run";
      EXPECT_EQ(d.value.has_value(), a->value.has_value())
          << def.slug << " " << d.curve << "/" << d.label;
      if (d.value.has_value() && a->value.has_value()) {
        EXPECT_NEAR(*d.value, *a->value, tolerance)
            << def.slug << " " << d.curve << "/" << d.label;
      }
    }
  }
}

// The headline budget claim, at runner level on the full Fig. 7 ratio
// grid (32 points; quick domains keep the test fast — the point count
// is what the claim is about). The CI adaptive-smoke job asserts the
// same bound for the whole Fig. 7-9 family via amdmb_adapt.
TEST(AdaptiveBudgetTest, Fig7FamilySpendsAtMostAFifthOfDense) {
  suite::Runner runner(MakeRV770());
  suite::AluFetchConfig config;
  config.domain = Domain{256, 256};
  const suite::AluFetchResult dense =
      suite::RunAluFetch(runner, ShaderMode::kPixel, DataType::kFloat,
                         config);
  adapt::Settings settings;
  suite::AluFetchConfig adaptive_config = config;
  adaptive_config.adaptive = &settings;
  const suite::AluFetchResult adaptive = suite::RunAluFetch(
      runner, ShaderMode::kPixel, DataType::kFloat, adaptive_config);

  ASSERT_TRUE(adaptive.adaptive.has_value());
  EXPECT_EQ(adaptive.adaptive->dense_points, 32u);
  EXPECT_LE(adaptive.adaptive->SpendFraction(), 0.2);
  ASSERT_TRUE(dense.crossover.has_value());
  ASSERT_TRUE(adaptive.crossover.has_value());
  EXPECT_NEAR(*dense.crossover, *adaptive.crossover,
              settings.tol_steps * config.ratio_step + 1e-9);
}

// Determinism satellite: the adaptive BENCH JSON is byte-identical at
// executor width 1 and 8 (AMDMB_THREADS invariance).
TEST(AdaptiveDeterminismTest, BenchJsonIsByteIdenticalAcrossWidths) {
  const suite::figures::FigureDef* def = suite::figures::Find("fig_7");
  ASSERT_NE(def, nullptr);
  adapt::Settings settings;
  const exec::SweepExecutor serial(1);
  const exec::SweepExecutor wide(8);
  suite::figures::RunOptions opts;
  opts.quick = true;
  opts.adaptive = &settings;
  opts.executor = &serial;
  const std::string a = report::BenchJson(suite::figures::Build(*def, opts));
  opts.executor = &wide;
  const std::string b = report::BenchJson(suite::figures::Build(*def, opts));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"adaptive\": true"), std::string::npos);
}

// The same for the 2D frontier map, a registry supplement.
TEST(AdaptiveDeterminismTest, FrontierFigureIsByteIdenticalAcrossWidths) {
  const suite::figures::FigureDef* def = suite::figures::Find(
      "frontier_alu_fetch_x_gpr", suite::figures::Supplements());
  ASSERT_NE(def, nullptr);
  adapt::Settings settings;
  const exec::SweepExecutor serial(1);
  const exec::SweepExecutor wide(8);
  suite::figures::RunOptions opts;
  opts.quick = true;
  opts.adaptive = &settings;
  opts.executor = &serial;
  const std::string a = report::BenchJson(suite::figures::Build(*def, opts));
  opts.executor = &wide;
  const std::string b = report::BenchJson(suite::figures::Build(*def, opts));
  EXPECT_EQ(a, b);
  // The frontier block actually made it into the document.
  EXPECT_NE(a.find("\"frontier\""), std::string::npos);
  EXPECT_NE(a.find("\"adaptive\": true"), std::string::npos);
}

// Determinism satellite: a seeded fault schedule retries points but
// never changes which dense indices the refiner selects.
TEST(AdaptiveDeterminismTest, SeededFaultRetryDoesNotMovePoints) {
  suite::Runner runner(MakeRV770());
  adapt::Settings settings;
  suite::AluFetchConfig config;
  config.domain = Domain{256, 256};
  config.adaptive = &settings;
  // Generous attempt cap so every injected fault resolves to a retry,
  // not a skip (a skipped midpoint legitimately stops refinement).
  config.retry.max_attempts = 8;
  const suite::AluFetchResult clean = suite::RunAluFetch(
      runner, ShaderMode::kPixel, DataType::kFloat, config);
  ASSERT_TRUE(clean.adaptive.has_value());

  fault::ScopedFaultInjector scoped("launch:0.5,seed=11");
  const suite::AluFetchResult faulty = suite::RunAluFetch(
      runner, ShaderMode::kPixel, DataType::kFloat, config);
  ASSERT_TRUE(faulty.adaptive.has_value());

  EXPECT_EQ(clean.adaptive->measured, faulty.adaptive->measured);
  EXPECT_EQ(clean.adaptive->samples, faulty.adaptive->samples);
  EXPECT_EQ(clean.crossover, faulty.crossover);
  EXPECT_GT(faulty.report.CountOf(exec::PointStatus::kRetried), 0u);
  EXPECT_EQ(clean.report.CountOf(exec::PointStatus::kRetried), 0u);
}

}  // namespace
}  // namespace amdmb
