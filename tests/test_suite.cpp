// Micro-benchmark infrastructure tests: runners, sweeps, crossover
// detection, figure assembly, and the optimisation advisor.
#include <gtest/gtest.h>

#include "common/status.hpp"
#include "suite/suite.hpp"

namespace amdmb::suite {
namespace {

// Small domains keep these unit tests fast; figure-shape properties at
// paper scale live in test_figures.cpp.
constexpr Domain kSmall{256, 256};

TEST(RunnerTest, MeasureReturnsConsistentData) {
  Runner runner(MakeRV770());
  GenericSpec spec;
  spec.inputs = 4;
  spec.alu_ops = 16;
  sim::LaunchConfig launch;
  launch.domain = kSmall;
  const Measurement m = runner.Measure(GenerateGeneric(spec), launch);
  EXPECT_GT(m.seconds, 0.0);
  EXPECT_EQ(m.seconds, m.stats.seconds);
  EXPECT_EQ(m.ska.alu_ops, 16u);
  EXPECT_DOUBLE_EQ(m.ska.alu_fetch_ratio, 1.0);
}

// ---- The sweep record ---------------------------------------------------

// A point that fails is absent, not shifted: every point keeps its grid
// index and records x_of(index).
TEST(SweepPointsTest, DenseSweepSkipsTheFailedIndexAndKeepsEachX) {
  const exec::SweepExecutor serial(1);
  SweepOptions options;
  options.executor = &serial;
  options.retry = exec::RetryPolicy{};
  options.retry.max_attempts = 1;
  const auto x_of = [](std::size_t i) { return 0.5 * static_cast<double>(i); };
  SweepResult result;
  SweepPoints(
      6, x_of,
      [](std::size_t i, unsigned) {
        if (i == 2) throw TransientError("index 2 always fails");
        Measurement m;
        m.seconds = static_cast<double>(i);
        return m;
      },
      [](std::size_t i) { return "p" + std::to_string(i); }, options, result);
  ASSERT_EQ(result.points.size(), 5u);
  for (const SweepPoint& p : result.points) {
    EXPECT_NE(p.index, 2u);
    EXPECT_EQ(p.x, x_of(p.index));
    EXPECT_EQ(p.m.seconds, static_cast<double>(p.index));
  }
  EXPECT_FALSE(result.report.AllOk());
  EXPECT_FALSE(result.adaptive.has_value());
}

TEST(SweepPointsTest, AdaptiveSweepKeepsEachX) {
  const exec::SweepExecutor serial(1);
  const adapt::Settings settings;
  SweepOptions options;
  options.executor = &serial;
  options.adaptive = &settings;
  const auto x_of = [](std::size_t i) {
    return 0.25 + 0.25 * static_cast<double>(i);
  };
  SweepResult result;
  SweepPoints(
      32, x_of,
      [](std::size_t i, unsigned) {
        Measurement m;
        m.stats.bottleneck =
            i < 19 ? sim::Bottleneck::kFetch : sim::Bottleneck::kAlu;
        return m;
      },
      [](std::size_t i) { return "p" + std::to_string(i); }, options, result);
  ASSERT_TRUE(result.adaptive.has_value());
  EXPECT_EQ(result.points.size(), result.adaptive->points_spent);
  EXPECT_LT(result.points.size(), 32u);
  for (std::size_t k = 0; k < result.points.size(); ++k) {
    const SweepPoint& p = result.points[k];
    EXPECT_EQ(p.x, x_of(p.index));
    if (k > 0) {
      EXPECT_LT(result.points[k - 1].index, p.index);
    }
  }
}

TEST(CurveKeyTest, PaperLegendNames) {
  const CurveKey key{MakeRV770(), ShaderMode::kPixel, DataType::kFloat};
  EXPECT_EQ(key.Name(), "4870 Pixel Float");
  const CurveKey key2{MakeRV870(), ShaderMode::kCompute, DataType::kFloat4};
  EXPECT_EQ(key2.Name(), "5870 Compute Float4");
}

TEST(CurveKeyTest, PaperCurvesSkipRv670Compute) {
  const auto curves = PaperCurves();
  // 3 GPUs x 2 types in pixel mode + 2 GPUs x 2 types in compute = 10,
  // exactly the paper's Fig. 7 legend.
  EXPECT_EQ(curves.size(), 10u);
  for (const CurveKey& key : curves) {
    EXPECT_FALSE(key.arch.name == "RV670" &&
                 key.mode == ShaderMode::kCompute);
  }
  EXPECT_EQ(PaperCurves(true, false).size(), 6u);
  EXPECT_EQ(PaperCurves(false, true).size(), 4u);
}

TEST(AluFetchTest, SweepFindsCrossoverAndIsMonotoneAtTail) {
  Runner runner(MakeRV770());
  AluFetchConfig config;
  config.domain = kSmall;
  config.ratio_step = 0.5;
  const AluFetchResult r =
      RunAluFetch(runner, ShaderMode::kPixel, DataType::kFloat, config);
  ASSERT_EQ(r.points.size(), 16u);
  ASSERT_TRUE(r.crossover.has_value());
  // Once ALU-bound, time grows with the ratio.
  bool past = false;
  double prev = 0.0;
  for (const SweepPoint& p : r.points) {
    if (p.x >= *r.crossover + 1.0) {
      if (past) {
        EXPECT_GT(p.m.seconds, prev);
      }
      past = true;
      prev = p.m.seconds;
    }
  }
}

TEST(ReadLatencyTest, LinearInInputs) {
  Runner runner(MakeRV770());
  ReadLatencyConfig config;
  config.domain = kSmall;
  const ReadLatencyResult r =
      RunReadLatency(runner, ShaderMode::kPixel, DataType::kFloat, config);
  ASSERT_EQ(r.points.size(), 17u);
  EXPECT_GT(r.fit.slope, 0.0);
  EXPECT_GT(r.fit.r2, 0.95);  // Paper: "latency ... is linear".
}

TEST(ReadLatencyTest, KernelsStayFetchBound) {
  Runner runner(MakeRV870());
  ReadLatencyConfig config;
  config.domain = kSmall;
  const ReadLatencyResult r =
      RunReadLatency(runner, ShaderMode::kPixel, DataType::kFloat4, config);
  for (const SweepPoint& p : r.points) {
    EXPECT_NE(p.m.stats.bottleneck, sim::Bottleneck::kAlu)
        << "inputs=" << p.x;
  }
}

TEST(WriteLatencyTest, LinearTailAndPinnedGprs) {
  Runner runner(MakeRV770());
  WriteLatencyConfig config;
  config.domain = kSmall;
  const WriteLatencyResult r =
      RunWriteLatency(runner, ShaderMode::kPixel, DataType::kFloat4, config);
  ASSERT_EQ(r.points.size(), 8u);
  const unsigned gpr = r.points.front().m.stats.gpr_count;
  for (const SweepPoint& p : r.points) {
    EXPECT_EQ(p.m.stats.gpr_count, gpr);
  }
  EXPECT_GE(r.points.back().m.seconds, r.points.front().m.seconds);
}

TEST(WriteLatencyTest, RejectsOutputsAboveInputs) {
  Runner runner(MakeRV770());
  WriteLatencyConfig config;
  config.max_outputs = 12;
  EXPECT_THROW(
      RunWriteLatency(runner, ShaderMode::kPixel, DataType::kFloat, config),
      ConfigError);
}

TEST(DomainSizeTest, TimeGrowsOverSweep) {
  Runner runner(MakeRV770());
  DomainSizeConfig config;
  config.min_size = 256;
  config.max_size = 512;
  config.pixel_increment = 64;
  const DomainSizeResult r =
      RunDomainSize(runner, ShaderMode::kPixel, DataType::kFloat, config);
  ASSERT_EQ(r.points.size(), 5u);
  EXPECT_GT(r.points.back().m.seconds, r.points.front().m.seconds * 2.0);
  // ALU:Fetch 10 -> always ALU-bound (Sec. III-D).
  for (const SweepPoint& p : r.points) {
    EXPECT_EQ(p.m.stats.bottleneck, sim::Bottleneck::kAlu);
  }
}

TEST(RegisterUsageTest, GprAxisMatchesPaperRange) {
  Runner runner(MakeRV770());
  RegisterUsageConfig config;
  config.domain = kSmall;
  const RegisterUsageResult r =
      RunRegisterUsage(runner, ShaderMode::kPixel, DataType::kFloat, config);
  ASSERT_EQ(r.points.size(), 8u);
  EXPECT_GE(r.points.front().m.stats.gpr_count, 63u);
  EXPECT_LE(r.points.back().m.stats.gpr_count, 12u);
}

TEST(AdvisorTest, SuggestionsTrackBottleneck) {
  Runner runner(MakeRV770());
  sim::LaunchConfig launch;
  launch.domain = kSmall;

  GenericSpec alu_spec;
  alu_spec.inputs = 4;
  alu_spec.alu_ops = 512;
  const Measurement alu_m =
      runner.Measure(GenerateGeneric(alu_spec), launch);
  const Advice alu_advice = Advise(alu_m, ShaderMode::kPixel, {64, 1});
  EXPECT_EQ(alu_advice.bound, sim::Bottleneck::kAlu);
  ASSERT_FALSE(alu_advice.suggestions.empty());
  EXPECT_NE(alu_advice.Render().find("ALU-bound"), std::string::npos);

  GenericSpec fetch_spec;
  fetch_spec.inputs = 16;
  fetch_spec.alu_ops = 16;
  const Measurement fetch_m =
      runner.Measure(GenerateGeneric(fetch_spec), launch);
  const Advice fetch_advice =
      Advise(fetch_m, ShaderMode::kCompute, {64, 1});
  EXPECT_EQ(fetch_advice.bound, sim::Bottleneck::kFetch);
  bool mentions_block = false;
  for (const std::string& s : fetch_advice.suggestions) {
    mentions_block |= s.find("4x16") != std::string::npos;
  }
  EXPECT_TRUE(mentions_block);
}

}  // namespace
}  // namespace amdmb::suite
