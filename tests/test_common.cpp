// Unit tests for src/common: stats, tables, series, RNG, status.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "report/series.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace amdmb {
namespace {

TEST(TypesTest, ElementBytesMatchHardwareFormats) {
  EXPECT_EQ(ElementBytes(DataType::kFloat), 4u);
  EXPECT_EQ(ElementBytes(DataType::kFloat4), 16u);
  EXPECT_EQ(ComponentCount(DataType::kFloat), 1u);
  EXPECT_EQ(ComponentCount(DataType::kFloat4), 4u);
}

TEST(TypesTest, DomainThreadCount) {
  EXPECT_EQ((Domain{1024, 1024}).ThreadCount(), 1024ull * 1024);
  EXPECT_EQ((Domain{0, 5}).ThreadCount(), 0ull);
  EXPECT_EQ((BlockShape{4, 16}).ThreadCount(), 64u);
}

TEST(StatusTest, CheckThrowsSimErrorWithLocation) {
  EXPECT_NO_THROW(Check(true));
  try {
    Check(false, "oops");
    FAIL() << "Check(false) must throw";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("oops"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"),
              std::string::npos);
  }
}

TEST(StatusTest, RequireThrowsConfigError) {
  EXPECT_NO_THROW(Require(true, "fine"));
  EXPECT_THROW(Require(false, "bad config"), ConfigError);
}

TEST(LineFitTest, ExactLine) {
  const LineFit f = FitLine({1, 2, 3, 4}, {3, 5, 7, 9});
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(LineFitTest, DegenerateInputs) {
  EXPECT_EQ(FitLine({}, {}).slope, 0.0);
  EXPECT_EQ(FitLine({1.0}, {2.0}).slope, 0.0);
  // Vertical data: zero x variance.
  EXPECT_EQ(FitLine({2, 2, 2}, {1, 2, 3}).slope, 0.0);
  EXPECT_THROW(FitLine({1, 2}, {1}), SimError);
}

TEST(LineFitTest, NoisyLineHasReasonableR2) {
  std::vector<double> xs, ys;
  XorShift128 rng(42);
  for (int i = 0; i < 100; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 10.0 + (rng.NextDouble() - 0.5));
  }
  const LineFit f = FitLine(xs, ys);
  EXPECT_NEAR(f.slope, 3.0, 0.05);
  EXPECT_GT(f.r2, 0.999);
}

TEST(SafeRatioTest, HandlesZeroDenominator) {
  EXPECT_EQ(SafeRatio(4.0, 2.0), 2.0);
  EXPECT_EQ(SafeRatio(4.0, 0.0), 0.0);
}

TEST(XorShiftTest, DeterministicAndBounded) {
  XorShift128 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  XorShift128 c(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(c.NextBelow(17), 17u);
    const double d = c.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(XorShiftTest, DifferentSeedsDiverge) {
  XorShift128 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"GPU", "ALUs"});
  t.AddRow({"RV770", "800"});
  t.AddRow({"RV870", "1600"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| GPU"), std::string::npos);
  EXPECT_NE(out.find("RV870"), std::string::npos);
  EXPECT_EQ(t.RowCount(), 2u);
}

TEST(TextTableTest, RejectsMismatchedRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), ConfigError);
  EXPECT_THROW(TextTable({}), ConfigError);
}

TEST(FormatDoubleTest, FixedPrecision) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(2.0, 3), "2.000");
}

TEST(SeriesTest, AddAndQuery) {
  Series s("curve");
  s.Add(1.0, 10.0);
  s.Add(2.0, 20.0);
  EXPECT_EQ(s.Points().size(), 2u);
  EXPECT_EQ(s.At(2.0), 20.0);
  EXPECT_FALSE(s.At(3.0).has_value());
  EXPECT_EQ(s.Xs(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(s.Ys(), (std::vector<double>{10.0, 20.0}));
}

TEST(SeriesSetTest, GetCreatesAndFinds) {
  SeriesSet set("fig", "x", "y");
  set.Get("a").Add(1, 2);
  set.Get("a").Add(2, 3);
  set.Get("b").Add(1, 5);
  EXPECT_EQ(set.All().size(), 2u);
  ASSERT_NE(set.Find("a"), nullptr);
  EXPECT_EQ(set.Find("a")->Points().size(), 2u);
  EXPECT_EQ(set.Find("missing"), nullptr);
}

TEST(SeriesSetTest, ColumnRenderingMergesXGrids) {
  SeriesSet set("fig", "x", "sec");
  set.Get("a").Add(1, 2);
  set.Get("b").Add(2, 5);
  const std::string cols = set.RenderColumns();
  EXPECT_NE(cols.find("# fig"), std::string::npos);
  EXPECT_NE(cols.find("a"), std::string::npos);
  // Missing cells render as '-'.
  EXPECT_NE(cols.find("-"), std::string::npos);
  const std::string csv = set.RenderCsv();
  EXPECT_NE(csv.find("x,a,b"), std::string::npos);
}

// A curve may hold several points at one x (the frontier boundary
// does): each gets its own row, in the curve's order, and another
// curve's point at that x shares the first of them.
TEST(SeriesSetTest, RenderingKeepsPointsThatShareAnX) {
  SeriesSet set("fig", "x", "y");
  set.Get("a").Add(1, 0);
  set.Get("a").Add(2, 3);
  set.Get("a").Add(1, 1);
  set.Get("b").Add(1, 5);
  EXPECT_EQ(set.RenderCsv(2),
            "# fig\n"
            "x,a,b\n"
            "1,0.00,5.00\n"
            "1,1.00,\n"
            "2,3.00,\n");
}


TEST(PercentileTest, HandlesEmptyAndSingleSamples) {
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_EQ(Percentile({7.5}, 0.0), 7.5);
  EXPECT_EQ(Percentile({7.5}, 50.0), 7.5);
  EXPECT_EQ(Percentile({7.5}, 100.0), 7.5);
}

TEST(PercentileTest, InterpolatesLinearlyOverSortedSamples) {
  // Input order must not matter: Percentile sorts its own copy.
  const std::vector<double> samples = {40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 100.0), 40.0);
  // Rank 0.9 * 3 = 2.7 -> between 30 and 40, 70% of the way.
  EXPECT_DOUBLE_EQ(Percentile(samples, 90.0), 37.0);
}

}  // namespace
}  // namespace amdmb
