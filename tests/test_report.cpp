// Tests for the report layer: typed records, JSON round-trips through
// the amdmb_report loader, the CSV golden file, the text report,
// paper-expectation checks, and the cross-figure markdown aggregator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/status.hpp"
#include "report/aggregate.hpp"
#include "report/expectations.hpp"
#include "report/json.hpp"
#include "report/json_sink.hpp"
#include "report/load.hpp"
#include "report/output.hpp"
#include "report/record.hpp"

namespace amdmb {
namespace {

using namespace amdmb::report;

Figure SampleFigure() {
  Figure figure("Fig. 7 — ALU:Fetch Ratio for 16 Inputs", "ALU:Fetch",
                "ALU:Fetch Ratio", "Time in seconds", "ALU-bound beyond the "
                "crossover — with an em-dash — and \"quotes\".");
  Series& a = figure.set.Get("4870 Pixel Float");
  a.Add(0.25, 3.0);
  a.Add(0.5, 1.0);
  Series& b = figure.set.Get("4870 Pixel Float4");
  b.Add(0.25, 5.0);
  figure.findings.push_back({FindingKind::kCrossover, "4870 Pixel Float",
                             "alu_bound_crossover", 2.25, "ratio", ""});
  figure.findings.push_back({FindingKind::kCrossover, "4870 Compute Float4",
                             "alu_bound_crossover", std::nullopt, "ratio",
                             "fetch-bound across the sweep"});
  figure.findings.push_back({FindingKind::kRatio, "4870 Pixel Float",
                             "register_speedup", 1.66, "x", ""});
  figure.degradations.push_back(
      {"4870 Pixel Float", "alufetch_r0.25", "retried", 2,
       "injected fault: compile"});
  figure.meta.suite_version = "v1.2.3-4-gabc";
  figure.meta.threads = 8;
  figure.meta.quick = true;
  figure.meta.faults = "compile:p=0.5:seed=7";
  figure.meta.retry = "attempts=3";
  figure.meta.watchdog_cycles = 123456;
  figure.meta.archs = {"RV770 (4870)"};
  figure.meta.modes = {"pixel"};
  return figure;
}

// ---- Finding / Degradation rendering -----------------------------------

TEST(FindingTest, RendersValueCensoredAndDetail) {
  const Finding with_value{FindingKind::kCrossover, "4870 Pixel Float",
                           "alu_bound_crossover", 2.25, "ratio", ""};
  EXPECT_EQ(with_value.Render(),
            "4870 Pixel Float: alu_bound_crossover = 2.250 ratio");
  const Finding censored{FindingKind::kCrossover, "c", "alu_bound_crossover",
                         std::nullopt, "ratio", "why"};
  EXPECT_EQ(censored.Render(),
            "c: alu_bound_crossover not reached within the sweep (why)");
}

TEST(FindingTest, KindNamesRoundTrip) {
  for (const FindingKind kind :
       {FindingKind::kCrossover, FindingKind::kSlope, FindingKind::kPlateau,
        FindingKind::kRatio}) {
    EXPECT_EQ(FindingKindFromString(ToString(kind)), kind);
  }
  EXPECT_FALSE(FindingKindFromString("from_the_future").has_value());
}

TEST(DegradationTest, RendersLegacyFailureLineFormat) {
  const Degradation d{"curveA", "pt_3", "retried", 2, "injected fault"};
  EXPECT_EQ(d.Render(), "curveA/pt_3: retried, 2 attempts — injected fault");
  const Degradation one{"c", "p", "failed", 1, ""};
  EXPECT_EQ(one.Render(), "c/p: failed, 1 attempt");
}

// ---- JSON round-trip through the loader --------------------------------

TEST(ReportRoundTripTest, JsonPreservesFindingsDegradationsAndMeta) {
  const Figure figure = SampleFigure();
  const std::string json = BenchJson(figure);
  const Figure loaded = LoadFigureJson(json);

  EXPECT_EQ(loaded.id, figure.id);
  EXPECT_EQ(loaded.paper_claim, figure.paper_claim);
  EXPECT_EQ(loaded.set.Title(), figure.set.Title());
  EXPECT_EQ(loaded.findings, figure.findings);
  EXPECT_EQ(loaded.degradations, figure.degradations);
  EXPECT_EQ(loaded.meta.suite_version, "v1.2.3-4-gabc");
  EXPECT_EQ(loaded.meta.threads, 8u);
  EXPECT_TRUE(loaded.meta.quick);
  EXPECT_EQ(loaded.meta.faults, "compile:p=0.5:seed=7");
  EXPECT_EQ(loaded.meta.retry, "attempts=3");
  EXPECT_EQ(loaded.meta.watchdog_cycles, 123456u);
  EXPECT_EQ(loaded.meta.archs, figure.meta.archs);
  EXPECT_EQ(loaded.meta.modes, figure.meta.modes);

  const auto& curves = loaded.set.All();
  ASSERT_EQ(curves.size(), 2u);
  EXPECT_EQ(curves[0].Name(), "4870 Pixel Float");
  ASSERT_EQ(curves[0].Points().size(), 2u);
  EXPECT_DOUBLE_EQ(curves[0].Points()[1].x, 0.5);
  EXPECT_DOUBLE_EQ(curves[0].Points()[1].y, 1.0);

  // Everything the document carries survives: it is written back
  // byte for byte, the v1 "notes" rendered from the findings included.
  EXPECT_EQ(BenchJson(loaded), json);
}

TEST(ReportRoundTripTest, SlugSurvivesTheRoundTrip) {
  const Figure figure = SampleFigure();
  EXPECT_EQ(figure.Slug(), "fig_7");
  EXPECT_EQ(LoadFigureJson(BenchJson(figure)).Slug(), "fig_7");
}

TEST(ReportRoundTripTest, V1DocumentsAreRejected) {
  const char* v1 =
      "{\"figure\": \"Fig. 9 — Old\", \"title\": \"t\","
      " \"paper_claim\": \"c\", \"notes\": [\"free text\"],"
      " \"curves\": [{\"name\": \"a\","
      "   \"points\": [{\"x\": 1, \"sim_seconds\": 2.5}],"
      "   \"sim_seconds_median\": 2.5, \"sim_seconds_min\": 2.5,"
      "   \"sim_seconds_max\": 2.5}]}";
  try {
    LoadFigureJson(v1);
    FAIL() << "a v1 document loaded";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("schema_version is missing"),
              std::string::npos)
        << e.what();
  }
}

TEST(ReportRoundTripTest, MalformedDocumentsThrowConfigError) {
  EXPECT_THROW(LoadFigureJson("{\"title\": \"no figure key\"}"), ConfigError);
  EXPECT_THROW(LoadFigureJson("{broken"), ConfigError);
  EXPECT_THROW(LoadFigureJson(""), ConfigError);
}

TEST(JsonParserTest, ParsesEscapesAndUnicode) {
  const JsonValue v =
      JsonValue::Parse("{\"s\": \"a\\n\\\"b\\u00e9\", \"n\": -1.5e2,"
                       " \"b\": true, \"z\": null, \"arr\": [1, 2]}");
  EXPECT_EQ(v.Find("s")->AsString(), "a\n\"b\xc3\xa9");
  EXPECT_DOUBLE_EQ(v.Find("n")->AsNumber(), -150.0);
  EXPECT_TRUE(v.Find("b")->AsBool());
  EXPECT_TRUE(v.Find("z")->IsNull());
  EXPECT_EQ(v.Find("arr")->AsArray().size(), 2u);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParserTest, RoundTripsEscapedStrings) {
  // Em-dash (multi-byte UTF-8), quotes, and control characters must
  // survive write → parse unchanged.
  const std::string nasty = "Fig — \"x\"\t\x01 end";
  const JsonValue v = JsonValue::Parse("\"" + JsonEscape(nasty) + "\"");
  EXPECT_EQ(v.AsString(), nasty);
}

// Nesting is bounded at kMaxDepth, so a line of nested brackets is a
// typed error instead of a stack overflow.
TEST(JsonParserTest, RejectsNestingDeeperThanTheBound) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  static_assert(JsonValue::kMaxDepth == 64);
  EXPECT_EQ(JsonValue::Parse(nested(64)).type(), JsonValue::Type::kArray);
  EXPECT_NO_THROW(JsonValue::Parse("{\"a\": " + nested(63) + "}"));
  for (const std::size_t depth : {65ul, 100000ul}) {
    try {
      JsonValue::Parse(nested(depth));
      ADD_FAILURE() << "depth " << depth << " parsed";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than 64 levels"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(JsonValue::Parse("{\"a\": " + nested(64) + "}"), ConfigError);
}

TEST(JsonParserTest, IntegerConversionsCheckTheirRange) {
  const JsonValue doc = JsonValue::Parse(
      R"({"n": 7, "neg": -3, "frac": 1.5, "big": 1e30, "s": "7"})");
  EXPECT_EQ(AsU64(*doc.Find("n"), "n"), 7u);
  EXPECT_EQ(U64Or(doc, "missing", 9), 9u);
  EXPECT_EQ(AsI64(*doc.Find("neg"), "neg", -5, 5), -3);
  for (const char* key : {"neg", "frac", "big", "s"}) {
    try {
      AsU64(*doc.Find(key), key);
      ADD_FAILURE() << key << " converted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("\"" + std::string(key) + "\""),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(AsU64(*doc.Find("n"), "n", 6), ConfigError);
  EXPECT_THROW(AsI64(*doc.Find("neg"), "neg", -2, 5), ConfigError);
  EXPECT_THROW(AsI64(*doc.Find("big"), "big", INT64_MIN, INT64_MAX),
               ConfigError);
  EXPECT_THROW(AsI64(*doc.Find("frac"), "frac", -5, 5), ConfigError);
}

// Numbers follow RFC 8259: no sign but '-', no leading zero, and digits
// on both sides of a decimal point.
TEST(JsonParserTest, NumbersFollowTheJsonGrammar) {
  for (const char* bad : {"+1", "01", "-01", ".5", "1.", "1.e5"}) {
    EXPECT_THROW(JsonValue::Parse(bad), ConfigError) << bad;
    EXPECT_THROW(JsonValue::Parse(std::string("[") + bad + "]"), ConfigError)
        << bad;
  }
  EXPECT_EQ(JsonValue::Parse("0").AsNumber(), 0.0);
  EXPECT_TRUE(std::signbit(JsonValue::Parse("-0").AsNumber()));
  EXPECT_EQ(JsonValue::Parse("-12").AsNumber(), -12.0);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("1.5e-3").AsNumber(), 1.5e-3);
  EXPECT_EQ(JsonValue::Parse("1E+2").AsNumber(), 100.0);
}

// ---- CSV sink golden file ----------------------------------------------

TEST(CsvSinkTest, MatchesGoldenOutput) {
  Figure figure("Fig. X — CSV", "ALU:Fetch", "ratio", "seconds", "claim");
  Series& a = figure.set.Get("a");
  a.Add(0.25, 3.0);
  a.Add(0.5, 1.0);
  figure.set.Get("b").Add(0.25, 5.0);
  const std::string golden =
      "# ALU:Fetch\n"
      "ratio,a,b\n"
      "0.25,3.000000,5.000000\n"
      "0.5,1.000000,\n";
  EXPECT_EQ(figure.set.RenderCsv(), golden);
}

TEST(CsvSinkTest, WritesFileNamedAfterSlug) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "amdmb_csv_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Figure figure = SampleFigure();
  std::ostringstream log;
  WriteFiles(figure, std::nullopt, dir, log);
  // The BENCH document first, then the CSV, each named in the log.
  EXPECT_EQ(log.str(), "JSON results: " + (dir / "BENCH_fig_7.json").string() +
                           "\nCSV results: " + (dir / "fig_7.csv").string() +
                           "\n");
  std::ifstream in(dir / "fig_7.csv");
  std::stringstream csv;
  csv << in.rdbuf();
  EXPECT_EQ(csv.str(), figure.set.RenderCsv());
  std::filesystem::remove_all(dir);
}

TEST(WriteFilesTest, CurvelessFigureWritesOnlyItsDocument) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "amdmb_csv_curveless_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Figure table("Table I", "GPU Hardware Features", "row", "value", "claim");
  std::ostringstream log;
  WriteFiles(table, dir, dir, log);
  EXPECT_EQ(log.str(), "");  // No curves and no findings: nothing.
  table.findings.push_back({FindingKind::kPlateau, "RV770", "alu_count",
                            800.0, "ALUs", ""});
  WriteFiles(table, dir, dir, log);
  EXPECT_EQ(log.str(),
            "JSON results: " + (dir / "BENCH_table_i.json").string() + "\n");
  std::filesystem::remove_all(dir);
}

// ---- Text report --------------------------------------------------------

TEST(TextSinkTest, RendersFindingsAndDegradations) {
  std::ostringstream out;
  const Figure figure = SampleFigure();
  WriteText(out, figure);
  const std::string text = out.str();
  EXPECT_NE(text.find("==== Fig. 7 — ALU:Fetch Ratio for 16 Inputs ===="),
            std::string::npos);
  EXPECT_NE(text.find("Measured:\n"), std::string::npos);
  EXPECT_NE(text.find("  - 4870 Pixel Float: alu_bound_crossover = 2.250 "
                      "ratio"),
            std::string::npos);
  EXPECT_NE(text.find("Fault annotations (degraded sweep points):"),
            std::string::npos);
  EXPECT_NE(text.find("  - 4870 Pixel Float/alufetch_r0.25: retried, "
                      "2 attempts — injected fault: compile"),
            std::string::npos);
}

// ---- Expectation checks -------------------------------------------------

Figure Fig7WithCrossover(std::optional<double> value) {
  Figure figure("Fig. 7 — ALU:Fetch Ratio for 16 Inputs", "t", "x", "y",
                "claim");
  figure.findings.push_back({FindingKind::kCrossover, "4870 Pixel Float",
                             "alu_bound_crossover", value, "ratio", ""});
  return figure;
}

Expectation RangeExpectation(double min, double max) {
  return {"fig_7", "4870 Pixel Float", "alu_bound_crossover", min, max,
          false, "test"};
}

TEST(ExpectationTest, PassFailMissingAndCensored) {
  const Figure figure = Fig7WithCrossover(2.25);

  EXPECT_EQ(CheckExpectation(RangeExpectation(0.5, 3.5), figure).status,
            ExpectationStatus::kPass);
  const ExpectationResult fail =
      CheckExpectation(RangeExpectation(3.0, 7.5), figure);
  EXPECT_EQ(fail.status, ExpectationStatus::kFail);
  EXPECT_NE(fail.detail.find("outside"), std::string::npos);

  Expectation missing = RangeExpectation(0.5, 3.5);
  missing.label = "no_such_finding";
  EXPECT_EQ(CheckExpectation(missing, figure).status,
            ExpectationStatus::kMissing);

  Expectation censored = RangeExpectation(0, 0);
  censored.min.reset();
  censored.max.reset();
  censored.expect_censored = true;
  EXPECT_EQ(CheckExpectation(censored, figure).status,
            ExpectationStatus::kFail);
  EXPECT_EQ(CheckExpectation(censored, Fig7WithCrossover(std::nullopt))
                .status,
            ExpectationStatus::kPass);
  // A censored finding fails a range expectation.
  EXPECT_EQ(CheckExpectation(RangeExpectation(0.5, 3.5),
                             Fig7WithCrossover(std::nullopt))
                .status,
            ExpectationStatus::kFail);
}

TEST(ExpectationTest, CurveSubstringPicksTheFirstMatch) {
  Figure figure = Fig7WithCrossover(2.25);
  figure.findings.push_back({FindingKind::kCrossover, "4870 Pixel Float4",
                             "alu_bound_crossover", 5.25, "ratio", ""});
  // "4870 Pixel Float" is a prefix of "4870 Pixel Float4": registration
  // order guarantees the exact curve is found first.
  const ExpectationResult r =
      CheckExpectation(RangeExpectation(0.5, 3.5), figure);
  EXPECT_EQ(r.status, ExpectationStatus::kPass);
  Expectation float4 = RangeExpectation(3.0, 7.5);
  float4.curve_substr = "4870 Pixel Float4";
  EXPECT_EQ(CheckExpectation(float4, figure).status,
            ExpectationStatus::kPass);
}

TEST(ExpectationTest, SkipsExpectationsForAbsentFigures) {
  const std::vector<Figure> figures = {Fig7WithCrossover(2.25)};
  const std::vector<ExpectationResult> checks = CheckExpectations(figures);
  // Only the three fig_7 expectations apply; the fig_7 float4/compute
  // ones report missing (the sample figure lacks those findings).
  ASSERT_EQ(checks.size(), 3u);
  EXPECT_EQ(checks[0].status, ExpectationStatus::kPass);
  EXPECT_EQ(checks[1].status, ExpectationStatus::kMissing);
  EXPECT_EQ(checks[2].status, ExpectationStatus::kMissing);
}

TEST(ExpectationTest, BuiltInTableIsWellFormed) {
  for (const Expectation& e : PaperExpectations()) {
    EXPECT_FALSE(e.figure_slug.empty());
    EXPECT_FALSE(e.label.empty());
    EXPECT_FALSE(e.paper_note.empty());
    // Slugs in the table must be the canonical form of themselves.
    EXPECT_EQ(FigureSlug(e.figure_slug), e.figure_slug);
    if (!e.expect_censored) {
      ASSERT_TRUE(e.min.has_value());
      ASSERT_TRUE(e.max.has_value());
      EXPECT_LT(*e.min, *e.max);
    }
  }
}

// ---- Directory merge + aggregator ---------------------------------------

TEST(AggregateTest, MergesADirectoryIntoMarkdown) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "amdmb_aggregate_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  WriteBenchJson(SampleFigure(), dir);
  Figure other("Ablation — Clause Usage Control (paper Fig. 5)", "t", "x",
               "y", "flat");
  other.set.Get("RV770 clause control").Add(0, 1.0);
  other.findings.push_back({FindingKind::kRatio, "RV770 clause control",
                            "level_variation", 0.05, "", ""});
  other.meta = SampleFigure().meta;  // Same run -> same provenance.
  WriteBenchJson(other, dir);

  const std::vector<Figure> figures = LoadFigureDirectory(dir);
  ASSERT_EQ(figures.size(), 2u);
  // Sorted by filename: BENCH_ablation_... before BENCH_fig_7.
  EXPECT_EQ(figures[0].Slug(), "ablation_clause_usage_control_paper_fig_5");
  EXPECT_EQ(figures[1].Slug(), "fig_7");

  const std::vector<ExpectationResult> checks = CheckExpectations(figures);
  const std::string md = SuiteSummaryMarkdown(figures, checks);
  EXPECT_NE(md.find("# AMD micro-benchmark suite — merged results"),
            std::string::npos);
  EXPECT_NE(md.find("## Fig. 7 — ALU:Fetch Ratio for 16 Inputs "
                    "(`BENCH_fig_7.json`)"),
            std::string::npos);
  // Median, min and max come from the points, as the writer's do.
  EXPECT_NE(md.find("| 4870 Pixel Float | 2 | 2.000 | 1.000 | 3.000 |"),
            std::string::npos);
  EXPECT_NE(md.find("## Paper-expectation checks"), std::string::npos);
  // The clause-control expectation passes on the synthetic value 0.05.
  EXPECT_NE(md.find("| ablation_clause_usage_control_paper_fig_5 | "
                    "RV770 clause control | level_variation |"),
            std::string::npos);
  EXPECT_NE(md.find("Run: suite v1.2.3-4-gabc, 8 sweep threads, quick "
                    "domains"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(AggregateTest, MissingDirectoryThrows) {
  EXPECT_THROW(
      LoadFigureDirectory("/nonexistent/amdmb_report_dir"), ConfigError);
}

}  // namespace
}  // namespace amdmb
