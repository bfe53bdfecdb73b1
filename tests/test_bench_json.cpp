// Tests for the machine-readable results writer and the figure-id slug.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/status.hpp"
#include "report/json.hpp"
#include "report/json_sink.hpp"
#include "report/record.hpp"

namespace amdmb {
namespace {

using report::BenchJson;
using report::FigureSlug;
using report::JsonEscape;
using report::JsonValue;
using report::WriteBenchJson;

TEST(FigureSlugTest, StopsAtEmDashAfterNumberedPrefix) {
  EXPECT_EQ(FigureSlug("Fig. 7 — ALU:Fetch Ratio"), "fig_7");
  EXPECT_EQ(FigureSlug("Fig. 15a — Domain Size, Pixel Shader"), "fig_15a");
}

TEST(FigureSlugTest, KeepsEveryNumberOfMultiPartIds) {
  // The old slug truncated at the first hyphen, collapsing
  // "Figs. 11-12" to "figs_11".
  EXPECT_EQ(FigureSlug("Figs. 11-12 — Read latency"), "figs_11_12");
  EXPECT_EQ(FigureSlug("Figs. 16-17"), "figs_16_17");
}

TEST(FigureSlugTest, UnnumberedIdsKeepTheirFullText) {
  // Four distinct ablation figures must not collide on "ablation": the
  // em-dash only terminates ids whose prefix carried a digit.
  EXPECT_EQ(FigureSlug("Ablation — 2-D Cache Set Indexing"),
            "ablation_2_d_cache_set_indexing");
  EXPECT_EQ(FigureSlug("Ablation — Wavefront Residency Cap"),
            "ablation_wavefront_residency_cap");
  EXPECT_EQ(FigureSlug("Extension — Compute Block-Size Explorer"),
            "extension_compute_block_size_explorer");
  // Numbered parentheticals after the title still belong to the slug.
  EXPECT_EQ(FigureSlug("Ablation — Clause Usage Control (paper Fig. 5)"),
            "ablation_clause_usage_control_paper_fig_5");
  EXPECT_EQ(FigureSlug("Table I"), "table_i");
}

TEST(FigureSlugTest, EmptyAndSymbolIdsFallBack) {
  EXPECT_EQ(FigureSlug(""), "figure");
  EXPECT_EQ(FigureSlug("—"), "figure");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

report::Figure TwoCurveFigure() {
  report::Figure figure("Fig. 7 — ALU:Fetch", "ALU:Fetch", "ratio",
                        "seconds", "claim");
  Series& a = figure.set.Get("4870 Pixel Float");
  a.Add(0.25, 3.0);
  a.Add(0.50, 1.0);
  a.Add(1.00, 2.0);
  Series& b = figure.set.Get("4870 Pixel Float4");
  b.Add(0.25, 5.0);
  b.Add(0.50, 7.0);
  figure.findings.push_back({report::FindingKind::kCrossover,
                             "4870 Pixel Float", "alu_bound_crossover", 0.5,
                             "ratio", ""});
  return figure;
}

TEST(BenchJsonTest, EmitsCurvesWithSummaryStats) {
  const std::string json = BenchJson(TwoCurveFigure());
  EXPECT_NE(json.find("\"figure\": \"Fig. 7 — ALU:Fetch\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"4870 Pixel Float\""), std::string::npos);
  EXPECT_NE(json.find("{\"x\": 0.25, \"sim_seconds\": 3}"),
            std::string::npos);
  // Median of {3, 1, 2} is 2; min 1; max 3.
  EXPECT_NE(json.find("\"sim_seconds_median\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sim_seconds_min\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"sim_seconds_max\": 3"), std::string::npos);
  // Even-count median of {5, 7} is 6.
  EXPECT_NE(json.find("\"sim_seconds_median\": 6"), std::string::npos);
  // "notes" carries the rendered findings (v1 key, v2 content).
  EXPECT_NE(json.find("\"notes\": [\"4870 Pixel Float: "
                      "alu_bound_crossover = 0.500 ratio\"]"),
            std::string::npos);
}

TEST(BenchJsonTest, FaultFreeDocumentsOnlyGainAdditiveKeys) {
  // Schema-compat guarantee: relative to v1 (figure, title, paper_claim,
  // notes, curves), a fault-free v2 document only *adds* keys — a v1
  // consumer keeps working untouched.
  const JsonValue doc = JsonValue::Parse(BenchJson(TwoCurveFigure()));
  std::set<std::string> keys;
  for (const auto& [key, value] : doc.AsObject()) keys.insert(key);
  for (const char* v1_key :
       {"figure", "title", "paper_claim", "notes", "curves"}) {
    EXPECT_TRUE(keys.count(v1_key)) << "v1 key missing: " << v1_key;
  }
  EXPECT_TRUE(keys.count("schema_version"));
  EXPECT_TRUE(keys.count("meta"));
  EXPECT_TRUE(keys.count("findings"));
  // No degraded points -> no "degradations" key at all.
  EXPECT_FALSE(keys.count("degradations"));
  EXPECT_EQ(doc.NumberOr("schema_version", 0), report::kSchemaVersion);
}

TEST(BenchJsonTest, WritesBenchFileNamedAfterSlug) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "amdmb_json_test";
  std::filesystem::remove_all(dir);
  report::Figure figure("Figs. 11-12 — Read latency", "Read latency",
                        "inputs", "seconds", "claim");
  figure.set.Get("a").Add(1, 2.0);
  // The program checks its output directory once; the writer does not
  // create one.
  EXPECT_THROW(WriteBenchJson(figure, dir), ConfigError);
  std::filesystem::create_directories(dir);
  const std::filesystem::path file = WriteBenchJson(figure, dir);
  EXPECT_EQ(file.filename().string(), "BENCH_figs_11_12.json");
  std::ifstream in(file);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"curves\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace amdmb
