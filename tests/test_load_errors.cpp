// Failure-path tests for report::LoadFigureJson / LoadFigureDirectory:
// truncated documents, non-JSON bytes, any schema version but 2 (v1
// included), out-of-range integers and over-deep nesting must produce
// typed ConfigErrors that name the file — never a crash or a silently
// wrong record.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/status.hpp"
#include "report/load.hpp"

namespace amdmb::report {
namespace {

const char kValidV2Doc[] = R"({
  "figure": "Fig. 7 — ALU:Fetch Ratio for 16 Inputs",
  "title": "ALU:Fetch Ratio",
  "schema_version": 2,
  "meta": {"suite_version": "test", "threads": 1, "quick": true},
  "curves": [
    {"name": "4870 Pixel Float",
     "points": [{"x": 0.25, "sim_seconds": 0.3}],
     "sim_seconds_median": 0.3, "sim_seconds_min": 0.3,
     "sim_seconds_max": 0.3}
  ]
})";

std::string ErrorOf(std::string_view text) {
  try {
    LoadFigureJson(text);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return {};
}

TEST(LoadErrors, TruncatedDocumentIsATypedError) {
  const std::string valid = kValidV2Doc;
  // Cutting a valid document anywhere (but before the closing brace)
  // must throw ConfigError, not crash or return a partial record.
  for (const std::size_t cut : {1ul, 20ul, valid.size() / 2,
                                valid.size() - 2}) {
    EXPECT_THROW(LoadFigureJson(valid.substr(0, cut)), ConfigError)
        << "cut at " << cut;
  }
}

TEST(LoadErrors, NonJsonBytesAreATypedError) {
  EXPECT_THROW(LoadFigureJson("not json at all"), ConfigError);
  EXPECT_THROW(LoadFigureJson("\x00\x01\x02\xff"), ConfigError);
  EXPECT_THROW(LoadFigureJson(""), ConfigError);
  // Valid JSON of the wrong shape: no "figure" key.
  EXPECT_NE(ErrorOf(R"({"title": "x"})").find("figure"), std::string::npos);
  EXPECT_THROW(LoadFigureJson("[1, 2, 3]"), ConfigError);
}

TEST(LoadErrors, UnsupportedSchemaVersionIsATypedError) {
  const std::string err =
      ErrorOf(R"({"figure": "Fig. 7 — X", "schema_version": 3})");
  EXPECT_NE(err.find("schema_version"), std::string::npos) << err;
  EXPECT_NE(err.find("3"), std::string::npos) << err;
  EXPECT_THROW(
      LoadFigureJson(R"({"figure": "F", "schema_version": 0})"),
      ConfigError);
  EXPECT_THROW(
      LoadFigureJson(R"({"figure": "F", "schema_version": -1})"),
      ConfigError);
}

TEST(LoadErrors, NonNumericSchemaVersionIsATypedError) {
  const std::string err =
      ErrorOf(R"({"figure": "Fig. 7 — X", "schema_version": "two"})");
  EXPECT_NE(err.find("schema_version"), std::string::npos) << err;
  EXPECT_THROW(
      LoadFigureJson(R"({"figure": "F", "schema_version": null})"),
      ConfigError);
}

TEST(LoadErrors, SupportedVersionsLoad) {
  EXPECT_EQ(LoadFigureJson(kValidV2Doc).set.All().size(), 1u);
}

TEST(LoadErrors, V1DocumentsAreATypedError) {
  // Absent (pre-versioning writers) and explicit 1 are both schema v1.
  EXPECT_NE(ErrorOf(R"({"figure": "Fig. 1 — A"})")
                .find("schema_version is missing"),
            std::string::npos);
  EXPECT_NE(ErrorOf(R"({"figure": "F", "schema_version": 1})")
                .find("schema_version is 1"),
            std::string::npos);
}

// Every integer field is checked before its cast: negative, fractional,
// huge or non-numeric values are a ConfigError naming the key.
TEST(LoadErrors, OutOfRangeIntegersAreATypedError) {
  const std::string valid = kValidV2Doc;
  const auto rejects = [&](const std::string& text, const std::string& key) {
    const std::string err = ErrorOf(text);
    EXPECT_NE(err.find("\"" + key + "\""), std::string::npos)
        << key << ": " << err;
  };
  const auto with_meta = [&](const std::string& field) {
    std::string text = valid;
    const std::string from = "\"meta\": {";
    text.replace(text.find(from), from.size(), from + field + ", ");
    return text;
  };
  const auto with_key = [&](const std::string& block) {
    std::string text = valid;
    const std::string from = "\"curves\": [";
    text.replace(text.find(from), 0, block + ",\n  ");
    return text;
  };
  for (const char* value : {"-1", "1.5", "1e30", "\"8\""}) {
    const std::string v = value;
    rejects(with_meta("\"watchdog_cycles\": " + v), "watchdog_cycles");
    rejects(with_key(R"("degradations": [{"curve": "c", "attempts": )" + v +
                     "}]"),
            "attempts");
    rejects(with_key(R"("profile": [{"curve": "c", "dropped_events": )" + v +
                     "}]"),
            "dropped_events");
    rejects(with_key(R"("frontier": {"points_measured": )" + v + "}"),
            "points_measured");
    rejects(with_key(R"("frontier": {"points_dense": )" + v + "}"),
            "points_dense");
  }
  // meta.threads is an unsigned: 1e10 is out of its range too.
  rejects(with_meta("\"threads\": 1e10"), "threads");
  rejects(with_meta("\"threads\": -2"), "threads");
  rejects(with_key(R"("degradations": [{"attempts": 1e10}])"), "attempts");
}

TEST(LoadErrors, OverDeepNestingIsATypedError) {
  std::string text = kValidV2Doc;
  const std::string from = "\"curves\": [";
  text.replace(text.find(from), 0,
               "\"deep\": " + std::string(70, '[') + std::string(70, ']') +
                   ",\n  ");
  EXPECT_NE(ErrorOf(text).find("nesting deeper than 64"), std::string::npos);
}

class LoadDirectoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("amdmb_load_errors_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteDoc(const std::string& name, const std::string& text) {
    std::ofstream out(dir_ / name);
    out << text;
  }

  std::filesystem::path dir_;
};

TEST_F(LoadDirectoryTest, V1DocumentNamesItsFileAndSchemaVersion) {
  WriteDoc("BENCH_fig_1.json", R"({"figure": "Fig. 1 — Legacy"})");
  WriteDoc("BENCH_fig_7.json", kValidV2Doc);
  try {
    LoadFigureDirectory(dir_, "");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("BENCH_fig_1.json"), std::string::npos) << what;
    EXPECT_NE(what.find("schema_version"), std::string::npos) << what;
  }
  // The v2 document alone loads.
  const auto figures = LoadFigureDirectory(dir_, "fig_7");
  ASSERT_EQ(figures.size(), 1u);
  EXPECT_EQ(figures[0].set.All().size(), 1u);
}

TEST_F(LoadDirectoryTest, OneBadDocumentNamesItsFile) {
  WriteDoc("BENCH_fig_7.json", kValidV2Doc);
  WriteDoc("BENCH_fig_9.json", "{truncated");
  try {
    LoadFigureDirectory(dir_, "");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("BENCH_fig_9.json"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(LoadDirectoryTest, FutureSchemaVersionNamesItsFile) {
  WriteDoc("BENCH_fig_7.json",
           R"({"figure": "Fig. 7 — X", "schema_version": 99})");
  try {
    LoadFigureDirectory(dir_, "");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("BENCH_fig_7.json"), std::string::npos) << what;
    EXPECT_NE(what.find("schema_version"), std::string::npos) << what;
  }
}

TEST_F(LoadDirectoryTest, NonBenchFilesAreIgnored) {
  WriteDoc("BENCH_fig_7.json", kValidV2Doc);
  WriteDoc("notes.json", "not json");          // No BENCH_ prefix.
  WriteDoc("BENCH_fig_7.json.bak", "broken");  // Wrong extension.
  const auto figures = LoadFigureDirectory(dir_, "");
  ASSERT_EQ(figures.size(), 1u);
}

TEST_F(LoadDirectoryTest, MissingDirectoryIsATypedError) {
  EXPECT_THROW(LoadFigureDirectory(dir_ / "does_not_exist", ""),
               ConfigError);
}

}  // namespace
}  // namespace amdmb::report
