// Committed golden for every quick-scale document the suite produces.
//
// The determinism tests compare one run with another, so a change that
// moves every number the same way passes them all. These digests do
// not: each ctest case builds one document — a registry figure or a
// supplement (Table I, the Fig. 5 control, the ablations, the
// block-size extension, the frontier map) at quick scale, dense or
// adaptive, or a quick kerncap characterization of a valid corpus
// kernel, dense or adaptive — and compares its digest with
// tests/golden/digests.json. One more
// case pins the kerncap cross-check points (kernels and launches).
//
// Digest: FNV-1a 64 (standard offset basis) of report::BenchJson with
// meta.suite_version and meta.threads blanked. This is the repo
// benchmark's normalisation, so the dense_quick table here equals the
// one in perf/expected_digests.json (GoldenFile.DenseQuickMatchesBenchmark).
//
// On drift a case prints the document's slug, the expected and actual
// digest, and its findings. To accept an intended change, paste the
// printed "key": "digest" line into tests/golden/digests.json; there is
// deliberately no update flag.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/refiner.hpp"
#include "il/printer.hpp"
#include "kerncap/characterize.hpp"
#include "kerncap/intake.hpp"
#include "report/json.hpp"
#include "report/json_sink.hpp"
#include "suite/figures.hpp"

namespace amdmb {
namespace {

namespace fs = std::filesystem;

const fs::path kDataDir = AMDMB_TEST_DATA_DIR;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Replaces the value of the first meta line `key` (as BenchJson writes
/// it) up to the end of its line with `blank`.
void BlankValue(std::string& doc, std::string_view key,
                std::string_view blank) {
  const std::size_t at = doc.find(key);
  if (at == std::string::npos) return;
  const std::size_t begin = at + key.size();
  const std::size_t end = doc.find(",\n", begin);
  if (end == std::string::npos) return;
  doc.replace(begin, end - begin, blank);
}

std::string Digest(std::string doc) {
  BlankValue(doc, "\n    \"suite_version\": ", "\"\"");
  BlankValue(doc, "\n    \"threads\": ", "0");
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(doc)));
  return hex;
}

/// One digest table of a golden file ({"digests": {table: {key: hex}}}).
const report::JsonValue* Table(const report::JsonValue& golden,
                               const std::string& table) {
  const report::JsonValue* digests = golden.Find("digests");
  return digests == nullptr ? nullptr : digests->Find(table);
}

const report::JsonValue& Golden() {
  static const report::JsonValue golden = report::JsonValue::Parse(
      ReadFile(kDataDir / "golden" / "digests.json"));
  return golden;
}

/// One pinned document: `table` names how it is built, `key` which one.
struct GoldenCase {
  std::string table;
  std::string key;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.table << "/" << c.key;
}

bool IsKerncap(const GoldenCase& c) {
  return c.table.rfind("kerncap_", 0) == 0;
}
bool IsSupplement(const GoldenCase& c) {
  return c.table.rfind("supplement_", 0) == 0;
}
bool IsAdaptive(const GoldenCase& c) {
  return c.table.find("adaptive") != std::string::npos;
}

std::vector<GoldenCase> AllCases() {
  std::vector<GoldenCase> cases;
  for (const char* table : {"dense_quick", "adaptive_quick"}) {
    for (const suite::figures::FigureDef& def : suite::figures::Registry()) {
      cases.push_back({table, def.slug});
    }
  }
  // Kept out of dense_quick, whose size must equal the benchmark's.
  for (const char* table :
       {"supplement_dense_quick", "supplement_adaptive_quick"}) {
    for (const suite::figures::FigureDef& def :
         suite::figures::Supplements()) {
      cases.push_back({table, def.slug});
    }
  }
  std::vector<std::string> kernels;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(kDataDir / "corpus" / "il")) {
    const std::string stem = entry.path().stem().string();
    if (stem.rfind("valid_", 0) == 0) kernels.push_back(stem);
  }
  std::sort(kernels.begin(), kernels.end());
  for (const char* table : {"kerncap_dense_quick", "kerncap_adaptive_quick"}) {
    for (const std::string& kernel : kernels) cases.push_back({table, kernel});
  }
  return cases;
}

/// Builds the case's figure record at quick scale. Adaptive cases use
/// explicit default settings, so AMDMB_ADAPT_* cannot move them.
report::Figure BuildCase(const GoldenCase& c, std::string& slug) {
  const adapt::Settings settings{};
  const adapt::Settings* adaptive = IsAdaptive(c) ? &settings : nullptr;
  if (!IsKerncap(c)) {
    const suite::figures::FigureDef* def = suite::figures::Find(
        c.key, IsSupplement(c) ? suite::figures::Supplements()
                               : suite::figures::Registry());
    if (def == nullptr) throw std::runtime_error("unknown figure " + c.key);
    slug = def->slug;
    suite::figures::RunOptions opts;
    opts.quick = true;
    opts.adaptive = adaptive;
    return suite::figures::Build(*def, opts);
  }
  const kerncap::AnalyzeResult analysis =
      kerncap::Analyze(ReadFile(kDataDir / "corpus" / "il" / (c.key + ".il")));
  if (!analysis.ok()) throw std::runtime_error(c.key + " was rejected");
  slug = kerncap::Slug(*analysis.prepared);
  kerncap::CharacterizeOptions options;
  options.quick = true;
  options.adaptive = adaptive;
  return kerncap::Characterize(*analysis.prepared, options);
}

class GoldenTest : public testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTest, DigestMatches) {
  const GoldenCase& c = GetParam();
  std::string slug;
  const report::Figure figure = BuildCase(c, slug);
  const std::string actual = Digest(report::BenchJson(figure));

  const report::JsonValue* table = Table(Golden(), c.table);
  const report::JsonValue* entry =
      table == nullptr ? nullptr : table->Find(c.key);
  const std::string expected =
      entry == nullptr ? std::string("(missing)") : entry->AsString();
  if (actual == expected) return;

  std::ostringstream findings;
  for (const report::Finding& f : figure.findings) {
    findings << "  " << f.Render() << "\n";
  }
  ADD_FAILURE() << c.table << "/" << slug << " drifted\n"
                << "  expected " << expected << "\n"
                << "  actual   " << actual << "\n"
                << "findings:\n"
                << findings.str() << "to accept, set in digests[\""
                << c.table << "\"]:\n  \"" << c.key << "\": \"" << actual
                << "\"";
}

INSTANTIATE_TEST_SUITE_P(
    Documents, GoldenTest, testing::ValuesIn(AllCases()),
    [](const testing::TestParamInfo<GoldenCase>& info) {
      return info.param.table + "_" + info.param.key;
    });

// The golden and the repo benchmark pin the same dense quick documents
// with the same normalisation; they must not disagree.
TEST(GoldenFile, DenseQuickMatchesBenchmark) {
  const report::JsonValue bench = report::JsonValue::Parse(
      ReadFile(kDataDir / ".." / "perf" / "expected_digests.json"));
  const report::JsonValue* ours = Table(Golden(), "dense_quick");
  const report::JsonValue* theirs = Table(bench, "dense_quick");
  ASSERT_NE(ours, nullptr);
  ASSERT_NE(theirs, nullptr);
  for (const auto& [slug, digest] : theirs->AsObject()) {
    const report::JsonValue* pinned = ours->Find(slug);
    ASSERT_NE(pinned, nullptr) << slug;
    EXPECT_EQ(pinned->AsString(), digest.AsString()) << slug;
  }
  EXPECT_EQ(ours->AsObject().size(), theirs->AsObject().size());
}

// CrossCheckPoints feeds the kerncap cross-validation and the repo
// benchmark's layer replay, which reports the points' sim.* and mem.*
// sums as exact. One digest over every point, in order, pins each
// point's identity, architecture, launch and generated IL.
TEST(GoldenFile, CrossCheckPointsAreUnchanged) {
  std::ostringstream text;
  for (const suite::figures::CrossCheckPoint& p :
       suite::figures::CrossCheckPoints()) {
    const sim::LaunchConfig& c = p.config;
    text << p.figure << '|' << p.curve << '|' << p.point << '|'
         << p.arch.name << '|' << p.arch.l1.two_d_index << '|'
         << c.domain.width << 'x' << c.domain.height << '|'
         << static_cast<int>(c.mode) << '|' << c.block.x << 'x' << c.block.y
         << '|' << c.repetitions << '|' << c.watchdog_cycles << '|'
         << c.profile << '\n'
         << il::Print(p.kernel) << '\n';
  }
  char actual[17];
  std::snprintf(actual, sizeof(actual), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(text.str())));
  const report::JsonValue* table = Table(Golden(), "cross_check");
  ASSERT_NE(table, nullptr);
  const report::JsonValue* pinned = table->Find("points");
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->AsString(), actual)
      << "to accept, set in digests[\"cross_check\"]:\n  \"points\": \""
      << actual << "\"";
}

}  // namespace
}  // namespace amdmb
