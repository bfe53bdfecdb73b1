// amdmb_report — the cross-figure aggregator.
//
// Loads every BENCH_*.json written by the bench binaries (point them at
// a directory with AMDMB_JSON_DIR), merges the typed records into one
// suite-wide markdown summary, and checks the findings against the
// paper expectations encoded in report/expectations.cpp. Consumes only
// the typed record model — no bench stdout scraping. Only schema-v2
// documents load; any other, or one that fails to parse, exits 2.
//
// Usage:
//   amdmb_report <json-dir> [--out FILE] [--strict] [--figure SLUG] [--list]
//
//   --out FILE     write the markdown summary to FILE instead of stdout
//   --strict       exit 1 when any expectation check fails or is missing
//   --figure SLUG  aggregate only BENCH_<SLUG>.json (e.g. fig_7)
//   --list         print the slug and title of every document, then exit
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/interrupt.hpp"
#include "common/status.hpp"
#include "common/version.hpp"
#include "report/aggregate.hpp"
#include "report/expectations.hpp"
#include "report/load.hpp"

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <json-dir> [--out FILE] [--strict] [--figure SLUG]"
               " [--list] [--version]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_dir;
  std::string out_path;
  std::string figure_slug;
  bool strict = false;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--version") == 0) {
      std::cout << "amdmb_report " << amdmb::SuiteVersion() << "\n";
      return 0;
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) return Usage(argv[0]);
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--figure") == 0) {
      if (i + 1 >= argc) return Usage(argv[0]);
      figure_slug = argv[++i];
    } else if (argv[i][0] == '-') {
      return Usage(argv[0]);
    } else if (json_dir.empty()) {
      json_dir = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (json_dir.empty()) return Usage(argv[0]);

  // SIGINT/SIGTERM between load and write no longer truncates --out
  // files: the run is cut short at the next checkpoint and whatever is
  // complete is flushed with a visible interruption note.
  amdmb::InstallInterruptHandlers();

  try {
    using namespace amdmb::report;
    const std::vector<Figure> figures =
        LoadFigureDirectory(json_dir, figure_slug);
    if (figures.empty()) {
      std::cerr << "amdmb_report: no "
                << (figure_slug.empty()
                        ? std::string("BENCH_*.json documents")
                        : "BENCH_" + figure_slug + ".json")
                << " in " << json_dir << "\n";
      return 2;
    }
    if (list) {
      for (const Figure& figure : figures) {
        std::cout << figure.Slug() << "\t" << figure.id << "\n";
      }
      return 0;
    }
    const std::vector<ExpectationResult> checks = CheckExpectations(figures);
    std::string summary = SuiteSummaryMarkdown(figures, checks);
    if (amdmb::InterruptRequested()) {
      summary += "\n> **Interrupted** (";
      summary += amdmb::DescribeSignal(amdmb::InterruptSignal());
      summary += "): summary flushed before exit; re-run to regenerate.\n";
    }
    if (out_path.empty()) {
      std::cout << summary;
    } else {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "amdmb_report: cannot write " << out_path << "\n";
        return 2;
      }
      out << summary;
      std::cout << "Wrote " << out_path << "\n";
    }
    unsigned fail = 0, missing = 0;
    for (const ExpectationResult& check : checks) {
      if (check.status == ExpectationStatus::kFail) ++fail;
      if (check.status == ExpectationStatus::kMissing) ++missing;
    }
    if (fail != 0 || missing != 0) {
      std::cerr << "amdmb_report: " << fail << " failed, " << missing
                << " missing expectation check"
                << (fail + missing == 1 ? "" : "s") << "\n";
      if (strict) return 1;
    }
    return 0;
  } catch (const amdmb::ConfigError& e) {
    std::cerr << "amdmb_report: " << e.what() << "\n";
    return 2;
  }
}
