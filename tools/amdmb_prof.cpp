// amdmb_prof — profile one document's sweep points on the simulated GPU.
//
// Builds a registry figure or supplement at smoke scale (the
// AMDMB_QUICK shapes) through figures::Build with hardware-counter
// profiling forced on, then prints the counter table, clause
// queue/service decomposition, and counter-based bottleneck attribution
// for one profiled point. Optionally emits that point's profile as
// JSON, or diffs two previously saved profiles counter by counter. With
// AMDMB_TRACE_DIR set, every profiled launch writes its Chrome trace
// there, as in the bench binaries.
//
// Usage:
//   amdmb_prof <document> [--point TEXT] [--json]
//   amdmb_prof --diff A.json B.json
//   amdmb_prof --list
//
//   <document>    slug of a registry figure or supplement (see --list),
//                 e.g. fig_7 or ablation_wavefront_residency_cap
//   --point TEXT  select the first profiled point whose
//                 "<curve>/<point>" contains TEXT; default: the last
//                 profiled point
//   --json        print the selected profile as JSON instead of text
//   --diff A B    compare two profile JSON documents; exit 1 when any
//                 counter or the attributed bottleneck differs
//
// Exit codes: 0 success; 1 no point matches, the document has no
// profiled point, --diff found differences, or the build failed;
// 2 usage or configuration error (a malformed --diff input included).
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "amdmb.hpp"
#include "common/version.hpp"
#include "prof/profile_json.hpp"
#include "report/sink.hpp"

namespace {

using namespace amdmb;
namespace figures = suite::figures;

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " <document> [--point TEXT] [--json]\n"
            << "   or: " << argv0 << " --diff A.json B.json\n   or: "
            << argv0 << " --list\n";
  return 2;
}

prof::Profile LoadProfile(const std::string& path) {
  std::ifstream in(path);
  Require(in.good(), "amdmb_prof: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return prof::ParseProfileJson(text.str());
  } catch (const ConfigError& e) {
    throw ConfigError(path + ": " + e.what());
  }
}

std::string Identity(const prof::Profile& p) {
  return p.arch + " " + p.mode + " " + p.type + " " + p.point;
}

/// Counter-by-counter comparison; returns the number of differences
/// (differing counters plus a differing attributed bottleneck).
int DiffProfiles(const prof::Profile& a, const prof::Profile& b) {
  std::cout << "A: " << Identity(a) << "\nB: " << Identity(b) << "\n\n";
  int differences = 0;
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(prof::CounterId::kCount); ++i) {
    const auto id = static_cast<prof::CounterId>(i);
    const std::uint64_t va = a.counters.Get(id);
    const std::uint64_t vb = b.counters.Get(id);
    if (va == vb) continue;
    ++differences;
    const auto delta = static_cast<std::int64_t>(vb - va);
    std::cout << "  " << prof::ToString(id) << ": " << va << " -> " << vb
              << " (" << (delta >= 0 ? "+" : "") << delta << ")\n";
  }
  const std::string_view ba = sim::ToString(a.attribution.bottleneck);
  const std::string_view bb = sim::ToString(b.attribution.bottleneck);
  if (ba != bb) {
    ++differences;
    std::cout << "  bottleneck: " << ba << " -> " << bb << "\n";
  }
  if (differences == 0) {
    std::cout << "identical: every counter and the attribution match\n";
  } else {
    std::cout << "\n" << differences << " difference"
              << (differences == 1 ? "" : "s") << "\n";
  }
  return differences;
}

}  // namespace

int main(int argc, char** argv) {
  std::string document;
  std::string point_text;
  std::vector<std::string> diff_paths;
  bool json = false;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&](const char* flag) {
      if (i + 1 >= argc) {
        throw amdmb::ConfigError(std::string("amdmb_prof: ") + flag +
                                 " needs a value");
      }
      return std::string(argv[++i]);
    };
    try {
      if (std::strcmp(argv[i], "--version") == 0) {
        std::cout << "amdmb_prof " << amdmb::SuiteVersion() << "\n";
        return 0;
      } else if (std::strcmp(argv[i], "--list") == 0) {
        list = true;
      } else if (std::strcmp(argv[i], "--json") == 0) {
        json = true;
      } else if (std::strcmp(argv[i], "--point") == 0) {
        point_text = value("--point");
      } else if (std::strcmp(argv[i], "--diff") == 0) {
        diff_paths.push_back(value("--diff"));
        diff_paths.push_back(value("--diff"));
      } else if (argv[i][0] == '-') {
        return Usage(argv[0]);
      } else if (document.empty()) {
        document = argv[i];
      } else {
        return Usage(argv[0]);
      }
    } catch (const amdmb::ConfigError& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }

  if (list) {
    for (const auto* defs : {&figures::Registry(), &figures::Supplements()}) {
      for (const figures::FigureDef& def : *defs) {
        std::cout << def.slug << "\t" << def.what << "\n";
      }
    }
    return 0;
  }

  try {
    if (!diff_paths.empty()) {
      return DiffProfiles(LoadProfile(diff_paths[0]),
                          LoadProfile(diff_paths[1])) == 0
                 ? 0
                 : 1;
    }
    if (document.empty()) return Usage(argv[0]);

    const figures::FigureDef* def = figures::Find(document);
    if (def == nullptr) def = figures::Find(document, figures::Supplements());
    if (def == nullptr) {
      throw ConfigError("amdmb_prof: unknown document '" + document +
                        "' (see --list)");
    }
    report::EnsureOutputDirectories(/*figure_files=*/false);

    // Every profiled point's "<curve>/<point>" label and attributed
    // bottleneck; only the selected point's rendering is kept.
    std::vector<std::pair<std::string, std::string_view>> points;
    std::size_t selected = 0;  // 1-based; 0 = none yet.
    std::string identity;
    std::string rendering;
    figures::RunOptions opts;
    opts.quick = true;
    opts.on_profile = [&](const std::string& curve, const prof::Profile& p) {
      points.emplace_back(curve + "/" + p.point,
                          sim::ToString(p.attribution.bottleneck));
      if (point_text.empty() ||
          (selected == 0 &&
           points.back().first.find(point_text) != std::string::npos)) {
        selected = points.size();
        identity = Identity(p);
        rendering = json ? prof::ProfileJson(p) : p.Render();
      }
    };
    figures::Build(*def, opts);
    if (points.empty()) {
      std::cerr << "amdmb_prof: " << def->slug << " has no profiled points\n";
      return 1;
    }
    if (selected == 0) {
      std::cerr << "amdmb_prof: no profiled point matches '" << point_text
                << "'; points are:\n";
      for (const auto& [label, bottleneck] : points) {
        std::cerr << "  " << label << "\n";
      }
      return 1;
    }

    if (json) {
      std::cout << rendering;
      return 0;
    }
    std::cout << def->slug << " on " << identity << " (" << points.size()
              << " profiled point" << (points.size() == 1 ? "" : "s")
              << ")\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::cout << "  " << points[i].first << ": " << points[i].second
                << (i + 1 == selected ? "  <- selected" : "") << "\n";
    }
    std::cout << "\n" << rendering;
    return 0;
  } catch (const amdmb::ConfigError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "amdmb_prof: " << e.what() << "\n";
    return 1;
  }
}
