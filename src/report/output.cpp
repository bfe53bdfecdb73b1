#include "report/output.hpp"

#include <fstream>
#include <string_view>

#include "common/status.hpp"
#include "report/gnuplot_sink.hpp"
#include "report/json_sink.hpp"

namespace amdmb::report {

void WriteText(std::ostream& os, const Figure& figure) {
  os << "\n==== " << figure.id << " ====\n";
  os << "Paper claim: " << figure.paper_claim << "\n\n";
  os << figure.set.RenderColumns() << "\n";
  if (!figure.findings.empty()) {
    os << "Measured:\n";
    for (const Finding& f : figure.findings) {
      os << "  - " << f.Render() << "\n";
    }
  }
  if (!figure.degradations.empty()) {
    os << "Fault annotations (degraded sweep points):\n";
    for (const Degradation& d : figure.degradations) {
      os << "  - " << d.Render() << "\n";
    }
  }
  if (!figure.profiles.empty()) {
    std::size_t agreeing = 0;
    for (const ProfileEntry& p : figure.profiles) {
      if (p.agree) ++agreeing;
    }
    os << "Profiled points (counter-based attribution, " << agreeing
       << "/" << figure.profiles.size() << " agree with the heuristic):\n";
    for (const ProfileEntry& p : figure.profiles) {
      os << "  - " << p.Render() << "\n";
    }
  }
}

void WriteFiles(const Figure& figure,
                const std::optional<std::filesystem::path>& dump_dir,
                const std::optional<std::filesystem::path>& json_dir,
                std::ostream& log) {
  // Takes the path a writer returned, so a write that throws logs
  // nothing.
  const auto note = [&log](std::string_view kind,
                           const std::filesystem::path& path) {
    log << kind << ": " << path.string() << "\n";
  };
  const bool has_curves = !figure.set.All().empty();
  const std::string slug = figure.Slug();
  if (dump_dir) {
    if (has_curves) {
      note("Gnuplot script", WriteGnuplot(figure.set, *dump_dir, slug));
    }
    if (figure.frontier) {
      note("Gnuplot script",
           WriteFrontierGnuplot(*figure.frontier, *dump_dir, slug));
    }
  }
  if (!json_dir) return;
  if (has_curves || !figure.findings.empty() ||
      !figure.degradations.empty()) {
    note("JSON results", WriteBenchJson(figure, *json_dir));
  }
  if (has_curves) {
    const std::filesystem::path file = *json_dir / (slug + ".csv");
    {
      std::ofstream out(file);
      Require(out.good(), "WriteCsv: cannot open " + file.string());
      out << figure.set.RenderCsv();
      Require(out.good(), "WriteCsv: write failed for " + file.string());
    }
    note("CSV results", file);
  }
}

}  // namespace amdmb::report
