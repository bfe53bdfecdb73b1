#include "report/gnuplot_sink.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/status.hpp"
#include "report/json.hpp"

namespace amdmb {

std::string GnuplotScript(const SeriesSet& set, const std::string& dat_file,
                          const std::string& output_file) {
  std::ostringstream os;
  os << "set terminal svg size 900,600\n"
     << "set output '" << output_file << "'\n"
     << "set title \"" << set.Title() << "\"\n"
     << "set key outside right\n"
     << "set grid\n"
     << "plot";
  const auto& all = set.All();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i) os << ",";
    // Column 1 is x; series i is column i+2. Header lines in the .dat
    // are written as gnuplot comments.
    os << " \\\n  '" << dat_file << "' using 1:" << (i + 2)
       << " with linespoints title \"" << all[i].Name() << "\"";
  }
  os << "\n";
  return os.str();
}

std::filesystem::path WriteGnuplot(const SeriesSet& set,
                                   const std::filesystem::path& directory,
                                   const std::string& stem) {
  const std::filesystem::path dat = directory / (stem + ".dat");
  const std::filesystem::path gp = directory / (stem + ".gp");
  {
    std::ofstream out(dat);
    Require(out.good(), "WriteGnuplot: cannot open " + dat.string());
    // Comment the column-name line so gnuplot skips it like the title.
    const std::string columns = set.RenderColumns();
    const std::size_t first_newline = columns.find('\n');
    Check(first_newline != std::string::npos, "WriteGnuplot: empty figure");
    out << columns.substr(0, first_newline + 1) << "# "
        << columns.substr(first_newline + 1);
  }
  {
    std::ofstream out(gp);
    Require(out.good(), "WriteGnuplot: cannot open " + gp.string());
    out << GnuplotScript(set, dat.filename().string(), stem + ".svg");
  }
  return gp;
}

std::filesystem::path WriteFrontierGnuplot(
    const report::Frontier& frontier, const std::filesystem::path& directory,
    const std::string& stem) {
  const std::size_t nx = frontier.xs.size();
  const std::size_t ny = frontier.ys.size();
  Require(nx > 0 && ny > 0 && frontier.cells.size() == nx * ny,
          "WriteFrontierGnuplot: malformed frontier grid");

  // Codes assigned to the sorted distinct labels; "" (unresolved under
  // a budget cap) stays -1 so it renders below the palette.
  std::vector<std::string> labels(frontier.cells);
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  std::map<std::string, int> code;
  for (const std::string& label : labels) {
    if (label.empty()) {
      code[label] = -1;
    } else {
      code[label] = static_cast<int>(code.size()) - (code.count("") ? 1 : 0);
    }
  }

  const std::filesystem::path dat = directory / (stem + "_frontier.dat");
  const std::filesystem::path gp = directory / (stem + "_frontier.gp");
  {
    std::ofstream out(dat);
    Require(out.good(), "WriteFrontierGnuplot: cannot open " + dat.string());
    out << "# " << frontier.x_label << "  " << frontier.y_label
        << "  class\n";
    for (const auto& [label, value] : code) {
      out << "# class " << value << " = "
          << (label.empty() ? "(unresolved)" : label) << "\n";
    }
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        out << report::JsonNumber(frontier.xs[ix]) << " "
            << report::JsonNumber(frontier.ys[iy]) << " "
            << code.at(frontier.cells[iy * nx + ix]) << "\n";
      }
      out << "\n";  // pm3d scan break per grid row.
    }
  }
  {
    std::ofstream out(gp);
    Require(out.good(), "WriteFrontierGnuplot: cannot open " + gp.string());
    out << "set terminal svg size 900,600\n"
        << "set output '" << stem << "_frontier.svg'\n"
        << "set title \"" << frontier.x_label << " x " << frontier.y_label
        << " bottleneck frontier\"\n"
        << "set xlabel \"" << frontier.x_label << "\"\n"
        << "set ylabel \"" << frontier.y_label << "\"\n"
        << "set view map\n"
        << "unset key\n"
        << "set palette maxcolors "
        << std::max<std::size_t>(labels.size(), 1) << "\n"
        << "plot '" << dat.filename().string()
        << "' using 1:2:3 with image\n";
  }
  return gp;
}

}  // namespace amdmb
