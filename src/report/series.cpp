#include "report/series.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>
#include <utility>

namespace amdmb {

std::vector<double> Series::Xs() const {
  std::vector<double> out;
  out.reserve(points_.size());
  for (const auto& p : points_) out.push_back(p.x);
  return out;
}

std::vector<double> Series::Ys() const {
  std::vector<double> out;
  out.reserve(points_.size());
  for (const auto& p : points_) out.push_back(p.y);
  return out;
}

std::optional<double> Series::At(double x) const {
  for (const auto& p : points_)
    if (p.x == x) return p.y;
  return std::nullopt;
}

Series& SeriesSet::Get(const std::string& name) {
  for (auto& s : series_)
    if (s.Name() == name) return s;
  series_.emplace_back(name);
  return series_.back();
}

const Series* SeriesSet::Find(const std::string& name) const {
  for (const auto& s : series_)
    if (s.Name() == name) return &s;
  return nullptr;
}

namespace {

std::string RenderGrid(const SeriesSet& set, const std::string& title,
                       const std::string& x_label, char sep, int precision,
                       bool pad) {
  // One row per (x, n), ascending: n counts the earlier points of the
  // same curve at that x, so a curve with several points at one x (the
  // frontier boundary) keeps them all.
  std::map<std::pair<double, std::size_t>, std::vector<std::optional<double>>>
      grid;
  const auto& all = set.All();
  for (std::size_t si = 0; si < all.size(); ++si) {
    const auto& points = all[si].Points();
    for (auto p = points.begin(); p != points.end(); ++p) {
      const auto n = std::count_if(points.begin(), p, [&](const auto& q) {
        return q.x == p->x;
      });
      auto& row = grid[{p->x, static_cast<std::size_t>(n)}];
      row.resize(all.size());
      row[si] = p->y;
    }
  }

  std::ostringstream os;
  os << "# " << title << "\n";
  std::vector<std::string> header;
  header.push_back(x_label);
  for (const auto& s : all) header.push_back(s.Name());

  std::vector<std::size_t> widths;
  if (pad) {
    for (const auto& h : header) widths.push_back(std::max<std::size_t>(h.size(), 10));
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) os << sep;
      if (pad)
        os << std::left << std::setw(static_cast<int>(widths[i] + 2)) << cells[i];
      else
        os << cells[i];
    }
    os << "\n";
  };
  emit(header);
  for (const auto& [key, row] : grid) {
    std::vector<std::string> cells;
    std::ostringstream xs;
    xs << std::setprecision(precision) << key.first;
    cells.push_back(xs.str());
    for (const auto& y : row) {
      if (y.has_value()) {
        std::ostringstream ys;
        ys << std::fixed << std::setprecision(precision) << *y;
        cells.push_back(ys.str());
      } else {
        cells.push_back(pad ? "-" : "");
      }
    }
    emit(cells);
  }
  return os.str();
}

}  // namespace

std::string SeriesSet::RenderColumns(int precision) const {
  return RenderGrid(*this, title_ + "  [y: " + y_label_ + "]", x_label_, ' ',
                    precision, /*pad=*/true);
}

std::string SeriesSet::RenderCsv(int precision) const {
  return RenderGrid(*this, title_, x_label_, ',', precision, /*pad=*/false);
}

}  // namespace amdmb
