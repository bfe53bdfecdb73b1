#include "adapt/frontier.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace amdmb::adapt {

namespace {

/// One quadrant under refinement: inclusive corner node bounds.
struct Cell {
  std::size_t x0 = 0;
  std::size_t y0 = 0;
  std::size_t x1 = 0;
  std::size_t y1 = 0;
};

}  // namespace

FrontierResult RefineGrid(
    std::size_t nx, std::size_t ny,
    const std::function<double(std::size_t)>& x_of,
    const std::function<double(std::size_t)>& y_of,
    const std::function<std::string(std::size_t ix, std::size_t iy,
                                    unsigned attempt)>& measure,
    const Settings* adaptive, const exec::SweepExecutor* executor,
    const exec::RetryPolicy& retry, const exec::CancelToken* cancel) {
  Require(nx >= 2 && ny >= 2, "RefineGrid: grid needs at least 2x2 nodes");
  FrontierResult result;
  report::Frontier& frontier = result.frontier;
  for (std::size_t i = 0; i < nx; ++i) frontier.xs.push_back(x_of(i));
  for (std::size_t i = 0; i < ny; ++i) frontier.ys.push_back(y_of(i));
  const std::size_t total = nx * ny;
  frontier.cells.assign(total, "");
  frontier.measured.assign(total, false);
  frontier.points_dense = total;

  const exec::SweepExecutor& pool = exec::ExecutorOrDefault(executor);
  const std::uint64_t budget = adaptive != nullptr ? adaptive->budget : 0;
  std::vector<std::optional<std::string>> labels(total);
  std::vector<char> attempted(total, 0);
  std::size_t spent = 0;
  std::size_t wave = 0;

  // Measures one sorted, deduplicated batch of node indices (iy * nx +
  // ix). Returns false once the budget refuses further points.
  const auto run_wave = [&](std::vector<std::size_t> nodes) {
    if (budget > 0) {
      const std::uint64_t left = budget > spent ? budget - spent : 0;
      if (nodes.size() > left) nodes.resize(left);
    }
    if (nodes.empty()) return false;
    exec::RunReport wave_report;
    auto slots = pool.MapWithPolicy(
        nodes.size(),
        [&](std::size_t k, unsigned attempt) {
          const std::size_t node = nodes[k];
          return measure(node % nx, node / nx, attempt);
        },
        retry, &wave_report, cancel);
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      attempted[nodes[k]] = 1;
      if (slots[k].has_value()) labels[nodes[k]] = std::move(*slots[k]);
    }
    for (exec::PointOutcome& point : wave_report.points) {
      const std::size_t node = nodes[point.index];
      point.index = node;
      point.label = "node_x" + std::to_string(node % nx) + "_y" +
                    std::to_string(node / nx);
    }
    result.report.points.insert(
        result.report.points.end(),
        std::make_move_iterator(wave_report.points.begin()),
        std::make_move_iterator(wave_report.points.end()));
    spent += nodes.size();
    if (adaptive != nullptr && adaptive->on_wave) {
      adaptive->on_wave({wave++, nodes.size(), spent, total});
    }
    return true;
  };

  if (adaptive == nullptr) {
    std::vector<std::size_t> all(total);
    std::iota(all.begin(), all.end(), 0);
    run_wave(std::move(all));
  } else {
    std::vector<Cell> active{{0, 0, nx - 1, ny - 1}};
    while (!active.empty()) {
      // One wave per refinement level: every corner any active cell
      // still needs, sorted and deduplicated across cells.
      std::vector<std::size_t> need;
      for (const Cell& c : active) {
        for (const std::size_t node :
             {c.y0 * nx + c.x0, c.y0 * nx + c.x1, c.y1 * nx + c.x0,
              c.y1 * nx + c.x1}) {
          if (!attempted[node]) need.push_back(node);
        }
      }
      std::sort(need.begin(), need.end());
      need.erase(std::unique(need.begin(), need.end()), need.end());
      const bool exhausted = !need.empty() && !run_wave(std::move(need));

      std::vector<Cell> next;
      for (const Cell& c : active) {
        const std::optional<std::string>* corners[4] = {
            &labels[c.y0 * nx + c.x0], &labels[c.y0 * nx + c.x1],
            &labels[c.y1 * nx + c.x0], &labels[c.y1 * nx + c.x1]};
        const bool complete = corners[0]->has_value() &&
                              corners[1]->has_value() &&
                              corners[2]->has_value() &&
                              corners[3]->has_value();
        if (complete && **corners[0] == **corners[1] &&
            **corners[0] == **corners[2] && **corners[0] == **corners[3]) {
          // Uniform quadrant: fill its interior from the corner label
          // (measured nodes keep their own values).
          for (std::size_t iy = c.y0; iy <= c.y1; ++iy) {
            for (std::size_t ix = c.x0; ix <= c.x1; ++ix) {
              if (!labels[iy * nx + ix].has_value()) {
                labels[iy * nx + ix] = **corners[0];
              }
            }
          }
          continue;
        }
        if (exhausted) continue;  // Budget spent; stop splitting.
        const std::size_t dx = c.x1 - c.x0;
        const std::size_t dy = c.y1 - c.y0;
        if (dx <= 1 && dy <= 1) continue;  // Minimal cell: resolved.
        const std::size_t mx = c.x0 + dx / 2;
        const std::size_t my = c.y0 + dy / 2;
        if (dx > 1 && dy > 1) {
          next.push_back({c.x0, c.y0, mx, my});
          next.push_back({mx, c.y0, c.x1, my});
          next.push_back({c.x0, my, mx, c.y1});
          next.push_back({mx, my, c.x1, c.y1});
        } else if (dx > 1) {
          next.push_back({c.x0, c.y0, mx, c.y1});
          next.push_back({mx, c.y0, c.x1, c.y1});
        } else {
          next.push_back({c.x0, c.y0, c.x1, my});
          next.push_back({c.x0, my, c.x1, c.y1});
        }
      }
      active = std::move(next);
      if (exhausted) break;
    }
  }

  frontier.points_measured = spent;
  for (std::size_t i = 0; i < total; ++i) {
    if (labels[i].has_value()) frontier.cells[i] = *labels[i];
    frontier.measured[i] = attempted[i] && labels[i].has_value();
  }
  return result;
}

}  // namespace amdmb::adapt
