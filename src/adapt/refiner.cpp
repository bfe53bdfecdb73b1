#include "adapt/refiner.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <optional>
#include <utility>

#include "common/env.hpp"
#include "common/status.hpp"
#include "common/table.hpp"

namespace amdmb::adapt {

Settings Settings::FromEnv() {
  const env::Options& options = env::Get();
  Settings settings;
  settings.tol_steps = options.adapt_tol;
  settings.budget = options.adapt_budget;
  return settings;
}

double Outcome::SpendFraction() const {
  if (dense_points == 0) return 1.0;
  return static_cast<double>(points_spent) /
         static_cast<double>(dense_points);
}

namespace {

/// Points in a refinement's coarse pass, both grid endpoints included.
constexpr std::size_t kCoarsePoints = 3;

/// The wave engine under Refine and RefineGrid. Each Run measures one
/// batch of grid indices as a single MapWithPolicy call; the refiners
/// choose each batch from the labels of the waves before it.
class Waves {
 public:
  Waves(std::size_t count, const Settings* adaptive,
        const exec::SweepExecutor* executor, const exec::RetryPolicy& retry,
        const exec::CancelToken* cancel, exec::RunReport* report)
      : labels(count),
        attempted(count, 0),
        count_(count),
        adaptive_(adaptive),
        executor_(exec::ExecutorOrDefault(executor)),
        retry_(retry),
        cancel_(cancel),
        report_(report) {}

  /// Measures `indices` in index order, deduplicated and cut to the
  /// budget lowest index first. Returns false when nothing is left to
  /// measure (an empty batch, or the budget is spent).
  bool Run(std::vector<std::size_t> indices, const MeasureFn& measure) {
    std::sort(indices.begin(), indices.end());
    indices.erase(std::unique(indices.begin(), indices.end()),
                  indices.end());
    const std::uint64_t budget = adaptive_ != nullptr ? adaptive_->budget : 0;
    if (budget > 0) {
      const std::uint64_t left = budget > spent ? budget - spent : 0;
      if (indices.size() > left) indices.resize(left);
    }
    if (indices.empty()) return false;
    exec::RunReport wave_report;
    auto slots = executor_.MapWithPolicy(
        indices.size(),
        [&](std::size_t k, unsigned attempt) {
          return measure(indices[k], attempt);
        },
        retry_, report_ != nullptr ? &wave_report : nullptr, cancel_);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      attempted[indices[k]] = 1;
      if (slots[k].has_value()) labels[indices[k]] = std::move(*slots[k]);
    }
    if (report_ != nullptr) {
      for (exec::PointOutcome& point : wave_report.points) {
        point.index = indices[point.index];
        point.label = "point " + std::to_string(point.index);
      }
      report_->points.insert(
          report_->points.end(),
          std::make_move_iterator(wave_report.points.begin()),
          std::make_move_iterator(wave_report.points.end()));
    }
    spent += indices.size();
    const WaveInfo info{waves, indices.size(), spent, count_};
    ++waves;
    if (adaptive_ != nullptr && adaptive_->on_wave) adaptive_->on_wave(info);
    return true;
  }

  /// labels[i] is set once index i was measured and classified;
  /// attempted marks indices that ran (successfully or not), so no index
  /// is measured twice and every refinement terminates.
  std::vector<std::optional<std::string>> labels;
  std::vector<char> attempted;
  std::size_t spent = 0;  ///< Points measured so far.
  std::size_t waves = 0;  ///< Waves run so far.

 private:
  std::size_t count_;
  const Settings* adaptive_;
  const exec::SweepExecutor& executor_;
  exec::RetryPolicy retry_;
  const exec::CancelToken* cancel_;
  exec::RunReport* report_;
};

std::vector<std::size_t> AllIndices(std::size_t count) {
  std::vector<std::size_t> all(count);
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

/// One quadrant under refinement: inclusive corner node bounds.
struct Cell {
  std::size_t x0 = 0;
  std::size_t y0 = 0;
  std::size_t x1 = 0;
  std::size_t y1 = 0;
};

}  // namespace

Outcome Refine(std::size_t count, const XOfFn& x_of, const MeasureFn& measure,
               const Settings* adaptive, const exec::SweepExecutor* executor,
               const exec::RetryPolicy& retry,
               const exec::CancelToken* cancel, exec::RunReport* report) {
  Require(adaptive == nullptr || adaptive->tol_steps >= 1,
          "Refine: tol_steps must be >= 1");
  Outcome outcome;
  outcome.dense_points = count;
  if (count == 0) return outcome;

  Waves waves(count, adaptive, executor, retry, cancel, report);
  if (adaptive == nullptr) {
    waves.Run(AllIndices(count), measure);
  } else {
    // Coarse pass: kCoarsePoints evenly spaced indices including both
    // endpoints; a grid with no more indices than that is measured
    // whole, since Run drops the duplicates.
    std::vector<std::size_t> coarse;
    for (std::size_t k = 0; k < kCoarsePoints; ++k) {
      coarse.push_back(k * (count - 1) / (kCoarsePoints - 1));
    }
    waves.Run(std::move(coarse), measure);

    // Bisection waves: for every adjacent pair of classified indices
    // with differing labels and a gap wider than tol_steps, measure the
    // midpoint. The next wave's composition depends only on
    // deterministic prior labels, so the trajectory is
    // scheduling-independent.
    for (;;) {
      std::vector<std::size_t> classified;
      for (std::size_t i = 0; i < count; ++i) {
        if (waves.labels[i].has_value()) classified.push_back(i);
      }
      std::vector<std::size_t> next;
      for (std::size_t k = 1; k < classified.size(); ++k) {
        const std::size_t lo = classified[k - 1];
        const std::size_t hi = classified[k];
        if (*waves.labels[lo] == *waves.labels[hi]) continue;
        if (hi - lo <= adaptive->tol_steps) continue;
        const std::size_t mid = lo + (hi - lo) / 2;
        // A midpoint that already ran and failed leaves its interval
        // unrefined — re-measuring a deterministic failure cannot help.
        if (!waves.attempted[mid]) next.push_back(mid);
      }
      if (!waves.Run(std::move(next), measure)) break;
    }
  }

  outcome.points_spent = waves.spent;
  outcome.waves = waves.waves;
  for (std::size_t i = 0; i < count; ++i) {
    if (waves.attempted[i]) outcome.measured.push_back(i);
    if (waves.labels[i].has_value()) {
      outcome.samples.push_back(Sample{x_of(i), *waves.labels[i]});
    }
  }
  outcome.transitions = DetectTransitions(outcome.samples);
  return outcome;
}

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
  // Nodes are indexed iy * nx + ix.
  const std::size_t total = nx * ny;
  frontier.points_dense = total;
  const MeasureFn measure_node = [&](std::size_t node, unsigned attempt) {
    return measure(node % nx, node / nx, attempt);
  };

  Waves waves(total, adaptive, executor, retry, cancel, &result.report);
  std::vector<std::optional<std::string>>& labels = waves.labels;
  if (adaptive == nullptr) {
    waves.Run(AllIndices(total), measure_node);
  } else {
    std::vector<Cell> active{{0, 0, nx - 1, ny - 1}};
    while (!active.empty()) {
      // One wave per refinement level: every corner any active cell
      // still needs.
      std::vector<std::size_t> need;
      for (const Cell& c : active) {
        for (const std::size_t node :
             {c.y0 * nx + c.x0, c.y0 * nx + c.x1, c.y1 * nx + c.x0,
              c.y1 * nx + c.x1}) {
          if (!waves.attempted[node]) need.push_back(node);
        }
      }
      const bool exhausted =
          !need.empty() && !waves.Run(std::move(need), measure_node);

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

  for (exec::PointOutcome& point : result.report.points) {
    point.label = "node_x" + std::to_string(point.index % nx) + "_y" +
                  std::to_string(point.index / nx);
  }
  frontier.points_measured = waves.spent;
  frontier.cells.assign(total, "");
  frontier.measured.assign(total, false);
  for (std::size_t i = 0; i < total; ++i) {
    if (labels[i].has_value()) frontier.cells[i] = *labels[i];
    // A filled node that was then measured and skipped keeps its fill
    // label and counts as measured.
    frontier.measured[i] = waves.attempted[i] && labels[i].has_value();
  }
  return result;
}

namespace {

std::string LowerCopy(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

std::vector<report::Finding> AdaptiveFindings(const Outcome& outcome,
                                              const std::string& curve,
                                              const std::string& unit) {
  std::vector<report::Finding> findings;
  for (const Transition& t : outcome.transitions) {
    report::Finding finding;
    finding.kind = report::FindingKind::kCrossover;
    finding.curve = curve;
    finding.label = "transition_to_" + LowerCopy(t.to);
    finding.value = t.upper_x;
    finding.unit = unit;
    finding.detail = "from '" + t.from + "' in [" +
                     FormatDouble(t.lower_x, 2) + ", " +
                     FormatDouble(t.upper_x, 2) + "] (" +
                     std::string(ToString(t.kind)) + ")";
    findings.push_back(std::move(finding));
  }
  report::Finding spent;
  spent.kind = report::FindingKind::kEvent;
  spent.curve = curve;
  spent.label = "adaptive_points";
  spent.value = static_cast<double>(outcome.points_spent);
  spent.unit = "points";
  spent.detail = "of " + std::to_string(outcome.dense_points) +
                 " dense points in " + std::to_string(outcome.waves) +
                 " wave(s)";
  findings.push_back(std::move(spent));
  return findings;
}

}  // namespace amdmb::adapt
