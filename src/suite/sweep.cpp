#include "suite/sweep.hpp"

#include <utility>

namespace amdmb::suite {

void SweepResult::AppendAdaptiveFindings(
    std::vector<report::Finding>& findings, const std::string& curve,
    const std::string& unit) const {
  if (!adaptive.has_value()) return;
  const auto extra = adapt::AdaptiveFindings(*adaptive, curve, unit);
  findings.insert(findings.end(), extra.begin(), extra.end());
}

void SweepPoints(
    std::size_t count, const adapt::XOfFn& x_of,
    const std::function<Measurement(std::size_t, unsigned)>& measure,
    const std::function<std::string(std::size_t)>& label_of,
    const SweepOptions& options, SweepResult& result) {
  // Waves touch distinct indices, so the slot writes never race.
  std::vector<std::optional<Measurement>> slots(count);
  adapt::Outcome refined = adapt::Refine(
      count, x_of,
      [&](std::size_t i, unsigned attempt) {
        Measurement m = measure(i, attempt);
        std::string label(sim::ToString(m.stats.bottleneck));
        slots[i] = std::move(m);
        return label;
      },
      options.adaptive, options.executor, options.retry, options.cancel,
      &result.report);
  for (exec::PointOutcome& p : result.report.points) {
    p.label = label_of(p.index);
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (slots[i]) result.points.push_back({i, x_of(i), std::move(*slots[i])});
  }
  if (options.adaptive != nullptr) result.adaptive = std::move(refined);
}

}  // namespace amdmb::suite
