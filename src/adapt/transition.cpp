#include "adapt/transition.hpp"

#include <utility>

namespace amdmb::adapt {

const char* ToString(TransitionKind kind) {
  switch (kind) {
    case TransitionKind::kInterior: return "interior";
    case TransitionKind::kAtLowerBoundary: return "at_lower_boundary";
  }
  return "unknown";
}

std::vector<Transition> DetectTransitions(const std::vector<Sample>& samples) {
  std::vector<Transition> transitions;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].label == samples[i - 1].label) continue;
    Transition t;
    t.lower_index = i - 1;
    t.upper_index = i;
    t.lower_x = samples[i - 1].x;
    t.upper_x = samples[i].x;
    t.from = samples[i - 1].label;
    t.to = samples[i].label;
    t.kind = TransitionKind::kInterior;
    transitions.push_back(std::move(t));
  }
  return transitions;
}

std::optional<Transition> FirstTransitionTo(const std::vector<Sample>& samples,
                                            const std::string& target) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].label != target) continue;
    Transition t;
    t.upper_index = i;
    t.upper_x = samples[i].x;
    t.to = target;
    if (i == 0) {
      t.lower_index = 0;
      t.lower_x = samples[0].x;
      t.kind = TransitionKind::kAtLowerBoundary;
    } else {
      t.lower_index = i - 1;
      t.lower_x = samples[i - 1].x;
      t.from = samples[i - 1].label;
      t.kind = TransitionKind::kInterior;
    }
    return t;
  }
  return std::nullopt;
}

}  // namespace amdmb::adapt
