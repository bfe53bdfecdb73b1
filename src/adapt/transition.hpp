// Typed transition detection over labelled sweep samples.
//
// The suite runners classify every measured point with a bottleneck
// label ("ALU", "FETCH", ...); the interesting output of a sweep is
// where that label flips. This header replaces the ad-hoc
// first-point-with-label loops that used to live in src/suite with a
// typed detector that handles the edge cases those loops silently got
// wrong: a plateau (no flip anywhere) yields an empty result instead
// of a garbage index, multiple flips along one curve are all reported,
// and a flip at the domain boundary (the very first sample already
// carries the target label) is distinguished from an interior flip.
//
// Samples are assumed sorted by x. Detection is pure — no measurement
// happens here — so the same samples always yield the same transitions
// regardless of how they were gathered (dense grid or adaptive
// refinement, any AMDMB_THREADS).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace amdmb::adapt {

/// One classified sweep point: its x coordinate and the label the
/// classifier assigned (e.g. sim::ToString(bottleneck)).
struct Sample {
  double x = 0.0;
  std::string label;

  bool operator==(const Sample& other) const {
    return x == other.x && label == other.label;
  }
};

/// Where a transition sits relative to the sampled domain.
enum class TransitionKind {
  kInterior,         ///< Bracketed by two samples with different labels.
  kAtLowerBoundary,  ///< The first sample already carries the new label;
                     ///< the true flip is censored below the domain.
};

const char* ToString(TransitionKind kind);

/// One detected label flip. For an interior transition the true
/// crossover lies somewhere in (lower_x, upper_x]; the interval width
/// is the confidence interval the sampling resolution supports. For a
/// boundary transition lower_x == upper_x == the first sample's x and
/// `from` is empty.
struct Transition {
  std::size_t lower_index = 0;  ///< Sample index on the old-label side.
  std::size_t upper_index = 0;  ///< Sample index on the new-label side.
  double lower_x = 0.0;
  double upper_x = 0.0;
  std::string from;  ///< Label before the flip ("" at the boundary).
  std::string to;    ///< Label after the flip.
  TransitionKind kind = TransitionKind::kInterior;

  /// Width of the bracketing interval (0 for boundary transitions).
  double Width() const { return upper_x - lower_x; }

  bool operator==(const Transition& other) const {
    return lower_index == other.lower_index &&
           upper_index == other.upper_index && lower_x == other.lower_x &&
           upper_x == other.upper_x && from == other.from &&
           to == other.to && kind == other.kind;
  }
};

/// Every adjacent label flip in `samples`, in x order. A plateau (all
/// samples share one label, or zero/one samples) yields an empty
/// vector. Indices refer to positions in `samples`.
std::vector<Transition> DetectTransitions(const std::vector<Sample>& samples);

/// The legacy "first point that reaches `target`" semantic, typed.
/// Returns the transition whose `to` side is the first sample labelled
/// `target`: a boundary transition when that is the very first sample,
/// an interior one otherwise, and nullopt when no sample carries the
/// label (censored — the flip lies beyond the sampled domain, or the
/// curve never flips). Dense and adaptive runs that bracket the same
/// flip agree on `upper_x` to within the sampling resolution.
std::optional<Transition> FirstTransitionTo(const std::vector<Sample>& samples,
                                            const std::string& target);

}  // namespace amdmb::adapt
