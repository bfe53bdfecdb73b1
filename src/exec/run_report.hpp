// Per-point outcome reporting and retry policy for resilient sweeps.
//
// A multi-hour sweep must not die because one point hit a transient
// fault (ALTIS/Mirovia-style per-kernel failure reporting; PAPERS.md).
// SweepExecutor::MapWithPolicy retries TransientErrors per point with
// capped exponential backoff and deterministic jitter, then either
// aborts the sweep (kFailFast) or drops the point and records why
// (kSkipAndReport). The RunReport is deterministic for a fixed fault
// schedule: statuses and attempt counts depend only on the injected
// fault decisions, never on thread scheduling (wall times are
// informational and excluded from SameOutcomes).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace amdmb::exec {

/// What happened to one sweep point.
enum class PointStatus {
  kOk,       ///< Succeeded on the first attempt.
  kRetried,  ///< Succeeded after at least one transient failure.
  kSkipped,  ///< Transient failures exhausted every attempt; point dropped.
  kFailed,   ///< Non-transient error, or exhausted under kFailFast.
};

std::string_view ToString(PointStatus status);

struct PointOutcome {
  std::size_t index = 0;
  std::string label;  ///< Caller-set point name; defaults to "point <i>".
  PointStatus status = PointStatus::kOk;
  unsigned attempts = 1;  ///< Attempts made (0: cancelled before starting).
  double wall_seconds = 0.0;   ///< Real time across attempts (informational).
  std::string error;           ///< Last failure message; empty when kOk.
};

/// Index-ordered outcome of every point of one sweep.
struct RunReport {
  std::vector<PointOutcome> points;

  std::size_t CountOf(PointStatus status) const;
  bool AllOk() const { return CountOf(PointStatus::kOk) == points.size(); }

  /// "17 ok, 2 retried, 1 skipped of 20 points".
  std::string Summary() const;

  /// Determinism comparison: statuses, attempts, labels, and errors must
  /// match; wall times are excluded.
  bool SameOutcomes(const RunReport& other) const;
};

/// Whether exhausting a point's retries aborts the sweep or degrades it.
enum class FailurePolicy {
  kFailFast,       ///< Throw SweepError once every point has finished.
  kSkipAndReport,  ///< Drop the point, record it in the RunReport.
};

/// Retry knobs, overridable per sweep config and via AMDMB_RETRY
/// ("attempts=3,policy=skip,backoff_ms=1,backoff_cap_ms=64").
struct RetryPolicy {
  unsigned max_attempts = 3;       ///< >= 1; 1 disables retry.
  double backoff_base_ms = 1.0;    ///< First retry delay.
  double backoff_cap_ms = 64.0;    ///< Exponential backoff ceiling.
  std::uint64_t jitter_seed = 0;   ///< Deterministic jitter stream seed.
  FailurePolicy on_exhausted = FailurePolicy::kSkipAndReport;

  /// Parses the AMDMB_RETRY spec; throws ConfigError when malformed.
  static RetryPolicy Parse(std::string_view text);

  /// The process default: AMDMB_RETRY if set (parsed once), else the
  /// defaults above.
  static const RetryPolicy& FromEnv();

  /// Deterministic backoff delay before attempt `attempt + 1` of point
  /// `index`: capped exponential with jitter in [0.5, 1.0) drawn from
  /// (jitter_seed, index, attempt) only.
  double BackoffMs(std::size_t index, unsigned attempt) const;
};

struct PointFailure {
  std::size_t index = 0;
  std::string message;
};

/// Aggregated sweep failure: every failing point, not just the first —
/// a 200-point sweep that hit 3 bad points reports all 3.
class SweepError : public std::runtime_error {
 public:
  explicit SweepError(std::vector<PointFailure> failures);

  const std::vector<PointFailure>& Failures() const { return failures_; }

 private:
  std::vector<PointFailure> failures_;
};

}  // namespace amdmb::exec
