#include "exec/run_report.hpp"

#include <algorithm>
#include <sstream>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace amdmb::exec {

std::string_view ToString(PointStatus status) {
  switch (status) {
    case PointStatus::kOk: return "ok";
    case PointStatus::kRetried: return "retried";
    case PointStatus::kSkipped: return "skipped";
    case PointStatus::kFailed: return "failed";
  }
  throw SimError("ToString(PointStatus): unknown value");
}

std::size_t RunReport::CountOf(PointStatus status) const {
  return static_cast<std::size_t>(
      std::count_if(points.begin(), points.end(),
                    [status](const PointOutcome& p) {
                      return p.status == status;
                    }));
}

std::string RunReport::Summary() const {
  std::ostringstream os;
  os << CountOf(PointStatus::kOk) << " ok";
  if (const std::size_t n = CountOf(PointStatus::kRetried)) {
    os << ", " << n << " retried";
  }
  if (const std::size_t n = CountOf(PointStatus::kSkipped)) {
    os << ", " << n << " skipped";
  }
  if (const std::size_t n = CountOf(PointStatus::kFailed)) {
    os << ", " << n << " failed";
  }
  os << " of " << points.size() << " points";
  return os.str();
}

bool RunReport::SameOutcomes(const RunReport& other) const {
  if (points.size() != other.points.size()) return false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointOutcome& a = points[i];
    const PointOutcome& b = other.points[i];
    if (a.index != b.index || a.label != b.label || a.status != b.status ||
        a.attempts != b.attempts || a.error != b.error) {
      return false;
    }
  }
  return true;
}

RetryPolicy RetryPolicy::Parse(std::string_view text) {
  Require(!text.empty(), "AMDMB_RETRY: empty retry spec");
  RetryPolicy policy;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view token = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (!token.empty()) {
      const std::size_t sep = token.find_first_of("=:");
      Require(sep != std::string_view::npos,
              "AMDMB_RETRY: expected 'key=value', got '" +
                  std::string(token) + "'");
      const std::string_view name = token.substr(0, sep);
      const std::string value(token.substr(sep + 1));
      char* end = nullptr;
      if (name == "attempts") {
        const unsigned long n = std::strtoul(value.c_str(), &end, 10);
        Require(end == value.c_str() + value.size() && !value.empty() &&
                    n >= 1 && n <= 100,
                "AMDMB_RETRY: attempts must be an integer in [1, 100], "
                "got '" + value + "'");
        policy.max_attempts = static_cast<unsigned>(n);
      } else if (name == "backoff_ms") {
        const double ms = std::strtod(value.c_str(), &end);
        Require(end == value.c_str() + value.size() && !value.empty() &&
                    ms >= 0.0,
                "AMDMB_RETRY: backoff_ms must be a non-negative number");
        policy.backoff_base_ms = ms;
      } else if (name == "backoff_cap_ms") {
        const double ms = std::strtod(value.c_str(), &end);
        Require(end == value.c_str() + value.size() && !value.empty() &&
                    ms >= 0.0,
                "AMDMB_RETRY: backoff_cap_ms must be a non-negative number");
        policy.backoff_cap_ms = ms;
      } else if (name == "seed") {
        const unsigned long long seed =
            std::strtoull(value.c_str(), &end, 10);
        Require(end == value.c_str() + value.size() && !value.empty(),
                "AMDMB_RETRY: seed must be a non-negative integer");
        policy.jitter_seed = seed;
      } else if (name == "policy") {
        if (value == "fail-fast" || value == "fail") {
          policy.on_exhausted = FailurePolicy::kFailFast;
        } else if (value == "skip-and-report" || value == "skip") {
          policy.on_exhausted = FailurePolicy::kSkipAndReport;
        } else {
          Require(false, "AMDMB_RETRY: policy must be 'fail-fast' or "
                         "'skip-and-report', got '" + value + "'");
        }
      } else {
        Require(false, "AMDMB_RETRY: unknown key '" + std::string(name) +
                           "' (expected attempts, policy, backoff_ms, "
                           "backoff_cap_ms, or seed)");
      }
    }
    if (comma == text.size()) break;
  }
  return policy;
}

const RetryPolicy& RetryPolicy::FromEnv() {
  static const RetryPolicy policy = [] {
    const auto& spec = env::Get().retry;
    return spec ? Parse(*spec) : RetryPolicy{};
  }();
  return policy;
}

double RetryPolicy::BackoffMs(std::size_t index, unsigned attempt) const {
  double delay = backoff_base_ms;
  for (unsigned a = 1; a < attempt && delay < backoff_cap_ms; ++a) {
    delay *= 2.0;
  }
  delay = std::min(delay, backoff_cap_ms);
  // Jitter in [0.5, 1.0): a pure function of (seed, index, attempt), so
  // the delay sequence is deterministic at any thread count.
  XorShift128 rng(jitter_seed ^ (0x9E3779B97F4A7C15ull * (index + 1)) ^
                  (0xBF58476D1CE4E5B9ull * attempt));
  return delay * (0.5 + 0.5 * rng.NextDouble());
}

namespace {

std::string RenderSweepError(const std::vector<PointFailure>& failures) {
  std::ostringstream os;
  os << "sweep failed at " << failures.size() << " point"
     << (failures.size() == 1 ? "" : "s") << ":";
  for (const PointFailure& f : failures) {
    os << "\n  point " << f.index << ": " << f.message;
  }
  return os.str();
}

}  // namespace

SweepError::SweepError(std::vector<PointFailure> failures)
    : std::runtime_error(RenderSweepError(failures)),
      failures_(std::move(failures)) {}

}  // namespace amdmb::exec
