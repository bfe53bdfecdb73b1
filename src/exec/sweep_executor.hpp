// Parallel sweep execution.
//
// Every figure in the paper is a sweep whose points are independent
// kernel launches (Gpu::Execute builds per-launch cache / controller /
// SIMD state, so points share nothing). SweepExecutor::Map fans the
// points out across a ThreadPool and reassembles results in point order,
// which makes the output bit-identical to the serial path at any thread
// count: parallelism only changes *when* a point runs, never what it
// computes or where its result lands.
//
// MapWithPolicy adds the resilience layer: transient failures
// (TransientError — injected faults, watchdog timeouts) are retried per
// point with capped exponential backoff, and exhausted points either
// abort the sweep or degrade it to partial results with a RunReport of
// what happened (see run_report.hpp).
//
// A map started inside a pool task goes through the pool like any other:
// the threads running it claim points one at a time, and before each
// claim a thread first runs any queued task more urgent than its own
// (ThreadPool ranks). A map waits only for points that a helper has
// already claimed, and RunInOrder waits only for tasks that another
// thread has already started, so no thread ever waits on a task that
// has not started, and no wait can deadlock, however the maps nest.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "exec/run_report.hpp"
#include "exec/thread_pool.hpp"

namespace amdmb::exec {

/// Renders an exception_ptr's message ("unknown exception" for
/// non-std::exception payloads).
std::string DescribeException(const std::exception_ptr& error);

/// Cooperative sweep cancellation. A token is set once (Cancel) and
/// polled by MapWithPolicy before every point: points not yet started
/// when the token fires are skipped (status kSkipped, error
/// "cancelled") instead of run, regardless of the failure policy —
/// cancellation is intent, not a fault. Points already executing run
/// to completion, so a cancelled sweep still returns well-formed
/// partial results. Thread-safe; never resets.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// The raw flag, for registering with common/interrupt's signal
  /// handler (NotifyFlagOnInterrupt): the handler's relaxed store on the
  /// lock-free atomic is async-signal-safe where a call through
  /// arbitrary code would not be.
  std::atomic<bool>& FlagForSignal() { return cancelled_; }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Sleeps the calling thread for `ms` milliseconds (no-op for ms <= 0).
void SleepForMs(double ms);

class SweepExecutor {
 public:
  /// Uses the process-wide SharedPool() (AMDMB_THREADS workers), looked
  /// up at each Map so that a forked child sweeps on its own pool.
  SweepExecutor() : shared_(true) {}

  /// Owns a private pool of exactly `threads` workers; `threads == 1`
  /// runs every Map inline with no pool at all (the serial reference
  /// path used by the determinism tests).
  explicit SweepExecutor(unsigned threads) {
    if (threads > 1) {
      owned_ = std::make_unique<ThreadPool>(threads);
      pool_ = owned_.get();
    }
  }

  unsigned ThreadCount() const {
    if (shared_) return DefaultThreadCount();
    return pool_ == nullptr ? 1 : pool_->ThreadCount();
  }

  /// The default executor used by the suite layer when a config does not
  /// supply one.
  static const SweepExecutor& Default();

  /// Runs `fn(0) .. fn(n-1)`, possibly concurrently, and returns the
  /// results ordered by index. Every point runs to completion even when
  /// some throw; afterwards a SweepError aggregating *all* failing
  /// points (index-ordered, hence deterministic regardless of
  /// scheduling) is thrown if any failed.
  template <typename Fn>
  auto Map(std::size_t n, Fn&& fn) const {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(!std::is_void_v<R>, "Map requires a result per point");
    std::vector<std::optional<R>> slots(n);
    std::vector<std::exception_ptr> errors(n);

    ForEachIndex(n, [&](std::size_t i) {
      try {
        slots[i].emplace(fn(i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
    ThrowIfAnyFailed(errors);

    std::vector<R> out;
    out.reserve(n);
    for (std::optional<R>& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

  /// Resilient map: runs `fn(i, attempt)` with per-point retry under
  /// `policy`. TransientErrors are retried up to policy.max_attempts
  /// with deterministic backoff; any other exception is a deterministic
  /// bug and never retried. A point whose retries are exhausted is
  /// skipped (slot left empty) under kSkipAndReport, or — like every
  /// non-transient failure — aggregated into a SweepError thrown after
  /// all points finish under kFailFast. When `report` is non-null it
  /// receives one index-ordered PointOutcome per point (labels default
  /// to "point <i>"; callers may rename them afterwards). When `cancel`
  /// is non-null and fires, points not yet started are skipped (see
  /// CancelToken).
  template <typename Fn>
  auto MapWithPolicy(std::size_t n, Fn&& fn, const RetryPolicy& policy,
                     RunReport* report = nullptr,
                     const CancelToken* cancel = nullptr) const {
    using R = std::invoke_result_t<Fn&, std::size_t, unsigned>;
    static_assert(!std::is_void_v<R>,
                  "MapWithPolicy requires a result per point");
    Require(policy.max_attempts >= 1,
            "MapWithPolicy: policy needs at least one attempt");
    std::vector<std::optional<R>> slots(n);
    std::vector<PointOutcome> outcomes(n);
    std::vector<std::exception_ptr> fatal(n);

    ForEachIndex(n, [&](std::size_t i) {
      PointOutcome& out = outcomes[i];
      out.index = i;
      out.label = "point " + std::to_string(i);
      if (cancel != nullptr && cancel->Cancelled()) {
        out.status = PointStatus::kSkipped;
        out.attempts = 0;
        out.error = "cancelled";
        return;
      }
      const auto start = std::chrono::steady_clock::now();
      for (unsigned attempt = 1; attempt <= policy.max_attempts; ++attempt) {
        out.attempts = attempt;
        try {
          slots[i].emplace(fn(i, attempt));
          out.status =
              attempt == 1 ? PointStatus::kOk : PointStatus::kRetried;
          out.error.clear();
          break;
        } catch (const TransientError& e) {
          out.error = e.what();
          if (attempt == policy.max_attempts) {
            if (policy.on_exhausted == FailurePolicy::kSkipAndReport) {
              out.status = PointStatus::kSkipped;
            } else {
              out.status = PointStatus::kFailed;
              fatal[i] = std::current_exception();
            }
          } else {
            SleepForMs(policy.BackoffMs(i, attempt));
          }
        } catch (...) {
          // Deterministic failure (SimError invariant, ConfigError, ...):
          // retrying cannot help and skipping would hide a bug.
          fatal[i] = std::current_exception();
          out.status = PointStatus::kFailed;
          out.error = DescribeException(fatal[i]);
          break;
        }
      }
      out.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
    });

    if (report != nullptr) report->points = std::move(outcomes);
    ThrowIfAnyFailed(fatal);
    return slots;
  }

  /// Runs `task(0) .. task(n-1)` as pool tasks, task i at rank i (see
  /// ThreadPool), and calls `emit(i)` on the calling thread in index
  /// order, each once task i has finished. The calling thread runs a
  /// task nobody has started itself instead of waiting for it. Once
  /// `emit` returns false or throws, no further task starts; either way
  /// RunInOrder returns (or rethrows) only after every started task has
  /// finished. `task` must not throw. Without a pool, task(i) and
  /// emit(i) alternate on the calling thread.
  void RunInOrder(std::size_t n, const std::function<void(std::size_t)>& task,
                  const std::function<bool(std::size_t)>& emit) const;

 private:
  /// The pool a map fans out to; nullptr runs everything inline.
  ThreadPool* Pool() const;

  /// Runs `body(0) .. body(n-1)`, possibly concurrently, returning after
  /// every index has finished. `body` must not throw — callers catch per
  /// index.
  void ForEachIndex(std::size_t n,
                    const std::function<void(std::size_t)>& body) const;

  static void ThrowIfAnyFailed(const std::vector<std::exception_ptr>& errors) {
    std::vector<PointFailure> failures;
    for (std::size_t i = 0; i < errors.size(); ++i) {
      if (errors[i]) failures.push_back({i, DescribeException(errors[i])});
    }
    if (!failures.empty()) throw SweepError(std::move(failures));
  }

  bool shared_ = false;  ///< SharedPool(), resolved per Map.
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_ = nullptr;  ///< Unless shared_: nullptr => always inline.
};

/// `config.executor` resolution used across the suite layer.
inline const SweepExecutor& ExecutorOrDefault(const SweepExecutor* executor) {
  return executor != nullptr ? *executor : SweepExecutor::Default();
}

}  // namespace amdmb::exec
