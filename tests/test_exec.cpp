// Tests for the execution layer: thread pool, sweep executor, kernel
// cache, retry policies under injected faults, and the end-to-end
// determinism guarantee (a full ALU:Fetch sweep produces bit-identical
// KernelStats at 1 and 8 threads, with or without faults).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "exec/kernel_cache.hpp"
#include "exec/run_report.hpp"
#include "exec/sweep_executor.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault.hpp"
#include "suite/alu_fetch.hpp"
#include "suite/kernelgen.hpp"

namespace amdmb {
namespace {

using exec::CancelToken;
using exec::FailurePolicy;
using exec::KernelCache;
using exec::PointStatus;
using exec::RetryPolicy;
using exec::RunReport;
using exec::SweepError;
using exec::SweepExecutor;
using exec::ThreadPool;

// ---- ThreadPool --------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ShutdownWithEmptyQueueJoinsCleanly) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.ThreadCount(), 3u);
  // Destructor with nothing queued must not hang.
}

/// Occupies `pool`'s only worker until the returned promise is set.
std::promise<void> BlockTheWorker(ThreadPool& pool) {
  std::promise<void> release;
  const auto busy = std::make_shared<std::promise<void>>();
  std::future<void> started = busy->get_future();
  pool.Submit([busy, gate = release.get_future().share()] {
    busy->set_value();
    gate.wait();
  });
  started.wait();
  return release;
}

TEST(ThreadPoolTest, RunsQueuedTasksByRankThenSubmissionOrder) {
  std::vector<std::string> order;  // Appended by the one worker only.
  {
    ThreadPool pool(1);
    std::promise<void> release = BlockTheWorker(pool);
    pool.Submit([&] { order.push_back("rank 3"); }, 3);
    pool.Submit([&] { order.push_back("rank 1, first"); }, 1);
    pool.Submit([&] { order.push_back("rank 1, second"); }, 1);
    pool.Submit([&] { order.push_back("rank 0"); }, 0);
    release.set_value();
  }
  EXPECT_EQ(order, (std::vector<std::string>{"rank 0", "rank 1, first",
                                             "rank 1, second", "rank 3"}));
}

TEST(ThreadPoolTest, RunMoreUrgentRunsOnlyMoreUrgentTasksOnTheCaller) {
  std::atomic<bool> urgent_ran_here{false};
  std::atomic<bool> lax_ran{false};
  ThreadPool pool(1);
  std::promise<void> release = BlockTheWorker(pool);
  const std::thread::id caller = std::this_thread::get_id();
  pool.Submit(
      [&] { urgent_ran_here = std::this_thread::get_id() == caller; }, 1);
  pool.Submit([&] { lax_ran = true; }, 5);
  {
    const exec::ScopedRank at(3);
    pool.RunMoreUrgent();
  }
  EXPECT_TRUE(urgent_ran_here.load());
  EXPECT_FALSE(lax_ran.load());
  // At rank 0 nothing is more urgent.
  pool.RunMoreUrgent();
  EXPECT_FALSE(lax_ran.load());
  release.set_value();
}

// ---- SweepExecutor -----------------------------------------------------

TEST(SweepExecutorTest, MapPreservesPointOrder) {
  const SweepExecutor executor(8);
  const std::vector<int> out =
      executor.Map(100, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(SweepExecutorTest, SingleThreadRunsInline) {
  const SweepExecutor executor(1);
  EXPECT_EQ(executor.ThreadCount(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  const auto ids = executor.Map(
      8, [caller](std::size_t) { return std::this_thread::get_id(); });
  for (const std::thread::id& id : ids) EXPECT_EQ(id, caller);
}

TEST(SweepExecutorTest, ParallelMapUsesMultipleThreads) {
  const SweepExecutor executor(4);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  executor.Map(64, [&](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::lock_guard lock(mutex);
    seen.insert(std::this_thread::get_id());
    return i;
  });
  // The calling thread participates; with 64 slow points at least one
  // pool worker must have claimed an index too.
  EXPECT_GE(seen.size(), 2u);
}

TEST(SweepExecutorTest, AggregatesEveryFailingPoint) {
  // A 50-point sweep failing at 3, 10, 17, ..., 45 must report all
  // seven failures, index-ordered — not just the lowest one.
  for (const unsigned threads : {1u, 8u}) {
    const SweepExecutor executor(threads);
    try {
      executor.Map(50, [](std::size_t i) -> int {
        if (i % 7 == 3) {
          throw std::runtime_error("boom at " + std::to_string(i));
        }
        return static_cast<int>(i);
      });
      FAIL() << "expected SweepError";
    } catch (const SweepError& e) {
      ASSERT_EQ(e.Failures().size(), 7u);
      for (std::size_t k = 0; k < e.Failures().size(); ++k) {
        EXPECT_EQ(e.Failures()[k].index, 3 + 7 * k);
        EXPECT_EQ(e.Failures()[k].message,
                  "boom at " + std::to_string(3 + 7 * k));
      }
      EXPECT_NE(std::string(e.what()).find("7 points"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("boom at 45"),
                std::string::npos);
    }
  }
}

// Nested maps go through the pool. Both threads of the outer map sit in
// its points, and the pool's spare thread helps their inner maps: each
// inner point 0 waits for point 1 to start on another thread, which a
// nested map run inline on one thread would never do.
TEST(SweepExecutorTest, NestedMapsOnASaturatedPoolShareThreads) {
  const SweepExecutor executor(2);
  const auto out = executor.Map(4, [&](std::size_t outer) {
    std::promise<void> second;
    std::future<void> second_started = second.get_future();
    const auto inner = executor.Map(2, [&](std::size_t i) -> std::size_t {
      if (i == 1) {
        second.set_value();
      } else if (second_started.wait_for(std::chrono::seconds(5)) !=
                 std::future_status::ready) {
        return 0;  // Point 1 never started beside point 0.
      }
      return outer * 10 + i + 1;
    });
    return inner[0] + inner[1];
  });
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t outer = 0; outer < 4; ++outer) {
    EXPECT_EQ(out[outer], outer * 20 + 3) << "outer point " << outer;
  }
}

// ---- MapWithPolicy -----------------------------------------------------

RetryPolicy FastRetry(unsigned attempts,
                      FailurePolicy on_exhausted =
                          FailurePolicy::kSkipAndReport) {
  RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.backoff_base_ms = 0.0;  // No sleeping in tests.
  policy.on_exhausted = on_exhausted;
  return policy;
}

TEST(MapWithPolicyTest, RetriesTransientFailures) {
  const SweepExecutor executor(4);
  RunReport report;
  std::atomic<int> calls{0};
  const auto slots = executor.MapWithPolicy(
      10,
      [&](std::size_t i, unsigned attempt) -> int {
        calls.fetch_add(1);
        if (i == 4 && attempt < 3) {
          throw TransientError("flaky point");
        }
        return static_cast<int>(i * 10);
      },
      FastRetry(3), &report);
  ASSERT_EQ(slots.size(), 10u);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ASSERT_TRUE(slots[i].has_value());
    EXPECT_EQ(*slots[i], static_cast<int>(i * 10));
  }
  EXPECT_EQ(calls.load(), 12);  // 9 clean points + 3 attempts at point 4.
  EXPECT_EQ(report.points.size(), 10u);
  EXPECT_EQ(report.CountOf(PointStatus::kOk), 9u);
  EXPECT_EQ(report.CountOf(PointStatus::kRetried), 1u);
  EXPECT_EQ(report.points[4].attempts, 3u);
  EXPECT_TRUE(report.points[4].error.empty());
}

TEST(MapWithPolicyTest, SkipAndReportDegradesGracefully) {
  const SweepExecutor executor(4);
  RunReport report;
  const auto slots = executor.MapWithPolicy(
      10,
      [&](std::size_t i, unsigned) -> int {
        if (i % 3 == 1) throw TransientError("always down");
        return static_cast<int>(i);
      },
      FastRetry(2), &report);
  ASSERT_EQ(slots.size(), 10u);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i].has_value(), i % 3 != 1);
  }
  EXPECT_EQ(report.CountOf(PointStatus::kSkipped), 3u);
  EXPECT_EQ(report.points[1].attempts, 2u);
  EXPECT_EQ(report.points[1].error, "always down");
  EXPECT_FALSE(report.AllOk());
  EXPECT_EQ(report.Summary(), "7 ok, 3 skipped of 10 points");
}

TEST(MapWithPolicyTest, FailFastThrowsAggregateAfterExhaustion) {
  const SweepExecutor executor(4);
  RunReport report;
  try {
    executor.MapWithPolicy(
        10,
        [&](std::size_t i, unsigned) -> int {
          if (i == 2 || i == 7) throw TransientError("dead point");
          return static_cast<int>(i);
        },
        FastRetry(2, FailurePolicy::kFailFast), &report);
    FAIL() << "expected SweepError";
  } catch (const SweepError& e) {
    ASSERT_EQ(e.Failures().size(), 2u);
    EXPECT_EQ(e.Failures()[0].index, 2u);
    EXPECT_EQ(e.Failures()[1].index, 7u);
  }
  EXPECT_EQ(report.CountOf(PointStatus::kFailed), 2u);
}

TEST(MapWithPolicyTest, NonTransientErrorsAreNeverRetried) {
  const SweepExecutor executor(1);
  RunReport report;
  std::atomic<int> calls_at_3{0};
  try {
    executor.MapWithPolicy(
        5,
        [&](std::size_t i, unsigned) -> int {
          if (i == 3) {
            calls_at_3.fetch_add(1);
            throw std::logic_error("deterministic bug");
          }
          return static_cast<int>(i);
        },
        FastRetry(5), &report);  // Even under the skip policy.
    FAIL() << "expected SweepError";
  } catch (const SweepError& e) {
    ASSERT_EQ(e.Failures().size(), 1u);
    EXPECT_EQ(e.Failures()[0].message, "deterministic bug");
  }
  EXPECT_EQ(calls_at_3.load(), 1);  // No retry for a deterministic bug.
  EXPECT_EQ(report.points[3].status, PointStatus::kFailed);
}

TEST(MapWithPolicyTest, BackoffIsDeterministicCappedExponential) {
  RetryPolicy policy;
  policy.backoff_base_ms = 2.0;
  policy.backoff_cap_ms = 16.0;
  policy.jitter_seed = 5;
  for (unsigned attempt = 1; attempt <= 8; ++attempt) {
    const double a = policy.BackoffMs(3, attempt);
    EXPECT_DOUBLE_EQ(a, policy.BackoffMs(3, attempt));  // Pure function.
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, policy.backoff_cap_ms);
  }
  // Different points draw different jitter.
  bool differs = false;
  for (std::size_t i = 0; i < 8 && !differs; ++i) {
    differs = policy.BackoffMs(i, 1) != policy.BackoffMs(i + 1, 1);
  }
  EXPECT_TRUE(differs);
}

TEST(RetryPolicyTest, ParsesSpecAndRejectsGarbage) {
  const RetryPolicy p = RetryPolicy::Parse(
      "attempts=5,policy=fail-fast,backoff_ms=2,backoff_cap_ms=32,seed=9");
  EXPECT_EQ(p.max_attempts, 5u);
  EXPECT_EQ(p.on_exhausted, FailurePolicy::kFailFast);
  EXPECT_DOUBLE_EQ(p.backoff_base_ms, 2.0);
  EXPECT_DOUBLE_EQ(p.backoff_cap_ms, 32.0);
  EXPECT_EQ(p.jitter_seed, 9u);
  EXPECT_THROW(RetryPolicy::Parse("attempts=0"), ConfigError);
  EXPECT_THROW(RetryPolicy::Parse("policy=maybe"), ConfigError);
  EXPECT_THROW(RetryPolicy::Parse("bogus=1"), ConfigError);
}

// ---- AMDMB_THREADS validation ------------------------------------------

TEST(ParseThreadCountTest, AcceptsPositiveIntegers) {
  EXPECT_EQ(env::ParseThreadCount("1"), 1u);
  EXPECT_EQ(env::ParseThreadCount("16"), 16u);
  EXPECT_EQ(env::ParseThreadCount("4096"), 4096u);
}

TEST(ParseThreadCountTest, RejectsInvalidValues) {
  EXPECT_THROW(env::ParseThreadCount(""), ConfigError);
  EXPECT_THROW(env::ParseThreadCount("abc"), ConfigError);
  EXPECT_THROW(env::ParseThreadCount("4x"), ConfigError);
  EXPECT_THROW(env::ParseThreadCount("-2"), ConfigError);
  EXPECT_THROW(env::ParseThreadCount("0"), ConfigError);
  EXPECT_THROW(env::ParseThreadCount("4097"), ConfigError);
  EXPECT_THROW(env::ParseThreadCount("99999999999999999999"), ConfigError);
  EXPECT_THROW(env::ParseThreadCount(" 4"), ConfigError);
}

// ---- KernelCache -------------------------------------------------------

suite::GenericSpec SpecWithAluOps(unsigned alu_ops) {
  suite::GenericSpec spec;
  spec.inputs = 4;
  spec.alu_ops = alu_ops;
  return spec;
}

TEST(KernelCacheTest, HitOnIdenticalKernel) {
  KernelCache cache;
  const GpuArch arch = MakeRV770();
  const il::Kernel kernel = suite::GenerateGeneric(SpecWithAluOps(16));
  const auto first = cache.Compile(kernel, arch);
  const auto second = cache.Compile(kernel, arch);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.Stats().misses, 1u);
  EXPECT_EQ(cache.Stats().hits, 1u);
}

TEST(KernelCacheTest, NameDoesNotAffectTheKey) {
  KernelCache cache;
  const GpuArch arch = MakeRV770();
  il::Kernel a = suite::GenerateGeneric(SpecWithAluOps(16));
  il::Kernel b = a;
  b.name = "same_content_other_name";
  cache.Compile(a, arch);
  cache.Compile(b, arch);
  EXPECT_EQ(cache.Stats().hits, 1u);
}

TEST(KernelCacheTest, DifferentKernelsMiss) {
  KernelCache cache;
  const GpuArch arch = MakeRV770();
  cache.Compile(suite::GenerateGeneric(SpecWithAluOps(16)), arch);
  cache.Compile(suite::GenerateGeneric(SpecWithAluOps(32)), arch);
  EXPECT_EQ(cache.Stats().misses, 2u);
  EXPECT_EQ(cache.Stats().hits, 0u);
}

TEST(KernelCacheTest, ArchsSharingCompileOptionsShareEntries) {
  // RV770 and RV870 have identical clause limits and VLIW shape, so the
  // compiled program is the same; RV670 too — only the *simulation*
  // differs between generations.
  KernelCache cache;
  const il::Kernel kernel = suite::GenerateGeneric(SpecWithAluOps(16));
  cache.Compile(kernel, MakeRV770());
  const auto stats_after_one = cache.Stats();
  cache.Compile(kernel, MakeRV870());
  EXPECT_EQ(cache.Stats().misses + cache.Stats().hits,
            stats_after_one.misses + stats_after_one.hits + 1);
}

TEST(KernelCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  KernelCache cache(/*capacity=*/2);
  const GpuArch arch = MakeRV770();
  const il::Kernel k1 = suite::GenerateGeneric(SpecWithAluOps(8));
  const il::Kernel k2 = suite::GenerateGeneric(SpecWithAluOps(16));
  const il::Kernel k3 = suite::GenerateGeneric(SpecWithAluOps(24));
  cache.Compile(k1, arch);
  cache.Compile(k2, arch);
  cache.Compile(k1, arch);  // k1 now more recent than k2.
  cache.Compile(k3, arch);  // Evicts k2.
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_EQ(cache.Stats().evictions, 1u);
  cache.Compile(k1, arch);  // Still cached.
  EXPECT_EQ(cache.Stats().hits, 2u);
  cache.Compile(k2, arch);  // Was evicted -> recompiles.
  EXPECT_EQ(cache.Stats().misses, 4u);
}

TEST(KernelCacheTest, ThreadSafeUnderConcurrentMisses) {
  KernelCache cache;
  const GpuArch arch = MakeRV770();
  const SweepExecutor executor(8);
  const auto programs = executor.Map(32, [&](std::size_t i) {
    return cache.Compile(
        suite::GenerateGeneric(SpecWithAluOps(8 + (i % 4) * 8)), arch);
  });
  for (const auto& p : programs) EXPECT_NE(p, nullptr);
  EXPECT_EQ(cache.Size(), 4u);
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, 32u);
  // Racing misses on one key may compile twice, but never more often
  // than once per worker.
  EXPECT_LE(stats.misses, 4u * 8u);
}

// ---- End-to-end determinism -------------------------------------------

TEST(ExecDeterminismTest, AluFetchSweepBitIdenticalAcrossThreadCounts) {
  const GpuArch arch = MakeRV770();
  suite::AluFetchConfig config;
  config.domain = Domain{256, 256};  // Full ratio sweep, small domain.

  const SweepExecutor serial(1);
  const SweepExecutor wide(8);

  suite::AluFetchConfig serial_config = config;
  serial_config.executor = &serial;
  suite::AluFetchConfig wide_config = config;
  wide_config.executor = &wide;

  const suite::Runner runner(arch);
  const suite::AluFetchResult a = RunAluFetch(
      runner, ShaderMode::kPixel, DataType::kFloat, serial_config);
  const suite::AluFetchResult b = RunAluFetch(
      runner, ShaderMode::kPixel, DataType::kFloat, wide_config);

  ASSERT_EQ(a.points.size(), b.points.size());
  EXPECT_EQ(a.crossover, b.crossover);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].x, b.points[i].x);
    EXPECT_EQ(a.points[i].m.stats, b.points[i].m.stats)
        << "KernelStats diverge at point " << i;
  }
  EXPECT_TRUE(a.report.AllOk());
  EXPECT_TRUE(a.report.SameOutcomes(b.report));
}

// ---- Graceful degradation under injected faults ------------------------

TEST(ExecFaultResilienceTest, AluFetchSweepDegradesDeterministically) {
  const GpuArch arch = MakeRV770();
  suite::AluFetchConfig config;
  config.domain = Domain{256, 256};
  config.retry.max_attempts = 2;
  config.retry.backoff_base_ms = 0.0;

  const SweepExecutor serial(1);
  const SweepExecutor wide(8);

  // Fault-free reference sweep.
  suite::AluFetchConfig clean_config = config;
  clean_config.executor = &serial;
  const suite::Runner runner(arch);
  const suite::AluFetchResult clean = RunAluFetch(
      runner, ShaderMode::kPixel, DataType::kFloat, clean_config);

  const fault::ScopedFaultInjector scoped("launch:0.3,seed=11");
  suite::AluFetchConfig serial_config = config;
  serial_config.executor = &serial;
  suite::AluFetchConfig wide_config = config;
  wide_config.executor = &wide;

  const suite::AluFetchResult a = RunAluFetch(
      runner, ShaderMode::kPixel, DataType::kFloat, serial_config);
  const suite::AluFetchResult b = RunAluFetch(
      runner, ShaderMode::kPixel, DataType::kFloat, wide_config);

  // The sweep completed despite the faults, and the fault schedule (and
  // hence the RunReport) is identical at any thread count.
  EXPECT_FALSE(a.report.AllOk()) << "fault rate 0.3 should degrade "
                                    "at least one of 32 points";
  EXPECT_TRUE(a.report.SameOutcomes(b.report)) << "fault schedule must "
                                                  "not depend on threads";
  EXPECT_EQ(a.report.points.size(), clean.points.size());

  // Surviving points are byte-identical between widths...
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].x, b.points[i].x);
    EXPECT_EQ(a.points[i].m.stats, b.points[i].m.stats);
  }
  // ...and byte-identical to the fault-free run (faults never corrupt a
  // measurement — a point either fails or computes the true value).
  for (const suite::SweepPoint& p : a.points) {
    bool matched = false;
    for (const suite::SweepPoint& ref : clean.points) {
      if (ref.x == p.x) {
        EXPECT_EQ(p.m.stats, ref.m.stats);
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "no clean counterpart for ratio " << p.x;
  }

  // Two identical faulted runs agree exactly (fixed seed -> identical
  // RunReports, acceptance criterion).
  const suite::AluFetchResult again = RunAluFetch(
      runner, ShaderMode::kPixel, DataType::kFloat, serial_config);
  EXPECT_TRUE(a.report.SameOutcomes(again.report));
}

TEST(ExecFaultResilienceTest, HangInjectionResolvesWithoutWedgingThePool) {
  // Every launch hangs; with the skip policy the sweep must still end,
  // reporting every point as skipped with the timeout error.
  const fault::ScopedFaultInjector scoped("hang:1,seed=2");
  const GpuArch arch = MakeRV770();
  suite::AluFetchConfig config;
  config.domain = Domain{256, 256};
  config.ratio_step = 2.0;  // 4 points is plenty.
  config.retry.max_attempts = 2;
  config.retry.backoff_base_ms = 0.0;
  const SweepExecutor wide(4);
  config.executor = &wide;

  const suite::Runner runner(arch);
  const suite::AluFetchResult r = RunAluFetch(
      runner, ShaderMode::kPixel, DataType::kFloat, config);
  EXPECT_TRUE(r.points.empty());
  EXPECT_EQ(r.report.CountOf(exec::PointStatus::kSkipped),
            r.report.points.size());
  for (const exec::PointOutcome& p : r.report.points) {
    EXPECT_NE(p.error.find("kCalTimeout"), std::string::npos) << p.error;
  }
  // The pool is still usable afterwards.
  const auto out = wide.Map(8, [](std::size_t i) { return i; });
  EXPECT_EQ(out.size(), 8u);
}


TEST(MapWithPolicyTest, CancelTokenSkipsPointsNotYetStarted) {
  // Serial executor: points run strictly in index order, so cancelling
  // during point 2 deterministically skips every later point.
  const SweepExecutor executor(1);
  CancelToken cancel;
  RunReport report;
  const auto slots = executor.MapWithPolicy(
      6,
      [&](std::size_t i, unsigned) -> int {
        if (i == 2) cancel.Cancel();
        return static_cast<int>(i);
      },
      FastRetry(3), &report, &cancel);
  ASSERT_EQ(slots.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(slots[i].has_value());
  for (std::size_t i = 3; i < 6; ++i) EXPECT_FALSE(slots[i].has_value());
  EXPECT_EQ(report.CountOf(PointStatus::kOk), 3u);
  EXPECT_EQ(report.CountOf(PointStatus::kSkipped), 3u);
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_EQ(report.points[i].status, PointStatus::kSkipped);
    EXPECT_EQ(report.points[i].attempts, 0u);  // Never started.
    EXPECT_EQ(report.points[i].error, "cancelled");
  }
}

TEST(MapWithPolicyTest, CancelledSweepStillReturnsWellFormedResults) {
  // A token that fired before the sweep began skips everything —
  // partial-result plumbing (sinks, reports) must still see one outcome
  // per point.
  const SweepExecutor executor(1);
  CancelToken cancel;
  cancel.Cancel();
  RunReport report;
  const auto slots = executor.MapWithPolicy(
      4, [](std::size_t i, unsigned) { return static_cast<int>(i); },
      FastRetry(1), &report, &cancel);
  ASSERT_EQ(slots.size(), 4u);
  EXPECT_EQ(report.points.size(), 4u);
  EXPECT_EQ(report.CountOf(PointStatus::kSkipped), 4u);
}

}  // namespace
}  // namespace amdmb
