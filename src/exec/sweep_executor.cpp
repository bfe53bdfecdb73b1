#include "exec/sweep_executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace amdmb::exec {

namespace {

/// One map's points, claimed in index order by the calling thread and
/// its helper tasks.
class MapPoints {
 public:
  MapPoints(std::size_t n, const std::function<void(std::size_t)>& body)
      : n_(n), body_(&body) {}

  /// Claims and runs points until none is left. Before each claim it
  /// runs any queued task more urgent than the calling thread.
  void Work(ThreadPool& pool) {
    for (;;) {
      pool.RunMoreUrgent();
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n_) return;
      (*body_)(i);
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
        const std::lock_guard lock(mutex_);
        finished_.notify_all();
      }
    }
  }

  /// Blocks until every point has finished. Call after Work: every point
  /// is then claimed, so this waits only for points already started.
  void Wait() {
    std::unique_lock lock(mutex_);
    finished_.wait(lock, [this] {
      return done_.load(std::memory_order_acquire) == n_;
    });
  }

 private:
  const std::size_t n_;
  /// The caller's; a helper that finds no point left never reads it.
  const std::function<void(std::size_t)>* body_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> done_{0};
  std::mutex mutex_;
  std::condition_variable finished_;
};

/// The tasks of one RunInOrder, each run once, by a pool worker or by
/// the calling thread, whichever claims it first.
class OrderedTasks {
 public:
  OrderedTasks(std::size_t n, const std::function<void(std::size_t)>& task)
      : state_(n, kQueued), task_(&task) {}

  /// A pool worker's turn at task i: runs it unless it was claimed or
  /// stopped.
  void Run(std::size_t i) {
    if (Claim(i)) RunClaimed(i);
  }

  /// Runs task i on the calling thread, at rank i, if nobody has started
  /// it; otherwise waits for it to finish.
  void RunOrWait(std::size_t i) {
    if (Claim(i)) {
      const ScopedRank at(i);
      RunClaimed(i);
      return;
    }
    std::unique_lock lock(mutex_);
    changed_.wait(lock, [&] { return state_[i] == kDone; });
  }

  /// Stops every task not yet started, then waits for the started ones.
  void StopAndWait() {
    std::unique_lock lock(mutex_);
    std::replace(state_.begin(), state_.end(), kQueued, kDone);
    changed_.wait(lock, [this] { return running_ == 0; });
  }

 private:
  enum State : char { kQueued, kRunning, kDone };

  bool Claim(std::size_t i) {
    const std::lock_guard lock(mutex_);
    if (state_[i] != kQueued) return false;
    state_[i] = kRunning;
    ++running_;
    return true;
  }

  void RunClaimed(std::size_t i) {
    (*task_)(i);
    {
      const std::lock_guard lock(mutex_);
      state_[i] = kDone;
      --running_;
    }
    changed_.notify_all();
  }

  std::mutex mutex_;
  std::condition_variable changed_;
  std::vector<State> state_;
  std::size_t running_ = 0;
  /// The caller's; a stopped task never reads it.
  const std::function<void(std::size_t)>* task_;
};

}  // namespace

const SweepExecutor& SweepExecutor::Default() {
  static SweepExecutor executor;
  return executor;
}

std::string DescribeException(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

void SleepForMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

ThreadPool* SweepExecutor::Pool() const {
  if (!shared_) return pool_;
  return DefaultThreadCount() > 1 ? &SharedPool() : nullptr;
}

void SweepExecutor::ForEachIndex(
    std::size_t n, const std::function<void(std::size_t)>& body) const {
  ThreadPool* pool = Pool();
  if (pool == nullptr || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // The calling thread plus width - 1 helper tasks claim the points. A
  // helper holds the shared state, so one that starts after the map has
  // returned finds no point left and never touches `body`.
  const auto points = std::make_shared<MapPoints>(n, body);
  const std::size_t helpers =
      std::min<std::size_t>(pool->ThreadCount() - 1, n - 1);
  for (std::size_t t = 0; t < helpers; ++t) {
    pool->Submit([points, pool] { points->Work(*pool); });
  }
  points->Work(*pool);
  points->Wait();
}

void SweepExecutor::RunInOrder(
    std::size_t n, const std::function<void(std::size_t)>& task,
    const std::function<bool(std::size_t)>& emit) const {
  ThreadPool* pool = Pool();
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      task(i);
      if (!emit(i)) return;
    }
    return;
  }
  const auto tasks = std::make_shared<OrderedTasks>(n, task);
  for (std::size_t i = 0; i < n; ++i) {
    pool->Submit([tasks, i] { tasks->Run(i); }, i);
  }
  // However the loop ends, an emit that throws included, no further task
  // starts and every started one has finished before this returns.
  struct Join {
    OrderedTasks& tasks;
    ~Join() { tasks.StopAndWait(); }
  } join{*tasks};
  for (std::size_t i = 0; i < n; ++i) {
    tasks->RunOrWait(i);
    if (!emit(i)) return;
  }
}

}  // namespace amdmb::exec
