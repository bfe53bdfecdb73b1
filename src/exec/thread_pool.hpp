// Fixed-size worker pool for the execution layer.
//
// One process-wide pool (SharedPool) serves every parallel sweep; its
// size comes from the AMDMB_THREADS environment variable, defaulting to
// the hardware concurrency. Tasks are plain functions; completion and
// result plumbing live one level up in SweepExecutor.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace amdmb::exec {

/// Thread count from AMDMB_THREADS (validated once by env::Get(), which
/// rejects anything outside [1, 4096] with a ConfigError), else the
/// hardware concurrency, else 1.
unsigned DefaultThreadCount();

/// True while the calling thread is one of a ThreadPool's workers. Used
/// to run nested sweeps inline instead of deadlocking on a saturated
/// pool.
bool OnPoolThread();

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(unsigned threads);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw (SweepExecutor catches per
  /// point); a task that escapes with an exception terminates.
  void Submit(std::function<void()> task);

  unsigned ThreadCount() const {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// The process-wide pool, created on first use with DefaultThreadCount()
/// workers. A forked child gets a fresh pool on its first call.
ThreadPool& SharedPool();

}  // namespace amdmb::exec
