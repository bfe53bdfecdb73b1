// Fixed-size worker pool for the execution layer.
//
// One process-wide pool (SharedPool) serves every parallel sweep; its
// size comes from the AMDMB_THREADS environment variable, defaulting to
// the hardware concurrency. Tasks are plain functions; completion and
// result plumbing live one level up in SweepExecutor.
//
// Every task has a rank; a lower rank is more urgent. Workers take
// queued tasks by rank, then in submission order. A thread runs each
// task at the task's rank, and a task submitted without a rank inherits
// the submitting thread's (0 outside any task). figures::Build ranks
// each curve by its index, so every sweep point of curve 0 goes ahead
// of curve 1's, and so on.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace amdmb::exec {

/// Thread count from AMDMB_THREADS (validated once by env::Get(), which
/// rejects anything outside [1, 4096] with a ConfigError), else the
/// hardware concurrency, else 1.
unsigned DefaultThreadCount();

/// Runs the calling thread at `rank` while in scope, then restores its
/// previous rank.
class ScopedRank {
 public:
  explicit ScopedRank(std::size_t rank);
  ~ScopedRank();

  ScopedRank(const ScopedRank&) = delete;
  ScopedRank& operator=(const ScopedRank&) = delete;

 private:
  std::size_t saved_;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(unsigned threads);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task at the calling thread's rank. Tasks must not throw
  /// (SweepExecutor catches per point); a task that escapes with an
  /// exception terminates.
  void Submit(std::function<void()> task);

  /// Enqueues a task at `rank`.
  void Submit(std::function<void()> task, std::size_t rank);

  /// Runs queued tasks more urgent than the calling thread's rank on the
  /// calling thread, most urgent first, until none is left. A thread
  /// running a map calls this before it claims each point.
  void RunMoreUrgent();

  unsigned ThreadCount() const {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  struct Queued {
    std::size_t rank = 0;
    std::uint64_t seq = 0;
    std::function<void()> task;
  };

  /// Removes and returns the most urgent task. Caller holds mutex_ and
  /// has checked that the queue is not empty.
  Queued PopLocked();
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<Queued> queue_;  ///< Heap, most urgent (rank, seq) first.
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// The process-wide pool, created on first use with DefaultThreadCount()
/// workers. A forked child gets a fresh pool on its first call.
ThreadPool& SharedPool();

}  // namespace amdmb::exec
