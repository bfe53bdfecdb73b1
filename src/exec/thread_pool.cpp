#include "exec/thread_pool.hpp"

#include <unistd.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "common/env.hpp"
#include "common/status.hpp"

namespace amdmb::exec {

namespace {

thread_local std::size_t tls_rank = 0;

/// Heap order: the greater element is the less urgent one.
struct LessUrgent {
  template <typename Task>
  bool operator()(const Task& a, const Task& b) const {
    return std::tie(a.rank, a.seq) > std::tie(b.rank, b.seq);
  }
};

}  // namespace

unsigned DefaultThreadCount() {
  if (const auto threads = env::Get().threads) return *threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ScopedRank::ScopedRank(std::size_t rank) : saved_(tls_rank) {
  tls_rank = rank;
}

ScopedRank::~ScopedRank() { tls_rank = saved_; }

ThreadPool::ThreadPool(unsigned threads) {
  Require(threads >= 1, "ThreadPool: needs at least one worker");
  workers_.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  Submit(std::move(task), tls_rank);
}

void ThreadPool::Submit(std::function<void()> task, std::size_t rank) {
  {
    const std::lock_guard lock(mutex_);
    Check(!stopping_, "ThreadPool::Submit: pool is shutting down");
    queue_.push_back({rank, next_seq_++, std::move(task)});
    std::push_heap(queue_.begin(), queue_.end(), LessUrgent{});
  }
  wake_.notify_one();
}

ThreadPool::Queued ThreadPool::PopLocked() {
  std::pop_heap(queue_.begin(), queue_.end(), LessUrgent{});
  Queued next = std::move(queue_.back());
  queue_.pop_back();
  return next;
}

void ThreadPool::RunMoreUrgent() {
  const std::size_t rank = tls_rank;
  if (rank == 0) return;  // Nothing is more urgent.
  for (;;) {
    Queued next;
    {
      const std::lock_guard lock(mutex_);
      if (queue_.empty() || queue_.front().rank >= rank) return;
      next = PopLocked();
    }
    const ScopedRank at(next.rank);
    next.task();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Queued next;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained.
      next = PopLocked();
    }
    const ScopedRank at(next.rank);
    next.task();
  }
}

ThreadPool& SharedPool() {
  // One pool per process, built on first use. A child forked after a
  // sweep inherits the parent's pool object but none of its threads, so
  // it builds its own on its first sweep. The inherited object is leaked,
  // not destroyed: its std::threads are joinable, yet no thread is
  // behind them in the child.
  static std::mutex mutex;
  static ThreadPool* pool = nullptr;
  static pid_t owner = 0;
  const pid_t pid = ::getpid();
  const std::lock_guard lock(mutex);
  if (pool == nullptr || owner != pid) {
    pool = new ThreadPool(DefaultThreadCount());
    owner = pid;
  }
  return *pool;
}

}  // namespace amdmb::exec
