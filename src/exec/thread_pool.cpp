#include "exec/thread_pool.hpp"

#include <unistd.h>

#include <string>

#include "common/env.hpp"
#include "common/status.hpp"

namespace amdmb::exec {

namespace {

thread_local bool tls_on_pool_thread = false;

}  // namespace

unsigned DefaultThreadCount() {
  if (const auto threads = env::Get().threads) return *threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

bool OnPoolThread() { return tls_on_pool_thread; }

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
  {
    const std::lock_guard lock(mutex_);
    Check(!stopping_, "ThreadPool::Submit: pool is shutting down");
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::WorkerLoop() {
  tls_on_pool_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
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
