// Bounded FIFO-with-priority scheduler with admission control.
//
// Capacity is explicit: at most `max_inflight` jobs execute at once (one
// worker thread per slot) and at most `max_queue` more may wait. A
// submit beyond queue + in-flight capacity is rejected immediately with
// kRejectedOverloaded — the daemon never blocks or hangs a client on an
// unbounded backlog. Admission counts outstanding work (queued plus
// executing), so the verdict is deterministic regardless of how quickly
// workers pick jobs up.
//
// Pop order is priority descending, then arrival order (FIFO within a
// priority) — with one in-flight slot the execution order is a pure
// function of the submit sequence, which the determinism tests rely on.
//
// Drain (the daemon's SIGTERM contract): StopAdmission() makes every
// later submit kRejectedDraining, WaitIdle() blocks until the already
// admitted jobs — queued and in-flight — have all finished. Shutdown()
// then stops and joins the workers. The destructor runs the full
// sequence, so no job is ever abandoned mid-flight.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace amdmb::serve {

enum class Admission {
  kAccepted,
  kRejectedOverloaded,  ///< queue + in-flight capacity exhausted.
  kRejectedDraining,    ///< the daemon is shutting down.
};

std::string_view ToString(Admission admission);

class Scheduler {
 public:
  /// A job runs on a worker thread with its own request id (assigned at
  /// admission); it must not throw (wrap sweeps in their own try/catch
  /// and report through the session instead).
  using Job = std::function<void(std::uint64_t id)>;

  struct Ticket {
    Admission admission = Admission::kRejectedDraining;
    std::uint64_t id = 0;           ///< Request id (valid when accepted).
    std::size_t queue_depth = 0;    ///< Queued jobs after this submit.
  };

  Scheduler(std::size_t max_queue, unsigned max_inflight);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admission-controlled submit; never blocks.
  Ticket Submit(int priority, Job job);

  /// Rejects every subsequent Submit with kRejectedDraining.
  void StopAdmission();

  /// Called by running job `id` just before it writes its terminal
  /// event: from then on the job no longer counts as in flight, neither
  /// in InFlight() nor for admission. WaitIdle still waits for the job
  /// to return, so a drain still follows the terminal event.
  void Retire(std::uint64_t id);

  /// Blocks until every admitted job has finished. Call StopAdmission
  /// first or new submits can extend the wait.
  void WaitIdle();

  /// StopAdmission + WaitIdle + stop and join the workers. Idempotent.
  void Shutdown();

  std::size_t QueueDepth() const;
  unsigned InFlight() const;
  std::size_t MaxQueue() const { return max_queue_; }
  unsigned MaxInflight() const { return max_inflight_; }

 private:
  struct Entry {
    std::uint64_t id = 0;   ///< Also the arrival sequence (FIFO key).
    int priority = 0;
    Job job;
  };

  void WorkerLoop();
  /// Index of the next entry to pop (max priority, min id), or
  /// queue_.size() when empty. Caller holds mutex_.
  std::size_t PickLocked() const;

  const std::size_t max_queue_;
  const unsigned max_inflight_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<Entry> queue_;
  std::uint64_t next_id_ = 1;
  unsigned in_flight_ = 0;
  /// Jobs that called Retire but have not returned yet.
  std::vector<std::uint64_t> retired_;
  bool draining_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace amdmb::serve
