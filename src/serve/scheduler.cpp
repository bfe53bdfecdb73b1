#include "serve/scheduler.hpp"

#include <utility>

#include "common/status.hpp"

namespace amdmb::serve {

std::string_view ToString(Admission admission) {
  switch (admission) {
    case Admission::kAccepted: return "accepted";
    case Admission::kRejectedOverloaded: return "overloaded";
    case Admission::kRejectedDraining: return "draining";
  }
  throw SimError("ToString(Admission): unknown value");
}

Scheduler::Scheduler(std::size_t max_queue, unsigned max_inflight)
    : max_queue_(max_queue), max_inflight_(max_inflight) {
  Require(max_inflight >= 1, "Scheduler: need at least one in-flight slot");
  workers_.reserve(max_inflight);
  for (unsigned i = 0; i < max_inflight; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Scheduler::~Scheduler() { Shutdown(); }

Scheduler::Ticket Scheduler::Submit(int priority, Job job) {
  Ticket ticket;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      ticket.admission = Admission::kRejectedDraining;
      return ticket;
    }
    // Outstanding = queued + executing; comparing against total capacity
    // keeps the verdict independent of worker pickup timing.
    if (queue_.size() + in_flight_ >= max_queue_ + max_inflight_) {
      ticket.admission = Admission::kRejectedOverloaded;
      return ticket;
    }
    ticket.admission = Admission::kAccepted;
    ticket.id = next_id_++;
    queue_.push_back({ticket.id, priority, std::move(job)});
    ticket.queue_depth = queue_.size();
  }
  work_ready_.notify_one();
  return ticket;
}

void Scheduler::StopAdmission() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
}

void Scheduler::Retire(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  --in_flight_;
  retired_.push_back(id);
}

void Scheduler::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] {
    return queue_.empty() && in_flight_ == 0 && retired_.empty();
  });
}

void Scheduler::Shutdown() {
  StopAdmission();
  WaitIdle();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t Scheduler::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

unsigned Scheduler::InFlight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

std::size_t Scheduler::PickLocked() const {
  std::size_t best = queue_.size();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (best == queue_.size() ||
        queue_[i].priority > queue_[best].priority ||
        (queue_[i].priority == queue_[best].priority &&
         queue_[i].id < queue_[best].id)) {
      best = i;
    }
  }
  return best;
}

void Scheduler::WorkerLoop() {
  for (;;) {
    Job job;
    std::uint64_t id = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with nothing left.
      const std::size_t pick = PickLocked();
      job = std::move(queue_[pick].job);
      id = queue_[pick].id;
      queue_.erase(queue_.begin() +
                   static_cast<std::deque<Entry>::difference_type>(pick));
      ++in_flight_;
    }
    job(id);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (std::erase(retired_, id) == 0) --in_flight_;
    }
    idle_.notify_all();
  }
}

}  // namespace amdmb::serve
