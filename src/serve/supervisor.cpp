#include "serve/supervisor.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <functional>
#include <limits>
#include <utility>

#include "common/status.hpp"
#include "common/version.hpp"
#include "kerncap/intake.hpp"
#include "serve/net.hpp"
#include "serve/worker.hpp"

namespace amdmb::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t MsUntil(Clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                               Clock::now())
      .count();
}

int ClampTimeout(std::int64_t ms) {
  if (ms < 1) return 1;
  if (ms > std::numeric_limits<int>::max()) return std::numeric_limits<int>::max();
  return static_cast<int>(ms);
}

/// Reaps `pid`, escalating to SIGKILL after `grace_ms`. A worker whose
/// seeded hang left a session thread asleep can never finish its own
/// drain; the supervisor must not inherit that hang.
void ReapWithGrace(pid_t pid, int grace_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(grace_ms);
  while (Clock::now() < deadline) {
    if (::waitpid(pid, nullptr, WNOHANG) == pid) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

}  // namespace

Supervisor::Supervisor(SupervisorConfig config)
    : config_(std::move(config)),
      ring_(config_.workers),
      listener_(config_.socket_path,
                std::bind_front(&Supervisor::Dispatch, this)) {
  Require(!config_.socket_path.empty(), "supervisor: empty socket path");
  Require(config_.workers >= 1, "supervisor: need at least one worker");
  if (config_.registry == nullptr) {
    config_.registry = &suite::figures::Registry();
  }
}

Supervisor::~Supervisor() { Drain(); }

void Supervisor::Start() {
  // Bind the client listener first: a stale-socket / live-daemon error
  // must surface before any child is forked.
  listener_.Bind();
  slots_.reserve(config_.workers);
  for (unsigned i = 0; i < config_.workers; ++i) {
    auto slot = std::make_unique<Slot>(config_.health);
    slot->index = i;
    slot->socket_path = WorkerSocketPath(config_.socket_path, i);
    slots_.push_back(std::move(slot));
  }
  for (const std::unique_ptr<Slot>& slot : slots_) Respawn(*slot);
  // The health thread starts first: once the accept thread runs, a
  // client `drain` can reach BeginDrain, which joins health_thread_ and
  // must never see it half-assigned.
  health_thread_ = std::thread([this] { HealthLoop(); });
  listener_.Start();
}

void Supervisor::Dispatch(const std::shared_ptr<Session>& session,
                          const Request& request) {
  switch (request.op) {
    case Request::Op::kSubmit:
      HandleSubmit(session, request);
      break;
    case Request::Op::kCharacterize:
      HandleCharacterize(session, request);
      break;
    case Request::Op::kStats:
      session->WriteLine(SerializeStats(Stats()));
      break;
    case Request::Op::kDrain:
      BeginDrain();
      session->WriteLine(SerializeDrained(store_.Completed()));
      break;
    case Request::Op::kPing: {
      // Liveness probe of the supervisor itself: echo the seq with
      // cluster-level terminal counters.
      PongStats pong;
      pong.completed = store_.Completed();
      pong.failed = store_.Failed();
      session->WriteLine(SerializePong(0, request.seq, pong));
      break;
    }
    case Request::Op::kKillWorker:
      HandleKillWorker(session, request);
      break;
  }
}

std::optional<unsigned> Supervisor::AdmitAndRoute(
    const std::string& key, const std::vector<bool>& tried,
    std::string* reason) {
  if (drain_requested_.load(std::memory_order_relaxed)) {
    *reason = "draining";
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(slots_mutex_);
  const std::uint64_t capacity =
      static_cast<std::uint64_t>(config_.worker_queue) +
      config_.worker_inflight;
  std::vector<bool> eligible(config_.workers, false);
  bool any_alive = false;
  bool any_untried_alive = false;
  for (unsigned i = 0; i < config_.workers; ++i) {
    const Slot& slot = *slots_[i];
    const bool alive =
        slot.pid > 0 && slot.health.state() != WorkerState::kDead;
    any_alive = any_alive || alive;
    if (!alive || tried[i]) continue;
    any_untried_alive = true;
    if (slot.outstanding < capacity) eligible[i] = true;
  }
  const std::optional<unsigned> target = ring_.Route(key, eligible);
  if (!target.has_value()) {
    // Deterministic verdict in the fleet state: no live worker at all
    // (or every live one already failed this request) => unavailable;
    // live but every untried worker at capacity => overloaded.
    *reason = any_alive && any_untried_alive ? "overloaded" : "unavailable";
    return std::nullopt;
  }
  ++slots_[*target]->outstanding;
  return target;
}

void Supervisor::HandleSubmit(const std::shared_ptr<Session>& session,
                              const Request& request) {
  const suite::figures::FigureDef* def =
      suite::figures::Find(request.figure, *config_.registry);
  if (def == nullptr) {
    store_.RecordRejected();
    session->WriteLine(SerializeRejected("unknown_figure", request.figure));
    return;
  }
  ForwardRequest(session, SerializeRequest(request),
                 suite::figures::NormalizeSlug(def->slug), def->slug);
}

void Supervisor::HandleCharacterize(const std::shared_ptr<Session>& session,
                                    const Request& request) {
  // No supervisor-side intake: the routed worker runs the full kerncap
  // pipeline and its typed invalid_kernel verdict forwards verbatim
  // through the kRejected arm below. Routing by content hash keeps a
  // resubmitted kernel on the worker whose cache already compiled it.
  const std::string key = kerncap::ContentHash(request.il);
  ForwardRequest(session, SerializeRequest(request), key,
                 "kerncap_" + key);
}

void Supervisor::ForwardRequest(const std::shared_ptr<Session>& session,
                                const std::string& raw,
                                const std::string& key,
                                const std::string& stat_label) {
  // Exactly-once: every path below emits one terminal event, asserted
  // here so a future refactor cannot silently double-terminate.
  bool terminal_sent = false;
  const auto terminal = [&](const std::string& event_line) {
    Check(!terminal_sent,
          "supervisor: second terminal event for one submit");
    terminal_sent = true;
    session->WriteLine(event_line);
  };

  const auto release = [&](unsigned worker) {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    Slot& slot = *slots_[worker];
    if (slot.outstanding > 0) --slot.outstanding;
  };

  std::vector<bool> tried(config_.workers, false);
  bool forwarded_accepted = false;
  const bool bounded = config_.deadline_ms > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(config_.deadline_ms);

  for (;;) {
    std::string reason;
    const std::optional<unsigned> target = AdmitAndRoute(key, tried, &reason);
    if (!target.has_value()) {
      store_.RecordRejected();
      terminal(SerializeRejected(reason, stat_label));
      return;
    }
    const unsigned w = *target;
    tried[w] = true;
    const int fd = ConnectUnixSocket(slots_[w]->socket_path);
    const std::shared_ptr<Session> conn =
        fd >= 0 ? std::make_shared<Session>(fd) : nullptr;
    if (conn == nullptr || !conn->WriteLine(raw)) {
      if (conn != nullptr) conn->Close();
      release(w);
      continue;  // Worker died between admission and connect: next slot.
    }
    std::uint64_t worker_id = 0;  // Worker-assigned request id, once known.
    bool streamed = false;        // Any progress/point/profile forwarded?
    std::string line;
    for (;;) {
      int timeout_ms = -1;
      if (bounded) {
        const std::int64_t remaining = MsUntil(deadline);
        if (remaining <= 0) {
          conn->Close();  // Abandon: the worker finishes the sweep for
          release(w);     // its cache; nobody reads the result.
          store_.RecordFailed(stat_label);
          terminal(SerializeError(
              worker_id, ErrorKind::kDeadlineExceeded,
              "deadline of " + std::to_string(config_.deadline_ms) +
                  " ms exceeded"));
          return;
        }
        timeout_ms = ClampTimeout(remaining);
      }
      const ReadStatus status = conn->ReadLine(&line, timeout_ms);
      if (status == ReadStatus::kTimeout) continue;  // Re-check deadline.
      if (status == ReadStatus::kClosed) {
        conn->Close();
        release(w);
        if (streamed) {
          // Mid-stream loss: re-running could double-report measured
          // points, so the request terminates as worker_lost.
          store_.RecordFailed(stat_label);
          terminal(SerializeError(
              worker_id, ErrorKind::kWorkerLost,
              "worker " + std::to_string(w) + " died mid-stream"));
          return;
        }
        break;  // Nothing streamed yet: fail over to the next worker.
      }
      Event event;
      try {
        event = ParseEvent(line);
        if (event.type == EventType::kAccepted) {
          worker_id = report::U64Or(event.body, "request", 0);
        }
      } catch (const std::exception&) {
        continue;  // A torn line from a dying worker; the close follows.
      }
      switch (event.type) {
        case EventType::kAccepted:
          // After a failover the retry worker re-accepts; the client
          // already saw one accepted event, so suppress the duplicate.
          if (!forwarded_accepted) {
            forwarded_accepted = true;
            session->WriteLine(line);
          }
          break;
        case EventType::kStatic:
        case EventType::kProgress:
        case EventType::kPoint:
        case EventType::kProfile:
        case EventType::kRefine:
          streamed = true;
          session->WriteLine(line);
          break;
        case EventType::kDone:
          release(w);
          store_.RecordCompleted(stat_label,
                                 event.body.NumberOr("wall_seconds", 0.0));
          terminal(line);
          return;
        case EventType::kRejected:
          // The worker filled up between our capacity check and its
          // own admission; forward its verdict verbatim.
          release(w);
          store_.RecordRejected();
          terminal(line);
          return;
        case EventType::kError:
          release(w);
          store_.RecordFailed(stat_label);
          terminal(line);
          return;
        default:
          break;  // pong/stats/drained never appear on a submit stream.
      }
    }
  }
}

void Supervisor::HandleKillWorker(const std::shared_ptr<Session>& session,
                                  const Request& request) {
  if (request.worker >= config_.workers) {
    session->WriteLine(SerializeError(
        0, ErrorKind::kProtocolError,
        "kill_worker: no worker " + std::to_string(request.worker) +
            " (fleet has " + std::to_string(config_.workers) + ")"));
    return;
  }
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    pid = slots_[request.worker]->pid;
  }
  if (pid > 0) ::kill(pid, SIGKILL);  // Health loop reaps and respawns.
  session->WriteLine(SerializeKilled(request.worker));
}

void Supervisor::HealthLoop() {
  while (!stop_health_.load(std::memory_order_relaxed)) {
    const Clock::time_point tick_end =
        Clock::now() + std::chrono::milliseconds(config_.health.heartbeat_ms);
    for (const std::unique_ptr<Slot>& slot : slots_) {
      if (stop_health_.load(std::memory_order_relaxed)) return;
      TickSlot(*slot);
    }
    while (!stop_health_.load(std::memory_order_relaxed) &&
           Clock::now() < tick_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

void Supervisor::TickSlot(Slot& slot) {
  pid_t pid = -1;
  WorkerState state = WorkerState::kDead;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    pid = slot.pid;
    state = slot.health.state();
  }
  if (pid > 0 && ::waitpid(pid, nullptr, WNOHANG) == pid) {
    // The process is gone (seeded crash, kill_worker chaos, OOM, ...).
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      slot.pid = -1;
      slot.health.OnExit();
      slot.restart_due =
          Clock::now() + std::chrono::milliseconds(static_cast<std::int64_t>(
                             slot.health.NextBackoffMs()));
    }
    if (slot.control != nullptr) {
      slot.control->Close();
      slot.control.reset();
    }
    return;
  }
  if (state == WorkerState::kDead) {
    bool due = false;
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      due = slot.pid <= 0 && Clock::now() >= slot.restart_due;
    }
    if (due && !drain_requested_.load(std::memory_order_relaxed)) {
      Respawn(slot);
    }
    return;
  }
  // Ensure the persistent control connection (health thread only).
  if (slot.control == nullptr || !slot.control->Alive()) {
    const int fd = ConnectUnixSocket(slot.socket_path);
    slot.control = fd >= 0 ? std::make_shared<Session>(fd) : nullptr;
  }
  if (slot.control == nullptr) {
    RecordMiss(slot);  // Not listening yet (starting) or just died.
    return;
  }
  Request ping;
  ping.op = Request::Op::kPing;
  ping.seq = ++slot.ping_seq;  // Monotonic per slot: the fault key
                               // "w<i>#<seq>" never repeats, so a seeded
                               // schedule fires exactly once per seq.
  if (!slot.control->WriteLine(SerializeRequest(ping))) {
    slot.control->Close();
    slot.control.reset();
    RecordMiss(slot);
    return;
  }
  const Clock::time_point pong_deadline =
      Clock::now() +
      std::chrono::milliseconds(std::max<std::uint64_t>(
          1, config_.health.heartbeat_ms / 2));
  std::string line;
  for (;;) {
    const std::int64_t remaining = MsUntil(pong_deadline);
    if (remaining <= 0) {
      RecordMiss(slot);
      return;
    }
    const ReadStatus status =
        slot.control->ReadLine(&line, ClampTimeout(remaining));
    if (status == ReadStatus::kTimeout) {
      RecordMiss(slot);
      return;
    }
    if (status == ReadStatus::kClosed) {
      slot.control->Close();
      slot.control.reset();
      RecordMiss(slot);
      return;
    }
    try {
      const Event event = ParseEvent(line);
      if (event.type == EventType::kPong &&
          report::U64Or(event.body, "seq", 0) == slot.ping_seq) {
        std::lock_guard<std::mutex> lock(slots_mutex_);
        // All four counts are read before the slot changes, so a bad
        // one leaves it as a torn line would.
        PongStats pong;
        pong.completed = report::U64Or(event.body, "completed", 0);
        pong.failed = report::U64Or(event.body, "failed", 0);
        pong.cache_hits = report::U64Or(event.body, "cache_hits", 0);
        pong.cache_misses = report::U64Or(event.body, "cache_misses", 0);
        slot.health.OnPong();
        slot.last_pong = pong;
        return;
      }
    } catch (const std::exception&) {
      // Torn line or a count out of range; keep reading until the pong
      // deadline.
    }
    // A stale pong (older seq, discarded) also loops back here.
  }
}

void Supervisor::RecordMiss(Slot& slot) {
  bool died = false;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    died = slot.health.OnMiss();
  }
  if (died) MarkDead(slot, /*kill_process=*/true);
}

void Supervisor::MarkDead(Slot& slot, bool kill_process) {
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    pid = slot.pid;
  }
  if (kill_process && pid > 0) {
    ::kill(pid, SIGKILL);  // SIGKILL cannot be ignored; the reap is fast.
    ::waitpid(pid, nullptr, 0);
  }
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    slot.pid = -1;
    slot.restart_due =
        Clock::now() + std::chrono::milliseconds(static_cast<std::int64_t>(
                           slot.health.NextBackoffMs()));
  }
  if (slot.control != nullptr) {
    slot.control->Close();
    slot.control.reset();
  }
}

std::vector<int> Supervisor::FdsToCloseInChild() {
  std::vector<int> fds = listener_.OpenFds();
  std::lock_guard<std::mutex> lock(slots_mutex_);
  for (const std::unique_ptr<Slot>& slot : slots_) {
    if (slot->control != nullptr) fds.push_back(slot->control->fd());
  }
  return fds;
}

void Supervisor::Respawn(Slot& slot) {
  WorkerConfig worker;
  worker.index = slot.index;
  worker.socket_path = slot.socket_path;
  worker.max_queue = config_.worker_queue;
  worker.max_inflight = config_.worker_inflight;
  worker.registry = config_.registry;
  pid_t pid = -1;
  try {
    pid = SpawnWorker(worker, FdsToCloseInChild());
  } catch (const std::exception&) {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    slot.restart_due =
        Clock::now() + std::chrono::milliseconds(static_cast<std::int64_t>(
                           slot.health.NextBackoffMs()));
    return;  // fork failed (transient); retried after the next backoff.
  }
  std::lock_guard<std::mutex> lock(slots_mutex_);
  slot.pid = pid;
  ++slot.generation;
  slot.health.OnSpawned();
}

ServeStats Supervisor::Stats() const {
  ServeStats stats;
  stats.version = std::string(SuiteVersion());
  stats.max_queue = config_.worker_queue * config_.workers;
  stats.max_inflight = config_.worker_inflight * config_.workers;
  stats.completed = store_.Completed();
  stats.failed = store_.Failed();
  stats.rejected = store_.Rejected();
  stats.latencies = store_.Latencies();
  std::lock_guard<std::mutex> lock(slots_mutex_);
  std::uint64_t outstanding_total = 0;
  for (const std::unique_ptr<Slot>& slot : slots_) {
    outstanding_total += slot->outstanding;
    stats.cache_hits += slot->last_pong.cache_hits;
    stats.cache_misses += slot->last_pong.cache_misses;
    WorkerStatus status;
    status.index = slot->index;
    status.state = std::string(ToString(slot->health.state()));
    status.pid = slot->pid;
    status.restarts = slot->health.restarts();
    status.outstanding = slot->outstanding;
    status.generation = slot->generation;
    stats.workers.push_back(std::move(status));
  }
  // The supervisor cannot see inside worker schedulers; routed-but-not-
  // terminal is the cluster's queue-depth proxy.
  stats.queue_depth = static_cast<std::size_t>(outstanding_total);
  const std::uint64_t touches = stats.cache_hits + stats.cache_misses;
  stats.cache_hit_rate =
      touches > 0 ? static_cast<double>(stats.cache_hits) /
                        static_cast<double>(touches)
                  : 0.0;
  return stats;
}

bool Supervisor::DrainRequested() const {
  return drain_requested_.load(std::memory_order_relaxed);
}

void Supervisor::BeginDrain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  std::call_once(drain_once_, [this] {
    // Stop the health loop first: no restarts mid-drain, and the
    // control sessions below are then safe to touch from this thread.
    stop_health_.store(true, std::memory_order_relaxed);
    if (health_thread_.joinable()) health_thread_.join();
    for (const std::unique_ptr<Slot>& slot : slots_) {
      pid_t pid = -1;
      {
        std::lock_guard<std::mutex> lock(slots_mutex_);
        pid = slot->pid;
      }
      if (pid <= 0) continue;
      bool drained = false;
      const int fd = ConnectUnixSocket(slot->socket_path);
      if (fd >= 0) {
        Session conn(fd);
        Request drain;
        drain.op = Request::Op::kDrain;
        if (conn.WriteLine(SerializeRequest(drain))) {
          std::string line;
          while (conn.ReadLine(&line, -1) == ReadStatus::kLine) {
            try {
              if (ParseEvent(line).type == EventType::kDrained) {
                drained = true;
                break;
              }
            } catch (const std::exception&) {
            }
          }
        }
        conn.Close();
      }
      if (!drained) ::kill(pid, SIGTERM);  // SIGTERM also drains.
      ReapWithGrace(pid, /*grace_ms=*/5000);
      {
        std::lock_guard<std::mutex> lock(slots_mutex_);
        slot->pid = -1;
        slot->health.OnExit();
      }
      if (slot->control != nullptr) {
        slot->control->Close();
        slot->control.reset();
      }
    }
    // Every worker is reaped now; one that was SIGKILLed or crashed
    // never unlinked its socket.
    for (const std::unique_ptr<Slot>& slot : slots_) {
      ::unlink(slot->socket_path.c_str());
    }
  });
}

void Supervisor::Drain() {
  BeginDrain();
  listener_.Close();
}

}  // namespace amdmb::serve
