#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "kerncap/intake.hpp"
#include "report/json.hpp"
#include "serve/net.hpp"

namespace amdmb::serve {

Client Client::Connect(const std::string& socket_path, unsigned retries) {
  double backoff_ms = 50.0;
  for (unsigned attempt = 0;; ++attempt) {
    const int fd = ConnectUnixSocket(socket_path);
    if (fd >= 0) return Client(fd);
    if (attempt >= retries) {
      throw ConfigError("client: connect(" + socket_path + ") failed after " +
                        std::to_string(attempt + 1) +
                        " attempt(s) (is amdmb_serve running?)");
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        backoff_ms));
    backoff_ms = std::min(backoff_ms * 2.0, 1000.0);
  }
}

Event Client::NextEvent() {
  std::optional<std::string> line = session_->ReadLine();
  if (!line.has_value()) {
    throw ConfigError("client: daemon closed the connection");
  }
  return ParseEvent(*line);
}

Event Client::Submit(const std::string& figure, bool quick, int priority,
                     const EventCallback& on_event) {
  return Submit(figure, quick, /*adaptive=*/false, priority, on_event);
}

Event Client::Submit(const std::string& figure, bool quick, bool adaptive,
                     int priority, const EventCallback& on_event) {
  Request request;
  request.op = Request::Op::kSubmit;
  request.figure = figure;
  request.quick = quick;
  request.adaptive = adaptive;
  request.priority = priority;
  if (!session_->WriteLine(SerializeRequest(request))) {
    throw ConfigError("client: daemon closed the connection");
  }
  for (;;) {
    Event event = NextEvent();
    switch (event.type) {
      case EventType::kDone:
      case EventType::kRejected:
      case EventType::kError:
        return event;
      default:
        if (on_event) on_event(event);
        break;
    }
  }
}

std::optional<Event> OversizedCharacterize(const std::string& il,
                                           bool quick, int priority) {
  Request request;
  request.op = Request::Op::kCharacterize;
  request.il = il;
  request.quick = quick;
  request.priority = priority;
  // The session layer reads lines of at most kMaxLineBytes including
  // the trailing newline; anything at or beyond the bound is dropped by
  // the daemon with a protocol error, so synthesize the typed verdict
  // locally instead of shipping megabytes to certain death.
  if (SerializeRequest(request).size() + 1 <= kMaxLineBytes) {
    return std::nullopt;
  }
  return ParseEvent(SerializeRejected(
      "invalid_kernel", kerncap::ContentHash(il), "payload_too_large",
      "serialized characterize request exceeds the " +
          std::to_string(kMaxLineBytes) +
          "-byte request-line bound; not sent"));
}

Event Client::Characterize(const std::string& il, bool quick, int priority,
                           const EventCallback& on_event) {
  return Characterize(il, quick, /*adaptive=*/false, priority, on_event);
}

Event Client::Characterize(const std::string& il, bool quick, bool adaptive,
                           int priority, const EventCallback& on_event) {
  if (std::optional<Event> oversized =
          OversizedCharacterize(il, quick, priority)) {
    return *std::move(oversized);
  }
  Request request;
  request.op = Request::Op::kCharacterize;
  request.il = il;
  request.quick = quick;
  request.adaptive = adaptive;
  request.priority = priority;
  if (!session_->WriteLine(SerializeRequest(request))) {
    throw ConfigError("client: daemon closed the connection");
  }
  for (;;) {
    Event event = NextEvent();
    switch (event.type) {
      case EventType::kDone:
      case EventType::kRejected:
      case EventType::kError:
        return event;
      default:
        if (on_event) on_event(event);
        break;
    }
  }
}

ServeStats Client::Stats() {
  Request request;
  request.op = Request::Op::kStats;
  if (!session_->WriteLine(SerializeRequest(request))) {
    throw ConfigError("client: daemon closed the connection");
  }
  for (;;) {
    const Event event = NextEvent();
    if (event.type == EventType::kStats) return ParseStats(event.body);
    if (event.type == EventType::kError) {
      throw ConfigError("client: stats failed: " +
                        event.body.StringOr("message", "unknown error"));
    }
    // Skip stray streamed events of an earlier submit on this session.
  }
}

std::uint64_t Client::Drain() {
  Request request;
  request.op = Request::Op::kDrain;
  if (!session_->WriteLine(SerializeRequest(request))) {
    throw ConfigError("client: daemon closed the connection");
  }
  for (;;) {
    const Event event = NextEvent();
    if (event.type == EventType::kDrained) {
      return report::U64Or(event.body, "completed", 0);
    }
    if (event.type == EventType::kError) {
      throw ConfigError("client: drain failed: " +
                        event.body.StringOr("message", "unknown error"));
    }
  }
}

void Client::KillWorker(unsigned index) {
  Request request;
  request.op = Request::Op::kKillWorker;
  request.worker = index;
  if (!session_->WriteLine(SerializeRequest(request))) {
    throw ConfigError("client: daemon closed the connection");
  }
  for (;;) {
    const Event event = NextEvent();
    if (event.type == EventType::kKilled) return;
    if (event.type == EventType::kError) {
      throw ConfigError("client: kill_worker failed: " +
                        event.body.StringOr("message", "unknown error"));
    }
  }
}

std::string LoadGenReport::Render() const {
  std::ostringstream os;
  os << "load generator: " << requests << " requests, " << completed
     << " completed, " << rejected << " rejected, " << failed << " failed\n"
     << "  wall " << FormatDouble(wall_seconds, 3) << " s, throughput "
     << FormatDouble(throughput_rps, 2) << " req/s\n"
     << "  latency p50 " << FormatDouble(p50_seconds, 3) << " s, p90 "
     << FormatDouble(p90_seconds, 3) << " s, p99 "
     << FormatDouble(p99_seconds, 3) << " s\n";
  if (kills > 0) {
    os << "  chaos: " << kills << " worker kill(s), " << worker_lost
       << " worker_lost, " << deadline_exceeded << " deadline_exceeded, "
       << "availability " << FormatDouble(availability * 100.0, 1) << " %\n";
  }
  return os.str();
}

LoadGenReport RunLoadGenerator(const LoadGenOptions& options) {
  Require(!options.figures.empty(), "load generator: no figures to pick");
  Require(options.concurrency >= 1, "load generator: concurrency < 1");

  // The whole request schedule — figure, priority, and any chaos kill
  // points — is derived from the seed up front, so it is identical
  // across runs regardless of worker interleaving.
  struct Planned {
    std::string figure;
    int priority;
    int kill_worker;  ///< Chaos: SIGKILL this slot first; -1 = none.
  };
  std::vector<Planned> plan;
  plan.reserve(options.requests);
  XorShift128 rng(options.seed);
  for (std::size_t i = 0; i < options.requests; ++i) {
    const std::string& figure =
        options.figures[rng.NextBelow(options.figures.size())];
    plan.push_back({figure, static_cast<int>(rng.NextBelow(3)), -1});
  }
  if (options.kill_workers > 0) {
    // Chaos needs a fleet: learn the slot count from the daemon.
    Client probe = Client::Connect(options.socket_path,
                                   options.connect_retries);
    const std::size_t fleet = probe.Stats().workers.size();
    if (fleet == 0) {
      throw ConfigError(
          "load generator: --kill-worker needs a fleet daemon "
          "(AMDMB_WORKERS >= 1); this one reports no workers");
    }
    if (plan.empty()) {
      throw ConfigError("load generator: --kill-worker needs requests > 0");
    }
    for (unsigned k = 0; k < options.kill_workers; ++k) {
      plan[rng.NextBelow(plan.size())].kill_worker =
          static_cast<int>(rng.NextBelow(fleet));
    }
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> worker_lost{0};
  std::atomic<std::size_t> deadline_exceeded{0};
  std::atomic<std::size_t> kills{0};
  std::mutex latencies_mutex;
  std::vector<double> latencies;

  // Probe once on the calling thread so an unreachable daemon surfaces
  // as a ConfigError instead of a worker-thread crash.
  { Client probe = Client::Connect(options.socket_path,
                                   options.connect_retries); }

  const auto worker = [&] {
    try {
      Client client =
          Client::Connect(options.socket_path, options.connect_retries);
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= plan.size()) return;
        if (plan[i].kill_worker >= 0) {
          try {
            client.KillWorker(static_cast<unsigned>(plan[i].kill_worker));
            kills.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::exception&) {
            // Chaos against an already-dead slot; the submit proceeds.
          }
        }
        const auto start = std::chrono::steady_clock::now();
        const Event event =
            client.Submit(plan[i].figure, options.quick, plan[i].priority);
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        switch (event.type) {
          case EventType::kDone:
            completed.fetch_add(1, std::memory_order_relaxed);
            {
              std::lock_guard<std::mutex> lock(latencies_mutex);
              latencies.push_back(seconds);
            }
            break;
          case EventType::kRejected:
            rejected.fetch_add(1, std::memory_order_relaxed);
            break;
          default: {
            failed.fetch_add(1, std::memory_order_relaxed);
            const std::string kind = event.body.StringOr("kind", "");
            if (kind == "worker_lost") {
              worker_lost.fetch_add(1, std::memory_order_relaxed);
            } else if (kind == "deadline_exceeded") {
              deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
        }
      }
    } catch (const std::exception&) {
      // The daemon went away mid-run (e.g. a drain); remaining requests
      // on this worker count as failed.
      failed.fetch_add(1, std::memory_order_relaxed);
    }
  };

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  const unsigned spawned =
      static_cast<unsigned>(std::min<std::size_t>(options.concurrency,
                                                  plan.size() ? plan.size()
                                                              : 1));
  workers.reserve(spawned);
  for (unsigned t = 0; t < spawned; ++t) workers.emplace_back(worker);
  for (std::thread& thread : workers) thread.join();

  LoadGenReport report;
  report.requests = plan.size();
  report.completed = completed.load();
  report.rejected = rejected.load();
  report.failed = failed.load();
  report.worker_lost = worker_lost.load();
  report.deadline_exceeded = deadline_exceeded.load();
  report.kills = kills.load();
  if (report.requests > report.rejected) {
    report.availability =
        static_cast<double>(report.completed) /
        static_cast<double>(report.requests - report.rejected);
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (report.wall_seconds > 0.0) {
    report.throughput_rps =
        static_cast<double>(report.completed) / report.wall_seconds;
  }
  if (!latencies.empty()) {
    report.p50_seconds = Percentile(latencies, 50.0);
    report.p90_seconds = Percentile(latencies, 90.0);
    report.p99_seconds = Percentile(latencies, 99.0);
  }
  return report;
}

}  // namespace amdmb::serve
