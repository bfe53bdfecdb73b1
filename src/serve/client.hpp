// Client side of the amdmb_serve protocol: connect, submit a figure and
// stream its events, fetch stats, request a drain — plus a deterministic
// closed-loop load generator for throughput / tail-latency measurement
// (the amdmb_client `bench` verb).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/session.hpp"

namespace amdmb::serve {

class Client {
 public:
  /// Connects to a daemon. Throws ConfigError when nothing listens.
  /// `retries` > 0 re-attempts the connect that many times with capped
  /// exponential backoff (50 ms doubling, 1 s ceiling) — for racing a
  /// daemon that is still binding its socket. Default is fail-fast.
  static Client Connect(const std::string& socket_path,
                        unsigned retries = 0);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Called for every streamed event of a submit (accepted, progress,
  /// point, profile) before the terminal event is returned.
  using EventCallback = std::function<void(const Event&)>;

  /// Submits one figure and blocks until its terminal event — done,
  /// rejected, or error — which is returned. Throws ConfigError if the
  /// daemon hangs up mid-stream.
  Event Submit(const std::string& figure, bool quick, int priority,
               const EventCallback& on_event = {});

  /// Adaptive-aware overload: `adaptive` puts "adaptive":true on the
  /// request, so the daemon refines (coarse pass + bisection) instead
  /// of sweeping densely and streams `refine` wave events.
  Event Submit(const std::string& figure, bool quick, bool adaptive,
               int priority, const EventCallback& on_event = {});

  /// Submits raw kernel IL for characterization; same streaming and
  /// terminal-event contract as Submit. An oversized payload is turned
  /// into a local rejected event without ever reaching the daemon (see
  /// OversizedCharacterize).
  Event Characterize(const std::string& il, bool quick, int priority,
                     const EventCallback& on_event = {});

  /// Adaptive-aware overload of Characterize (see the Submit overload).
  Event Characterize(const std::string& il, bool quick, bool adaptive,
                     int priority, const EventCallback& on_event = {});

  /// One stats round-trip.
  ServeStats Stats();

  /// Asks the daemon to drain; blocks until every admitted sweep is
  /// done. Returns the daemon's completed-request count; a count that is
  /// not a whole number in range is a ConfigError naming `completed`.
  std::uint64_t Drain();

  /// Chaos: asks a fleet supervisor to SIGKILL worker `index`; blocks
  /// until the "killed" acknowledgement. Throws ConfigError when the
  /// daemon is not a supervisor or the index is out of range.
  void KillWorker(unsigned index);

 private:
  explicit Client(int fd) : session_(std::make_unique<Session>(fd)) {}

  Event NextEvent();

  std::unique_ptr<Session> session_;
};

/// Client-side payload guard: a characterize request whose serialized
/// line would exceed the daemon's request-line bound (kMaxLineBytes)
/// can never be admitted — the daemon would drop the connection with a
/// protocol error after buffering megabytes. This returns the typed
/// terminal event ("rejected", code "payload_too_large") such a payload
/// deserves, or nullopt when the payload fits. Callers check it BEFORE
/// connecting.
std::optional<Event> OversizedCharacterize(const std::string& il,
                                           bool quick, int priority);

/// Deterministic load-generator configuration: the request sequence
/// (figure choice and priority per request) is a pure function of
/// `seed`, so two runs against equally-configured daemons issue the
/// identical stream.
struct LoadGenOptions {
  std::string socket_path;
  std::size_t requests = 8;
  unsigned concurrency = 1;
  std::uint64_t seed = 1;
  bool quick = true;
  /// Figures the generator draws from (round-robin-free, seeded picks).
  std::vector<std::string> figures = {"fig_7", "fig_11", "fig_13"};
  /// Connect retries for each generator connection (see Client::Connect).
  unsigned connect_retries = 0;
  /// Chaos mode (amdmb_client --kill-worker): SIGKILL this many workers
  /// during the run. Kill points (request index) and targets (worker
  /// slot) are drawn from the same seed as the request plan, so a chaos
  /// run is replayable. Requires a fleet daemon (stats report workers).
  unsigned kill_workers = 0;
};

struct LoadGenReport {
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t failed = 0;
  std::size_t worker_lost = 0;        ///< error kind=worker_lost.
  std::size_t deadline_exceeded = 0;  ///< error kind=deadline_exceeded.
  std::size_t kills = 0;              ///< Chaos kill_worker ops issued.
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;  ///< Completed requests per second.
  double p50_seconds = 0.0;     ///< Completed-request latency tails.
  double p90_seconds = 0.0;
  double p99_seconds = 0.0;
  /// Completed / (requests - rejected): the fraction of admitted
  /// requests that survived the chaos to a done event.
  double availability = 0.0;

  /// Human-readable summary block.
  std::string Render() const;
};

/// Runs the closed-loop generator: `concurrency` workers, each with its
/// own connection, pull from the seeded request list and submit until it
/// is exhausted. Throws ConfigError when the daemon is unreachable.
LoadGenReport RunLoadGenerator(const LoadGenOptions& options);

}  // namespace amdmb::serve
