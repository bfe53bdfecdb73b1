// The fleet front-end: a supervisor process that owns N forked worker
// processes and proxies the NDJSON protocol between clients and
// workers.
//
// Division of labor:
//   * Workers (serve/worker.hpp) run the sweeps. Each is a full
//     serve::Server in its own process with a private kernel cache, so
//     one crashing or hanging worker cannot take down the fleet.
//   * The supervisor never executes a sweep. It routes each submit to a
//     worker via consistent hashing on the normalized figure slug
//     (serve/routing.hpp) so repeated figures keep hitting the same hot
//     cache, streams the worker's event lines back to the client
//     verbatim, and supervises worker health (serve/health.hpp).
//
// Fault tolerance contract (asserted by tests/test_serve.cpp):
//   * Heartbeats: every heartbeat_ms the supervisor pings each worker
//     over a persistent control connection; the typed state machine
//     (starting / healthy / degraded / dead) decides liveness. A dead
//     worker is SIGKILLed, reaped, and respawned after a capped,
//     jitter-free exponential backoff — so a seeded kill schedule
//     replays the identical recovery timeline.
//   * Deadlines: deadline_ms > 0 bounds every submit; expiry synthesizes
//     a terminal error event with kind "deadline_exceeded".
//   * Failover: when the connection to the executing worker drops, a
//     request that has streamed zero sweep events (progress / point /
//     profile) is re-routed to the next eligible worker on the ring; a
//     request that already streamed gets a terminal "worker_lost" error
//     (re-running it could double-report measurements).
//   * Exactly-once: every submitted request ends in exactly one
//     terminal event — done, rejected, or error(kind). Execution is
//     at-least-once before a request first streams, at-most-once after.
//   * Backpressure: a submit is admitted only if some live worker has
//     spare capacity (queue + inflight, tracked per worker at the
//     supervisor). The verdict is deterministic in the fleet state:
//     "overloaded" (live workers, all full), "draining", or
//     "unavailable" (no live worker).
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/health.hpp"
#include "serve/listener.hpp"
#include "serve/protocol.hpp"
#include "serve/result_store.hpp"
#include "serve/routing.hpp"
#include "serve/session.hpp"
#include "suite/figures.hpp"

namespace amdmb::serve {

struct SupervisorConfig {
  std::string socket_path;       ///< Client-facing; workers bind .w<i>.
  unsigned workers = 2;          ///< AMDMB_WORKERS (>= 1 for fleet mode).
  std::size_t worker_queue = 16; ///< Per-worker AMDMB_SERVE_QUEUE.
  unsigned worker_inflight = 1;  ///< Per-worker AMDMB_SERVE_INFLIGHT.
  std::uint64_t deadline_ms = 0; ///< AMDMB_DEADLINE_MS; 0 = unlimited.
  HealthPolicy health;           ///< Heartbeat / miss / backoff knobs.
  /// Null = suite registry. Forked workers inherit this exact pointer,
  /// which is why tests can inject figure registries into the fleet.
  const std::vector<suite::figures::FigureDef>* registry = nullptr;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig config);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawns the worker fleet, binds the client socket, and starts the
  /// accept and health loops. Throws ConfigError on socket errors (same
  /// stale-socket contract as Server::Start).
  void Start();

  /// Stops admission ("draining" rejections), halts the health loop (no
  /// restarts mid-drain), drains every live worker (blocking until
  /// their admitted sweeps finish) and reaps all children. Safe from
  /// session threads and signal polling loops; concurrent callers block
  /// until the one drain finishes.
  void BeginDrain();

  bool DrainRequested() const;

  /// BeginDrain + full shutdown: close the listener and every client
  /// session, join all threads. Main-thread only.
  void Drain();

  /// Cluster-level stats: supervisor-side terminal counters and
  /// latencies, summed worker cache counters from the last heartbeat,
  /// and one WorkerStatus per slot.
  ServeStats Stats() const;

  const std::string& SocketPath() const { return config_.socket_path; }

 private:
  /// One supervised worker slot. Health-state fields are guarded by
  /// slots_mutex_; `control` and `ping_seq` are health-thread-only.
  struct Slot {
    unsigned index = 0;
    std::string socket_path;
    pid_t pid = -1;
    HealthTracker health;
    std::uint64_t generation = 0;   ///< Bumped on every spawn.
    std::uint64_t ping_seq = 0;     ///< Monotonic; never reset on respawn.
    std::uint64_t outstanding = 0;  ///< Routed, not yet terminal.
    std::chrono::steady_clock::time_point restart_due{};
    PongStats last_pong;
    std::shared_ptr<Session> control;  ///< Persistent heartbeat channel.

    explicit Slot(const HealthPolicy& policy) : health(policy) {}
  };

  void HealthLoop();
  void Dispatch(const std::shared_ptr<Session>& session,
                const Request& request);
  void HandleSubmit(const std::shared_ptr<Session>& session,
                    const Request& request);
  void HandleCharacterize(const std::shared_ptr<Session>& session,
                          const Request& request);
  /// Shared forwarding engine of submit and characterize: routes the
  /// raw request line to a worker by `key` on the hash ring, streams
  /// the worker's event lines back verbatim, and enforces the deadline
  /// / failover / exactly-once contract documented above. `stat_label`
  /// names the request in the result store and synthesized rejections.
  void ForwardRequest(const std::shared_ptr<Session>& session,
                      const std::string& raw, const std::string& key,
                      const std::string& stat_label);
  void HandleKillWorker(const std::shared_ptr<Session>& session,
                        const Request& request);

  /// Health-loop helpers (health thread only).
  void TickSlot(Slot& slot);
  void RecordMiss(Slot& slot);
  void MarkDead(Slot& slot, bool kill_process);
  void Respawn(Slot& slot);

  /// Every parent-side fd a forked child must close: the listener, all
  /// client sessions, all control connections.
  std::vector<int> FdsToCloseInChild();

  /// Picks the routed worker for `key` among live, non-full, untried
  /// slots and bumps its outstanding count. Returns the slot index, or
  /// a rejection reason in `reason` when nothing is eligible.
  std::optional<unsigned> AdmitAndRoute(const std::string& key,
                                        const std::vector<bool>& tried,
                                        std::string* reason);

  SupervisorConfig config_;
  HashRing ring_;
  ResultStore store_;  ///< Supervisor-side terminal counters/latencies.

  std::thread health_thread_;
  std::atomic<bool> stop_health_{false};
  std::atomic<bool> drain_requested_{false};
  std::once_flag drain_once_;

  mutable std::mutex slots_mutex_;
  std::vector<std::unique_ptr<Slot>> slots_;

  Listener listener_;  ///< Last: its session threads use the members above.
};

}  // namespace amdmb::serve
