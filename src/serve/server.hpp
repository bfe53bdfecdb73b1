// The benchmark-as-a-service daemon core.
//
// Listens on a Unix-domain stream socket, speaks the NDJSON protocol of
// serve/protocol.hpp, and executes admitted sweep requests through the
// suite figure registry on the bounded scheduler. All requests share
// the process-wide exec::KernelCache, so a repeated figure skips every
// compilation its first run paid for — that is the daemon's reason to
// exist over forking a bench binary per request.
//
// Lifecycle: Start() binds and starts the accept loop (serve::Listener,
// which also owns the sessions); Drain() (the SIGTERM contract, also
// reachable via the client's "drain" op) stops admission, finishes
// every already-admitted sweep, then closes sessions and joins all
// threads. Overload never hangs a client: admission beyond queue +
// in-flight capacity answers "rejected"/"overloaded" immediately.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/listener.hpp"
#include "serve/protocol.hpp"
#include "serve/result_store.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "suite/figures.hpp"

namespace amdmb::serve {

struct ServerConfig {
  std::string socket_path;
  std::size_t max_queue = 16;    ///< AMDMB_SERVE_QUEUE.
  unsigned max_inflight = 1;     ///< AMDMB_SERVE_INFLIGHT.
  /// Figure definitions served; null = suite::figures::Registry().
  /// Tests inject a tiny registry with controllable curves here.
  const std::vector<suite::figures::FigureDef>* registry = nullptr;
  /// Fleet identity: >= 0 when this server is a supervised worker
  /// process. Worker mode answers heartbeat pings with this index and
  /// consults the fault injector's worker_crash / worker_hang sites on
  /// each ping, so seeded kill/hang scenarios are reproducible.
  int worker_index = -1;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket, listens, and starts the accept loop. A stale
  /// socket file left by a crashed daemon is detected (connect probe
  /// refused) and unlinked; a path owned by a *live* daemon is a typed
  /// ConfigError, never a silent takeover. Throws ConfigError on other
  /// socket errors too.
  void Start();

  /// Stops admission and blocks until every admitted sweep has
  /// finished. Safe from session threads (the "drain" op) and signal
  /// polling loops alike; concurrent callers all block until done.
  void BeginDrain();

  /// True once BeginDrain has been entered (the daemon main polls this
  /// alongside its signal flag).
  bool DrainRequested() const;

  /// BeginDrain + full shutdown: close the listener and every session,
  /// join all threads. Main-thread only (joins session threads).
  void Drain();

  ServeStats Stats() const;
  const std::string& SocketPath() const { return config_.socket_path; }

 private:
  /// Builds one document from the request id (for events sent before
  /// the sweep), adaptive settings (null = dense) and a curve callback.
  using BuildFn = std::function<report::Figure(
      std::uint64_t id, const adapt::Settings* adaptive,
      const suite::figures::CurveCallback& on_curve)>;

  void Dispatch(const std::shared_ptr<Session>& session,
                const Request& request);
  void HandleSubmit(const std::shared_ptr<Session>& session,
                    const Request& request);
  void HandleCharacterize(const std::shared_ptr<Session>& session,
                          const Request& request);
  void HandlePing(const std::shared_ptr<Session>& session,
                  const Request& request);
  /// Queues `build` under `slug` and answers accepted or rejected;
  /// `curves` names its curves in build order (refine attribution).
  void Admit(const std::shared_ptr<Session>& session, const Request& request,
             const std::string& slug, std::vector<std::string> curves,
             BuildFn build);
  /// Runs one admitted build, streaming its events, and returns its
  /// terminal event: done, or a sweep_failed error.
  std::string Run(const std::shared_ptr<Session>& session, std::uint64_t id,
                  const std::string& slug,
                  const std::vector<std::string>& curves, bool adaptive,
                  const BuildFn& build);

  ServerConfig config_;
  Scheduler scheduler_;
  ResultStore store_;

  std::atomic<bool> drain_requested_{false};
  std::once_flag drain_once_;

  Listener listener_;  ///< Last: its session threads use the members above.
};

}  // namespace amdmb::serve
