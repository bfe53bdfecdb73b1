// The one accept/session loop of the serve layer. serve::Server and
// serve::Supervisor each supply only a per-op dispatch callback.
//
// The listener binds the Unix-domain socket, accepts, and runs one
// thread per session that reads NDJSON request lines: empty lines are
// skipped, an unparsable line gets a typed protocol_error, a line past
// kMaxLineBytes gets a protocol_error and a hang-up, and each parsed
// Request goes to the dispatch callback.
//
// Finished sessions are reaped, so resources track the live sessions,
// not every connection ever accepted. A thread cannot join itself: a
// session thread records its id as finished when its read loop ends,
// and the accept thread joins and drops finished sessions at the top of
// every iteration (each accept and each 100 ms poll timeout). A sweep
// still writing to a session keeps it alive through its own shared_ptr.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/session.hpp"

namespace amdmb::serve {

class Listener {
 public:
  /// Handles one parsed request on the session thread it arrived on.
  using Dispatch =
      std::function<void(const std::shared_ptr<Session>&, const Request&)>;

  Listener(std::string socket_path, Dispatch dispatch);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens (MakeListenSocket: a stale socket file is
  /// recovered, a live daemon's path is a ConfigError).
  void Bind();

  /// Starts the accept thread. Call after Bind.
  void Start();

  /// The listening fd plus every live session fd, for a forked child to
  /// close.
  std::vector<int> OpenFds() const;

  /// Stops accepting, closes and unlinks the socket, closes every live
  /// session, and joins every thread. Idempotent; must not run on a
  /// session thread.
  void Close();

 private:
  struct Live {
    std::shared_ptr<Session> session;
    std::thread thread;
  };

  void AcceptLoop();
  void RunSession(const std::shared_ptr<Session>& session);
  /// Joins and drops the sessions whose threads have finished.
  void Reap();

  const std::string socket_path_;
  const Dispatch dispatch_;
  std::atomic<bool> stop_{false};

  /// Guards the members below it except accept_thread_. The accept
  /// thread reads listen_fd_ unlocked: Bind writes it before Start, and
  /// Close writes it only after joining that thread.
  mutable std::mutex mutex_;
  int listen_fd_ = -1;
  std::uint64_t next_id_ = 0;
  std::map<std::uint64_t, Live> live_;
  std::vector<std::uint64_t> finished_;

  std::thread accept_thread_;
};

}  // namespace amdmb::serve
