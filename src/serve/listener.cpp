#include "serve/listener.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <exception>
#include <utility>

#include "serve/net.hpp"

namespace amdmb::serve {

Listener::Listener(std::string socket_path, Dispatch dispatch)
    : socket_path_(std::move(socket_path)), dispatch_(std::move(dispatch)) {}

Listener::~Listener() { Close(); }

void Listener::Bind() { listen_fd_ = MakeListenSocket(socket_path_); }

void Listener::Start() {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void Listener::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    Reap();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // Timeout or EINTR: re-check stop flag.
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto session = std::make_shared<Session>(fd);
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = next_id_++;
    // The thread cannot record itself finished before this emplace
    // completes: both happen under mutex_.
    live_.emplace(id, Live{session, std::thread([this, id, session] {
                             RunSession(session);
                             std::lock_guard<std::mutex> done(mutex_);
                             finished_.push_back(id);
                           })});
  }
}

void Listener::RunSession(const std::shared_ptr<Session>& session) {
  while (std::optional<std::string> line = session->ReadLine()) {
    if (line->empty()) continue;
    Request request;
    try {
      request = ParseRequest(*line);
    } catch (const std::exception& e) {
      session->WriteLine(
          SerializeError(0, ErrorKind::kProtocolError, e.what()));
      continue;
    }
    dispatch_(session, request);
  }
  if (session->Overflowed()) {
    // An unterminated or oversized line: answer with a typed error and
    // drop the connection instead of buffering without limit.
    session->WriteLine(SerializeError(
        0, ErrorKind::kProtocolError,
        "request line exceeds " + std::to_string(kMaxLineBytes) +
            " bytes; closing session"));
    session->Close();
  }
}

void Listener::Reap() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::uint64_t id : finished_) {
      const auto it = live_.find(id);
      threads.push_back(std::move(it->second.thread));
      live_.erase(it);
    }
    finished_.clear();
  }
  for (std::thread& thread : threads) thread.join();
}

std::vector<int> Listener::OpenFds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> fds;
  if (listen_fd_ >= 0) fds.push_back(listen_fd_);
  for (const auto& [id, live] : live_) fds.push_back(live.session->fd());
  return fds;
}

void Listener::Close() {
  stop_.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::map<std::uint64_t, Live> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      ::unlink(socket_path_.c_str());
      listen_fd_ = -1;
    }
    live.swap(live_);
  }
  for (auto& [id, entry] : live) entry.session->Close();  // Unblocks reads.
  for (auto& [id, entry] : live) entry.thread.join();
}

}  // namespace amdmb::serve
