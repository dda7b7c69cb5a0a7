#include "service/frame_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace flsa {
namespace service {

int dial_tcp(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw TransportError("invalid server address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw TransportError(std::string("socket failed: ") +
                         std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw TransportError("connect to " + host + ":" + std::to_string(port) +
                         " failed: " + what);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

FrameServer::FrameServer(Limits limits, Counters counters, Handler handler,
                         FaultInjector* injector)
    : limits_(std::move(limits)),
      counters_(counters),
      handler_(std::move(handler)),
      injector_(injector) {}

FrameServer::~FrameServer() {
  stop_accepting();
  close_connections();
}

void FrameServer::listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(limits_.port);
  std::string failure;
  if (::inet_pton(AF_INET, limits_.host.c_str(), &addr.sin_addr) != 1) {
    failure = "invalid listen address: " + limits_.host;
  } else if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0 ||
             ::listen(listen_fd_, limits_.backlog) != 0) {
    failure = "bind/listen on " + limits_.host + ":" +
              std::to_string(limits_.port) + " failed: " +
              std::strerror(errno);
  } else {
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) != 0) {
      failure = std::string("getsockname failed: ") + std::strerror(errno);
    } else {
      port_ = ntohs(bound.sin_port);
    }
  }
  if (!failure.empty()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(failure);
  }
}

void FrameServer::start_accepting() {
  accepting_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
}

void FrameServer::stop_accepting() {
  accepting_.store(false, std::memory_order_release);
  if (listen_fd_ < 0) return;
  // shutdown() unblocks the acceptor's accept(2).
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void FrameServer::close_connections() {
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const ConnectionPtr& connection : connections_) {
      std::lock_guard<std::mutex> write_lock(connection->write_mutex);
      if (connection->open) ::shutdown(connection->fd, SHUT_RDWR);
    }
  }
  reap_connections(/*all=*/true);
}

void FrameServer::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EINVAL/EBADF after stop_accepting()'s shutdown — or a transient
      // error while still accepting; stop only when told to.
      if (!accepting_.load(std::memory_order_acquire)) return;
      if (errno == EMFILE || errno == ENFILE || errno == ECONNABORTED) {
        continue;  // out of fds or a client vanished: keep serving
      }
      return;
    }
    if (!accepting_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }

    // A low-latency, keepalive-probed socket with a per-recv deadline.
    // The deadline is the slow-loris defence: a peer dribbling one byte
    // per minute cannot pin a handler thread forever.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
    if (limits_.idle_timeout_ms != 0) {
      timeval tv{};
      tv.tv_sec = limits_.idle_timeout_ms / 1000;
      tv.tv_usec =
          static_cast<suseconds_t>((limits_.idle_timeout_ms % 1000) * 1000);
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }

    reap_connections(/*all=*/false);
    if (limits_.max_connections != 0 &&
        live_connections() >= limits_.max_connections) {
      // Over the cap: a typed answer, then close. Never a silent drop —
      // the peer learns *why* and can back off (the code is retryable).
      counters_.rejected_connection_limit.add();
      ErrorResponse refusal;
      refusal.code = ErrorCode::kConnectionLimit;
      refusal.message = "connection limit of " +
                        std::to_string(limits_.max_connections) + " reached";
      try {
        write_frame(fd, encode(refusal));
      } catch (const std::exception&) {
        // Best effort; the close below is the real answer.
      }
      ::close(fd);
      continue;
    }

    counters_.connections.add();
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(connection);
    }
    try {
      connection->handler =
          std::thread([this, connection] { read_loop(connection); });
    } catch (const std::system_error&) {
      // Out of threads: hang up now; the next accept reaps the socket.
      kill_connection(connection);
      connection->finished.store(true, std::memory_order_release);
    }
  }
}

void FrameServer::read_loop(const ConnectionPtr& connection) {
  std::string payload;
  while (true) {
    // Read-site faults: a stalled reader sleeps inside inject_read(); a
    // drop kills this connection the way a flaky network would.
    if (injector_ != nullptr && injector_->active() &&
        injector_->inject_read() == ReadFault::kDrop) {
      kill_connection(connection);
      break;
    }
    try {
      if (!read_frame(connection->fd, &payload, limits_.max_frame_bytes)) {
        break;  // clean EOF
      }
      handler_(connection, decode_request(payload));
    } catch (const ReadTimeout&) {
      // Idle deadline at a frame boundary. A peer with admitted requests
      // still in flight is waiting, not idling — re-arm and read again.
      if (connection->in_flight.load(std::memory_order_acquire) > 0) {
        continue;
      }
      kill_connection(connection);  // truly idle: hang up (peer sees EOF)
      break;
    } catch (const TransportError&) {
      // Peer reset, fd shut down during drain, or a mid-frame stall past
      // the read deadline (slow-loris defence): nobody sane is left.
      kill_connection(connection);
      break;
    } catch (const ProtocolError& e) {
      // An oversized length prefix leaves its payload unread and a
      // garbage payload makes the framing suspect: either way the rest
      // of the stream is unusable. Answer, count, hang up.
      counters_.bad_requests.add();
      reject(connection, 0, ErrorCode::kBadRequest, e.what());
      kill_connection(connection);
      break;
    } catch (...) {
      // Another socket error, or the handler failed: hang up, so the peer
      // sees EOF instead of waiting on a socket nobody reads.
      kill_connection(connection);
      break;
    }
  }
  connection->finished.store(true, std::memory_order_release);
}

void FrameServer::kill_connection(const ConnectionPtr& connection) {
  // shutdown() only — the fd itself is closed exactly once, by
  // reap_connections after the handler thread joined.
  std::lock_guard<std::mutex> lock(connection->write_mutex);
  if (connection->open) {
    connection->open = false;
    ::shutdown(connection->fd, SHUT_RDWR);
  }
}

std::size_t FrameServer::live_connections() {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  std::size_t live = 0;
  for (const ConnectionPtr& connection : connections_) {
    if (!connection->finished.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

void FrameServer::reap_connections(bool all) {
  std::vector<ConnectionPtr> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if (all || (*it)->finished.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const ConnectionPtr& connection : finished) {
    if (connection->handler.joinable()) connection->handler.join();
    std::lock_guard<std::mutex> lock(connection->write_mutex);
    connection->open = false;
    if (connection->fd >= 0) {
      ::close(connection->fd);
      connection->fd = -1;
    }
  }
}

bool FrameServer::respond(const ConnectionPtr& connection,
                          const std::string& payload) {
  // Write-site faults are decided (and delay faults slept) before taking
  // the write mutex, so a stalled injector never serializes every other
  // responder on this connection.
  WriteFault fault = WriteFault::kNone;
  if (injector_ != nullptr && injector_->active()) {
    fault = injector_->inject_write();
  }

  std::lock_guard<std::mutex> lock(connection->write_mutex);
  if (!connection->open) return false;
  try {
    switch (fault) {
      case WriteFault::kDrop:
        // The network ate the whole answer: kill the connection.
        connection->open = false;
        ::shutdown(connection->fd, SHUT_RDWR);
        return false;
      case WriteFault::kTruncate: {
        // Server-died-mid-write: send a strict prefix of the frame, then
        // kill. The peer must surface a typed TransportError, never a
        // hang (framing promised more bytes) or a garbage score.
        const std::string wire = frame_bytes(payload);
        const std::size_t cut = injector_->truncate_point(wire.size());
        (void)write_all(connection->fd,
                        std::string_view(wire).substr(0, cut));
        connection->open = false;
        ::shutdown(connection->fd, SHUT_RDWR);
        return false;
      }
      case WriteFault::kCorrupt: {
        // Damaged-but-framed bytes: always a typed decode error on the
        // peer (see FaultInjector::corrupt), never a wrong-score answer.
        std::string damaged = payload;
        FaultInjector::corrupt(damaged);
        return write_frame(connection->fd, damaged);
      }
      case WriteFault::kNone:
        break;
    }
    return write_frame(connection->fd, payload);
  } catch (const std::exception&) {
    return false;  // peer is gone; dropping the answer is the contract
  }
}

void FrameServer::reject(const ConnectionPtr& connection,
                         std::uint64_t request_id, ErrorCode code,
                         const std::string& message) {
  ErrorResponse response;
  response.request_id = request_id;
  response.code = code;
  response.message = message;
  if (!respond(connection, encode(response))) counters_.write_errors.add();
}

}  // namespace service
}  // namespace flsa
