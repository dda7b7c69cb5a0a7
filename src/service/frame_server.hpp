// The client-facing connection layer shared by the daemon and the router.
//
// FrameServer owns everything between a listening TCP socket and a
// decoded Request: accept with socket hygiene (TCP_NODELAY, keepalive
// probes and a receive-timeout idle deadline), the connection cap and
// its typed CONNECTION_LIMIT refusal, one handler thread per connection,
// the frame read loop, and the write-locked respond/reject every answer
// goes through. The tier supplies a handler that is called on the connection
// thread with each decoded Request; verbs, admission and queueing stay in
// the tier.
//
// Malformed frames follow one rule: an oversized length prefix or an
// undecodable payload is answered BAD_REQUEST with request id 0, counted
// once in the tier's bad_requests counter, and the connection is closed.
//
// Shutdown is two steps because the tiers drain differently in between:
// stop_accepting() closes the listener, the tier answers what it admitted,
// then close_connections() unblocks every reader and reaps the sockets.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "service/fault.hpp"
#include "service/protocol.hpp"

namespace flsa {
namespace service {

/// Connects a TCP socket to host:port with TCP_NODELAY set and returns
/// its fd. Throws TransportError on any failure, an unparseable address
/// included.
int dial_tcp(const std::string& host, std::uint16_t port);

class FrameServer {
 public:
  /// One accepted peer. `open` is flipped under `write_mutex` before the
  /// socket is shut down, and the fd is closed only after the handler
  /// thread joined, so no writer can ever touch a recycled descriptor.
  class Connection {
   public:
    /// Requests admitted from this peer and not yet answered. The tier
    /// counts them; an idle-deadline expiry only hangs up when this is
    /// zero — a client quietly waiting out a long job is patient, not
    /// idle.
    std::atomic<std::size_t> in_flight{0};

   private:
    friend class FrameServer;
    int fd = -1;
    std::mutex write_mutex;
    bool open = true;                   ///< guarded by write_mutex
    std::atomic<bool> finished{false};  ///< handler thread has exited
    std::thread handler;
  };
  using ConnectionPtr = std::shared_ptr<Connection>;
  using Handler = std::function<void(const ConnectionPtr&, Request)>;

  /// Copied from the tier's own config fields of the same names.
  struct Limits {
    std::string host;
    std::uint16_t port = 0;  ///< 0 binds an ephemeral port
    int backlog = 128;
    std::uint32_t idle_timeout_ms = 0;  ///< 0 disables the deadline
    std::size_t max_connections = 0;    ///< 0 means unlimited
    std::size_t max_frame_bytes = kMaxFrameBytes;
  };

  /// The tier's own registry instruments, so metric names stay per tier.
  struct Counters {
    obs::Counter& connections;
    obs::Counter& rejected_connection_limit;
    obs::Counter& bad_requests;
    obs::Counter& write_errors;
  };

  /// `injector` (may be null) drives the read and write fault sites; it
  /// must outlive the server.
  FrameServer(Limits limits, Counters counters, Handler handler,
              FaultInjector* injector = nullptr);
  ~FrameServer();  ///< stop_accepting() + close_connections()

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds and listens. Throws std::runtime_error on socket failures.
  void listen();
  /// The bound port (resolves Limits::port == 0); valid after listen().
  std::uint16_t port() const { return port_; }
  /// Spawns the acceptor. Requires listen().
  void start_accepting();
  /// Joins the acceptor and closes the listener. Idempotent.
  void stop_accepting();
  /// Shuts every connection down, joins its handler thread and closes
  /// its socket; respond() on any of them returns false afterwards.
  void close_connections();

  /// Serialized, connection-locked frame write; false when the peer is
  /// gone (the answer is then dropped, not an error).
  bool respond(const ConnectionPtr& connection, const std::string& payload);
  /// Writes an ErrorResponse; a failed write counts in write_errors.
  void reject(const ConnectionPtr& connection, std::uint64_t request_id,
              ErrorCode code, const std::string& message);

 private:
  void accept_loop();
  void read_loop(const ConnectionPtr& connection);
  /// Hangs up on a peer from its own handler thread.
  void kill_connection(const ConnectionPtr& connection);
  /// Live (unreaped, unfinished) connection count for the accept cap.
  std::size_t live_connections();
  /// Joins finished handler threads and closes their sockets; `all`
  /// reaps every connection (close_connections()).
  void reap_connections(bool all);

  Limits limits_;
  Counters counters_;
  Handler handler_;
  FaultInjector* injector_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> accepting_{false};
  std::thread acceptor_;

  std::mutex connections_mutex_;
  std::vector<ConnectionPtr> connections_;
};

}  // namespace service
}  // namespace flsa
