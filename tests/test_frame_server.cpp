// The shared connection layer. The first half drives service::FrameServer
// directly with a fake handler: the connection cap, the idle deadline and
// its in-flight exemption, the malformed-frame rule, a throwing handler,
// and shutdown. The second half checks over raw sockets that the daemon
// and the router, which both run on that layer, answer every verb, and
// answer and count malformed frames and refused connections the same way,
// each under its own metric names.
// These run under TSan in CI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "router/router.hpp"
#include "service/client.hpp"
#include "service/frame_server.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace flsa {
namespace service {
namespace {

std::uint64_t counter(const std::string& name) {
  return obs::metrics().counter(name).value();
}

/// A raw loopback connection with a receive guard, so a missing answer
/// fails the test instead of hanging it.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const timeval guard{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &guard, sizeof(guard));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

/// Reads one frame and returns it as an ErrorResponse (fails otherwise).
ErrorResponse read_error(int fd) {
  std::string payload;
  EXPECT_TRUE(read_frame(fd, &payload));
  const Response response = decode_response(payload);
  const auto* error = std::get_if<ErrorResponse>(&response);
  EXPECT_NE(error, nullptr);
  return error != nullptr ? *error : ErrorResponse{};
}

/// True when the peer has closed: the next read sees a clean EOF (not a
/// frame, and not the receive guard expiring on a socket left open).
bool sees_eof(int fd) {
  std::string payload;
  try {
    return !read_frame(fd, &payload);
  } catch (const TransportError&) {
    return false;
  }
}

std::string oversized_header() {
  return frame_bytes(std::string(8192, 'x')).substr(0, 4);
}

// ---- FrameServer with a fake handler ----------------------------------

/// A FrameServer on an ephemeral loopback port whose handler answers
/// every request with an empty StatsResponse echoing its id — or, with
/// `hold`, parks the connection unanswered and counts it in flight.
struct Harness {
  const std::string prefix = "frame_test.";
  std::mutex mutex;
  std::vector<FrameServer::ConnectionPtr> held;  ///< guarded by mutex
  bool hold = false;
  std::unique_ptr<FrameServer> server;

  explicit Harness(FrameServer::Limits limits, bool hold_requests = false)
      : hold(hold_requests) {
    limits.host = "127.0.0.1";
    server = std::make_unique<FrameServer>(
        limits,
        FrameServer::Counters{
            obs::metrics().counter(prefix + "connections"),
            obs::metrics().counter(prefix + "rejected.connection_limit"),
            obs::metrics().counter(prefix + "bad_requests"),
            obs::metrics().counter(prefix + "write_errors")},
        [this](const FrameServer::ConnectionPtr& connection,
               Request request) {
          StatsResponse response;
          response.request_id =
              std::visit([](const auto& r) { return r.request_id; }, request);
          if (hold) {
            connection->in_flight.fetch_add(1);
            std::lock_guard<std::mutex> lock(mutex);
            held.push_back(connection);
            return;
          }
          server->respond(connection, encode(response));
        });
    server->listen();
    server->start_accepting();
  }
  ~Harness() {
    server->stop_accepting();
    server->close_connections();
  }

  std::uint16_t port() const { return server->port(); }
  std::uint64_t metric(const char* name) const {
    return counter(prefix + name);
  }

  /// Waits (bounded) until `n` connections are parked.
  bool wait_held(std::size_t n) {
    for (int i = 0; i < 500; ++i) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (held.size() >= n) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }
};

void send_stats(int fd, std::uint64_t id) {
  StatsRequest request;
  request.request_id = id;
  ASSERT_TRUE(write_frame(fd, encode(request)));
}

TEST(FrameServer, DialTcpConnectsAndRejectsABadAddressAsTransportError) {
  Harness harness({});
  const int fd = dial_tcp("127.0.0.1", harness.port());
  send_stats(fd, 3);
  std::string payload;
  ASSERT_TRUE(read_frame(fd, &payload));
  const Response response = decode_response(payload);
  ASSERT_TRUE(std::holds_alternative<StatsResponse>(response));
  EXPECT_EQ(std::get<StatsResponse>(response).request_id, 3u);
  ::close(fd);
  EXPECT_THROW(dial_tcp("not-an-address", harness.port()), TransportError);
}

TEST(FrameServer, CapAnswersConnectionLimitWithIdZeroThenCloses) {
  FrameServer::Limits limits;
  limits.max_connections = 1;
  Harness harness(limits);
  const std::uint64_t accepted = harness.metric("connections");
  const std::uint64_t refused = harness.metric("rejected.connection_limit");

  // A round trip guarantees the first connection is registered.
  const int first = connect_raw(harness.port());
  send_stats(first, 1);
  std::string payload;
  ASSERT_TRUE(read_frame(first, &payload));

  const int second = connect_raw(harness.port());
  const ErrorResponse error = read_error(second);
  EXPECT_EQ(error.code, ErrorCode::kConnectionLimit);
  EXPECT_EQ(error.request_id, 0u);
  EXPECT_TRUE(sees_eof(second));
  EXPECT_EQ(harness.metric("connections"), accepted + 1);
  EXPECT_EQ(harness.metric("rejected.connection_limit"), refused + 1);
  ::close(second);
  ::close(first);
}

TEST(FrameServer, IdleDeadlineHangsUpOnASilentPeer) {
  FrameServer::Limits limits;
  limits.idle_timeout_ms = 50;
  Harness harness(limits);
  const int fd = connect_raw(harness.port());
  EXPECT_TRUE(sees_eof(fd));  // well before the 5 s guard
  ::close(fd);
}

TEST(FrameServer, IdleDeadlineSparesAPeerWithWorkInFlight) {
  FrameServer::Limits limits;
  limits.idle_timeout_ms = 20;
  Harness harness(limits, /*hold_requests=*/true);
  const int fd = connect_raw(harness.port());
  send_stats(fd, 7);
  ASSERT_TRUE(harness.wait_held(1));

  // Many deadlines expire while the request is parked; the peer is
  // patient, not idle, and must still get its answer.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const FrameServer::ConnectionPtr connection = harness.held.front();
  StatsResponse answer;
  answer.request_id = 7;
  EXPECT_TRUE(harness.server->respond(connection, encode(answer)));
  connection->in_flight.fetch_sub(1);

  std::string payload;
  ASSERT_TRUE(read_frame(fd, &payload));
  const Response response = decode_response(payload);
  ASSERT_TRUE(std::holds_alternative<StatsResponse>(response));
  EXPECT_EQ(std::get<StatsResponse>(response).request_id, 7u);
  // Nothing in flight any more: the next deadline hangs up.
  EXPECT_TRUE(sees_eof(fd));
  ::close(fd);
}

TEST(FrameServer, OversizedHeaderAnswersBadRequestThenCloses) {
  FrameServer::Limits limits;
  limits.max_frame_bytes = 4096;
  Harness harness(limits);
  const std::uint64_t bad = harness.metric("bad_requests");
  const int fd = connect_raw(harness.port());
  ASSERT_TRUE(write_all(fd, oversized_header()));
  const ErrorResponse error = read_error(fd);
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  EXPECT_EQ(error.request_id, 0u);
  EXPECT_TRUE(sees_eof(fd));
  EXPECT_EQ(harness.metric("bad_requests"), bad + 1);
  ::close(fd);
}

TEST(FrameServer, GarbagePayloadAnswersBadRequestThenCloses) {
  Harness harness({});
  const std::uint64_t bad = harness.metric("bad_requests");
  const int fd = connect_raw(harness.port());
  ASSERT_TRUE(write_frame(fd, "this is not a protocol payload"));
  const ErrorResponse error = read_error(fd);
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  EXPECT_EQ(error.request_id, 0u);
  EXPECT_TRUE(sees_eof(fd));
  EXPECT_EQ(harness.metric("bad_requests"), bad + 1);
  ::close(fd);
}

TEST(FrameServer, CloseConnectionsEndsEveryPeerAndRespondFails) {
  Harness harness({}, /*hold_requests=*/true);
  std::vector<int> peers;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    peers.push_back(connect_raw(harness.port()));
    send_stats(peers.back(), id);
  }
  ASSERT_TRUE(harness.wait_held(3));

  harness.server->stop_accepting();
  harness.server->close_connections();
  for (const int fd : peers) {
    EXPECT_TRUE(sees_eof(fd));
    ::close(fd);
  }
  StatsResponse late;
  for (const FrameServer::ConnectionPtr& connection : harness.held) {
    EXPECT_FALSE(harness.server->respond(connection, encode(late)));
  }
}

TEST(FrameServer, HandlerExceptionHangsUpThePeer) {
  // A handler that throws is a dispatch bug; the peer must see EOF, not
  // wait on a socket nobody reads any more.
  const std::string prefix = "frame_test.throwing.";
  FrameServer::Limits limits;
  limits.host = "127.0.0.1";
  FrameServer server(
      limits,
      FrameServer::Counters{
          obs::metrics().counter(prefix + "connections"),
          obs::metrics().counter(prefix + "rejected.connection_limit"),
          obs::metrics().counter(prefix + "bad_requests"),
          obs::metrics().counter(prefix + "write_errors")},
      [](const FrameServer::ConnectionPtr&, Request) {
        throw std::logic_error("handler bug");
      });
  server.listen();
  server.start_accepting();
  const int fd = connect_raw(server.port());
  send_stats(fd, 1);
  EXPECT_TRUE(sees_eof(fd));  // well before the 5 s guard
  ::close(fd);
  server.stop_accepting();
  server.close_connections();
}

// ---- The same rules through the daemon and the router -----------------

enum class Tier { kDaemon, kRouter };

class TierFrames : public ::testing::TestWithParam<Tier> {
 protected:
  void start(std::size_t max_connections, std::size_t max_frame_bytes) {
    ServiceConfig daemon_config;
    daemon_config.workers = 1;
    if (GetParam() == Tier::kDaemon) {
      daemon_config.max_connections = max_connections;
      daemon_config.max_frame_bytes = max_frame_bytes;
    }
    daemon_ = std::make_unique<AlignmentServer>(daemon_config);
    daemon_->start();
    if (GetParam() == Tier::kRouter) {
      router::RouterConfig router_config;
      router_config.backends = {{"127.0.0.1", daemon_->port()}};
      router_config.max_connections = max_connections;
      router_config.max_frame_bytes = max_frame_bytes;
      router_ = std::make_unique<router::Router>(router_config);
      router_->start();
    }
  }

  void TearDown() override {
    if (router_) router_->stop();
    if (daemon_) daemon_->stop();
  }

  std::uint16_t port() const {
    return router_ ? router_->port() : daemon_->port();
  }

  /// Sends `request` under `id` on a fresh connection and expects one
  /// decodable answer echoing that id within the 5 s receive guard.
  void expect_typed_answer(Request request, std::uint64_t id) {
    request_id(request) = id;
    const int fd = connect_raw(port());
    ASSERT_TRUE(write_frame(fd, encode(request)));
    std::string payload;
    try {
      ASSERT_TRUE(read_frame(fd, &payload)) << "verb #" << id << ": EOF";
      const Response response = decode_response(payload);
      EXPECT_EQ(request_id(response), id) << "verb #" << id;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "verb #" << id << ": no answer: " << e.what();
    }
    ::close(fd);
  }

  /// `<tier>.<name>`: the tier's own metric.
  std::uint64_t metric(const std::string& name) const {
    return counter((GetParam() == Tier::kDaemon ? "service." : "router.") +
                   name);
  }

  std::unique_ptr<AlignmentServer> daemon_;
  std::unique_ptr<router::Router> router_;
};

TEST_P(TierFrames, GarbagePayloadIsAnsweredCountedOnceAndClosed) {
  start(/*max_connections=*/16, kMaxFrameBytes);
  const std::uint64_t bad = metric("bad_requests");
  const int fd = connect_raw(port());
  ASSERT_TRUE(write_frame(fd, "this is not a protocol payload"));
  const ErrorResponse error = read_error(fd);
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  EXPECT_EQ(error.request_id, 0u);
  EXPECT_TRUE(sees_eof(fd));
  EXPECT_EQ(metric("bad_requests"), bad + 1);
  ::close(fd);
}

TEST_P(TierFrames, OversizedHeaderIsAnsweredCountedOnceAndClosed) {
  start(/*max_connections=*/16, /*max_frame_bytes=*/4096);
  const std::uint64_t bad = metric("bad_requests");
  const int fd = connect_raw(port());
  ASSERT_TRUE(write_all(fd, oversized_header()));
  const ErrorResponse error = read_error(fd);
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  EXPECT_EQ(error.request_id, 0u);
  EXPECT_TRUE(sees_eof(fd));
  EXPECT_EQ(metric("bad_requests"), bad + 1);
  ::close(fd);
}

TEST_P(TierFrames, ConnectionOverTheCapIsRefusedAndCounted) {
  start(/*max_connections=*/1, kMaxFrameBytes);
  const std::uint64_t accepted = metric("connections");
  const std::uint64_t refused = metric("rejected.connection_limit");

  Client first;
  first.connect("127.0.0.1", port());
  const Response stats = first.call(StatsRequest{});
  ASSERT_TRUE(std::holds_alternative<StatsResponse>(stats));

  const int fd = connect_raw(port());
  const ErrorResponse error = read_error(fd);
  EXPECT_EQ(error.code, ErrorCode::kConnectionLimit);
  EXPECT_EQ(error.request_id, 0u);
  EXPECT_TRUE(sees_eof(fd));
  ::close(fd);
  EXPECT_EQ(metric("connections"), accepted + 1);
  EXPECT_EQ(metric("rejected.connection_limit"), refused + 1);
}

TEST_P(TierFrames, EveryVerbIsAnsweredWithATypedFrame) {
  // A default-constructed instance of every Request alternative: each
  // tier must answer each one, with a result or a typed error.
  start(/*max_connections=*/16, kMaxFrameBytes);
  [this]<std::size_t... I>(std::index_sequence<I...>) {
    (expect_typed_answer(Request(std::in_place_index<I>), I + 1), ...);
  }(std::make_index_sequence<std::variant_size_v<Request>>{});
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, TierFrames, ::testing::Values(Tier::kDaemon, Tier::kRouter),
    [](const ::testing::TestParamInfo<Tier>& param_info) {
      return std::string(param_info.param == Tier::kDaemon ? "Daemon"
                                                           : "Router");
    });

}  // namespace
}  // namespace service
}  // namespace flsa
