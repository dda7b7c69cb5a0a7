// Loopback integration tests for the alignment daemon: concurrent clients
// must get answers bit-identical to calling align() directly, admission
// control must answer (never hang or drop), and a drain must finish every
// admitted job. These run under TSan in CI — the threading model
// (acceptor / connection handlers / worker pool) is the subject under
// test as much as the responses are.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/aligner.hpp"
#include "dp/banded.hpp"
#include "scoring/builtin.hpp"
#include "scoring/scheme.hpp"
#include "search/chain.hpp"
#include "search/reference_index.hpp"
#include "sequence/generate.hpp"
#include "service/bounded_queue.hpp"
#include "service/client.hpp"
#include "service/fault.hpp"
#include "service/server.hpp"
#include "support/fnv.hpp"

namespace flsa {
namespace service {
namespace {

AlignRequest protein_request(const std::string& a, const std::string& b) {
  AlignRequest request;
  request.matrix = WireMatrix::kMdm78;
  request.gap_extend = -10;
  request.a = a;
  request.b = b;
  return request;
}

Alignment direct_align(const std::string& a, const std::string& b) {
  AlignOptions options;
  options.strategy = Strategy::kFastLsa;
  return align(Sequence(Alphabet::protein(), a),
               Sequence(Alphabet::protein(), b),
               ScoringScheme(scoring::mdm78(), -10), options);
}

// ---- BoundedQueue unit tests ----------------------------------------

TEST(BoundedQueue, AcceptsUpToCapacityThenReportsFull) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.try_push(1), BoundedQueue<int>::Push::kAccepted);
  EXPECT_EQ(queue.try_push(2), BoundedQueue<int>::Push::kAccepted);
  EXPECT_EQ(queue.try_push(3), BoundedQueue<int>::Push::kFull);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop(), 1);  // FIFO
  EXPECT_EQ(queue.try_push(3), BoundedQueue<int>::Push::kAccepted);
}

TEST(BoundedQueue, CloseDrainsRemainingItemsThenSignalsClosed) {
  BoundedQueue<int> queue(4);
  queue.try_push(1);
  queue.try_push(2);
  queue.close();
  EXPECT_EQ(queue.try_push(3), BoundedQueue<int>::Push::kClosed);
  EXPECT_EQ(queue.pop(), 1);  // admitted items survive the close
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueue, CloseUnblocksWaitingConsumers) {
  BoundedQueue<int> queue(1);
  std::thread consumer([&] { EXPECT_EQ(queue.pop(), std::nullopt); });
  queue.close();
  consumer.join();
}

// ---- End-to-end over loopback ---------------------------------------

TEST(Service, AnswersThePaperWorkedExample) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  // MDM78 with linear gap -10: the paper's worked example scores 82.
  const Response response =
      client.call(protein_request("TLDKLLKD", "TDVLKAD"));
  const auto* ok = std::get_if<AlignResponse>(&response);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->score, 82);
  EXPECT_FALSE(ok->cigar.empty());
  // cells is the same (m+1)(n+1) DPM-entry count the admission budget
  // (max_request_cells) is expressed in.
  EXPECT_EQ(ok->cells, 9u * 8u);
  EXPECT_EQ(ok->deadline_remaining_ms, -1);  // no deadline requested
  EXPECT_EQ(ok->cigar, direct_align("TLDKLLKD", "TDVLKAD").cigar());
  server.stop();
}

TEST(Service, ScoreOnlySkipsTheCigar) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  AlignRequest request = protein_request("TLDKLLKD", "TDVLKAD");
  request.score_only = true;
  const Response response = client.call(std::move(request));
  const auto* ok = std::get_if<AlignResponse>(&response);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->score, 82);
  EXPECT_TRUE(ok->cigar.empty());
  server.stop();
}

TEST(Service, ConcurrentClientsMatchDirectAlignment) {
  AlignmentServer server;
  server.start();

  // Every client thread aligns its own random pairs through the daemon
  // and re-derives the expected answer in-process: scores and CIGARs must
  // be bit-identical (the service adds transport, not variation).
  constexpr unsigned kClients = 8;
  constexpr int kRequestsEach = 6;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        Xoshiro256 rng(1000 + t);
        Client client;
        client.connect("127.0.0.1", server.port());
        for (int i = 0; i < kRequestsEach; ++i) {
          MutationModel model;
          const SequencePair pair =
              homologous_pair(Alphabet::protein(), 120, model, rng);
          const std::string a = pair.a.to_string();
          const std::string b = pair.b.to_string();
          const Response response = client.call(protein_request(a, b));
          const auto* ok = std::get_if<AlignResponse>(&response);
          if (ok == nullptr) {
            failures[t] = "no AlignResponse";
            return;
          }
          const Alignment expected = direct_align(a, b);
          if (ok->score != expected.score || ok->cigar != expected.cigar()) {
            failures[t] = "mismatch vs direct align()";
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[t] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (unsigned t = 0; t < kClients; ++t) {
    EXPECT_EQ(failures[t], "") << "client " << t;
  }
  server.stop();
}

TEST(Service, FullQueueAnswersOverloaded) {
  // One worker and a queue of one: a pipelined burst admits at most
  // 1 running + 1 queued at a time; the surplus must come back as typed
  // OVERLOADED rejections, not hangs or dropped frames.
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  AlignmentServer server(config);
  server.start();

  Xoshiro256 rng(7);
  MutationModel model;
  const SequencePair pair =
      homologous_pair(Alphabet::protein(), 1500, model, rng);
  const AlignRequest prototype =
      protein_request(pair.a.to_string(), pair.b.to_string());

  Client client;
  client.connect("127.0.0.1", server.port());
  constexpr std::size_t kBurst = 16;
  for (std::size_t i = 0; i < kBurst; ++i) {
    AlignRequest request = prototype;
    client.send(std::move(request));
  }
  std::size_t accepted = 0, overloaded = 0, other = 0;
  for (std::size_t i = 0; i < kBurst; ++i) {
    const Response response = client.receive();  // every frame is answered
    if (std::holds_alternative<AlignResponse>(response)) {
      ++accepted;
    } else if (const auto* error = std::get_if<ErrorResponse>(&response);
               error != nullptr &&
               error->code == ErrorCode::kOverloaded) {
      ++overloaded;
    } else {
      ++other;
    }
  }
  EXPECT_EQ(accepted + overloaded, kBurst);
  EXPECT_EQ(other, 0u);
  EXPECT_GE(accepted, 1u);
  EXPECT_GE(overloaded, 1u);
  server.stop();
}

TEST(Service, OversizedRequestAnswersTooLarge) {
  ServiceConfig config;
  config.max_request_cells = 100;
  AlignmentServer server(config);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const Response response = client.call(
      protein_request(std::string(20, 'A'), std::string(20, 'A')));
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kTooLarge);  // (20+1)^2 = 441 > 100
  server.stop();
}

TEST(Service, StaleQueuedJobAnswersDeadlineExceeded) {
  // The single worker is busy with a multi-millisecond job while the
  // second request (deadline 1 ms) waits in the queue; by the time the
  // worker dequeues it the deadline has passed.
  ServiceConfig config;
  config.workers = 1;
  AlignmentServer server(config);
  server.start();

  Xoshiro256 rng(11);
  MutationModel model;
  // 16M cells: several milliseconds even in a Release build, so the 1 ms
  // deadline below is comfortably blown while this occupies the worker.
  const SequencePair big =
      homologous_pair(Alphabet::protein(), 4000, model, rng);

  Client client;
  client.connect("127.0.0.1", server.port());
  client.send(protein_request(big.a.to_string(), big.b.to_string()));
  AlignRequest stale = protein_request("TLDKLLKD", "TDVLKAD");
  stale.deadline_ms = 1;
  client.send(std::move(stale));

  bool saw_big = false, saw_deadline = false;
  for (int i = 0; i < 2; ++i) {
    const Response response = client.receive();
    if (std::holds_alternative<AlignResponse>(response)) {
      saw_big = true;
    } else if (const auto* error = std::get_if<ErrorResponse>(&response);
               error != nullptr &&
               error->code == ErrorCode::kDeadlineExceeded) {
      saw_deadline = true;
    }
  }
  EXPECT_TRUE(saw_big);
  EXPECT_TRUE(saw_deadline);
  server.stop();
}

TEST(Service, BadResiduesAnswerBadRequest) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const Response response = client.call(protein_request("AC1GT", "ACGT"));
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);
  server.stop();
}

TEST(Service, PositiveGapPenaltyAnswersBadRequest) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  AlignRequest request = protein_request("TLDKLLKD", "TDVLKAD");
  request.gap_extend = 5;
  const Response response = client.call(std::move(request));
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);
  server.stop();
}

TEST(Service, GarbageFrameAnswersBadRequestOverRawSocket) {
  AlignmentServer server;
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  ASSERT_TRUE(write_frame(fd, "this is not a protocol payload"));
  std::string payload;
  ASSERT_TRUE(read_frame(fd, &payload));
  const Response response = decode_response(payload);
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);
  EXPECT_EQ(error->request_id, 0u);  // unparseable: no id to echo

  ::close(fd);
  server.stop();
}

TEST(Service, OversizedFrameHeaderAnswersBadRequestOverRawSocket) {
  // A length prefix over max_frame_bytes is refused before any payload is
  // read: the peer gets a typed BAD_REQUEST (id 0).
  ServiceConfig config;
  config.max_frame_bytes = 4096;
  AlignmentServer server(config);
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const timeval timeout{5, 0};  // a missing answer fails, not hangs
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);

  const std::string header = frame_bytes(std::string(8192, 'x')).substr(0, 4);
  ASSERT_TRUE(write_all(fd, header));
  std::string payload;
  ASSERT_TRUE(read_frame(fd, &payload));
  const Response response = decode_response(payload);
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);
  EXPECT_EQ(error->request_id, 0u);

  ::close(fd);
  server.stop();
}

TEST(Service, StatsVerbReportsServiceCounters) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  (void)client.call(protein_request("TLDKLLKD", "TDVLKAD"));

  const Response response = client.call(StatsRequest{});
  const auto* stats = std::get_if<StatsResponse>(&response);
  ASSERT_NE(stats, nullptr);
  double requests = -1.0, completed = -1.0;
  for (const auto& [name, value] : stats->entries) {
    if (name == "service.requests") requests = value;
    if (name == "service.completed") completed = value;
  }
  // The registry is process-global, so other tests contribute too; at
  // least this test's one completed request must be visible.
  EXPECT_GE(requests, 1.0);
  EXPECT_GE(completed, 1.0);
  server.stop();
}

TEST(Service, DrainFinishesEveryAdmittedJob) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  AlignmentServer server(config);
  server.start();

  Xoshiro256 rng(23);
  MutationModel model;
  const SequencePair pair =
      homologous_pair(Alphabet::protein(), 1200, model, rng);
  const AlignRequest prototype =
      protein_request(pair.a.to_string(), pair.b.to_string());
  const Alignment expected =
      direct_align(prototype.a, prototype.b);

  Client client;
  client.connect("127.0.0.1", server.port());
  constexpr std::uint64_t kJobs = 3;
  const std::uint64_t before =
      obs::metrics().counter("service.requests").value();
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    AlignRequest request = prototype;
    client.send(std::move(request));
  }
  // Wait for admission (the requests counter ticks in handle_request),
  // then drain while at least one job is still queued behind the single
  // worker.
  while (obs::metrics().counter("service.requests").value() - before <
         kJobs) {
    std::this_thread::yield();
  }
  std::thread stopper([&] { server.stop(); });

  for (std::uint64_t i = 0; i < kJobs; ++i) {
    const Response response = client.receive();
    const auto* ok = std::get_if<AlignResponse>(&response);
    ASSERT_NE(ok, nullptr) << "admitted job " << i
                           << " was not answered during drain";
    EXPECT_EQ(ok->score, expected.score);
  }
  stopper.join();
  EXPECT_FALSE(server.running());

  // After the drain the listener is gone: new connections are refused.
  Client late;
  EXPECT_THROW(late.connect("127.0.0.1", server.port()),
               std::runtime_error);
}

TEST(Service, RequestsAfterDrainStartAnswerShuttingDown) {
  ServiceConfig config;
  config.workers = 1;
  AlignmentServer server(config);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  // Ensure the connection is established server-side before stopping.
  (void)client.call(protein_request("TLDKLLKD", "TDVLKAD"));
  server.stop();
  // The drained server shut the sockets down; the client sees EOF (a
  // runtime_error from receive) rather than a hang. A SHUTTING_DOWN
  // answer is possible if the frame races the shutdown; both are clean.
  AlignRequest request = protein_request("TLDKLLKD", "TDVLKAD");
  try {
    client.send(std::move(request));
    const Response response = client.receive();
    const auto* error = std::get_if<ErrorResponse>(&response);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, ErrorCode::kShuttingDown);
  } catch (const std::exception&) {
    SUCCEED();  // connection already torn down
  }
}

TEST(Service, PipelinedResponsesCarryMatchingRequestIds) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < 8; ++i) {
    sent.push_back(client.send(protein_request("TLDKLLKD", "TDVLKAD")));
  }
  std::vector<std::uint64_t> received;
  for (int i = 0; i < 8; ++i) {
    const Response response = client.receive();
    const auto* ok = std::get_if<AlignResponse>(&response);
    ASSERT_NE(ok, nullptr);
    received.push_back(ok->request_id);
  }
  std::sort(received.begin(), received.end());
  EXPECT_EQ(received, sent);  // ids are assigned sequentially by send()
  server.stop();
}

TEST(Service, PerRequestTuningOverridesAreAccepted) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  AlignRequest request = protein_request("TLDKLLKD", "TDVLKAD");
  request.k = 2;
  request.base_case_cells = 64;
  const Response response = client.call(std::move(request));
  const auto* ok = std::get_if<AlignResponse>(&response);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->score, 82);  // tuning changes the schedule, not the answer
  server.stop();
}

TEST(Service, AdmissionBudgetBoundaryIsInclusive) {
  // The budget and the reported cells use the same definition,
  // (m+1)*(n+1), so a request *exactly at* max_request_cells is admitted
  // and one cell over is rejected.
  ServiceConfig config;
  config.max_request_cells = 21u * 21u;  // 441
  AlignmentServer server(config);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  const Response at_budget = client.call(
      protein_request(std::string(20, 'A'), std::string(20, 'A')));
  const auto* ok = std::get_if<AlignResponse>(&at_budget);
  ASSERT_NE(ok, nullptr) << "a request exactly at the budget was rejected";
  EXPECT_EQ(ok->cells, config.max_request_cells);

  const Response over_budget = client.call(
      protein_request(std::string(21, 'A'), std::string(20, 'A')));
  const auto* error = std::get_if<ErrorResponse>(&over_budget);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kTooLarge);  // 22*21 = 462 > 441
  server.stop();
}

TEST(Service, GenerousDeadlineReportsRemainingSlack) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  AlignRequest request = protein_request("TLDKLLKD", "TDVLKAD");
  request.deadline_ms = 60000;
  const Response response = client.call(std::move(request));
  const auto* ok = std::get_if<AlignResponse>(&response);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->score, 82);
  EXPECT_GE(ok->deadline_remaining_ms, 0);
  EXPECT_LE(ok->deadline_remaining_ms, 60000);
  server.stop();
}

TEST(Service, DeadlineExpiringMidAlignmentDiscardsTheStaleResult) {
  // The queue is empty, so the 1 ms deadline survives the dequeue check;
  // it expires *during* the (multi-millisecond) alignment. Before the
  // completion re-check this came back as a stale success — a late "done"
  // the client had already given up on.
  ServiceConfig config;
  config.workers = 1;
  AlignmentServer server(config);
  server.start();

  Xoshiro256 rng(31);
  MutationModel model;
  const SequencePair big =
      homologous_pair(Alphabet::protein(), 4000, model, rng);

  Client client;
  client.connect("127.0.0.1", server.port());
  AlignRequest request =
      protein_request(big.a.to_string(), big.b.to_string());
  request.deadline_ms = 1;
  const Response response = client.call(std::move(request));
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr) << "expired deadline answered with a success";
  EXPECT_EQ(error->code, ErrorCode::kDeadlineExceeded);
  server.stop();
}

TEST(Service, IdleConnectionIsHungUpAfterTheDeadline) {
  ServiceConfig config;
  config.idle_timeout_ms = 100;
  AlignmentServer server(config);
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval guard{};  // keep the test itself from hanging on a regression
  guard.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &guard, sizeof(guard));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Send nothing: after ~100 ms of silence the server hangs up and this
  // blocking read sees EOF (not a 10 s guard timeout, not a hang).
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  server.stop();
}

TEST(Service, IdleDeadlineSparesAClientWaitingOnASlowJob) {
  // A quiet client with a job in flight is patient, not idle: the
  // per-recv deadline may expire many times while the alignment runs,
  // and the answer must still arrive on the open connection.
  ServiceConfig config;
  config.workers = 1;
  config.idle_timeout_ms = 10;
  AlignmentServer server(config);
  server.start();

  Xoshiro256 rng(37);
  MutationModel model;
  const SequencePair pair =
      homologous_pair(Alphabet::protein(), 2000, model, rng);
  const std::string a = pair.a.to_string();
  const std::string b = pair.b.to_string();

  Client client;
  client.connect("127.0.0.1", server.port());
  const Response response = client.call(protein_request(a, b));
  const auto* ok = std::get_if<AlignResponse>(&response);
  ASSERT_NE(ok, nullptr) << "idle deadline killed a waiting client";
  EXPECT_EQ(ok->score, direct_align(a, b).score);
  server.stop();
}

TEST(Service, ConnectionOverTheCapGetsATypedRefusal) {
  ServiceConfig config;
  config.max_connections = 1;
  AlignmentServer server(config);
  server.start();

  Client first;
  first.connect("127.0.0.1", server.port());
  // Complete a round trip so the first connection is registered.
  (void)first.call(protein_request("TLDKLLKD", "TDVLKAD"));

  // The second connection is answered with CONNECTION_LIMIT, then closed.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval guard{};
  guard.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &guard, sizeof(guard));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string payload;
  ASSERT_TRUE(read_frame(fd, &payload));
  const Response refusal = decode_response(payload);
  const auto* error = std::get_if<ErrorResponse>(&refusal);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kConnectionLimit);
  EXPECT_EQ(error->request_id, 0u);  // connection-scoped, not a request
  EXPECT_TRUE(is_retryable(error->code));
  ::close(fd);

  // The capped-out server still serves its admitted connection.
  const Response still_works =
      first.call(protein_request("TLDKLLKD", "TDVLKAD"));
  const auto* ok = std::get_if<AlignResponse>(&still_works);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->score, 82);
  server.stop();
}

// ---- Single-fault service behaviour ----------------------------------
// Each certain-fire plan isolates one injector path; the chaos soak in
// test_chaos.cpp mixes them probabilistically.

TEST(Service, InjectedAdmissionRejectIsATypedOverloaded) {
  ServiceConfig config;
  config.fault_plan = parse_fault_plan("seed=5,reject=1");
  AlignmentServer server(config);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const Response response =
      client.call(protein_request("TLDKLLKD", "TDVLKAD"));
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kOverloaded);
  EXPECT_TRUE(is_retryable(error->code));
  server.stop();
}

TEST(Service, InjectedDropSurfacesAsATransportError) {
  ServiceConfig config;
  config.fault_plan = parse_fault_plan("seed=5,drop=1");
  AlignmentServer server(config);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  AlignRequest request = protein_request("TLDKLLKD", "TDVLKAD");
  // The connection dies either before the request is read (read-site
  // drop) or before the answer is written (write-site drop): the send or
  // the receive throws a typed TransportError — never a hang.
  EXPECT_THROW(
      {
        client.send(std::move(request));
        (void)client.receive();
      },
      TransportError);
  server.stop();
}

TEST(Service, InjectedTruncationSurfacesAsATransportError) {
  ServiceConfig config;
  config.fault_plan = parse_fault_plan("seed=5,truncate=1");
  AlignmentServer server(config);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  AlignRequest request = protein_request("TLDKLLKD", "TDVLKAD");
  EXPECT_THROW(
      {
        client.send(std::move(request));
        (void)client.receive();
      },
      TransportError);
  server.stop();
}

TEST(Service, InjectedCorruptionSurfacesAsAProtocolErrorNotAScore) {
  ServiceConfig config;
  config.fault_plan = parse_fault_plan("seed=5,corrupt=1");
  AlignmentServer server(config);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  AlignRequest request = protein_request("TLDKLLKD", "TDVLKAD");
  client.send(std::move(request));
  EXPECT_THROW((void)client.receive(), ProtocolError);
  server.stop();
}

TEST(Service, InjectedDelayStillAnswersCorrectly) {
  ServiceConfig config;
  config.fault_plan = parse_fault_plan("seed=5,delay=1:20");
  AlignmentServer server(config);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const Response response =
      client.call(protein_request("TLDKLLKD", "TDVLKAD"));
  const auto* ok = std::get_if<AlignResponse>(&response);
  ASSERT_NE(ok, nullptr);  // delay is latency, never wrongness
  EXPECT_EQ(ok->score, 82);
  server.stop();
}

// ---- Reference-indexed search (REF_PUT / SEARCH) ---------------------

TEST(Service, SearchRoundTripsBitIdenticalToInProcessPipeline) {
  // Build a DNA reference with two mutated copies of a gene, register it
  // over the wire, search for the gene, and compare against the
  // in-process pipeline under the server's defaults (k = 12 for DNA,
  // stock ChainedSearchParams, linear gap kDefaultGapExtend): scores,
  // coordinates, and CIGARs must be bit-identical — the service adds
  // transport, not variation.
  Xoshiro256 rng(901);
  const Sequence gene = random_sequence(Alphabet::dna(), 180, rng);
  MutationModel model;
  model.substitution_rate = 0.04;
  const std::string reference_text =
      random_sequence(Alphabet::dna(), 2500, rng).to_string() +
      mutate(gene, model, rng).to_string() +
      random_sequence(Alphabet::dna(), 1500, rng).to_string() +
      mutate(gene, model, rng).to_string() +
      random_sequence(Alphabet::dna(), 1000, rng).to_string();

  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  RefPutRequest put;
  put.matrix = WireMatrix::kDna;
  put.name = "two-copies";
  put.sequence = reference_text;
  const Response put_response = client.call(std::move(put));
  const auto* registered = std::get_if<RefPutResponse>(&put_response);
  ASSERT_NE(registered, nullptr);
  EXPECT_EQ(registered->residues, reference_text.size());
  EXPECT_GT(registered->distinct_kmers, 0u);
  EXPECT_GE(registered->ref_id, 1u);

  SearchRequest search;
  search.ref_id = registered->ref_id;
  search.matrix = WireMatrix::kDna;
  search.query = gene.to_string();
  const Response response = client.call(std::move(search));
  const auto* ok = std::get_if<SearchResponse>(&response);
  ASSERT_NE(ok, nullptr);

  const search::ReferenceIndex index(
      Sequence(Alphabet::dna(), reference_text), 12);
  search::ChainedSearchStats stats;
  const auto expected = search::chained_search(
      gene, index, ScoringScheme(scoring::dna(), kDefaultGapExtend), {},
      &stats);
  ASSERT_GE(expected.size(), 2u);  // both planted copies
  ASSERT_EQ(ok->hits.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Alignment& want = expected[i].alignment;
    EXPECT_EQ(ok->hits[i].score, want.score) << "hit " << i;
    EXPECT_EQ(ok->hits[i].q_begin, want.a_begin) << "hit " << i;
    EXPECT_EQ(ok->hits[i].q_end, want.a_end) << "hit " << i;
    EXPECT_EQ(ok->hits[i].s_begin, want.b_begin) << "hit " << i;
    EXPECT_EQ(ok->hits[i].s_end, want.b_end) << "hit " << i;
    EXPECT_EQ(ok->hits[i].cigar, want.cigar()) << "hit " << i;
  }
  EXPECT_EQ(ok->anchors, stats.anchors);
  EXPECT_EQ(ok->chains, stats.chains);
  EXPECT_EQ(ok->deadline_remaining_ms, -1);
  server.stop();
}

TEST(Service, SearchScoreOnlySkipsPerHitCigars) {
  Xoshiro256 rng(902);
  const Sequence gene = random_sequence(Alphabet::dna(), 150, rng);
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  RefPutRequest put;
  put.matrix = WireMatrix::kDna;
  put.sequence = random_sequence(Alphabet::dna(), 800, rng).to_string() +
                 gene.to_string() +
                 random_sequence(Alphabet::dna(), 700, rng).to_string();
  const Response put_response = client.call(std::move(put));
  const auto* registered = std::get_if<RefPutResponse>(&put_response);
  ASSERT_NE(registered, nullptr);

  SearchRequest search;
  search.ref_id = registered->ref_id;
  search.matrix = WireMatrix::kDna;
  search.score_only = true;
  search.query = gene.to_string();
  const Response response = client.call(std::move(search));
  const auto* ok = std::get_if<SearchResponse>(&response);
  ASSERT_NE(ok, nullptr);
  ASSERT_FALSE(ok->hits.empty());
  EXPECT_EQ(ok->hits[0].score, 150 * 5);  // exact planted copy
  for (const WireHit& hit : ok->hits) EXPECT_TRUE(hit.cigar.empty());
  server.stop();
}

TEST(Service, SearchUnknownReferenceAnswersRefNotFound) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  SearchRequest search;
  search.ref_id = 42;  // nothing registered
  search.matrix = WireMatrix::kDna;
  search.query = "ACGTACGTACGTACGT";
  const Response response = client.call(std::move(search));
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kRefNotFound);
  EXPECT_NE(error->message.find("42"), std::string::npos);
  EXPECT_FALSE(is_retryable(error->code));
  server.stop();
}

TEST(Service, SearchAlphabetMismatchAnswersBadRequest) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  RefPutRequest put;
  put.matrix = WireMatrix::kDna;
  put.sequence = "ACGTACGTACGTACGTACGTACGTACGT";
  const Response put_response = client.call(std::move(put));
  const auto* registered = std::get_if<RefPutResponse>(&put_response);
  ASSERT_NE(registered, nullptr);

  SearchRequest search;
  search.ref_id = registered->ref_id;
  search.matrix = WireMatrix::kMdm78;  // protein vs a DNA reference
  search.query = "ACGT";
  const Response response = client.call(std::move(search));
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);
  server.stop();
}

TEST(Service, OversizedReferenceAnswersTooLarge) {
  ServiceConfig config;
  config.max_reference_residues = 100;
  AlignmentServer server(config);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  RefPutRequest put;
  put.matrix = WireMatrix::kDna;
  put.sequence = std::string(200, 'A');
  const Response response = client.call(std::move(put));
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kTooLarge);
  server.stop();
}

TEST(Service, OversizedSearchQueryAnswersTooLarge) {
  // SEARCH admission uses (|query|+1)^2 — the worst-case degenerate gap
  // fill — in the same cell currency as the ALIGN budget.
  ServiceConfig config;
  config.max_request_cells = 10000;
  AlignmentServer server(config);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  SearchRequest search;
  search.ref_id = 1;
  search.matrix = WireMatrix::kDna;
  search.query = std::string(200, 'A');  // 201^2 = 40401 > 10000
  const Response response = client.call(std::move(search));
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kTooLarge);
  server.stop();
}

TEST(Service, RefPutWithBadResiduesAnswersBadRequest) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  RefPutRequest put;
  put.matrix = WireMatrix::kDna;  // strict DNA: no 'N', no lowercase junk
  put.sequence = "ACGTNACGT";
  const Response response = client.call(std::move(put));
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);
  server.stop();
}

TEST(Service, SearchStatsCountersAdvance) {
  Xoshiro256 rng(903);
  const Sequence gene = random_sequence(Alphabet::dna(), 120, rng);
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  RefPutRequest put;
  put.matrix = WireMatrix::kDna;
  put.sequence = random_sequence(Alphabet::dna(), 600, rng).to_string() +
                 gene.to_string();
  const Response put_response = client.call(std::move(put));
  ASSERT_TRUE(std::holds_alternative<RefPutResponse>(put_response));
  SearchRequest search;
  search.ref_id = std::get<RefPutResponse>(put_response).ref_id;
  search.matrix = WireMatrix::kDna;
  search.query = gene.to_string();
  ASSERT_TRUE(
      std::holds_alternative<SearchResponse>(client.call(std::move(search))));

  const Response stats_response = client.call(StatsRequest{});
  const auto* stats = std::get_if<StatsResponse>(&stats_response);
  ASSERT_NE(stats, nullptr);
  auto value = [&](const std::string& name) -> double {
    for (const auto& [key, entry] : stats->entries) {
      if (key == name) return entry;
    }
    return -1.0;
  };
  EXPECT_GE(value("search.ref_puts"), 1.0);
  EXPECT_GE(value("search.refs"), 1.0);
  EXPECT_GE(value("search.requests"), 1.0);
  EXPECT_GE(value("search.completed"), 1.0);
  EXPECT_GE(value("search.hits"), 1.0);
  server.stop();
}

// ---- Streaming uploads + ALIGN_REF -----------------------------------

TEST(Service, StreamedAlignRefIsBitIdenticalToBufferedAlign) {
  // The acceptance bar for the streaming path: chunk-upload a pair into
  // the packed store, align by handle, and the answer must match the
  // buffered ALIGN verb bit for bit — same score, same CIGAR, same cell
  // count. The store's 2-bit round trip must be invisible.
  Xoshiro256 rng(911);
  MutationModel model;
  model.substitution_rate = 0.05;
  const SequencePair pair = homologous_pair(Alphabet::dna(), 3000, model, rng);

  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  Client::UploadOptions options;
  options.matrix = WireMatrix::kDna;
  options.chunk_residues = 512;  // force many chunks
  options.name = "a";
  const Response up_a = client.upload_sequence(pair.a.to_string(), options);
  const auto* ok_a = std::get_if<SeqOkResponse>(&up_a);
  ASSERT_NE(ok_a, nullptr);
  EXPECT_EQ(ok_a->residues, pair.a.size());
  ASSERT_GE(ok_a->ref_id, 1u);

  options.name = "b";
  const Response up_b = client.upload_sequence(pair.b.to_string(), options);
  const auto* ok_b = std::get_if<SeqOkResponse>(&up_b);
  ASSERT_NE(ok_b, nullptr);
  ASSERT_GE(ok_b->ref_id, 1u);
  EXPECT_NE(ok_a->ref_id, ok_b->ref_id);

  AlignRefRequest by_handle;
  by_handle.ref_a = ok_a->ref_id;
  by_handle.ref_b = ok_b->ref_id;
  by_handle.matrix = WireMatrix::kDna;
  const Response streamed = client.call(by_handle);
  const auto* part = std::get_if<AlignPartResponse>(&streamed);
  ASSERT_NE(part, nullptr);
  EXPECT_TRUE(part->last);

  AlignRequest buffered;
  buffered.matrix = WireMatrix::kDna;
  buffered.a = pair.a.to_string();
  buffered.b = pair.b.to_string();
  const Response direct = client.call(std::move(buffered));
  const auto* full = std::get_if<AlignResponse>(&direct);
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(part->score, full->score);
  EXPECT_EQ(part->cigar_part, full->cigar);
  EXPECT_EQ(part->cells, full->cells);
  server.stop();
}

TEST(Service, AlignRefStreamsMultiplePartsAndTheClientReassembles) {
  // Shrink the response slice so even a modest CIGAR spans several
  // ALIGN_PART frames; Client::call must stitch them back together.
  ServiceConfig config;
  config.align_part_chars = 16;
  AlignmentServer server(config);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  Xoshiro256 rng(912);
  MutationModel model;
  model.substitution_rate = 0.08;
  const SequencePair pair = homologous_pair(Alphabet::dna(), 800, model, rng);

  Client::UploadOptions options;
  options.matrix = WireMatrix::kDna;
  options.chunk_residues = 256;
  const Response uploaded = client.upload_sequence(pair.a.to_string(), options);
  const auto* ok = std::get_if<SeqOkResponse>(&uploaded);
  ASSERT_NE(ok, nullptr);

  AlignRefRequest request;
  request.ref_a = ok->ref_id;
  request.matrix = WireMatrix::kDna;
  request.b = pair.b.to_string();  // inline second sequence
  const Response streamed = client.call(request);
  const auto* part = std::get_if<AlignPartResponse>(&streamed);
  ASSERT_NE(part, nullptr);
  EXPECT_TRUE(part->last);
  EXPECT_GT(part->cigar_part.size(), config.align_part_chars);

  AlignRequest buffered;
  buffered.matrix = WireMatrix::kDna;
  buffered.a = pair.a.to_string();
  buffered.b = pair.b.to_string();
  const Response direct = client.call(std::move(buffered));
  const auto* full = std::get_if<AlignResponse>(&direct);
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(part->score, full->score);
  EXPECT_EQ(part->cigar_part, full->cigar);
  server.stop();
}

TEST(Service, UploadResumesReplaysAndRejectsGaps) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  Xoshiro256 rng(913);
  const std::string letters =
      random_sequence(Alphabet::dna(), 1000, rng).to_string();

  SeqBeginRequest begin;
  begin.upload_token = 77;
  begin.matrix = WireMatrix::kDna;
  begin.name = "resumable";
  const Response opened = client.call(begin);
  const auto* ok = std::get_if<SeqOkResponse>(&opened);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->next_offset, 0u);

  SeqChunkRequest first;
  first.upload_token = 77;
  first.offset = 0;
  first.data = letters.substr(0, 400);
  first.prefix_hash = fnv1a64(letters.data(), 400);
  const Response after_first = client.call(first);
  const auto* ack = std::get_if<SeqOkResponse>(&after_first);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->next_offset, 400u);

  // Replaying an already-applied chunk (a retry after a lost ack) must
  // be acknowledged without being applied twice.
  const Response replayed = client.call(first);
  const auto* replay_ack = std::get_if<SeqOkResponse>(&replayed);
  ASSERT_NE(replay_ack, nullptr);
  EXPECT_EQ(replay_ack->next_offset, 400u);

  // A chunk past the high-water mark is a gap: rejected, session kept.
  SeqChunkRequest gap;
  gap.upload_token = 77;
  gap.offset = 500;
  gap.data = letters.substr(500, 100);
  const Response gapped = client.call(gap);
  const auto* gap_error = std::get_if<ErrorResponse>(&gapped);
  ASSERT_NE(gap_error, nullptr);
  EXPECT_EQ(gap_error->code, ErrorCode::kBadRequest);

  // Re-BEGIN with the same token answers the resume point.
  const Response reopened = client.call(begin);
  const auto* resume = std::get_if<SeqOkResponse>(&reopened);
  ASSERT_NE(resume, nullptr);
  EXPECT_EQ(resume->next_offset, 400u);

  SeqChunkRequest rest;
  rest.upload_token = 77;
  rest.offset = 400;
  rest.data = letters.substr(400);
  rest.prefix_hash = fnv1a64(letters.data(), letters.size());
  ASSERT_TRUE(std::holds_alternative<SeqOkResponse>(client.call(rest)));

  SeqEndRequest seal;
  seal.upload_token = 77;
  seal.total_residues = letters.size();
  seal.total_hash = fnv1a64(letters.data(), letters.size());
  const Response sealed = client.call(seal);
  const auto* done = std::get_if<SeqOkResponse>(&sealed);
  ASSERT_NE(done, nullptr);
  EXPECT_GE(done->ref_id, 1u);
  EXPECT_EQ(done->residues, letters.size());
  server.stop();
}

TEST(Service, ChunkChecksumMismatchAbortsTheUploadSession) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  SeqBeginRequest begin;
  begin.upload_token = 78;
  begin.matrix = WireMatrix::kDna;
  ASSERT_TRUE(std::holds_alternative<SeqOkResponse>(client.call(begin)));

  SeqChunkRequest chunk;
  chunk.upload_token = 78;
  chunk.offset = 0;
  chunk.data = "ACGTACGT";
  chunk.prefix_hash = 0xBAD;  // wrong on purpose (0 would skip the check)
  const Response rejected = client.call(chunk);
  const auto* error = std::get_if<ErrorResponse>(&rejected);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);

  // The session is gone: a follow-up chunk has no upload to land in.
  chunk.prefix_hash = 0;
  const Response orphaned = client.call(chunk);
  const auto* orphan_error = std::get_if<ErrorResponse>(&orphaned);
  ASSERT_NE(orphan_error, nullptr);
  EXPECT_EQ(orphan_error->code, ErrorCode::kBadRequest);

  // Re-BEGIN starts a fresh session from zero, not the poisoned bytes.
  const Response reopened = client.call(begin);
  const auto* fresh = std::get_if<SeqOkResponse>(&reopened);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->next_offset, 0u);
  server.stop();
}

TEST(Service, SeqEndLengthMismatchKeepsTheSessionForResume) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  const std::string letters = "ACGTACGTACGTACGTACGT";  // 20 residues
  SeqBeginRequest begin;
  begin.upload_token = 79;
  begin.matrix = WireMatrix::kDna;
  ASSERT_TRUE(std::holds_alternative<SeqOkResponse>(client.call(begin)));
  SeqChunkRequest chunk;
  chunk.upload_token = 79;
  chunk.data = letters;
  ASSERT_TRUE(std::holds_alternative<SeqOkResponse>(client.call(chunk)));

  // Declaring the wrong total is a client bug or a lost chunk — either
  // way the server must keep the bytes so the client can resume.
  SeqEndRequest wrong;
  wrong.upload_token = 79;
  wrong.total_residues = letters.size() - 3;
  const Response rejected = client.call(wrong);
  const auto* error = std::get_if<ErrorResponse>(&rejected);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);

  const Response reopened = client.call(begin);
  const auto* resume = std::get_if<SeqOkResponse>(&reopened);
  ASSERT_NE(resume, nullptr);
  EXPECT_EQ(resume->next_offset, letters.size());

  SeqEndRequest seal;
  seal.upload_token = 79;
  seal.total_residues = letters.size();
  seal.total_hash = fnv1a64(letters.data(), letters.size());
  const Response sealed = client.call(seal);
  ASSERT_TRUE(std::holds_alternative<SeqOkResponse>(sealed));
  server.stop();
}

TEST(Service, AlignRefUnknownHandleAnswersRefNotFound) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  AlignRefRequest request;
  request.ref_a = 424242;
  request.matrix = WireMatrix::kDna;
  request.b = "ACGT";
  const Response response = client.call(request);
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kRefNotFound);
  server.stop();
}

TEST(Service, IndexlessStreamedHandleAlignsButRefusesSearch) {
  // An upload sealed without build_index registers in O(1): usable as an
  // ALIGN_REF operand, but SEARCH against it must be a typed refusal,
  // not a crash or an empty result.
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  Xoshiro256 rng(914);
  const std::string letters =
      random_sequence(Alphabet::dna(), 500, rng).to_string();

  Client::UploadOptions options;
  options.matrix = WireMatrix::kDna;
  options.build_index = false;
  const Response uploaded = client.upload_sequence(letters, options);
  const auto* ok = std::get_if<SeqOkResponse>(&uploaded);
  ASSERT_NE(ok, nullptr);

  SearchRequest search;
  search.ref_id = ok->ref_id;
  search.matrix = WireMatrix::kDna;
  search.query = letters.substr(100, 60);
  const Response refused = client.call(std::move(search));
  const auto* error = std::get_if<ErrorResponse>(&refused);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);

  AlignRefRequest align_request;
  align_request.ref_a = ok->ref_id;
  align_request.matrix = WireMatrix::kDna;
  align_request.b = letters;  // self-alignment: all matches
  align_request.score_only = true;
  const Response aligned = client.call(align_request);
  ASSERT_TRUE(std::holds_alternative<AlignPartResponse>(aligned));
  server.stop();
}

TEST(Service, StreamedHandleWithIndexAnswersSearch) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  Xoshiro256 rng(915);
  const Sequence gene = random_sequence(Alphabet::dna(), 150, rng);
  const std::string reference =
      random_sequence(Alphabet::dna(), 800, rng).to_string() +
      gene.to_string() +
      random_sequence(Alphabet::dna(), 400, rng).to_string();

  Client::UploadOptions options;
  options.matrix = WireMatrix::kDna;
  options.build_index = true;
  options.chunk_residues = 300;
  const Response uploaded = client.upload_sequence(reference, options);
  const auto* ok = std::get_if<SeqOkResponse>(&uploaded);
  ASSERT_NE(ok, nullptr);

  SearchRequest search;
  search.ref_id = ok->ref_id;
  search.matrix = WireMatrix::kDna;
  search.query = gene.to_string();
  const Response found = client.call(std::move(search));
  const auto* hits = std::get_if<SearchResponse>(&found);
  ASSERT_NE(hits, nullptr);
  ASSERT_FALSE(hits->hits.empty());
  EXPECT_EQ(hits->hits.front().s_begin, 800u);
  EXPECT_EQ(hits->hits.front().s_end, 950u);
  server.stop();
}

TEST(Service, RefPutWithContentTokenIsRetrySafe) {
  // A retried REF_PUT (same content token) must answer the original
  // handle instead of registering a second copy — the retryability hole
  // the token closes.
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  Xoshiro256 rng(916);

  RefPutRequest put;
  put.matrix = WireMatrix::kDna;
  put.sequence = random_sequence(Alphabet::dna(), 600, rng).to_string();
  put.content_token = content_token_for(put);

  const Response first = client.call(put);
  const auto* registered = std::get_if<RefPutResponse>(&first);
  ASSERT_NE(registered, nullptr);
  const std::uint64_t original_id = registered->ref_id;

  const Response retried = client.call(put);
  const auto* replayed = std::get_if<RefPutResponse>(&retried);
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->ref_id, original_id);
  EXPECT_EQ(replayed->residues, registered->residues);

  // A different sequence under a different token still gets a new id.
  RefPutRequest other;
  other.matrix = WireMatrix::kDna;
  other.sequence = random_sequence(Alphabet::dna(), 600, rng).to_string();
  other.content_token = content_token_for(other);
  const Response fresh = client.call(other);
  const auto* fresh_put = std::get_if<RefPutResponse>(&fresh);
  ASSERT_NE(fresh_put, nullptr);
  EXPECT_NE(fresh_put->ref_id, original_id);
  server.stop();
}

TEST(Service, BandedAlignRefMatchesDirectBandedAlignment) {
  // Substitution-only pair (equal lengths) so a narrow band covers the
  // optimal path; the streamed banded answer must equal banded_align run
  // in-process on the same bytes.
  Xoshiro256 rng(917);
  MutationModel model;
  model.substitution_rate = 0.05;
  model.insertion_rate = 0;
  model.deletion_rate = 0;
  const SequencePair pair = homologous_pair(Alphabet::dna(), 2000, model, rng);

  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  Client::UploadOptions options;
  options.matrix = WireMatrix::kDna;
  const Response up_a = client.upload_sequence(pair.a.to_string(), options);
  const Response up_b = client.upload_sequence(pair.b.to_string(), options);
  const auto* ok_a = std::get_if<SeqOkResponse>(&up_a);
  const auto* ok_b = std::get_if<SeqOkResponse>(&up_b);
  ASSERT_NE(ok_a, nullptr);
  ASSERT_NE(ok_b, nullptr);

  AlignRefRequest request;
  request.ref_a = ok_a->ref_id;
  request.ref_b = ok_b->ref_id;
  request.matrix = WireMatrix::kDna;
  request.gap_open = 0;  // banded mode is linear-gap only
  request.gap_extend = -4;
  request.band = 32;
  const Response streamed = client.call(request);
  const auto* part = std::get_if<AlignPartResponse>(&streamed);
  ASSERT_NE(part, nullptr);

  const Alignment expected =
      banded_align(pair.a, pair.b, ScoringScheme(scoring::dna(), -4), 32);
  EXPECT_EQ(part->score, expected.score);
  EXPECT_EQ(part->cigar_part, expected.cigar());
  server.stop();
}

TEST(Service, BandedAlignRefRejectsBadGeometryAndAffineGaps) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  Xoshiro256 rng(918);
  const std::string letters =
      random_sequence(Alphabet::dna(), 300, rng).to_string();
  Client::UploadOptions options;
  options.matrix = WireMatrix::kDna;
  const Response uploaded = client.upload_sequence(letters, options);
  const auto* ok = std::get_if<SeqOkResponse>(&uploaded);
  ASSERT_NE(ok, nullptr);

  // Band half-width 5 cannot cover a 200-residue length difference.
  AlignRefRequest narrow;
  narrow.ref_a = ok->ref_id;
  narrow.matrix = WireMatrix::kDna;
  narrow.gap_open = 0;
  narrow.band = 5;
  narrow.b = letters.substr(0, 100);
  const Response rejected = client.call(narrow);
  const auto* geometry_error = std::get_if<ErrorResponse>(&rejected);
  ASSERT_NE(geometry_error, nullptr);
  EXPECT_EQ(geometry_error->code, ErrorCode::kBadRequest);

  // The band reaches the corner (|a|, |b|) only when |a| - |b| <= band:
  // one residue more is refused, not answered with an unreachable score.
  AlignRefRequest just_over = narrow;
  just_over.b = letters.substr(0, letters.size() - 6);
  const Response over = client.call(just_over);
  const auto* over_error = std::get_if<ErrorResponse>(&over);
  ASSERT_NE(over_error, nullptr);
  EXPECT_EQ(over_error->code, ErrorCode::kBadRequest);
  AlignRefRequest at_limit = narrow;
  at_limit.b = letters.substr(0, letters.size() - 5);
  const Response fits = client.call(at_limit);
  const auto* fits_part = std::get_if<AlignPartResponse>(&fits);
  ASSERT_NE(fits_part, nullptr);
  EXPECT_EQ(fits_part->score,
            banded_align(Sequence(Alphabet::dna(), letters),
                         Sequence(Alphabet::dna(), at_limit.b),
                         ScoringScheme(scoring::dna(), narrow.gap_extend), 5)
                .score);

  // Affine gaps under a band are not supported: typed refusal.
  AlignRefRequest affine;
  affine.ref_a = ok->ref_id;
  affine.matrix = WireMatrix::kDna;
  affine.gap_open = -11;
  affine.band = 64;
  affine.b = letters;
  const Response refused = client.call(affine);
  const auto* affine_error = std::get_if<ErrorResponse>(&refused);
  ASSERT_NE(affine_error, nullptr);
  EXPECT_EQ(affine_error->code, ErrorCode::kBadRequest);
  server.stop();
}

TEST(Service, OversizedUploadAnswersTooLarge) {
  ServiceConfig config;
  config.max_store_residues = 100;
  AlignmentServer server(config);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  // Declared over the cap: refused at SEQ_BEGIN, before any bytes move.
  SeqBeginRequest declared;
  declared.upload_token = 80;
  declared.matrix = WireMatrix::kDna;
  declared.total_residues = 200;
  const Response refused = client.call(declared);
  const auto* declare_error = std::get_if<ErrorResponse>(&refused);
  ASSERT_NE(declare_error, nullptr);
  EXPECT_EQ(declare_error->code, ErrorCode::kTooLarge);

  // Undeclared totals are caught at the chunk that crosses the cap.
  SeqBeginRequest open_ended;
  open_ended.upload_token = 81;
  open_ended.matrix = WireMatrix::kDna;
  ASSERT_TRUE(std::holds_alternative<SeqOkResponse>(client.call(open_ended)));
  SeqChunkRequest chunk;
  chunk.upload_token = 81;
  chunk.data = std::string(150, 'A');
  const Response overflow = client.call(chunk);
  const auto* overflow_error = std::get_if<ErrorResponse>(&overflow);
  ASSERT_NE(overflow_error, nullptr);
  EXPECT_EQ(overflow_error->code, ErrorCode::kTooLarge);
  server.stop();
}

TEST(Service, UploadForeignCharactersAbortTheSession) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  SeqBeginRequest begin;
  begin.upload_token = 82;
  begin.matrix = WireMatrix::kDna;
  ASSERT_TRUE(std::holds_alternative<SeqOkResponse>(client.call(begin)));
  SeqChunkRequest chunk;
  chunk.upload_token = 82;
  chunk.data = "ACGTXXGT";
  const Response rejected = client.call(chunk);
  const auto* error = std::get_if<ErrorResponse>(&rejected);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);
  // Session aborted: the next BEGIN starts from zero.
  const Response reopened = client.call(begin);
  const auto* fresh = std::get_if<SeqOkResponse>(&reopened);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->next_offset, 0u);
  server.stop();
}

TEST(Service, StreamingStatsCountersAdvance) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  Xoshiro256 rng(919);
  const std::string letters =
      random_sequence(Alphabet::dna(), 400, rng).to_string();
  Client::UploadOptions options;
  options.matrix = WireMatrix::kDna;
  options.chunk_residues = 128;
  const Response uploaded = client.upload_sequence(letters, options);
  const auto* ok = std::get_if<SeqOkResponse>(&uploaded);
  ASSERT_NE(ok, nullptr);
  AlignRefRequest request;
  request.ref_a = ok->ref_id;
  request.matrix = WireMatrix::kDna;
  request.b = letters;
  request.score_only = true;
  ASSERT_TRUE(
      std::holds_alternative<AlignPartResponse>(client.call(request)));

  const Response stats_response = client.call(StatsRequest{});
  const auto* stats = std::get_if<StatsResponse>(&stats_response);
  ASSERT_NE(stats, nullptr);
  auto value = [&](const std::string& name) -> double {
    for (const auto& [key, entry] : stats->entries) {
      if (key == name) return entry;
    }
    return -1.0;
  };
  EXPECT_GE(value("stream.uploads"), 1.0);
  EXPECT_GE(value("stream.upload_chunks"), 4.0);  // 400 letters / 128
  EXPECT_GE(value("stream.upload_bytes"), 400.0);
  EXPECT_GE(value("stream.uploads_sealed"), 1.0);
  EXPECT_GE(value("stream.align_ref"), 1.0);
  EXPECT_GE(value("stream.parts"), 1.0);
  server.stop();
}

TEST(Service, StatsReportsLoadGaugesAndUptime) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const Response response = client.call(StatsRequest{});
  const auto* stats = std::get_if<StatsResponse>(&response);
  ASSERT_NE(stats, nullptr);
  double queue_depth = -1.0, in_flight = -1.0, uptime = -1.0;
  for (const auto& [name, value] : stats->entries) {
    if (name == "service.queue_depth") queue_depth = value;
    if (name == "service.in_flight") in_flight = value;
    if (name == "service.uptime_ms") uptime = value;
  }
  // The load gauges a router's least-loaded routing feeds on must always
  // be present (zero on an idle server), alongside a monotonic uptime.
  EXPECT_EQ(queue_depth, 0.0);
  EXPECT_EQ(in_flight, 0.0);
  EXPECT_GE(uptime, 0.0);
  server.stop();
}

// ---- Endpoint lists ---------------------------------------------------

TEST(Client, ConnectSkipsDeadEndpointsInOrder) {
  AlignmentServer server;
  server.start();
  // A TCP port nothing listens on: bind-then-close reserves a number
  // that connect() will refuse.
  AlignmentServer parked;
  parked.start();
  const std::uint16_t dead_port = parked.port();
  parked.stop();

  Client client;
  client.connect({{"127.0.0.1", dead_port}, {"127.0.0.1", server.port()}});
  EXPECT_EQ(client.current_endpoint().port, server.port());
  const Response response = client.call(protein_request("A", "A"));
  EXPECT_TRUE(std::holds_alternative<AlignResponse>(response));
  server.stop();
}

TEST(Client, ConnectThrowsWhenEveryEndpointIsDead) {
  AlignmentServer parked;
  parked.start();
  const std::uint16_t dead = parked.port();
  parked.stop();
  Client client;
  EXPECT_THROW(client.connect({{"127.0.0.1", dead}, {"127.0.0.1", dead}}),
               TransportError);
}

TEST(Client, RetryFailsOverToTheNextEndpoint) {
  AlignmentServer first;
  first.start();
  AlignmentServer second;
  second.start();

  Client client;
  client.connect(
      {{"127.0.0.1", first.port()}, {"127.0.0.1", second.port()}});
  ASSERT_EQ(client.current_endpoint().port, first.port());

  // Kill the connected endpoint mid-session: the next call sees a
  // transport failure, and the retry loop must rotate to the survivor
  // instead of re-dialling the corpse.
  first.stop();
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_delay = std::chrono::milliseconds(1);
  const Response response =
      client.call_with_retry(protein_request("TLDKLLKD", "TDVLKAD"), policy);
  const auto* ok = std::get_if<AlignResponse>(&response);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->score, 82);
  EXPECT_EQ(client.current_endpoint().port, second.port());
  second.stop();
}

TEST(Service, StartAfterStopServesAgain) {
  ServiceConfig config;
  AlignmentServer first(config);
  first.start();
  const std::uint16_t port = first.port();
  first.stop();

  // A fresh server can rebind the same port immediately (SO_REUSEADDR).
  config.port = port;
  AlignmentServer second(config);
  second.start();
  Client client;
  client.connect("127.0.0.1", second.port());
  const Response response = client.call(protein_request("A", "A"));
  EXPECT_TRUE(std::holds_alternative<AlignResponse>(response));
  second.stop();
}

// ---- Durable handle registry: restart recovery -----------------------

// Fresh persistent store directory (the server must NOT own/remove it —
// the whole point is surviving the process).
std::string make_store_dir(const std::string& tag) {
  std::string path = testing::TempDir() + "flsa_recovery_" + tag + "_XXXXXX";
  EXPECT_NE(::mkdtemp(path.data()), nullptr);
  return path;
}

void remove_ref_payloads(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  std::vector<std::string> victims;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string file = entry->d_name;
    if (file.rfind("ref_", 0) == 0) victims.push_back(dir + "/" + file);
  }
  ::closedir(d);
  ASSERT_FALSE(victims.empty());
  for (const std::string& victim : victims) ::unlink(victim.c_str());
}

TEST(Service, SealedHandlesSurviveARestartBitIdentically) {
  // The tentpole guarantee: seal handles against a persistent store
  // directory, restart the server over the same directory, and the same
  // ids must answer ALIGN_REF and SEARCH bit-identically — including a
  // SEARCH index that was never persisted and must rebuild lazily.
  const std::string dir = make_store_dir("survive");
  Xoshiro256 rng(920);
  MutationModel model;
  model.substitution_rate = 0.05;
  const SequencePair pair = homologous_pair(Alphabet::dna(), 1200, model, rng);
  const Sequence gene = random_sequence(Alphabet::dna(), 120, rng);
  const std::string reference =
      random_sequence(Alphabet::dna(), 600, rng).to_string() +
      gene.to_string() +
      random_sequence(Alphabet::dna(), 300, rng).to_string();

  ServiceConfig config;
  config.store_dir = dir;
  std::uint64_t id_a = 0;
  std::uint64_t id_b = 0;
  std::uint64_t id_ref = 0;
  std::int64_t score_before = 0;
  std::string cigar_before;
  std::vector<std::uint64_t> hit_begins_before;
  {
    AlignmentServer server(config);
    server.start();
    Client client;
    client.connect("127.0.0.1", server.port());

    Client::UploadOptions options;
    options.matrix = WireMatrix::kDna;
    options.name = "a";
    const Response up_a = client.upload_sequence(pair.a.to_string(), options);
    const auto* ok_a = std::get_if<SeqOkResponse>(&up_a);
    ASSERT_NE(ok_a, nullptr);
    id_a = ok_a->ref_id;
    options.name = "b";
    const Response up_b = client.upload_sequence(pair.b.to_string(), options);
    const auto* ok_b = std::get_if<SeqOkResponse>(&up_b);
    ASSERT_NE(ok_b, nullptr);
    id_b = ok_b->ref_id;
    options.name = "searchable";
    options.build_index = true;
    const Response up_ref = client.upload_sequence(reference, options);
    const auto* ok_ref = std::get_if<SeqOkResponse>(&up_ref);
    ASSERT_NE(ok_ref, nullptr);
    id_ref = ok_ref->ref_id;

    AlignRefRequest by_handle;
    by_handle.ref_a = id_a;
    by_handle.ref_b = id_b;
    by_handle.matrix = WireMatrix::kDna;
    const Response aligned = client.call(by_handle);
    const auto* part = std::get_if<AlignPartResponse>(&aligned);
    ASSERT_NE(part, nullptr);
    score_before = part->score;
    cigar_before = part->cigar_part;

    SearchRequest search;
    search.ref_id = id_ref;
    search.matrix = WireMatrix::kDna;
    search.query = gene.to_string();
    const Response found = client.call(std::move(search));
    const auto* hits = std::get_if<SearchResponse>(&found);
    ASSERT_NE(hits, nullptr);
    ASSERT_FALSE(hits->hits.empty());
    for (const auto& hit : hits->hits) hit_begins_before.push_back(hit.s_begin);
    server.stop();
  }

  AlignmentServer restarted(config);
  restarted.start();
  EXPECT_EQ(restarted.recovery().recovered, 3u);
  EXPECT_EQ(restarted.recovery().skipped, 0u);
  Client client;
  client.connect("127.0.0.1", restarted.port());

  // REF_LIST must enumerate the recovered handles with their metadata.
  const Response listed = client.call(RefListRequest{});
  const auto* list = std::get_if<RefListResponse>(&listed);
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->refs.size(), 3u);
  EXPECT_EQ(list->refs[0].ref_id, id_a);
  EXPECT_EQ(list->refs[0].name, "a");
  EXPECT_EQ(list->refs[0].residues, pair.a.size());
  EXPECT_FALSE(list->refs[0].indexed);
  EXPECT_EQ(list->refs[2].ref_id, id_ref);
  EXPECT_TRUE(list->refs[2].indexed);

  AlignRefRequest by_handle;
  by_handle.ref_a = id_a;
  by_handle.ref_b = id_b;
  by_handle.matrix = WireMatrix::kDna;
  const Response aligned = client.call(by_handle);
  const auto* part = std::get_if<AlignPartResponse>(&aligned);
  ASSERT_NE(part, nullptr);
  EXPECT_EQ(part->score, score_before);
  EXPECT_EQ(part->cigar_part, cigar_before);

  // The recovered handle has no in-memory index; the first SEARCH must
  // rebuild it from the mmap'd store and answer identically.
  SearchRequest search;
  search.ref_id = id_ref;
  search.matrix = WireMatrix::kDna;
  search.query = gene.to_string();
  const Response found = client.call(std::move(search));
  const auto* hits = std::get_if<SearchResponse>(&found);
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->hits.size(), hit_begins_before.size());
  for (std::size_t i = 0; i < hits->hits.size(); ++i) {
    EXPECT_EQ(hits->hits[i].s_begin, hit_begins_before[i]);
  }
  restarted.stop();
}

TEST(Service, RestartDoesNotReissueRecoveredHandleIds) {
  // The restart-collision bug: a fresh server that restarts its id
  // counter at 1 would hand a new upload an id that already names a
  // recovered handle. The manifest owns the id space across restarts.
  const std::string dir = make_store_dir("collision");
  Xoshiro256 rng(921);
  const std::string before_letters =
      random_sequence(Alphabet::dna(), 400, rng).to_string();
  const std::string after_letters =
      random_sequence(Alphabet::dna(), 300, rng).to_string();

  ServiceConfig config;
  config.store_dir = dir;
  std::uint64_t recovered_id = 0;
  {
    AlignmentServer server(config);
    server.start();
    Client client;
    client.connect("127.0.0.1", server.port());
    Client::UploadOptions options;
    options.matrix = WireMatrix::kDna;
    const Response uploaded =
        client.upload_sequence(before_letters, options);
    const auto* ok = std::get_if<SeqOkResponse>(&uploaded);
    ASSERT_NE(ok, nullptr);
    recovered_id = ok->ref_id;
    server.stop();
  }

  AlignmentServer restarted(config);
  restarted.start();
  Client client;
  client.connect("127.0.0.1", restarted.port());
  Client::UploadOptions options;
  options.matrix = WireMatrix::kDna;
  const Response uploaded = client.upload_sequence(after_letters, options);
  const auto* fresh = std::get_if<SeqOkResponse>(&uploaded);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh->ref_id, recovered_id);

  // Both handles must answer with their own sequence, not each other's.
  AlignRefRequest old_self;
  old_self.ref_a = recovered_id;
  old_self.matrix = WireMatrix::kDna;
  old_self.b = before_letters;
  old_self.score_only = true;
  const Response old_answer = client.call(old_self);
  ASSERT_TRUE(std::holds_alternative<AlignPartResponse>(old_answer));

  AlignRefRequest new_self;
  new_self.ref_a = fresh->ref_id;
  new_self.matrix = WireMatrix::kDna;
  new_self.b = after_letters;
  new_self.score_only = true;
  const Response new_answer = client.call(new_self);
  ASSERT_TRUE(std::holds_alternative<AlignPartResponse>(new_answer));
  restarted.stop();
}

TEST(Service, MissingPayloadIsSkippedWithAWarningNotAFailedBoot) {
  // Manifest says a handle exists but its payload file is gone (disk
  // damage between restarts). Boot must succeed, count the skip, and
  // answer REF_NOT_FOUND for the dead id — never crash or serve junk.
  const std::string dir = make_store_dir("payload");
  Xoshiro256 rng(922);
  const std::string letters =
      random_sequence(Alphabet::dna(), 350, rng).to_string();

  ServiceConfig config;
  config.store_dir = dir;
  std::uint64_t dead_id = 0;
  {
    AlignmentServer server(config);
    server.start();
    Client client;
    client.connect("127.0.0.1", server.port());
    Client::UploadOptions options;
    options.matrix = WireMatrix::kDna;
    const Response uploaded = client.upload_sequence(letters, options);
    const auto* ok = std::get_if<SeqOkResponse>(&uploaded);
    ASSERT_NE(ok, nullptr);
    dead_id = ok->ref_id;
    server.stop();
  }
  remove_ref_payloads(dir);

  AlignmentServer restarted(config);
  restarted.start();
  EXPECT_EQ(restarted.recovery().recovered, 0u);
  EXPECT_EQ(restarted.recovery().skipped, 1u);
  EXPECT_FALSE(restarted.recovery().warnings.empty());

  Client client;
  client.connect("127.0.0.1", restarted.port());
  AlignRefRequest request;
  request.ref_a = dead_id;
  request.matrix = WireMatrix::kDna;
  request.b = letters;
  const Response answered = client.call(request);
  const auto* error = std::get_if<ErrorResponse>(&answered);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kRefNotFound);
  restarted.stop();
}

TEST(Service, TwoHundredHandleReplayIsBitIdentical) {
  // Volume leg of the recovery matrix: seal 200 small handles, restart,
  // and every recovered handle must score a fixed probe exactly as it
  // did before the restart (distinct sequences give distinct scores, so
  // a shuffled or cross-wired recovery cannot pass).
  const std::string dir = make_store_dir("volume");
  constexpr std::size_t kHandles = 200;
  Xoshiro256 rng(923);
  const std::string probe =
      random_sequence(Alphabet::dna(), 48, rng).to_string();
  std::vector<std::string> sequences;
  for (std::size_t i = 0; i < kHandles; ++i) {
    sequences.push_back(
        random_sequence(Alphabet::dna(), 32 + (i % 64), rng).to_string());
  }

  ServiceConfig config;
  config.store_dir = dir;
  std::vector<std::uint64_t> ids(kHandles, 0);
  std::vector<std::int64_t> scores(kHandles, 0);
  {
    AlignmentServer server(config);
    server.start();
    Client client;
    client.connect("127.0.0.1", server.port());
    Client::UploadOptions options;
    options.matrix = WireMatrix::kDna;
    for (std::size_t i = 0; i < kHandles; ++i) {
      const Response uploaded =
          client.upload_sequence(sequences[i], options);
      const auto* ok = std::get_if<SeqOkResponse>(&uploaded);
      ASSERT_NE(ok, nullptr) << "upload " << i;
      ids[i] = ok->ref_id;
      AlignRefRequest request;
      request.ref_a = ids[i];
      request.matrix = WireMatrix::kDna;
      request.b = probe;
      request.score_only = true;
      const Response aligned = client.call(request);
      const auto* part = std::get_if<AlignPartResponse>(&aligned);
      ASSERT_NE(part, nullptr) << "pre-restart align " << i;
      scores[i] = part->score;
    }
    server.stop();
  }

  AlignmentServer restarted(config);
  restarted.start();
  ASSERT_EQ(restarted.recovery().recovered, kHandles);
  Client client;
  client.connect("127.0.0.1", restarted.port());
  const Response listed = client.call(RefListRequest{});
  const auto* list = std::get_if<RefListResponse>(&listed);
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->refs.size(), kHandles);
  for (std::size_t i = 0; i < kHandles; ++i) {
    AlignRefRequest request;
    request.ref_a = ids[i];
    request.matrix = WireMatrix::kDna;
    request.b = probe;
    request.score_only = true;
    const Response aligned = client.call(request);
    const auto* part = std::get_if<AlignPartResponse>(&aligned);
    ASSERT_NE(part, nullptr) << "post-restart align " << i;
    EXPECT_EQ(part->score, scores[i]) << "handle " << ids[i];
  }
  restarted.stop();
}

TEST(Service, IdleUploadSessionsAreReapedAndTheCapRecovers) {
  // The session-leak fix: two abandoned uploads pin a cap of two until
  // the hygiene timer reaps them; a third SEQ_BEGIN must go from
  // OVERLOADED to accepted without any client cooperation.
  ServiceConfig config;
  config.max_uploads_in_flight = 2;
  config.upload_idle_timeout_ms = 50;
  AlignmentServer server(config);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  for (std::uint64_t token = 1; token <= 2; ++token) {
    SeqBeginRequest begin;
    begin.upload_token = token;
    begin.matrix = WireMatrix::kDna;
    const Response opened = client.call(begin);
    ASSERT_TRUE(std::holds_alternative<SeqOkResponse>(opened))
        << "session " << token;
  }

  SeqBeginRequest third;
  third.upload_token = 3;
  third.matrix = WireMatrix::kDna;
  const Response refused = client.call(third);
  const auto* error = std::get_if<ErrorResponse>(&refused);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kOverloaded);

  // Poll rather than sleep a fixed amount: under TSan the reaper tick
  // can land well past 50 ms.
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    const Response retried = client.call(third);
    admitted = std::holds_alternative<SeqOkResponse>(retried);
  }
  EXPECT_TRUE(admitted) << "idle sessions were never reaped";
  server.stop();
}

TEST(Service, RefListEnumeratesLiveHandlesInOrder) {
  AlignmentServer server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  // Empty registry answers an empty (not error) list.
  const Response none = client.call(RefListRequest{});
  const auto* empty = std::get_if<RefListResponse>(&none);
  ASSERT_NE(empty, nullptr);
  EXPECT_TRUE(empty->refs.empty());

  Xoshiro256 rng(924);
  Client::UploadOptions options;
  options.matrix = WireMatrix::kDna;
  options.name = "plain";
  const Response up_plain = client.upload_sequence(
      random_sequence(Alphabet::dna(), 200, rng).to_string(), options);
  const auto* plain = std::get_if<SeqOkResponse>(&up_plain);
  ASSERT_NE(plain, nullptr);
  options.name = "indexed";
  options.build_index = true;
  options.k = 11;
  const Response up_indexed = client.upload_sequence(
      random_sequence(Alphabet::dna(), 300, rng).to_string(), options);
  const auto* indexed = std::get_if<SeqOkResponse>(&up_indexed);
  ASSERT_NE(indexed, nullptr);

  const Response listed = client.call(RefListRequest{});
  const auto* list = std::get_if<RefListResponse>(&listed);
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->refs.size(), 2u);
  EXPECT_EQ(list->refs[0].ref_id, plain->ref_id);
  EXPECT_EQ(list->refs[0].name, "plain");
  EXPECT_EQ(list->refs[0].residues, 200u);
  EXPECT_EQ(list->refs[0].matrix, WireMatrix::kDna);
  EXPECT_FALSE(list->refs[0].indexed);
  EXPECT_EQ(list->refs[0].k, 0u);
  EXPECT_EQ(list->refs[1].ref_id, indexed->ref_id);
  EXPECT_EQ(list->refs[1].name, "indexed");
  EXPECT_TRUE(list->refs[1].indexed);
  EXPECT_EQ(list->refs[1].k, 11u);
  EXPECT_NE(list->refs[1].content_token, 0u);
  server.stop();
}

}  // namespace
}  // namespace service
}  // namespace flsa
