// Router-tier integration tests: shard-map placement, deadline-budget
// arithmetic, and the front tier end-to-end over loopback against real
// AlignmentServer backends — routing, replication, pipelined single
// frames demuxed by request id, failover, ejection, and local deadline
// enforcement.
// The contract mirrors the backend's: every request ends in a response
// bit-identical to direct align() or a typed error, never a hang.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/aligner.hpp"
#include "obs/metrics.hpp"
#include "router/router.hpp"
#include "router/shard_map.hpp"
#include "scoring/builtin.hpp"
#include "scoring/scheme.hpp"
#include "service/client.hpp"
#include "service/fault.hpp"
#include "service/server.hpp"

namespace flsa {
namespace router {
namespace {

using service::AlignmentServer;
using service::AlignRequest;
using service::AlignResponse;
using service::Client;
using service::ErrorCode;
using service::ErrorResponse;
using service::RefPutRequest;
using service::RefPutResponse;
using service::Response;
using service::SearchRequest;
using service::SearchResponse;
using service::ServiceConfig;
using service::StatsRequest;
using service::StatsResponse;
using service::WireMatrix;

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

/// N loopback backends plus one router in front, all in-process.
struct Fleet {
  std::vector<std::unique_ptr<AlignmentServer>> backends;
  std::unique_ptr<Router> router;

  explicit Fleet(std::size_t n, RouterConfig config = {},
                 ServiceConfig backend_config = {}) {
    backend_config.workers =
        backend_config.workers == 0 ? 2 : backend_config.workers;
    for (std::size_t i = 0; i < n; ++i) {
      backends.push_back(std::make_unique<AlignmentServer>(backend_config));
      backends.back()->start();
      config.backends.push_back({"127.0.0.1", backends.back()->port()});
    }
    router = std::make_unique<Router>(config);
    router->start();
  }

  ~Fleet() {
    router->stop();
    for (auto& backend : backends) backend->stop();
  }

  Client connect() {
    Client client;
    client.connect("127.0.0.1", router->port());
    return client;
  }
};

std::uint64_t counter(const char* name) {
  return obs::metrics().counter(name).value();
}

// ---- ShardMap ---------------------------------------------------------

TEST(ShardMap, ReplicasAreDeterministicDistinctAndRanked) {
  const ShardMap map(5, 3);
  for (std::uint64_t key = 1; key <= 64; ++key) {
    const std::vector<std::size_t> first = map.replicas(key);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(first, map.replicas(key)) << "placement is not stable";
    const std::set<std::size_t> distinct(first.begin(), first.end());
    EXPECT_EQ(distinct.size(), 3u) << "a replica repeats for key " << key;
    EXPECT_EQ(first.front(), map.primary(key));
    // Best-score-first ranking.
    EXPECT_GE(ShardMap::weight(key, first[0]), ShardMap::weight(key, first[1]));
    EXPECT_GE(ShardMap::weight(key, first[1]), ShardMap::weight(key, first[2]));
  }
}

TEST(ShardMap, ReplicationIsCappedByTheBackendCount) {
  const ShardMap map(2, 5);
  EXPECT_EQ(map.replication(), 2u);
  EXPECT_EQ(map.replicas(7).size(), 2u);
}

TEST(ShardMap, PlacementSpreadsAcrossBackends) {
  const ShardMap map(4, 1);
  std::map<std::size_t, int> owners;
  for (std::uint64_t key = 0; key < 400; ++key) owners[map.primary(key)]++;
  ASSERT_EQ(owners.size(), 4u) << "some backend owns nothing";
  for (const auto& [backend, count] : owners) {
    EXPECT_GT(count, 40) << "backend " << backend
                         << " is badly underweighted";
  }
}

TEST(ShardMap, AddingABackendOnlyMovesTheKeysItWins) {
  // The rendezvous property: growing the fleet from 7 to 8 moves a key
  // only when the new backend outranks all old ones (expected 1/8 of
  // keys), and every moved key moves *to* the new backend.
  const ShardMap before(7, 1);
  const ShardMap after(8, 1);
  int moved = 0;
  for (std::uint64_t key = 0; key < 400; ++key) {
    const std::size_t was = before.primary(key);
    const std::size_t is = after.primary(key);
    if (was != is) {
      EXPECT_EQ(is, 7u) << "key " << key << " moved to an old backend";
      ++moved;
    }
  }
  EXPECT_GT(moved, 10);   // the new backend does win some keys
  EXPECT_LT(moved, 120);  // ... but nowhere near a full reshuffle
}

// ---- Deadline budget --------------------------------------------------

TEST(RouterDeadline, BudgetArithmetic) {
  using clock = std::chrono::steady_clock;
  const clock::time_point arrival = clock::now();
  // No deadline: sentinel -1, never expires.
  EXPECT_EQ(Router::remaining_deadline_ms(0, arrival, arrival), -1);
  EXPECT_EQ(Router::remaining_deadline_ms(
                0, arrival, arrival + std::chrono::hours(1)),
            -1);
  // Fresh arrival: the full budget.
  EXPECT_EQ(Router::remaining_deadline_ms(100, arrival, arrival), 100);
  // Partially spent.
  EXPECT_EQ(Router::remaining_deadline_ms(
                100, arrival, arrival + std::chrono::milliseconds(30)),
            70);
  // Spent and overspent both clamp to 0 — "expired", not negative.
  EXPECT_EQ(Router::remaining_deadline_ms(
                100, arrival, arrival + std::chrono::milliseconds(100)),
            0);
  EXPECT_EQ(Router::remaining_deadline_ms(
                100, arrival, arrival + std::chrono::seconds(5)),
            0);
}

// ---- End-to-end -------------------------------------------------------

TEST(Router, AlignThroughTheRouterIsBitIdenticalToDirect) {
  Fleet fleet(2);
  Client client = fleet.connect();
  const Alignment expected = direct_align("TLDKLLKD", "TDVLKAD");
  for (int i = 0; i < 6; ++i) {
    const Response response =
        client.call(protein_request("TLDKLLKD", "TDVLKAD"));
    const auto* ok = std::get_if<AlignResponse>(&response);
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(ok->score, expected.score);
    EXPECT_EQ(ok->cigar, expected.cigar());
  }
}

TEST(Router, PipelinedAlignsDemuxById) {
  RouterConfig config;
  config.channels_per_backend = 1;
  Fleet fleet(1, config);
  Client client = fleet.connect();

  const Score score_a = direct_align("TLDKLLKD", "TDVLKAD").score;
  const Score score_b = direct_align("HEAGAWGHEE", "PAWHEAE").score;

  // Pipeline 64 small aligns of two different pairs, each its own frame;
  // responses may come back in any order, so match scores by request id.
  std::map<std::uint64_t, Score> expected;
  for (int i = 0; i < 64; ++i) {
    const bool odd = (i % 2) != 0;
    const std::uint64_t id = client.send(
        odd ? protein_request("HEAGAWGHEE", "PAWHEAE")
            : protein_request("TLDKLLKD", "TDVLKAD"));
    expected[id] = odd ? score_b : score_a;
  }
  for (int i = 0; i < 64; ++i) {
    const Response response = client.receive();
    const auto* ok = std::get_if<AlignResponse>(&response);
    ASSERT_NE(ok, nullptr) << "response " << i << " was not ALIGN_OK";
    const auto it = expected.find(ok->request_id);
    ASSERT_NE(it, expected.end()) << "unknown id " << ok->request_id;
    EXPECT_EQ(ok->score, it->second) << "wrong score for id " << ok->request_id;
    expected.erase(it);
  }
  EXPECT_TRUE(expected.empty()) << expected.size() << " requests unanswered";
}

TEST(Router, RefPutReplicatesAndSearchMatchesASingleBackend) {
  RouterConfig config;
  config.replication = 2;
  Fleet fleet(2, config);

  const std::string reference =
      "TLDKLLKDTDVLKADHEAGAWGHEEPAWHEAETLDKLLKDWGHEETDVLKAD";
  const std::string query = "TLDKLLKDTDVLKAD";

  // Expected answer: the same REF_PUT + SEARCH against one backend
  // directly (both replicas build identical indexes, so the router's
  // choice between them must not matter).
  service::WireHit expected_hit{};
  {
    Client direct;
    direct.connect("127.0.0.1", fleet.backends[0]->port());
    RefPutRequest put;
    put.matrix = WireMatrix::kMdm78;
    put.sequence = reference;
    const Response put_response = direct.call(std::move(put));
    const auto* ok = std::get_if<RefPutResponse>(&put_response);
    ASSERT_NE(ok, nullptr);
    SearchRequest search;
    search.ref_id = ok->ref_id;
    search.matrix = WireMatrix::kMdm78;
    search.gap_extend = -10;
    search.query = query;
    const Response search_response = direct.call(std::move(search));
    const auto* hits = std::get_if<SearchResponse>(&search_response);
    ASSERT_NE(hits, nullptr);
    ASSERT_FALSE(hits->hits.empty());
    expected_hit = hits->hits.front();
  }

  Client client = fleet.connect();
  RefPutRequest put;
  put.matrix = WireMatrix::kMdm78;
  put.sequence = reference;
  const Response put_response = client.call(std::move(put));
  const auto* put_ok = std::get_if<RefPutResponse>(&put_response);
  ASSERT_NE(put_ok, nullptr);
  EXPECT_EQ(put_ok->residues, reference.size());

  // Both backends now hold the index: the registered-reference counters
  // must have advanced on each.
  for (int round = 0; round < 8; ++round) {
    SearchRequest search;
    search.ref_id = put_ok->ref_id;  // the *router's* reference id
    search.matrix = WireMatrix::kMdm78;
    search.gap_extend = -10;
    search.query = query;
    const Response response = client.call(std::move(search));
    const auto* ok = std::get_if<SearchResponse>(&response);
    ASSERT_NE(ok, nullptr);
    ASSERT_FALSE(ok->hits.empty());
    EXPECT_EQ(ok->hits.front().score, expected_hit.score);
    EXPECT_EQ(ok->hits.front().q_begin, expected_hit.q_begin);
    EXPECT_EQ(ok->hits.front().q_end, expected_hit.q_end);
    EXPECT_EQ(ok->hits.front().s_begin, expected_hit.s_begin);
    EXPECT_EQ(ok->hits.front().s_end, expected_hit.s_end);
    EXPECT_EQ(ok->hits.front().cigar, expected_hit.cigar);
  }
}

TEST(Router, SearchForAnUnknownReferenceIsAnsweredLocally) {
  Fleet fleet(2);
  Client client = fleet.connect();
  SearchRequest search;
  search.ref_id = 777;  // never registered through this router
  search.matrix = WireMatrix::kMdm78;
  search.query = "TLDKLLKD";
  const Response response = client.call(std::move(search));
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kRefNotFound);
}

TEST(Router, RefPutToleratesADeadReplicaAndCountsDegradation) {
  RouterConfig config;
  config.replication = 2;
  Fleet fleet(2, config);
  fleet.backends[1]->stop();  // one replica target is gone
  const std::uint64_t degraded_before = counter("router.ref_put.degraded");

  Client client = fleet.connect();
  RefPutRequest put;
  put.matrix = WireMatrix::kMdm78;
  put.sequence = "TLDKLLKDTDVLKADHEAGAWGHEEPAWHEAE";
  const Response put_response = client.call(std::move(put));
  const auto* ok = std::get_if<RefPutResponse>(&put_response);
  ASSERT_NE(ok, nullptr) << "one live replica must be enough";
  EXPECT_EQ(counter("router.ref_put.degraded"), degraded_before + 1);

  SearchRequest search;
  search.ref_id = ok->ref_id;
  search.matrix = WireMatrix::kMdm78;
  search.gap_extend = -10;
  search.query = "TLDKLLKD";
  const Response response = client.call(std::move(search));
  EXPECT_TRUE(std::holds_alternative<SearchResponse>(response))
      << "the surviving replica must serve the search";
}

TEST(Router, BackendDeathIsAbsorbedByFailoverAndEjection) {
  RouterConfig config;
  config.health_interval_ms = 50;
  Fleet fleet(2, config);
  Client client = fleet.connect();
  const Response warm = client.call(protein_request("TLDKLLKD", "TDVLKAD"));
  ASSERT_TRUE(std::holds_alternative<AlignResponse>(warm));

  const std::uint64_t ejected_before = counter("router.backend.ejected");
  fleet.backends[0]->stop();
  // Give the prober a few intervals to eject the corpse.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_GT(counter("router.backend.ejected"), ejected_before);
  EXPECT_EQ(obs::metrics().gauge("router.backends_healthy").value(), 1.0);

  const Score expected = direct_align("TLDKLLKD", "TDVLKAD").score;
  for (int i = 0; i < 8; ++i) {
    const Response response =
        client.call(protein_request("TLDKLLKD", "TDVLKAD"));
    const auto* ok = std::get_if<AlignResponse>(&response);
    ASSERT_NE(ok, nullptr) << "request " << i
                           << " failed after backend death";
    EXPECT_EQ(ok->score, expected);
  }
}

TEST(Router, OversizedFrameHeaderAnswersBadRequestOverRawSocket) {
  // Same contract as the daemon: a length prefix over max_frame_bytes is
  // answered BAD_REQUEST (id 0) and counted, then the client is closed.
  RouterConfig config;
  config.max_frame_bytes = 4096;
  Fleet fleet(1, config);
  const std::uint64_t bad_before = counter("router.bad_requests");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fleet.router->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const timeval timeout{5, 0};  // a missing answer fails, not hangs
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);

  const std::string header =
      service::frame_bytes(std::string(8192, 'x')).substr(0, 4);
  ASSERT_TRUE(service::write_all(fd, header));
  std::string payload;
  ASSERT_TRUE(service::read_frame(fd, &payload))
      << "the router hung up without an answer";
  const Response response = service::decode_response(payload);
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);
  EXPECT_EQ(error->request_id, 0u);
  EXPECT_FALSE(service::read_frame(fd, &payload));  // then it hangs up
  EXPECT_EQ(counter("router.bad_requests"), bad_before + 1);
  ::close(fd);
}

TEST(Router, RefListIsAnsweredTyped) {
  // REF_LIST is never forwarded: a backend would list its own local ids,
  // which name nothing at router scope. The router refuses it typed and
  // counted, and the connection stays usable.
  Fleet fleet(1);
  const std::uint64_t bad_before = counter("router.bad_requests");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fleet.router->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const timeval timeout{5, 0};  // a missing answer fails, not hangs
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);

  service::RefListRequest list;
  list.request_id = 9;
  ASSERT_TRUE(service::write_frame(fd, service::encode(list)));
  std::string payload;
  ASSERT_TRUE(service::read_frame(fd, &payload));
  const Response response = service::decode_response(payload);
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);
  EXPECT_EQ(error->request_id, 9u);
  EXPECT_EQ(counter("router.bad_requests"), bad_before + 1);

  StatsRequest stats;
  stats.request_id = 10;
  ASSERT_TRUE(service::write_frame(fd, service::encode(stats)));
  ASSERT_TRUE(service::read_frame(fd, &payload));
  EXPECT_TRUE(
      std::holds_alternative<StatsResponse>(service::decode_response(payload)));
  ::close(fd);
}

TEST(Router, ExpiredDeadlineIsAnsweredLocallyNotByTheBackend) {
  RouterConfig config;
  ServiceConfig slow;
  slow.fault_plan = service::parse_fault_plan("seed=5,delay=1:400");
  Fleet fleet(1, config, slow);
  Client client = fleet.connect();

  AlignRequest request = protein_request("TLDKLLKD", "TDVLKAD");
  request.deadline_ms = 60;
  const auto start = std::chrono::steady_clock::now();
  const Response response = client.call(std::move(request));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kDeadlineExceeded);
  // The router's monitor must answer about when the budget dies (~60ms),
  // not when the delayed backend finally does (~400ms).
  EXPECT_LT(elapsed.count(), 350)
      << "deadline was enforced by the backend, not the router";
}

TEST(Router, StreamedUploadsThroughTheRouterAlignByHandle) {
  // Two uploads sharing a placement key must land on one backend, and
  // an ALIGN_REF naming both router handles must be routed there and
  // answer bit-identically to the buffered ALIGN verb via the router.
  Fleet fleet(2);
  Client client = fleet.connect();

  const std::string a = "HEAGAWGHEETLDKLLKDTDVLKADWGHEE";
  const std::string b = "HEAGAWGHEDTLDKLKDTDVLKADWGHEE";

  Client::UploadOptions options;
  options.matrix = WireMatrix::kMdm78;
  options.placement = 42;  // co-locate the pair
  options.chunk_residues = 8;
  options.token = 1001;
  options.name = "a";
  const Response up_a = client.upload_sequence(a, options);
  const auto* ok_a = std::get_if<service::SeqOkResponse>(&up_a);
  ASSERT_NE(ok_a, nullptr);
  EXPECT_EQ(ok_a->residues, a.size());
  ASSERT_GE(ok_a->ref_id, 1u);

  options.token = 1002;
  options.name = "b";
  const Response up_b = client.upload_sequence(b, options);
  const auto* ok_b = std::get_if<service::SeqOkResponse>(&up_b);
  ASSERT_NE(ok_b, nullptr);
  ASSERT_GE(ok_b->ref_id, 1u);
  EXPECT_NE(ok_a->ref_id, ok_b->ref_id);  // router-scope ids are distinct

  service::AlignRefRequest by_handle;
  by_handle.ref_a = ok_a->ref_id;
  by_handle.ref_b = ok_b->ref_id;
  by_handle.matrix = WireMatrix::kMdm78;
  by_handle.gap_extend = -10;
  const Response streamed = client.call(by_handle);
  const auto* part = std::get_if<service::AlignPartResponse>(&streamed);
  ASSERT_NE(part, nullptr);
  EXPECT_TRUE(part->last);

  AlignRequest buffered;
  buffered.matrix = WireMatrix::kMdm78;
  buffered.gap_extend = -10;
  buffered.a = a;
  buffered.b = b;
  const Response direct = client.call(std::move(buffered));
  const auto* full = std::get_if<AlignResponse>(&direct);
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(part->score, full->score);
  EXPECT_EQ(part->cigar_part, full->cigar);
}

TEST(Router, ChunkWithoutABeginIsRejectedAtTheRouter) {
  Fleet fleet(2);
  Client client = fleet.connect();
  service::SeqChunkRequest chunk;
  chunk.upload_token = 999999;  // no SEQ_BEGIN installed a route
  chunk.data = "ACGT";
  const Response response = client.call(chunk);
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);
}

TEST(Router, AlignRefForUnknownHandlesIsAnsweredLocally) {
  Fleet fleet(2);
  Client client = fleet.connect();
  service::AlignRefRequest request;
  request.ref_a = 31337;
  request.matrix = WireMatrix::kMdm78;
  request.b = "HEAGAWGHEE";
  const Response response = client.call(request);
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kRefNotFound);
}

TEST(Router, StatsIsAnsweredLocallyWithRouterMetrics) {
  Fleet fleet(2);
  Client client = fleet.connect();
  (void)client.call(protein_request("TLDKLLKD", "TDVLKAD"));
  const Response response = client.call(StatsRequest{});
  const auto* stats = std::get_if<StatsResponse>(&response);
  ASSERT_NE(stats, nullptr);
  double requests = -1.0, healthy = -1.0, uptime = -1.0;
  for (const auto& [name, value] : stats->entries) {
    if (name == "router.requests") requests = value;
    if (name == "router.backends_healthy") healthy = value;
    if (name == "uptime_ms") uptime = value;
  }
  EXPECT_GE(requests, 1.0);
  EXPECT_EQ(healthy, 2.0);
  EXPECT_GE(uptime, 0.0);
}

TEST(Router, StartRequiresAReachableBackend) {
  AlignmentServer parked;
  parked.start();
  const std::uint16_t dead = parked.port();
  parked.stop();
  RouterConfig config;
  config.backends = {{"127.0.0.1", dead}};
  Router router(config);
  EXPECT_THROW(router.start(), std::runtime_error);
}

TEST(Router, StopIsIdempotentAndStopsServing) {
  Fleet fleet(1);
  {
    Client client = fleet.connect();
    const Response response =
        client.call(protein_request("TLDKLLKD", "TDVLKAD"));
    ASSERT_TRUE(std::holds_alternative<AlignResponse>(response));
  }
  fleet.router->stop();
  EXPECT_FALSE(fleet.router->running());
  fleet.router->stop();  // second stop is a no-op
  Client late;
  EXPECT_THROW(late.connect("127.0.0.1", fleet.router->port()),
               service::TransportError);
}

TEST(Router, ReadmittedBackendIsResyncedAndStaleHandlesPruned) {
  // A backend that dies and comes back EMPTY (restarted without its
  // store) must not keep serving from the router's stale placement
  // table: on readmission the router asks REF_LIST and prunes handles
  // the backend no longer owns, so the client gets REF_NOT_FOUND from
  // the router instead of an undefined answer.
  RouterConfig config;
  config.health_interval_ms = 50;
  Fleet fleet(1, config);
  Client client = fleet.connect();

  Client::UploadOptions options;
  options.matrix = WireMatrix::kMdm78;
  options.token = 4001;
  const Response uploaded =
      client.upload_sequence("HEAGAWGHEETLDKLLKD", options);
  const auto* ok = std::get_if<service::SeqOkResponse>(&uploaded);
  ASSERT_NE(ok, nullptr);
  const std::uint64_t stale_handle = ok->ref_id;

  const std::uint64_t resyncs_before = counter("router.backend.resyncs");
  const std::uint64_t pruned_before = counter("router.refs_pruned");

  // Restart the backend on the same port with none of its state.
  const std::uint16_t port = fleet.backends[0]->port();
  ServiceConfig blank;
  blank.workers = 2;
  blank.port = port;
  fleet.backends[0]->stop();
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (obs::metrics().gauge("router.backends_healthy").value() == 0.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  fleet.backends[0] = std::make_unique<AlignmentServer>(blank);
  fleet.backends[0]->start();

  bool resynced = false;
  for (int attempt = 0; attempt < 200 && !resynced; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    resynced = counter("router.backend.resyncs") > resyncs_before;
  }
  ASSERT_TRUE(resynced) << "readmission never triggered a REF_LIST re-sync";
  EXPECT_GT(counter("router.refs_pruned"), pruned_before);

  service::AlignRefRequest request;
  request.ref_a = stale_handle;
  request.matrix = WireMatrix::kMdm78;
  request.b = "HEAGAWGHEE";
  const Response response = client.call(request);
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kRefNotFound);
}

TEST(Router, CompletedUploadEvictsItsPlacementRoute) {
  // The placement map must not remember finished uploads: a sealed
  // session's route is evicted on the SEQ_END ack, so the gauge returns
  // to zero once the upload completes.
  Fleet fleet(2);
  Client client = fleet.connect();

  Client::UploadOptions options;
  options.matrix = WireMatrix::kMdm78;
  options.token = 2001;
  options.chunk_residues = 8;
  const Response uploaded =
      client.upload_sequence("HEAGAWGHEETLDKLLKD", options);
  ASSERT_TRUE(std::holds_alternative<service::SeqOkResponse>(uploaded));
  EXPECT_EQ(obs::metrics().gauge("router.upload_placements").value(), 0.0);
}

TEST(Router, AbandonedUploadRouteIsSweptAfterTheTtl) {
  // A client that opens a session and vanishes must not pin a map entry
  // forever: the TTL sweep evicts the stale route, counts it, and a late
  // chunk for the dead token gets the no-route refusal.
  RouterConfig config;
  config.upload_route_ttl_ms = 100;
  Fleet fleet(2, config);
  Client client = fleet.connect();

  const std::uint64_t expired_before = counter("router.upload_routes_expired");
  service::SeqBeginRequest begin;
  begin.upload_token = 3001;
  begin.matrix = WireMatrix::kMdm78;
  const Response opened = client.call(begin);
  ASSERT_TRUE(std::holds_alternative<service::SeqOkResponse>(opened));
  EXPECT_EQ(obs::metrics().gauge("router.upload_placements").value(), 1.0);

  // ...client walks away. Poll: the monitor sweep runs every ttl/4 ms.
  bool swept = false;
  for (int attempt = 0; attempt < 100 && !swept; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    swept = obs::metrics().gauge("router.upload_placements").value() == 0.0;
  }
  EXPECT_TRUE(swept) << "abandoned route was never evicted";
  EXPECT_GT(counter("router.upload_routes_expired"), expired_before);

  service::SeqChunkRequest chunk;
  chunk.upload_token = 3001;
  chunk.data = "HEAG";
  const Response late = client.call(chunk);
  const auto* error = std::get_if<ErrorResponse>(&late);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);
}

}  // namespace
}  // namespace router
}  // namespace flsa
