// Chaos soak for the router tier: plain (non-retrying) clients against a
// router whose backends run the PR-5 fault injector. The backends lie,
// stall, corrupt, truncate, and die — the router's failover and
// ejection must absorb all of it, so the contract at the router's
// client edge is *stronger* than at a bare backend's: every request
// terminates in an ALIGN_OK bit-identical to direct align() or a typed
// ErrorResponse. The clients here deliberately use call(), not
// call_with_retry(): surviving backend chaos is the router's job now.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/aligner.hpp"
#include "obs/metrics.hpp"
#include "router/router.hpp"
#include "scoring/builtin.hpp"
#include "scoring/scheme.hpp"
#include "sequence/generate.hpp"
#include "service/client.hpp"
#include "service/fault.hpp"
#include "service/server.hpp"

namespace flsa {
namespace router {
namespace {

using service::AlignRequest;
using service::AlignResponse;
using service::Client;
using service::ErrorResponse;
using service::Response;
using service::ServiceConfig;
using service::TransportError;
using service::WireMatrix;

std::uint64_t counter(const char* name) {
  return obs::metrics().counter(name).value();
}

/// Backends (each with its own fault plan) plus one router in front.
struct ChaosFleet {
  std::vector<std::unique_ptr<service::AlignmentServer>> backends;
  std::unique_ptr<Router> router;

  ChaosFleet(const std::vector<std::string>& fault_plans,
             RouterConfig config = {}) {
    for (const std::string& spec : fault_plans) {
      ServiceConfig backend_config;
      backend_config.workers = 2;
      backend_config.fault_plan = service::parse_fault_plan(spec);
      backends.push_back(
          std::make_unique<service::AlignmentServer>(backend_config));
      backends.back()->start();
      config.backends.push_back({"127.0.0.1", backends.back()->port()});
    }
    router = std::make_unique<Router>(config);
    router->start();
  }

  ~ChaosFleet() {
    router->stop();
    for (auto& backend : backends) backend->stop();
  }
};

struct Tally {
  std::atomic<std::uint64_t> correct{0};
  std::atomic<std::uint64_t> rejected{0};   ///< typed ErrorResponse
  std::atomic<std::uint64_t> transport{0};  ///< client-side TransportError
  std::atomic<std::uint64_t> wrong{0};      ///< the unforgivable bucket
};

TEST(RouterChaos, EveryRequestTerminatesCorrectOrTypedAcrossAFaultyFleet) {
  // Three backends, three distinct failure personalities: an overloaded
  // rejecter, a connection killer (drops + mid-write truncation), and a
  // frame corrupter. The router re-fires retryable rejections, fails
  // channel victims over, and discards corrupt frames with the channel —
  // so a plain client must never see a damaged frame or a hang.
  ChaosFleet fleet(
      {
          "seed=17,reject=0.15,delay=0.1:5",
          "seed=29,drop=0.08,truncate=0.08",
          "seed=31,corrupt=0.08,reject=0.1",
      },
      [] {
        RouterConfig config;
        config.max_attempts = 4;
        return config;
      }());

  Xoshiro256 rng(4242);
  MutationModel model;
  const SequencePair pair =
      homologous_pair(Alphabet::protein(), 112, model, rng);
  const std::string a = pair.a.to_string();
  const std::string b = pair.b.to_string();
  AlignOptions options;
  options.strategy = Strategy::kFastLsa;
  const Score expected =
      align(Sequence(Alphabet::protein(), a), Sequence(Alphabet::protein(), b),
            ScoringScheme(scoring::mdm78(), -10), options)
          .score;

  constexpr unsigned kClients = 3;
  constexpr int kRequestsEach = 24;
  Tally tally;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      try {
        client.connect("127.0.0.1", fleet.router->port());
      } catch (const TransportError&) {
        tally.transport.fetch_add(kRequestsEach);
        return;
      }
      for (int i = 0; i < kRequestsEach; ++i) {
        AlignRequest request;
        request.matrix = WireMatrix::kMdm78;
        request.gap_extend = -10;
        request.a = a;
        request.b = b;
        try {
          const Response response = client.call(std::move(request));
          if (const auto* ok = std::get_if<AlignResponse>(&response)) {
            if (ok->score == expected) {
              tally.correct.fetch_add(1);
            } else {
              tally.wrong.fetch_add(1);
              failures[t] = "wrong score " + std::to_string(ok->score) +
                            " (expected " + std::to_string(expected) + ")";
              return;
            }
          } else if (std::holds_alternative<ErrorResponse>(response)) {
            tally.rejected.fetch_add(1);
          } else {
            failures[t] = "response of an unexpected verb";
            return;
          }
        } catch (const TransportError&) {
          tally.transport.fetch_add(1);
          return;  // this connection is spent; its remaining calls moot
        } catch (const std::exception& e) {
          failures[t] = std::string("untyped failure: ") + e.what();
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (unsigned t = 0; t < kClients; ++t) {
    EXPECT_EQ(failures[t], "") << "client " << t;
  }
  EXPECT_EQ(tally.wrong.load(), 0u)
      << "a backend fault leaked through the router as a wrong score";
  EXPECT_EQ(tally.transport.load(), 0u)
      << "the router's client edge must stay clean while backends burn";
  // The router gets max_attempts tries across three backends, only one of
  // which rejects deterministically often — the overwhelming majority of
  // requests must come back correct, not as exhausted-attempt errors.
  EXPECT_GE(tally.correct.load(), std::uint64_t(kClients) * kRequestsEach / 2)
      << "correct=" << tally.correct << " rejected=" << tally.rejected
      << " transport=" << tally.transport;
}

TEST(RouterChaos, RejectedPipelinedAlignsAnswerEveryRequestTyped) {
  // A backend that refuses every frame at admission answers each with a
  // typed ERROR. The router must map every refusal back to its op and
  // answer (or re-fire) it — not orphan it until a channel timeout
  // rescues the wreck. With an always-rejecting backend every pipelined
  // request must come back as a typed OVERLOADED, promptly.
  RouterConfig config;
  config.channels_per_backend = 1;
  config.max_attempts = 2;
  ChaosFleet fleet({"seed=1,reject=1"}, config);

  Client client;
  client.connect("127.0.0.1", fleet.router->port());
  constexpr int kRequests = 64;
  for (int i = 0; i < kRequests; ++i) {
    AlignRequest request;
    request.matrix = WireMatrix::kMdm78;
    request.gap_extend = -10;
    request.a = "TLDKLLKD";
    request.b = "TDVLKAD";
    (void)client.send(std::move(request));
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRequests; ++i) {
    const Response response = client.receive();
    const auto* error = std::get_if<ErrorResponse>(&response);
    ASSERT_NE(error, nullptr) << "response " << i << " was not an ERROR";
    EXPECT_EQ(error->code, service::ErrorCode::kOverloaded);
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // Rejections are instant; anything near a timeout means requests were
  // orphaned and rescued by a channel death instead of being answered.
  EXPECT_LT(elapsed.count(), 5000) << "requests were orphaned, not answered";
}

TEST(RouterChaos, MidFlightBackendDeathFailsOverWithoutALostRequest) {
  // Kill a backend while the router considers it healthy (the health
  // interval is parked at a minute, so ejection cannot save the day) and
  // keep sending: every request routed at the corpse must fail over to
  // the survivor and still come back bit-identical.
  RouterConfig config;
  config.health_interval_ms = 60000;
  ChaosFleet fleet({"off", "off"}, config);

  Client client;
  client.connect("127.0.0.1", fleet.router->port());
  AlignRequest warm;
  warm.matrix = WireMatrix::kMdm78;
  warm.gap_extend = -10;
  warm.a = "TLDKLLKD";
  warm.b = "TDVLKAD";
  {
    const Response response = client.call(warm);
    const auto* ok = std::get_if<AlignResponse>(&response);
    ASSERT_NE(ok, nullptr);
    ASSERT_EQ(ok->score, 82);
  }

  const std::uint64_t failovers_before = counter("router.failovers");
  fleet.backends[0]->stop();  // mid-session, unannounced

  for (int i = 0; i < 12; ++i) {
    AlignRequest request = warm;
    const Response response = client.call(std::move(request));
    const auto* ok = std::get_if<AlignResponse>(&response);
    ASSERT_NE(ok, nullptr) << "request " << i << " lost to the dead backend";
    EXPECT_EQ(ok->score, 82);
  }
  // Least-loaded routing keeps picking the (nominally healthy) corpse, so
  // at least one of those answers must have been rescued by failover.
  EXPECT_GT(counter("router.failovers"), failovers_before);
}

}  // namespace
}  // namespace router
}  // namespace flsa
