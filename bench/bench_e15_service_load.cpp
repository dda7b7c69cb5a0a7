// E15 — alignment service under closed-loop load (our addition; the
// serving-shape experiment the ROADMAP's "heavy traffic" north star asks
// for).
//
// Starts an in-process AlignmentServer on an ephemeral loopback port and
// drives it with C concurrent closed-loop clients (each sends a request,
// waits for the answer, repeats). Reports throughput and exact
// p50/p95/p99 latency per concurrency level, then demonstrates admission
// control: against a queue of capacity 1 a pipelined burst is answered
// with OVERLOADED rejections instead of unbounded queueing.
//
// Feeds BENCH_service.json so CI tracks the serving-path trajectory the
// same way BENCH_sched.json tracks the wavefront executor.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "benchlib/workloads.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "router/router.hpp"
#include "sequence/generate.hpp"
#include "service/client.hpp"
#include "service/fault.hpp"
#include "service/server.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

struct LoadRow {
  unsigned connections = 0;
  std::size_t requests = 0;
  double wall_s = 0.0;
  double rps = 0.0;
  flsa::LatencyQuantiles latency;  // milliseconds
  std::size_t errors = 0;
};

/// C closed-loop clients, `per_client` requests each. Every latency sample
/// is kept; quantiles are exact order statistics (support/stats).
LoadRow run_closed_loop(std::uint16_t port,
                        const flsa::service::AlignRequest& prototype,
                        unsigned connections, std::size_t per_client) {
  std::vector<std::vector<double>> latencies(connections);
  std::atomic<std::size_t> errors{0};
  std::vector<std::thread> clients;
  clients.reserve(connections);
  const auto wall_start = std::chrono::steady_clock::now();
  for (unsigned c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      try {
        flsa::service::Client client;
        client.connect("127.0.0.1", port);
        latencies[c].reserve(per_client);
        for (std::size_t i = 0; i < per_client; ++i) {
          flsa::service::AlignRequest request = prototype;
          request.request_id = 0;
          const auto t0 = std::chrono::steady_clock::now();
          const flsa::service::Response response =
              client.call(std::move(request));
          const auto t1 = std::chrono::steady_clock::now();
          if (!std::holds_alternative<flsa::service::AlignResponse>(
                  response)) {
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          latencies[c].push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
        }
      } catch (const std::exception&) {
        errors.fetch_add(per_client, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::vector<double> all;
  for (const auto& per_conn : latencies) {
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  LoadRow row;
  row.connections = connections;
  row.requests = all.size();
  row.wall_s = wall;
  row.rps = wall > 0.0 ? static_cast<double>(all.size()) / wall : 0.0;
  row.latency = flsa::latency_quantiles(all);
  row.errors = errors.load();
  return row;
}

/// Outcome of the faulty-network section: requests pushed through a
/// chaos fault plan by retrying clients, plus the client.retry.* counter
/// deltas that show what the recovery cost.
struct FaultyRun {
  std::size_t requests = 0;
  std::size_t succeeded = 0;       ///< ALIGN_OK after <= max_attempts
  std::size_t typed_failures = 0;  ///< typed error/exception terminations
  std::uint64_t retry_attempts = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t recovered = 0;
  std::uint64_t exhausted = 0;
};

FaultyRun run_faulty(std::uint16_t port,
                     const flsa::service::AlignRequest& prototype,
                     unsigned connections, std::size_t per_client) {
  const std::uint64_t attempts0 =
      flsa::obs::metrics().counter("client.retry.attempts").value();
  const std::uint64_t reconnects0 =
      flsa::obs::metrics().counter("client.retry.reconnects").value();
  const std::uint64_t recovered0 =
      flsa::obs::metrics().counter("client.retry.recovered").value();
  const std::uint64_t exhausted0 =
      flsa::obs::metrics().counter("client.retry.exhausted").value();

  std::atomic<std::size_t> succeeded{0}, typed_failures{0};
  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (unsigned c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      flsa::service::RetryPolicy policy;
      policy.max_attempts = 8;
      policy.base_delay = std::chrono::milliseconds(1);
      policy.max_delay = std::chrono::milliseconds(50);
      policy.seed = 0xFEED + c;
      flsa::service::Client client;
      try {
        client.connect("127.0.0.1", port);
      } catch (const std::exception&) {
        typed_failures.fetch_add(per_client, std::memory_order_relaxed);
        return;
      }
      for (std::size_t i = 0; i < per_client; ++i) {
        flsa::service::AlignRequest request = prototype;
        request.request_id = 0;
        try {
          const flsa::service::Response response =
              client.call_with_retry(std::move(request), policy);
          if (std::holds_alternative<flsa::service::AlignResponse>(
                  response)) {
            succeeded.fetch_add(1, std::memory_order_relaxed);
          } else {
            typed_failures.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception&) {
          // TransportError after exhausted retries, or a ProtocolError
          // from a corrupt fault — typed either way.
          typed_failures.fetch_add(1, std::memory_order_relaxed);
          client.close();
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  FaultyRun run;
  run.requests = static_cast<std::size_t>(connections) * per_client;
  run.succeeded = succeeded.load();
  run.typed_failures = typed_failures.load();
  run.retry_attempts =
      flsa::obs::metrics().counter("client.retry.attempts").value() -
      attempts0;
  run.reconnects =
      flsa::obs::metrics().counter("client.retry.reconnects").value() -
      reconnects0;
  run.recovered =
      flsa::obs::metrics().counter("client.retry.recovered").value() -
      recovered0;
  run.exhausted =
      flsa::obs::metrics().counter("client.retry.exhausted").value() -
      exhausted0;
  return run;
}

/// One router-fronted fleet size: the closed-loop rows per connection
/// level plus the router counter deltas that show how the front tier
/// behaved (failovers needed).
struct RouterTier {
  std::size_t backends = 0;
  std::vector<LoadRow> rows;
  std::uint64_t failovers = 0;

  /// Best throughput over the connection sweep — the tier's capacity.
  double peak_rps() const {
    double best = 0.0;
    for (const LoadRow& row : rows) best = std::max(best, row.rps);
    return best;
  }
};

/// Spins up `backend_count` single-worker backends behind one router and
/// drives the router with the closed-loop sweep. Single-worker backends
/// make the scaling story honest: each backend contributes one core of
/// alignment capacity, so fleet throughput should track fleet size until
/// the host runs out of cores.
RouterTier run_router_tier(std::size_t backend_count,
                           const flsa::service::AlignRequest& prototype,
                           const std::vector<unsigned>& connection_levels,
                           std::size_t total_requests) {
  namespace obs = flsa::obs;
  const std::uint64_t failovers0 =
      obs::metrics().counter("router.failovers").value();

  std::vector<std::unique_ptr<flsa::service::AlignmentServer>> backends;
  flsa::router::RouterConfig router_config;
  for (std::size_t i = 0; i < backend_count; ++i) {
    flsa::service::ServiceConfig backend_config;
    backend_config.workers = 1;
    backend_config.queue_capacity = 256;
    backends.push_back(
        std::make_unique<flsa::service::AlignmentServer>(backend_config));
    backends.back()->start();
    router_config.backends.push_back({"127.0.0.1", backends.back()->port()});
  }
  flsa::router::Router router(router_config);
  router.start();

  RouterTier tier;
  tier.backends = backend_count;
  for (unsigned connections : connection_levels) {
    const std::size_t per_client =
        std::max<std::size_t>(8, total_requests / connections);
    tier.rows.push_back(
        run_closed_loop(router.port(), prototype, connections, per_client));
  }
  router.stop();
  for (auto& backend : backends) backend->stop();

  tier.failovers =
      obs::metrics().counter("router.failovers").value() - failovers0;
  return tier;
}

void write_load_rows(std::ofstream& out, const std::vector<LoadRow>& rows,
                     const char* indent) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LoadRow& r = rows[i];
    out << indent << "{\"connections\": " << r.connections
        << ", \"requests\": " << r.requests << ", \"wall_s\": " << r.wall_s
        << ", \"throughput_rps\": " << r.rps << ", \"p50_ms\": "
        << r.latency.p50 << ", \"p95_ms\": " << r.latency.p95
        << ", \"p99_ms\": " << r.latency.p99 << ", \"max_ms\": "
        << r.latency.max << ", \"errors\": " << r.errors << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
}

void write_json(const std::string& path, unsigned workers,
                std::size_t pair_length, const std::vector<LoadRow>& rows,
                std::size_t overload_accepted, std::size_t overload_rejected,
                const std::string& fault_plan, const FaultyRun& faulty,
                const std::vector<RouterTier>& tiers, double speedup_4_vs_1) {
  std::ofstream out(path);
  if (!out) return;
  out << "{\n  \"workers\": " << workers
      << ",\n  \"pair_length\": " << pair_length << ",\n  \"load\": [\n";
  write_load_rows(out, rows, "    ");
  out << "  ],\n  \"overload\": {\"accepted\": " << overload_accepted
      << ", \"rejected_overloaded\": " << overload_rejected << "},\n"
      << "  \"faulty\": {\"fault_plan\": \"" << fault_plan
      << "\", \"requests\": " << faulty.requests
      << ", \"succeeded\": " << faulty.succeeded
      << ", \"typed_failures\": " << faulty.typed_failures
      << ", \"retry_attempts\": " << faulty.retry_attempts
      << ", \"reconnects\": " << faulty.reconnects
      << ", \"recovered\": " << faulty.recovered
      << ", \"exhausted\": " << faulty.exhausted << "},\n"
      << "  \"multi_backend\": {\n    \"tiers\": [\n";
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    const RouterTier& tier = tiers[t];
    out << "      {\"backends\": " << tier.backends
        << ", \"peak_rps\": " << tier.peak_rps()
        << ", \"failovers\": " << tier.failovers << ", \"load\": [\n";
    write_load_rows(out, tier.rows, "        ");
    out << "      ]}" << (t + 1 < tiers.size() ? "," : "") << "\n";
  }
  out << "    ],\n    \"speedup_4_backends_vs_1\": " << speedup_4_vs_1
      << "\n  }\n}\n";
}

}  // namespace

int main() {
  std::cout << "=== E15: service closed-loop load ===\n\n";

  // Small-request serving workload: the daemon shape matters most when
  // per-request work is modest and arrival concurrency is high.
  const std::size_t pair_length = 256;
  const flsa::SequencePair pair =
      flsa::bench::sized_workload(pair_length).make();
  flsa::service::AlignRequest prototype;
  prototype.matrix = flsa::service::WireMatrix::kMdm78;
  prototype.gap_extend = -10;
  prototype.a = pair.a.to_string();
  prototype.b = pair.b.to_string();

  flsa::service::ServiceConfig config;
  config.queue_capacity = 256;
  flsa::service::AlignmentServer server(config);
  server.start();
  const unsigned workers = config.workers != 0 ? config.workers
                                               : flsa::default_thread_count();
  std::cout << "server on 127.0.0.1:" << server.port() << " (workers="
            << workers << ", queue=" << config.queue_capacity << ")\n\n";

  const std::size_t total_requests = 2048;
  std::vector<LoadRow> rows;
  flsa::Table table({"conns", "requests", "wall s", "req/s", "p50 ms",
                     "p95 ms", "p99 ms", "max ms", "errors"});
  for (unsigned connections : {1u, 8u, 32u, 64u}) {
    const std::size_t per_client =
        std::max<std::size_t>(8, total_requests / connections);
    const LoadRow row =
        run_closed_loop(server.port(), prototype, connections, per_client);
    rows.push_back(row);
    table.add_row({std::to_string(row.connections),
                   std::to_string(row.requests),
                   flsa::Table::num(row.wall_s), flsa::Table::num(row.rps),
                   flsa::Table::num(row.latency.p50),
                   flsa::Table::num(row.latency.p95),
                   flsa::Table::num(row.latency.p99),
                   flsa::Table::num(row.latency.max),
                   std::to_string(row.errors)});
  }
  table.print(std::cout);
  std::cout << "\nClosed-loop clients: offered load rises with connections"
               " until the worker pool\nsaturates; past that, added"
               " connections buy queueing latency, not throughput\n(the"
               " shape Little's law predicts).\n";
  server.stop();

  // ---- Admission control under a deliberately tiny queue. ----
  std::cout << "\n=== overload: queue capacity 1, pipelined burst ===\n\n";
  flsa::service::ServiceConfig tiny;
  tiny.queue_capacity = 1;
  tiny.workers = 1;
  flsa::service::AlignmentServer tiny_server(tiny);
  tiny_server.start();
  std::size_t accepted = 0, rejected = 0, other = 0;
  {
    flsa::service::Client client;
    client.connect("127.0.0.1", tiny_server.port());
    const std::size_t burst = 32;
    for (std::size_t i = 0; i < burst; ++i) {
      flsa::service::AlignRequest request = prototype;
      request.request_id = 0;
      client.send(std::move(request));
    }
    for (std::size_t i = 0; i < burst; ++i) {
      const flsa::service::Response response = client.receive();
      if (std::holds_alternative<flsa::service::AlignResponse>(response)) {
        ++accepted;
      } else if (const auto* err =
                     std::get_if<flsa::service::ErrorResponse>(&response);
                 err != nullptr &&
                 err->code == flsa::service::ErrorCode::kOverloaded) {
        ++rejected;
      } else {
        ++other;
      }
    }
  }
  tiny_server.stop();
  std::cout << "burst of 32 -> accepted " << accepted << ", OVERLOADED "
            << rejected << ", other " << other
            << "\n(bounded queue + typed rejection instead of a hang: the"
               " client can back off)\n";

  // ---- Faulty network: the chaos plan vs the retry/backoff layer. ----
  std::cout << "\n=== faulty network: fault plan vs call_with_retry ===\n\n";
  const std::string fault_plan_spec =
      "seed=42,reject=0.15,drop=0.03,delay=0.05:2";
  flsa::service::ServiceConfig faulty_config;
  faulty_config.queue_capacity = 256;
  faulty_config.fault_plan = flsa::service::parse_fault_plan(fault_plan_spec);
  flsa::service::AlignmentServer faulty_server(faulty_config);
  faulty_server.start();
  const FaultyRun faulty =
      run_faulty(faulty_server.port(), prototype, 8, 64);
  faulty_server.stop();
  std::cout << "plan " << fault_plan_spec << "\n"
            << faulty.requests << " requests -> " << faulty.succeeded
            << " succeeded, " << faulty.typed_failures
            << " typed failures\nretry attempts " << faulty.retry_attempts
            << ", reconnects " << faulty.reconnects << ", recovered "
            << faulty.recovered << ", exhausted " << faulty.exhausted
            << "\n(decorrelated-jitter backoff turns injected overload and"
               " dropped connections\ninto latency, not errors)\n";

  // ---- Router-fronted fleets: does capacity track fleet size? ----
  std::cout << "\n=== router front tier: 1 router x {1,2,4} backends ===\n\n";
  // Heavier pairs than the single-server sweep: per-request DP work must
  // dominate the extra wire hop, so fleet throughput measures backend
  // capacity (what adding backends buys) rather than loopback latency.
  const std::size_t router_pair_length = 512;
  const flsa::SequencePair router_pair =
      flsa::bench::sized_workload(router_pair_length).make();
  flsa::service::AlignRequest router_prototype;
  router_prototype.matrix = flsa::service::WireMatrix::kMdm78;
  router_prototype.gap_extend = -10;
  router_prototype.a = router_pair.a.to_string();
  router_prototype.b = router_pair.b.to_string();
  const std::vector<unsigned> router_connections = {1u, 8u, 32u, 64u};
  std::vector<RouterTier> tiers;
  flsa::Table router_table({"backends", "conns", "req/s", "p50 ms", "p95 ms",
                            "p99 ms", "errors"});
  for (std::size_t backend_count : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const RouterTier tier = run_router_tier(backend_count, router_prototype,
                                            router_connections, 1024);
    for (const LoadRow& row : tier.rows) {
      router_table.add_row({std::to_string(tier.backends),
                            std::to_string(row.connections),
                            flsa::Table::num(row.rps),
                            flsa::Table::num(row.latency.p50),
                            flsa::Table::num(row.latency.p95),
                            flsa::Table::num(row.latency.p99),
                            std::to_string(row.errors)});
    }
    tiers.push_back(tier);
  }
  router_table.print(std::cout);
  const double speedup_4_vs_1 =
      tiers.front().peak_rps() > 0.0
          ? tiers.back().peak_rps() / tiers.front().peak_rps()
          : 0.0;
  std::cout << "\nper-tier router activity:\n";
  for (const RouterTier& tier : tiers) {
    std::cout << "  " << tier.backends << " backend(s): failovers "
              << tier.failovers << "\n";
  }
  std::cout << "speedup 4 backends vs 1 (peak req/s): "
            << flsa::Table::num(speedup_4_vs_1)
            << "\n(single-worker backends: fleet capacity should track"
               " fleet size until the host\nruns out of cores — the CI"
               " gate asserts >= 2.5x on 4-vCPU runners)\n";

  write_json("BENCH_service.json", workers, pair_length, rows, accepted,
             rejected, fault_plan_spec, faulty, tiers, speedup_4_vs_1);
  std::cout << "\nwrote BENCH_service.json\n";
  return 0;
}
