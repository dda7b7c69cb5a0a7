// serve-short: short requests through the served stack. A closed loop of
// 4 connections, each a service::Client calling ALIGN (full CIGAR)
// through an in-process router::Router, which fronts 2 single-worker
// AlignmentServer backends. The router runs its default config except
// for the health-probe interval (see start_fleet). Requests are seeded protein
// pairs of 100-600 residues, so every one fits the base case.
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "flsa/flsa.hpp"
#include "router/router.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace perfbench {
namespace {

namespace svc = flsa::service;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kBackends = 2;
constexpr flsa::Score kGap = -10;

struct ShortPair {
  std::string a, b;
  double cells = 0.0;  ///< m * n
  flsa::Score score = 0;
  std::string cigar;
};

std::vector<ShortPair> make_pool(const Args& args) {
  flsa::Xoshiro256 rng(args.seed ^ 0x5e4e5e4eULL);
  flsa::MutationModel model;
  model.substitution_rate = 0.20;
  model.insertion_rate = 0.01;
  model.deletion_rate = 0.01;
  const std::size_t count = args.tiny ? 16 : 256;
  // Lengths evenly spaced over the range, the same for every seed: the
  // tail latency follows the largest pairs, so a seed that drew a few
  // more long ones would move it.
  const std::size_t shortest = args.tiny ? 30 : 100;
  const std::size_t span = args.tiny ? 60 : 501;
  std::vector<ShortPair> pool;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t length = shortest + i * span / count;
    const flsa::SequencePair pair =
        flsa::homologous_pair(flsa::Alphabet::protein(), length, model, rng);
    ShortPair p;
    p.a = pair.a.to_string();
    p.b = pair.b.to_string();
    p.cells = static_cast<double>(pair.a.size()) *
              static_cast<double>(pair.b.size());
    pool.push_back(std::move(p));
  }
  return pool;
}

const flsa::ScoringScheme& scheme() {
  static const flsa::ScoringScheme instance(flsa::scoring::mdm78(), kGap);
  return instance;
}

/// What the daemon's workers run: a persistent FastLSA Aligner.
flsa::AlignOptions worker_options() {
  flsa::AlignOptions options;
  options.strategy = flsa::Strategy::kFastLsa;
  return options;
}

svc::AlignRequest request_for(const ShortPair& p) {
  svc::AlignRequest request;
  request.matrix = svc::WireMatrix::kMdm78;
  request.gap_open = 0;
  request.gap_extend = kGap;
  request.a = p.a;
  request.b = p.b;
  return request;
}

/// Checks one ALIGN answer against the in-process oracle; returns the
/// response when it is a correct ALIGN_OK.
const svc::AlignResponse* check(const svc::Response& response,
                                const ShortPair& expected, Errors& errors) {
  if (const auto* error = std::get_if<svc::ErrorResponse>(&response)) {
    errors.fail(std::string("typed error ") + svc::to_string(error->code) +
                ": " + error->message);
    return nullptr;
  }
  const auto* ok = std::get_if<svc::AlignResponse>(&response);
  if (ok == nullptr) {
    errors.fail("unexpected response type to ALIGN");
    return nullptr;
  }
  if (ok->score != expected.score || ok->cigar != expected.cigar) {
    errors.fail("ALIGN answer differs from in-process Aligner (score " +
                std::to_string(ok->score) + " vs " +
                std::to_string(expected.score) + ")");
    return nullptr;
  }
  return ok;
}

/// 2 backends, the router in front, and the client connections. Members
/// are destroyed in reverse: clients, router, then backends.
struct Fleet {
  std::vector<std::unique_ptr<svc::AlignmentServer>> backends;
  std::unique_ptr<flsa::router::Router> router;
  std::vector<svc::Client> clients;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    clients.clear();
    router.reset();
    backends.clear();
  }
};

void start_fleet(Fleet& fleet, const std::vector<ShortPair>& pool,
                 Errors& errors) {
  flsa::router::RouterConfig router_config;
  for (std::size_t i = 0; i < kBackends; ++i) {
    // No store directory: ALIGN never touches the store, and each backend's
    // private one (under TMPDIR) goes with it.
    svc::ServiceConfig config;
    config.workers = 1;
    fleet.backends.push_back(std::make_unique<svc::AlignmentServer>(config));
    fleet.backends.back()->start();
    router_config.backends.push_back(
        {"127.0.0.1", fleet.backends.back()->port()});
  }
  // Each health probe sets a backend's reported load: its queue depth plus
  // its jobs in flight, which least-loaded routing adds to the router's
  // own in-flight count. The default 200 ms probe parks connections on
  // one backend for seconds at a time under this closed loop (throughput
  // flips between ~3.3k and ~6.7k req/s within one run), because the
  // figure is up to one interval stale and already counts the router's
  // own requests. The probe is therefore slowed past the run, and no
  // request is sent before its first round, which the router runs at
  // start: both backends then report the idle 0, and routing uses the
  // router's own in-flight count alone. A request in flight during that
  // round would leave one backend with a standing load for the whole run.
  router_config.health_interval_ms = 600000;
  flsa::obs::Gauge& healthy =
      flsa::obs::metrics().gauge("router.backends_healthy");
  healthy.set(0.0);
  fleet.router = std::make_unique<flsa::router::Router>(router_config);
  fleet.router->start();
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  while (healthy.value() < static_cast<double>(kBackends)) {
    if (Clock::now() > give_up) {
      throw std::runtime_error("router's first health round did not finish");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  for (std::size_t i = 0; i < kConnections; ++i) {
    svc::Client client;
    client.connect("127.0.0.1", fleet.router->port());
    fleet.clients.push_back(std::move(client));
  }
  // Warm-up: the whole pool once, split over the connections and sent
  // from all of them at once so that routing spreads it over both
  // workers, whose workspaces then grow before the clock starts.
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::size_t i = c; i < pool.size(); i += kConnections) {
          check(fleet.clients[c].call(request_for(pool[i])), pool[i], errors);
        }
      } catch (const std::exception& e) {
        errors.fail(std::string("warm-up: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// One closed-loop window: per-request client round trips and DP cells
/// stamped with their completion time, plus the daemon's own queue and
/// exec micros.
struct Window {
  Timeline rtt_us, cells;
  Samples queue_us, exec_us;
  double seconds = 0.0;  ///< the window's planned length
};

Window run_loop(Fleet& fleet, const std::vector<ShortPair>& pool,
                const Args& args, double seconds, Tracer& tracer,
                Errors& errors, std::uint64_t& attempted) {
  std::vector<Window> per(kConnections);
  std::vector<std::uint64_t> tries(kConnections, 0);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      flsa::Xoshiro256 rng(args.seed * 31 + c);
      svc::Client& client = fleet.clients[c];
      Window& w = per[c];
      while (Clock::now() < deadline) {
        const ShortPair& p = pool[rng.bounded(pool.size())];
        ++tries[c];
        try {
          const auto t0 = Clock::now();
          const svc::Response response = client.call(request_for(p));
          const auto t1 = Clock::now();
          const svc::AlignResponse* ok = check(response, p, errors);
          if (ok == nullptr) continue;
          tracer.record("client.align", static_cast<std::uint32_t>(c), 0,
                        ok->request_id, t0, t1);
          const double at = seconds_between(start, t1);
          w.rtt_us.add(at, std::chrono::duration<double, std::micro>(t1 - t0)
                               .count());
          w.cells.add(at, p.cells);
          w.queue_us.add(static_cast<double>(ok->queue_micros));
          w.exec_us.add(static_cast<double>(ok->exec_micros));
        } catch (const std::exception& e) {
          errors.fail(std::string("connection ") + std::to_string(c) + ": " +
                      e.what());
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Window total;
  total.seconds = seconds;
  for (std::size_t c = 0; c < kConnections; ++c) {
    total.rtt_us.append(per[c].rtt_us);
    total.cells.append(per[c].cells);
    total.queue_us.append(per[c].queue_us);
    total.exec_us.append(per[c].exec_us);
    attempted += tries[c];
  }
  return total;
}

std::uint64_t router_counter(const char* name) {
  return flsa::obs::metrics().counter(name).value();
}

}  // namespace

Result run_serve_short(const Args& args, Tracer& tracer) {
  Result result;
  Errors errors;
  std::vector<ShortPair> pool = make_pool(args);

  // Oracle: every pool pair through one in-process Aligner.
  {
    flsa::Aligner aligner(worker_options());
    for (ShortPair& p : pool) {
      const flsa::Alignment aln =
          aligner.align(flsa::Sequence(flsa::Alphabet::protein(), p.a),
                        flsa::Sequence(flsa::Alphabet::protein(), p.b),
                        scheme());
      p.score = aln.score;
      p.cigar = aln.cigar();
    }
  }
  std::vector<ShortPair> expected = pool;
  if (args.corrupt_oracle) expected.front().score += 1;

  // Set-up: backends, router, connections and the warm-up; the fleet of
  // the last repetition is measured.
  std::optional<Fleet> fleet;
  const double setup_s = median_setup_seconds(9, [&](int) {
    fleet.reset();
    release_freed_memory();
    const auto t0 = Clock::now();
    fleet.emplace();
    start_fleet(*fleet, pool, errors);
    return seconds_between(t0, Clock::now());
  });
  // Memory is read here, with the fleet warmed on the whole pool. The
  // timed window adds only this benchmark's per-request samples, about
  // 150 bytes a request, so a high-water mark taken after it grew with
  // throughput: a faster server would read as a memory regression.
  result.set("peak_rss_mb", peak_rss_mib(), "MiB");

  // `expected` is the pool with its oracle answers; under
  // --corrupt-oracle one of them is wrong and the gate must say so.
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  const Window plain =
      run_loop(*fleet, expected, args, window, tracer, errors, result.attempted);
  const double rps = plain.rtt_us.median_count_rate(plain.seconds);
  result.set("setup_s", setup_s, "s");
  result.set("throughput", rps, "1/s");
  result.set("throughput_aux", plain.cells.median_sum_rate(plain.seconds),
             "1/s");
  result.set("latency_p50_ms", plain.rtt_us.values().median() * 1e-3, "ms");
  result.set("latency_p99_ms",
             plain.rtt_us.median_quantile(0.99, plain.seconds) * 1e-3, "ms");
  std::ostringstream note;
  note << "serve-short: " << plain.rtt_us.size() << " ALIGN_OK in "
       << plain.seconds << " s over " << kConnections
       << " connections; latency samples " << plain.rtt_us.size();
  result.note(note.str());

  if (args.trace) {
    tracer.set_enabled(true);
    const std::uint64_t jobs0 = router_counter("router.coalesce.jobs");
    const std::uint64_t batches0 = router_counter("router.coalesce.batches");
    const std::uint64_t issued0 = router_counter("router.hedge.issued");
    const std::uint64_t won0 = router_counter("router.hedge.won");
    const Window traced = run_loop(*fleet, expected, args, window, tracer,
                                   errors, result.attempted);
    const double batches = static_cast<double>(
        router_counter("router.coalesce.batches") - batches0);
    const double issued =
        static_cast<double>(router_counter("router.hedge.issued") - issued0);
    result.set("trace.overhead_ratio",
               rps / traced.rtt_us.median_count_rate(traced.seconds) - 1.0,
               "ratio");
    result.set("latency_samples", static_cast<double>(traced.rtt_us.size()),
               "count");
    result.set("service.exec_us_p50", traced.exec_us.median(), "us");
    result.set("service.exec_us_p99", traced.exec_us.quantile(0.99), "us");
    result.set("service.queue_us_p50", traced.queue_us.median(), "us");
    result.set("service.queue_us_p99", traced.queue_us.quantile(0.99), "us");
    result.set("router.coalesce_jobs_per_batch",
               batches > 0.0
                   ? static_cast<double>(
                         router_counter("router.coalesce.jobs") - jobs0) /
                         batches
                   : 0.0,
               "jobs/batch");
    result.set("router.hedges_issued", issued, "count");
    result.set("router.hedge_win_ratio",
               issued > 0.0 ? static_cast<double>(
                                  router_counter("router.hedge.won") - won0) /
                                  issued
                            : 0.0,
               "ratio");

    // One connection, unloaded: the same request direct to a backend and
    // through the router, alternating which goes first.
    svc::Client direct;
    direct.connect("127.0.0.1", fleet->backends.front()->port());
    svc::Client& routed = fleet->clients.front();
    Samples direct_us, routed_us, wire_us, routed_queue_us, routed_exec_us;
    const std::size_t probes = args.tiny ? 40 : 600;
    for (std::size_t i = 0; i < probes; ++i) {
      const ShortPair& p = expected[i % expected.size()];
      const auto via = [&](svc::Client& client, const char* span) {
        ++result.attempted;
        const auto t0 = Clock::now();
        const svc::Response response = client.call(request_for(p));
        const auto t1 = Clock::now();
        const svc::AlignResponse* ok = check(response, p, errors);
        tracer.record(span, 8, 0, ok != nullptr ? ok->request_id : 0, t0, t1);
        const double rtt =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        if (ok != nullptr && &client == &direct) {
          direct_us.add(rtt);
          wire_us.add(rtt - static_cast<double>(ok->queue_micros) -
                      static_cast<double>(ok->exec_micros));
        } else if (ok != nullptr) {
          routed_us.add(rtt);
          routed_queue_us.add(static_cast<double>(ok->queue_micros));
          routed_exec_us.add(static_cast<double>(ok->exec_micros));
        }
      };
      if (i % 2 == 0) {
        via(direct, "client.align.direct");
        via(routed, "client.align.routed");
      } else {
        via(routed, "client.align.routed");
        via(direct, "client.align.direct");
      }
    }
    const double hop_us = routed_us.median() - direct_us.median();
    result.set("service.wire_us", wire_us.median(), "us");
    result.set("router.hop_us", hop_us, "us");

    // Closure: on the one-connection routed path the stages must add up
    // to the round trip. Under the 4-connection load the same sum leaves
    // out whatever the requests waited for inside the router.
    const double rtt = routed_us.median();
    const double stages = hop_us + wire_us.median() + routed_queue_us.median() +
                          routed_exec_us.median();
    const double tolerance = 0.1 * rtt;
    const double loaded_rtt = traced.rtt_us.values().median();
    const double loaded_stages = hop_us + wire_us.median() +
                                 traced.queue_us.median() +
                                 traced.exec_us.median();
    result.set("serve.closure_residual_us", rtt - stages, "us");
    result.set("serve.closure_tolerance_us", tolerance, "us");
    result.set("serve.loaded_unattributed_us", loaded_rtt - loaded_stages,
               "us");
    std::ostringstream closure;
    closure << "closure: routed round trip p50 " << rtt
            << " us vs hop + wire + queue + exec = " << stages
            << " us; residual " << rtt - stages << " us, tolerance +-"
            << tolerance << " us ("
            << (std::abs(rtt - stages) <= tolerance ? "holds" : "FAILS")
            << "); under load " << loaded_rtt << " us vs " << loaded_stages
            << " us";
    result.note(closure.str());
  }
  fleet.reset();

  if (args.trace) {
    // core: the request pool replayed through one in-process Aligner,
    // once to warm it and once with a clean registry.
    flsa::obs::set_enabled(true);
    flsa::Aligner aligner(worker_options());
    std::vector<flsa::Sequence> as, bs;
    for (const ShortPair& p : pool) {
      as.emplace_back(flsa::Alphabet::protein(), p.a);
      bs.emplace_back(flsa::Alphabet::protein(), p.b);
    }
    for (std::size_t i = 0; i < pool.size(); ++i) {
      aligner.align(as[i], bs[i], scheme());
    }
    flsa::obs::metrics().reset();
    Samples align_us;
    double misses = 0.0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      flsa::AlignReport report;
      const auto t0 = Clock::now();
      const flsa::Alignment aln = aligner.align(as[i], bs[i], scheme(), &report);
      const auto t1 = Clock::now();
      tracer.record("core.align", 9, 0, i, t0, t1);
      ++result.attempted;
      if (aln.score != expected[i].score) errors.fail("replay score differs");
      align_us.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
      misses += static_cast<double>(report.stats.arena_pool_misses);
    }
    const double fill_s = flsa::obs::metrics()
                              .histogram("phase.fill-grid.seconds")
                              .snapshot()
                              .sum;
    const double base_s = flsa::obs::metrics()
                              .histogram("phase.base-case.seconds")
                              .snapshot()
                              .sum;
    result.set("core.fill_grid_s", fill_s, "s");
    result.set("core.base_case_s", base_s, "s");
    result.set("core.base_case_share",
               fill_s + base_s > 0.0 ? base_s / (fill_s + base_s) : 0.0,
               "ratio");
    result.set("core.fill_grid_cells",
               static_cast<double>(
                   flsa::obs::metrics().counter("phase.fill-grid.cells").value()),
               "count");
    result.set("core.base_case_cells",
               static_cast<double>(
                   flsa::obs::metrics().counter("phase.base-case.cells").value()),
               "count");
    result.set("core.align_us_p50", align_us.median(), "us");
    result.set("core.arena_misses_warm", misses, "count");
    flsa::obs::set_enabled(false);
  }

  result.failed = errors.count();
  for (const std::string& m : errors.messages()) result.note("error: " + m);
  return result;
}

}  // namespace perfbench
