// search-ref: reads and writes on one daemon, with no router in front.
// Set-up uploads a seeded ~2 Mbp DNA reference with a k-mer index into a
// persistent store directory. Then 3 connections SEARCH ~1.5 kbp reads
// sampled from the reference and mutated, while a 4th connection streams
// a new, distinct ~256 kbp sequence per upload (SEQ_BEGIN, SEQ_CHUNKs,
// SEQ_END without an index), over and over at a fixed pace.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "flsa/flsa.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "support/fnv.hpp"

namespace perfbench {
namespace {

namespace svc = flsa::service;

constexpr std::size_t kSearchConnections = 3;
constexpr unsigned kWorkers = 2;
constexpr std::uint32_t kSeedK = 12;
constexpr flsa::Score kGap = -10;
/// One upload starts every period (40 uploads/s, ~10 Mresidue/s offered).
constexpr auto kUploadPeriod = std::chrono::milliseconds(25);

struct Sizes {
  std::size_t reference, query, queries, upload, chunk;
};

Sizes sizes(const Args& args) {
  // About 1 read in 200 costs 3-5x the median search (0 to 3 of every 256
  // drawn), and a few such reads set the p99 round trip. A pool of 2048
  // holds about ten of them for every seed, so p99 follows their rate, not
  // how many one seed happened to draw.
  if (args.tiny) return {50'000, 600, 8, 8'192, 2'048};
  return {2'000'000, 1'500, 2'048, 262'144, 65'536};
}

const flsa::ScoringScheme& scheme() {
  static const flsa::SubstitutionMatrix matrix = flsa::scoring::dna();
  static const flsa::ScoringScheme instance(matrix, kGap);
  return instance;
}

struct Query {
  std::string letters;
  std::vector<svc::WireHit> expected;
};

svc::WireHit to_wire(const flsa::search::SearchHit& hit) {
  svc::WireHit wire;
  wire.score = hit.alignment.score;
  wire.q_begin = hit.alignment.a_begin;
  wire.q_end = hit.alignment.a_end;
  wire.s_begin = hit.alignment.b_begin;
  wire.s_end = hit.alignment.b_end;
  wire.cigar = hit.alignment.cigar();
  return wire;
}

bool same_hits(const std::vector<svc::WireHit>& got,
               const std::vector<svc::WireHit>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const svc::WireHit& g = got[i];
    const svc::WireHit& w = want[i];
    if (g.score != w.score || g.q_begin != w.q_begin || g.q_end != w.q_end ||
        g.s_begin != w.s_begin || g.s_end != w.s_end || g.cigar != w.cigar) {
      return false;
    }
  }
  return true;
}

/// The daemon with its client connections (3 searchers, 1 writer).
struct Daemon {
  std::unique_ptr<svc::AlignmentServer> server;
  std::vector<svc::Client> clients;
  std::string store_dir;
  std::uint64_t ref_id = 0;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    clients.clear();
    server.reset();
    std::error_code ignored;
    std::filesystem::remove_all(store_dir, ignored);
  }
};

svc::SearchRequest search_for(std::uint64_t ref_id, const Query& q) {
  svc::SearchRequest request;
  request.ref_id = ref_id;
  request.matrix = svc::WireMatrix::kDna;
  request.gap_extend = kGap;
  request.query = q.letters;
  return request;
}

/// Checks one SEARCH answer; returns it when the hits match the oracle.
const svc::SearchResponse* check(const svc::Response& response,
                                 const Query& q, Errors& errors) {
  if (const auto* error = std::get_if<svc::ErrorResponse>(&response)) {
    errors.fail(std::string("typed error ") + svc::to_string(error->code) +
                ": " + error->message);
    return nullptr;
  }
  const auto* ok = std::get_if<svc::SearchResponse>(&response);
  if (ok == nullptr) {
    errors.fail("unexpected response type to SEARCH");
    return nullptr;
  }
  if (!same_hits(ok->hits, q.expected)) {
    errors.fail("SEARCH hits differ from in-process chained_search");
    return nullptr;
  }
  return ok;
}

void start_daemon(Daemon& daemon, const Args& args, int rep,
                  const std::string& reference, const Query& warmup,
                  Errors& errors) {
  svc::ServiceConfig config;
  config.workers = kWorkers;
  config.store_dir = args.work_dir + "/search-" + std::to_string(::getpid()) +
                     "-" + std::to_string(rep);
  daemon.store_dir = config.store_dir;
  daemon.server = std::make_unique<svc::AlignmentServer>(config);
  daemon.server->start();
  for (std::size_t i = 0; i <= kSearchConnections; ++i) {
    svc::Client client;
    client.connect("127.0.0.1", daemon.server->port());
    daemon.clients.push_back(std::move(client));
  }
  svc::Client::UploadOptions upload;
  upload.matrix = svc::WireMatrix::kDna;
  upload.k = kSeedK;
  upload.build_index = true;
  upload.name = "reference";
  const svc::Response sealed =
      daemon.clients.back().upload_sequence(reference, upload);
  const auto* ok = std::get_if<svc::SeqOkResponse>(&sealed);
  if (ok == nullptr || ok->residues != reference.size()) {
    throw std::runtime_error("reference upload failed");
  }
  daemon.ref_id = ok->ref_id;
  for (std::size_t i = 0; i < kSearchConnections; ++i) {
    check(daemon.clients[i].call(search_for(daemon.ref_id, warmup)), warmup,
          errors);
  }
}

/// Timings of one window, searchers and writer together.
struct Window {
  Timeline rtt_us;  ///< SEARCH round trips by completion time
  Samples queue_us, exec_us;
  /// Residues per second of each upload, SEQ_BEGIN to the SEQ_END answer.
  Samples upload_rate;
  Samples chunk_us, seal_ms;
  double seconds = 0.0;  ///< the window's planned length
};

/// Streams one distinct sequence: `base` with the upload number written
/// over its first 32 letters. Returns false after counting an error.
bool upload_once(svc::Client& client, std::string& letters,
                 std::uint64_t number, std::size_t chunk, Window& w,
                 Tracer& tracer, Errors& errors, std::uint64_t& attempted) {
  static constexpr char kBases[] = "ACGT";
  for (std::size_t i = 0; i < 32 && i < letters.size(); ++i) {
    letters[i] = kBases[(number >> (2 * i)) & 3];
  }
  // Every hash the frames carry is computed before the clock starts.
  std::vector<std::uint64_t> prefix_hashes;
  std::uint64_t rolling = flsa::kFnvOffsetBasis;
  for (std::size_t offset = 0; offset < letters.size(); offset += chunk) {
    const std::size_t len = std::min(chunk, letters.size() - offset);
    rolling = flsa::fnv1a64(letters.data() + offset, len, rolling);
    prefix_hashes.push_back(rolling);
  }
  const std::uint64_t token = rolling;
  const auto expect_ok = [&](const svc::Response& response,
                             std::uint64_t residues) {
    ++attempted;
    const auto* ok = std::get_if<svc::SeqOkResponse>(&response);
    if (ok == nullptr) {
      const auto* error = std::get_if<svc::ErrorResponse>(&response);
      errors.fail(std::string("upload: ") +
                  (error != nullptr ? error->message : "unexpected response"));
      return false;
    }
    if (ok->residues != residues) {
      errors.fail("upload: SEQ_OK residues " + std::to_string(ok->residues) +
                  " != sent " + std::to_string(residues));
      return false;
    }
    return true;
  };

  const std::uint64_t upload_span = tracer.reserve();
  const auto begin_t = Clock::now();
  svc::SeqBeginRequest begin;
  begin.upload_token = token;
  begin.matrix = svc::WireMatrix::kDna;
  begin.total_residues = letters.size();
  if (!expect_ok(client.call(std::move(begin)), 0)) return false;
  tracer.record("store.seq_begin", 3, upload_span, number, begin_t,
                Clock::now());

  for (std::size_t offset = 0; offset < letters.size(); offset += chunk) {
    const std::size_t len = std::min(chunk, letters.size() - offset);
    svc::SeqChunkRequest request;
    request.upload_token = token;
    request.offset = offset;
    request.prefix_hash = prefix_hashes[offset / chunk];
    request.data.assign(letters, offset, len);
    const auto t0 = Clock::now();
    const svc::Response response = client.call(std::move(request));
    const auto t1 = Clock::now();
    if (!expect_ok(response, offset + len)) return false;
    tracer.record("store.seq_chunk", 3, upload_span, number, t0, t1);
    w.chunk_us.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }

  svc::SeqEndRequest end;
  end.upload_token = token;
  end.total_residues = letters.size();
  end.total_hash = rolling;
  end.build_index = false;
  const auto t0 = Clock::now();
  const svc::Response response = client.call(std::move(end));
  const auto t1 = Clock::now();
  if (!expect_ok(response, letters.size())) return false;
  tracer.record("store.seq_end", 3, upload_span, number, t0, t1);
  tracer.record_as(upload_span, "client.upload", 3, 0, number, begin_t, t1);
  w.seal_ms.add(std::chrono::duration<double, std::milli>(t1 - t0).count());
  w.upload_rate.add(static_cast<double>(letters.size()) /
                    seconds_between(begin_t, t1));
  return true;
}

Window run_loop(Daemon& daemon, const std::vector<Query>& queries,
                std::string& upload_letters, std::uint64_t& upload_number,
                const Args& args, double seconds, Tracer& tracer,
                Errors& errors, std::uint64_t& attempted) {
  const Sizes size = sizes(args);
  std::vector<Window> per(kSearchConnections + 1);
  std::vector<std::uint64_t> tries(kSearchConnections + 1, 0);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kSearchConnections; ++c) {
    threads.emplace_back([&, c] {
      flsa::Xoshiro256 rng(args.seed * 17 + c);
      svc::Client& client = daemon.clients[c];
      Window& w = per[c];
      while (Clock::now() < deadline) {
        const Query& q = queries[rng.bounded(queries.size())];
        ++tries[c];
        try {
          const auto t0 = Clock::now();
          const svc::Response response =
              client.call(search_for(daemon.ref_id, q));
          const auto t1 = Clock::now();
          const svc::SearchResponse* ok = check(response, q, errors);
          if (ok == nullptr) continue;
          tracer.record("client.search", static_cast<std::uint32_t>(c), 0,
                        ok->request_id, t0, t1);
          w.rtt_us.add(
              seconds_between(start, t1),
              std::chrono::duration<double, std::micro>(t1 - t0).count());
          w.queue_us.add(static_cast<double>(ok->queue_micros));
          w.exec_us.add(static_cast<double>(ok->exec_micros));
        } catch (const std::exception& e) {
          errors.fail("search connection " + std::to_string(c) + ": " +
                      e.what());
          return;
        }
      }
    });
  }
  threads.emplace_back([&] {
    Window& w = per[kSearchConnections];
    try {
      // Paced, not closed: the same write load in every run, so the
      // store and its mappings grow by the same amount and a faster
      // store frees CPU for the searchers instead of writing more.
      auto next = Clock::now();
      while (true) {
        std::this_thread::sleep_until(next);
        if (Clock::now() >= deadline) break;
        next = std::max(next + kUploadPeriod, Clock::now());
        if (!upload_once(daemon.clients[kSearchConnections], upload_letters,
                         upload_number++, size.chunk, w, tracer, errors,
                         tries[kSearchConnections])) {
          return;
        }
      }
    } catch (const std::exception& e) {
      errors.fail(std::string("writer connection: ") + e.what());
    }
  });
  for (std::thread& t : threads) t.join();

  Window total;
  total.seconds = seconds;
  for (std::size_t c = 0; c <= kSearchConnections; ++c) {
    total.rtt_us.append(per[c].rtt_us);
    total.queue_us.append(per[c].queue_us);
    total.exec_us.append(per[c].exec_us);
    total.upload_rate.append(per[c].upload_rate);
    total.chunk_us.append(per[c].chunk_us);
    total.seal_ms.append(per[c].seal_ms);
    attempted += tries[c];
  }
  return total;
}

}  // namespace

Result run_search_ref(const Args& args, Tracer& tracer) {
  Result result;
  Errors errors;
  const Sizes size = sizes(args);

  // Inputs: the reference, reads sampled from it and mutated, and the
  // writer's base sequence.
  flsa::Xoshiro256 rng(args.seed ^ 0x5ea4c4ULL);
  const flsa::Sequence reference = flsa::random_sequence(
      flsa::Alphabet::dna(), size.reference, rng, "reference");
  flsa::MutationModel model;
  model.substitution_rate = 0.05;
  model.insertion_rate = 0.005;
  model.deletion_rate = 0.005;
  std::vector<Query> queries;
  std::vector<flsa::Sequence> query_seqs;
  for (std::size_t i = 0; i < size.queries; ++i) {
    const std::size_t offset = rng.bounded(size.reference - size.query);
    query_seqs.push_back(
        flsa::mutate(reference.subsequence(offset, size.query), model, rng));
    queries.push_back({query_seqs.back().to_string(), {}});
  }
  std::string upload_letters =
      flsa::random_sequence(flsa::Alphabet::dna(), size.upload, rng)
          .to_string();
  const std::string reference_letters = reference.to_string();

  // Oracle: the same index built in process, and every query searched.
  const auto build0 = Clock::now();
  const flsa::search::ReferenceIndex index(reference, kSeedK);
  const double index_build_s = seconds_between(build0, Clock::now());
  const flsa::search::ChainedSearchParams params;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    for (const flsa::search::SearchHit& hit :
         flsa::search::chained_search(query_seqs[i], index, scheme(), params)) {
      queries[i].expected.push_back(to_wire(hit));
    }
  }
  if (args.corrupt_oracle) {
    if (queries.front().expected.empty()) {
      queries.front().expected.push_back({});
    } else {
      queries.front().expected.front().score += 1;
    }
  }

  // Set-up: daemon start, connections, the reference upload with its
  // index, and one warm-up SEARCH per searcher.
  const Query& warmup = queries.back();
  std::optional<Daemon> daemon;
  const double setup_s = median_setup_seconds(3, [&](int rep) {
    daemon.reset();
    release_freed_memory();
    const auto t0 = Clock::now();
    daemon.emplace();
    start_daemon(*daemon, args, rep, reference_letters, warmup, errors);
    return seconds_between(t0, Clock::now());
  });

  std::uint64_t upload_number = 0;
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  const Window plain =
      run_loop(*daemon, queries, upload_letters, upload_number, args, window,
               tracer, errors, result.attempted);
  const double qps = plain.rtt_us.median_count_rate(plain.seconds);
  result.set("setup_s", setup_s, "s");
  result.set("throughput", qps, "1/s");
  result.set("throughput_aux", plain.upload_rate.median(), "1/s");
  result.set("latency_p50_ms", plain.rtt_us.values().median() * 1e-3, "ms");
  result.set("latency_p99_ms",
             plain.rtt_us.median_quantile(0.99, plain.seconds) * 1e-3, "ms");
  std::ostringstream note;
  note << "search-ref: " << plain.rtt_us.size() << " SEARCH in "
       << plain.seconds << " s over " << kSearchConnections
       << " connections; " << plain.upload_rate.size() << " uploads of "
       << size.upload << " residues; latency samples " << plain.rtt_us.size();
  result.note(note.str());

  if (args.trace) {
    tracer.set_enabled(true);
    const Window traced =
        run_loop(*daemon, queries, upload_letters, upload_number, args, window,
                 tracer, errors, result.attempted);
    result.set("trace.overhead_ratio",
               qps / traced.rtt_us.median_count_rate(traced.seconds) - 1.0,
               "ratio");
    result.set("latency_samples", static_cast<double>(traced.rtt_us.size()),
               "count");
    result.set("service.search_exec_us_p50", traced.exec_us.median(), "us");
    result.set("service.search_exec_us_p99", traced.exec_us.quantile(0.99),
               "us");
    result.set("service.search_queue_us_p50", traced.queue_us.median(), "us");
    result.set("service.search_queue_us_p99", traced.queue_us.quantile(0.99),
               "us");
    result.set("store.chunk_us_p50", traced.chunk_us.median(), "us");
    result.set("store.seal_ms_p50", traced.seal_ms.median(), "ms");
    result.set("store.index_build_s", index_build_s, "s");
  }
  daemon.reset();

  if (args.trace) {
    // search: the pipeline stages in process over the query pool.
    double anchor_s = 0.0, chain_s = 0.0, total_s = 0.0;
    double anchors = 0.0, chains = 0.0, hits = 0.0;
    for (std::size_t i = 0; i < query_seqs.size(); ++i) {
      const auto t0 = Clock::now();
      const std::vector<flsa::search::Anchor> found =
          flsa::search::collect_anchors(query_seqs[i], index, scheme(),
                                        params.max_positions_per_kmer);
      const auto t1 = Clock::now();
      const std::vector<flsa::search::Chain> chained =
          flsa::search::chain_anchors(found, params.chain);
      const auto t2 = Clock::now();
      flsa::search::ChainedSearchStats stats;
      const std::vector<flsa::search::SearchHit> found_hits =
          flsa::search::chained_search(query_seqs[i], index, scheme(), params,
                                       &stats);
      const auto t3 = Clock::now();
      tracer.record("search.collect_anchors", 9, 0, i, t0, t1);
      tracer.record("search.chain_anchors", 9, 0, i, t1, t2);
      tracer.record("search.chained_search", 9, 0, i, t2, t3);
      ++result.attempted;
      if (found_hits.size() != queries[i].expected.size() ||
          (!found_hits.empty() &&
           found_hits.front().alignment.score !=
               queries[i].expected.front().score)) {
        errors.fail("in-process chained_search is not repeatable");
      }
      anchor_s += seconds_between(t0, t1);
      chain_s += seconds_between(t1, t2);
      total_s += seconds_between(t2, t3);
      anchors += static_cast<double>(stats.anchors);
      chains += static_cast<double>(stats.chains);
      hits += static_cast<double>(found_hits.size());
    }
    const double n = static_cast<double>(query_seqs.size());
    result.set("search.anchor_ms", anchor_s / n * 1e3, "ms");
    result.set("search.chain_ms", chain_s / n * 1e3, "ms");
    result.set("search.fill_ms", (total_s - anchor_s - chain_s) / n * 1e3,
               "ms");
    result.set("search.anchors_per_query", anchors / n, "count");
    result.set("search.hits_per_chain", chains > 0.0 ? hits / chains : 0.0,
               "ratio");
  }

  result.set("peak_rss_mb", peak_rss_mib(), "MiB");
  result.failed = errors.count();
  for (const std::string& m : errors.messages()) result.note("error: " + m);
  return result;
}

}  // namespace perfbench
