#include "service/server.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "dp/banded.hpp"
#include "parallel/thread_pool.hpp"
#include "scoring/builtin.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"
#include "support/checked.hpp"
#include "support/fnv.hpp"

namespace flsa {
namespace service {

namespace {

const Alphabet& alphabet_for(WireMatrix matrix) {
  switch (matrix) {
    case WireMatrix::kDna: return Alphabet::dna();
    case WireMatrix::kDnaN: return Alphabet::dna_n();
    default: return Alphabet::protein();
  }
}

const SubstitutionMatrix& matrix_for(WireMatrix matrix) {
  static const SubstitutionMatrix dna_matrix = scoring::dna();
  static const SubstitutionMatrix dna_n_matrix = scoring::dna_n();
  switch (matrix) {
    case WireMatrix::kMdm78: return scoring::mdm78();
    case WireMatrix::kPam250: return scoring::pam250();
    case WireMatrix::kBlosum62: return scoring::blosum62();
    case WireMatrix::kDna: return dna_matrix;
    case WireMatrix::kDnaN: return dna_n_matrix;
  }
  return scoring::mdm78();
}

std::uint64_t micros_between(std::chrono::steady_clock::time_point from,
                             std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

/// A typed refusal. Admission steps and executors throw it;
/// AlignmentServer::failure() answers it with its code.
class Refusal : public std::runtime_error {
 public:
  Refusal(ErrorCode error, const std::string& message)
      : std::runtime_error(message), code(error) {}
  ErrorCode code;
};

/// Milliseconds left at `now` of a `budget_ms` deadline that started at
/// `enqueued`; -1 when there is none. Throws DEADLINE_EXCEEDED once it
/// has passed, `executed` telling whether the work ran and its result is
/// being discarded.
std::int64_t remaining_ms(std::chrono::steady_clock::time_point enqueued,
                          std::uint32_t budget_ms,
                          std::chrono::steady_clock::time_point now,
                          bool executed) {
  if (budget_ms == 0) return -1;
  const auto deadline = enqueued + std::chrono::milliseconds(budget_ms);
  if (now >= deadline) {
    throw Refusal(ErrorCode::kDeadlineExceeded,
                  executed ? "deadline of " + std::to_string(budget_ms) +
                                 " ms expired during execution; result "
                                 "discarded"
                           : "queued for " +
                                 std::to_string(
                                     micros_between(enqueued, now) / 1000) +
                                 " ms, deadline " + std::to_string(budget_ms) +
                                 " ms");
  }
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
      .count();
}

/// Durable identity of a streamed upload: the rolling FNV of the letters
/// extended by the matrix byte (same content under a different alphabet
/// family is a different handle). Never 0 — the wire reserves it.
std::uint64_t durable_token(std::uint64_t rolling_hash, WireMatrix matrix) {
  const std::uint8_t matrix_byte = static_cast<std::uint8_t>(matrix);
  const std::uint64_t token = fnv1a64(&matrix_byte, 1, rolling_hash);
  return token != 0 ? token : 1;
}

/// Whether a wire matrix byte recovered from the manifest names a matrix
/// this build understands (a registry written by a newer build may not).
bool known_matrix(std::uint8_t byte) {
  switch (static_cast<WireMatrix>(byte)) {
    case WireMatrix::kMdm78:
    case WireMatrix::kPam250:
    case WireMatrix::kBlosum62:
    case WireMatrix::kDna:
    case WireMatrix::kDnaN:
      return true;
  }
  return false;
}

/// REF_PUT seed length when the request leaves k at 0: exact DNA words
/// stay specific up to ~12 bases; protein alphabets saturate the 62-bit
/// pack limit much sooner and 5-mers are the classic seed there.
std::uint32_t default_seed_k(const ServiceConfig& config, WireMatrix matrix) {
  if (config.default_seed_k != 0) return config.default_seed_k;
  switch (matrix) {
    case WireMatrix::kDna:
    case WireMatrix::kDnaN:
      return 12;
    default:
      return 5;
  }
}

}  // namespace

AlignmentServer::AlignmentServer(ServiceConfig config)
    : config_(std::move(config)),
      instruments_{
          obs::metrics().counter("service.requests"),
          obs::metrics().counter("service.completed"),
          obs::metrics().counter("service.rejected.overloaded"),
          obs::metrics().counter("service.rejected.too_large"),
          obs::metrics().counter("service.rejected.deadline"),
          obs::metrics().counter("service.rejected.shutting_down"),
          obs::metrics().counter("service.bad_requests"),
          obs::metrics().counter("service.internal_errors"),
          obs::metrics().counter("service.write_errors"),
          obs::metrics().counter("service.cells"),
          obs::metrics().counter("search.requests"),
          obs::metrics().counter("search.completed"),
          obs::metrics().counter("search.hits"),
          obs::metrics().counter("search.anchors"),
          obs::metrics().counter("search.ref_not_found"),
          obs::metrics().counter("search.ref_puts"),
          obs::metrics().counter("search.ref_residues"),
          obs::metrics().counter("stream.uploads"),
          obs::metrics().counter("stream.upload_chunks"),
          obs::metrics().counter("stream.upload_bytes"),
          obs::metrics().counter("stream.upload_resumes"),
          obs::metrics().counter("stream.uploads_sealed"),
          obs::metrics().counter("stream.align_ref"),
          obs::metrics().counter("stream.parts"),
          obs::metrics().counter("search.ref_dedup_hits"),
          obs::metrics().counter("stream.uploads_reaped"),
          obs::metrics().counter("store.refs_recovered"),
          obs::metrics().counter("store.recovery_skipped"),
          obs::metrics().counter("search.index_rebuilds"),
          obs::metrics().gauge("stream.uploads_active"),
          obs::metrics().gauge("search.refs"),
          obs::metrics().gauge("service.queue_depth"),
          obs::metrics().gauge("service.in_flight"),
          obs::metrics().gauge("service.uptime_ms"),
          obs::metrics().histogram("service.queue_seconds"),
          obs::metrics().histogram("service.exec_seconds"),
          obs::metrics().histogram("search.exec_seconds"),
          obs::metrics().histogram("search.ref_build_seconds"),
      },
      injector_(config_.fault_plan.enabled()
                    ? std::make_unique<FaultInjector>(config_.fault_plan)
                    : nullptr),
      queue_(config_.queue_capacity == 0 ? 1 : config_.queue_capacity),
      frames_({config_.host, config_.port, config_.backlog,
               config_.idle_timeout_ms, config_.max_connections,
               config_.max_frame_bytes},
              {obs::metrics().counter("service.connections"),
               obs::metrics().counter("service.rejected.connection_limit"),
               instruments_.bad_requests, instruments_.write_errors},
              [this](const std::shared_ptr<Connection>& connection,
                     Request request) {
                handle_request(connection, std::move(request));
              },
              injector_.get()) {
  validate(config_.fastlsa);
}

AlignmentServer::~AlignmentServer() { stop(); }

void AlignmentServer::start() {
  FLSA_REQUIRE(!running_.load());

  frames_.listen();

  if (config_.enable_metrics) obs::set_enabled(true);

  // Resolve the packed-store directory: an explicit path is created (and
  // kept) for the operator; an empty one gets a private mkdtemp the
  // server removes on stop. Store files in an owned directory are
  // unlinked as soon as they are mmap'd (the mapping keeps the bytes),
  // so even a crash leaks at most the directory itself.
  if (store_dir_.empty()) {
    if (!config_.store_dir.empty()) {
      store_dir_ = config_.store_dir;
      owns_store_dir_ = false;
      if (::mkdir(store_dir_.c_str(), 0755) != 0 && errno != EEXIST) {
        frames_.stop_accepting();
        throw std::runtime_error("cannot create store directory '" +
                                 store_dir_ + "': " + std::strerror(errno));
      }
    } else {
      const char* tmp = std::getenv("TMPDIR");
      std::string tmpl =
          std::string(tmp != nullptr ? tmp : "/tmp") + "/flsa_store.XXXXXX";
      if (::mkdtemp(tmpl.data()) == nullptr) {
        frames_.stop_accepting();
        throw std::runtime_error(std::string("mkdtemp failed: ") +
                                 std::strerror(errno));
      }
      store_dir_ = tmpl;
      owns_store_dir_ = true;
    }
  }

  // A persistent store directory recovers its sealed handles before the
  // first connection is accepted: replay the FLSAREG1 manifest, re-mmap
  // every intact payload, and open the registry for new seals. Replay
  // degrades (skips) on corruption; only an unusable manifest *file*
  // (I/O) fails the boot.
  recovery_ = RecoveryReport{};
  if (!owns_store_dir_) {
    try {
      recover_store_dir();
    } catch (const std::exception& e) {
      frames_.stop_accepting();
      throw std::runtime_error("store recovery in '" + store_dir_ +
                               "' failed: " + e.what());
    }
  }

  started_at_ = std::chrono::steady_clock::now();
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);

  const unsigned workers =
      config_.workers != 0 ? config_.workers : default_thread_count();
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  frames_.start_accepting();
  {
    std::lock_guard<std::mutex> lock(hygiene_mutex_);
    hygiene_stop_ = false;
  }
  hygiene_ = std::thread([this] { hygiene_loop(); });
}

void AlignmentServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  draining_.store(true, std::memory_order_release);

  // 0. Hygiene timer down first — it walks uploads_, which step 4 clears.
  {
    std::lock_guard<std::mutex> lock(hygiene_mutex_);
    hygiene_stop_ = true;
  }
  hygiene_cv_.notify_all();
  if (hygiene_.joinable()) hygiene_.join();

  // 1. Stop accepting.
  frames_.stop_accepting();

  // 2. Drain: no new admissions, workers finish every queued job.
  queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // 3. Every admitted job is answered; unblock the connection readers
  //    (clients that pipelined further requests got SHUTTING_DOWN from
  //    the closed queue) and tear the sockets down.
  frames_.close_connections();
  instruments_.queue_depth.set(0.0);
  instruments_.in_flight.set(0.0);

  // 4. Upload sessions die with the server (their writers unlink the
  //    partial files); an owned store directory is swept and removed.
  {
    std::lock_guard<std::mutex> lock(uploads_mutex_);
    uploads_.clear();
    instruments_.uploads_active.set(0.0);
  }
  // The manifest fd closes with the server; the next start() re-replays
  // and re-opens it (the file itself is the durable artifact).
  registry_.reset();
  if (owns_store_dir_ && !store_dir_.empty()) {
    if (DIR* dir = ::opendir(store_dir_.c_str())) {
      while (const dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((store_dir_ + "/" + name).c_str());
      }
      ::closedir(dir);
    }
    ::rmdir(store_dir_.c_str());
    store_dir_.clear();
    owns_store_dir_ = false;
  }
}

void AlignmentServer::handle_request(
    const std::shared_ptr<Connection>& connection, Request request) {
  const std::uint64_t id = request_id(request);
  const std::uint32_t deadline = deadline_ms(request);
  const auto cells_charge = [this](std::uint64_t cells) {
    return Charge{cells, config_.max_request_cells, "request", "DPM cells"};
  };
  try {
    std::visit(
        Overloaded{
            // Inline verbs answer on this connection thread. STATS and
            // REF_LIST are brief reads, so a router re-syncing after a
            // backend restart never queues behind DP. The SEQ_* verbs
            // keep the connection's frame order, which the shared worker
            // pool would destroy, and their work is disk I/O, not cells.
            [&](const StatsRequest& stats) { answer_stats(connection, stats); },
            [&](const RefListRequest& list) {
              instruments_.requests.add();
              answer_ref_list(connection, list);
            },
            [&](const SeqBeginRequest& begin) {
              instruments_.requests.add();
              refuse_while_draining();
              if (begin.upload_token == 0) {
                throw Refusal(ErrorCode::kBadRequest,
                              "upload token must be nonzero");
              }
              check_budget({begin.total_residues, config_.max_store_residues,
                            "declared upload", "residues"});
              admission_fault_site();
              handle_seq_begin(connection, begin);
            },
            [&](const SeqChunkRequest& chunk) {
              // No fault site: an open session's chunks are not refused
              // at admission.
              instruments_.requests.add();
              refuse_while_draining();
              handle_seq_chunk(connection, chunk);
            },
            [&](const SeqEndRequest& end) {
              // No drain check and no fault site: a session whose bytes
              // all arrived may still seal while the server drains.
              instruments_.requests.add();
              handle_seq_end(connection, end);
            },
            // Queued verbs: counted and charged, then drain check, budget,
            // fault site and the bounded queue in enqueue(); a worker runs
            // the bound executor. The charge is taken before the request
            // moves into the executor.
            [&](AlignRequest& align) {
              instruments_.requests.add();
              const Charge charge = cells_charge(estimated_cells(align));
              enqueue(connection, id, deadline, charge,
                      [this, r = std::move(align)](Aligner& aligner,
                                                   const Job& job) {
                        respond(job.connection,
                                encode(run_align(aligner, job.enqueued, r)));
                      });
            },
            [&](SearchRequest& search) {
              instruments_.requests.add();
              instruments_.search_requests.add();
              const Charge charge = cells_charge(estimated_cells(search));
              enqueue(connection, id, deadline, charge,
                      [this, r = std::move(search)](Aligner&, const Job& job) {
                        execute_search(job, r);
                      });
            },
            [&](AlignRefRequest& by_ref) {
              instruments_.requests.add();
              instruments_.align_ref_requests.add();
              // The handles' lengths price the budget. A banded request
              // is charged the banded matrix it allocates; full FastLSA
              // is charged like ALIGN.
              RefEntry entry_a = find_ref(by_ref.ref_a);
              std::optional<RefEntry> entry_b;
              if (by_ref.ref_b != 0) entry_b = find_ref(by_ref.ref_b);
              const std::uint64_t len_a = entry_a.view.size();
              const std::uint64_t len_b =
                  entry_b ? entry_b->view.size() : by_ref.b.size();
              const Charge charge =
                  by_ref.band != 0
                      ? Charge{estimated_banded_cells(len_a, len_b,
                                                      by_ref.band),
                               config_.max_banded_cells, "banded request",
                               "cells"}
                      : cells_charge(estimated_cells(len_a, len_b));
              enqueue(connection, id, deadline, charge,
                      [this, r = std::move(by_ref), a = std::move(entry_a),
                       b = std::move(entry_b)](Aligner& aligner,
                                               const Job& job) {
                        execute_align_ref(aligner, job, r, a,
                                          b ? &*b : nullptr);
                      });
            },
            [&](RefPutRequest& put) {
              instruments_.requests.add();
              const Charge charge{put.sequence.size(),
                                  config_.max_reference_residues, "reference",
                                  "residues"};
              enqueue(connection, id, deadline, charge,
                      [this, r = std::move(put)](Aligner&, const Job& job) {
                        execute_ref_put(job, r);
                      });
            },
        },
        request);
  } catch (...) {
    respond(connection, encode(failure(id)));
  }
}

void AlignmentServer::refuse_while_draining() const {
  if (draining_.load(std::memory_order_acquire)) {
    throw Refusal(ErrorCode::kShuttingDown, "server is draining");
  }
}

void AlignmentServer::check_budget(const Charge& charge) const {
  if (charge.amount > charge.limit) {
    throw Refusal(ErrorCode::kTooLarge,
                  std::string(charge.what) + " of " +
                      std::to_string(charge.amount) + " " + charge.unit +
                      " exceeds the limit of " + std::to_string(charge.limit));
  }
}

void AlignmentServer::admission_fault_site() {
  // A synthetic overload rejection, exercising exactly the typed answer a
  // real full queue produces (and the client retry path that recovers).
  if (injector_ && injector_->active() && injector_->inject_reject()) {
    throw Refusal(ErrorCode::kOverloaded,
                  "fault injection: admission rejected");
  }
}

void AlignmentServer::enqueue(const std::shared_ptr<Connection>& connection,
                              std::uint64_t request_id,
                              std::uint32_t deadline_ms, const Charge& charge,
                              Executor execute) {
  refuse_while_draining();
  check_budget(charge);
  admission_fault_site();
  Job job{connection, request_id, deadline_ms,
          std::chrono::steady_clock::now(), std::move(execute)};
  // Count before pushing: a worker may pop (and decrement) immediately.
  connection->in_flight.fetch_add(1, std::memory_order_acq_rel);
  switch (queue_.try_push(std::move(job))) {
    case BoundedQueue<Job>::Push::kAccepted:
      instruments_.queue_depth.set(static_cast<double>(queue_.size()));
      instruments_.in_flight.set(static_cast<double>(
          jobs_in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1));
      return;
    case BoundedQueue<Job>::Push::kFull:
      connection->in_flight.fetch_sub(1, std::memory_order_acq_rel);
      throw Refusal(ErrorCode::kOverloaded,
                    "request queue full (" +
                        std::to_string(queue_.capacity()) + " entries)");
    case BoundedQueue<Job>::Push::kClosed:
      connection->in_flight.fetch_sub(1, std::memory_order_acq_rel);
      throw Refusal(ErrorCode::kShuttingDown, "server is draining");
  }
}

ErrorResponse AlignmentServer::failure(std::uint64_t request_id) {
  ErrorResponse error;
  error.request_id = request_id;
  error.code = ErrorCode::kInternal;
  try {
    throw;
  } catch (const Refusal& e) {
    error.code = e.code;
    error.message = e.what();
  } catch (const search::SubjectTooLarge& e) {
    error.code = ErrorCode::kTooLarge;
    error.message = e.what();
  } catch (const std::invalid_argument& e) {
    error.code = ErrorCode::kBadRequest;
    error.message = e.what();
  } catch (const std::exception& e) {
    error.message = e.what();
  } catch (...) {
    error.message = "unknown failure";
  }
  obs::Counter* counter = &instruments_.internal_errors;
  switch (error.code) {
    case ErrorCode::kBadRequest: counter = &instruments_.bad_requests; break;
    case ErrorCode::kTooLarge:
      counter = &instruments_.rejected_too_large;
      break;
    case ErrorCode::kOverloaded:
      counter = &instruments_.rejected_overloaded;
      break;
    case ErrorCode::kDeadlineExceeded:
      counter = &instruments_.rejected_deadline;
      break;
    case ErrorCode::kShuttingDown:
      counter = &instruments_.rejected_shutdown;
      break;
    case ErrorCode::kRefNotFound:
      counter = &instruments_.search_ref_not_found;
      break;
    case ErrorCode::kInternal:
    case ErrorCode::kConnectionLimit:
      break;
  }
  counter->add();
  return error;
}

bool AlignmentServer::respond(const std::shared_ptr<Connection>& connection,
                              const std::string& payload) {
  if (frames_.respond(connection, payload)) return true;
  instruments_.write_errors.add();
  return false;
}

AlignmentServer::RefEntry AlignmentServer::find_ref(std::uint64_t ref_id) {
  std::lock_guard<std::mutex> lock(refs_mutex_);
  const auto it = refs_.find(ref_id);
  if (it == refs_.end()) {
    throw Refusal(ErrorCode::kRefNotFound, "reference id " +
                                               std::to_string(ref_id) +
                                               " is not registered");
  }
  return it->second;
}

void AlignmentServer::worker_loop() {
  // One persistent Aligner per worker: its workspace recycles every
  // engine buffer, so steady-state requests allocate nothing inside the
  // engine (PR-3 contract), which is what lets a warm daemon beat
  // one-shot CLI invocations.
  AlignOptions base;
  base.strategy = Strategy::kFastLsa;  // linear space per request
  base.fastlsa = config_.fastlsa;
  Aligner aligner(base);

  while (auto job = queue_.pop()) {
    instruments_.queue_depth.set(static_cast<double>(queue_.size()));
    try {
      // A job that waited out its deadline in the queue is answered
      // DEADLINE_EXCEEDED unexecuted: the client has given up, so the
      // cells would be wasted.
      remaining_ms(job->enqueued, job->deadline_ms,
                   std::chrono::steady_clock::now(), /*executed=*/false);
      job->execute(aligner, *job);
    } catch (...) {
      respond(job->connection, encode(failure(job->request_id)));
    }
    // Decremented only after the answer is written (or provably dropped):
    // an idle-deadline hangup can then never race a pending response.
    job->connection->in_flight.fetch_sub(1, std::memory_order_acq_rel);
    instruments_.in_flight.set(static_cast<double>(
        jobs_in_flight_.fetch_sub(1, std::memory_order_acq_rel) - 1));
  }
}

AlignResponse AlignmentServer::run_align(
    Aligner& aligner, std::chrono::steady_clock::time_point enqueued,
    const AlignRequest& request) {
  const auto started = std::chrono::steady_clock::now();
  if (request.gap_open > 0 || request.gap_extend > 0) {
    throw std::invalid_argument("gap penalties must be <= 0");
  }
  const Alphabet& alphabet = alphabet_for(request.matrix);
  const SubstitutionMatrix& matrix = matrix_for(request.matrix);
  const ScoringScheme scheme =
      request.gap_open == 0
          ? ScoringScheme(matrix, request.gap_extend)
          : ScoringScheme(matrix, request.gap_open, request.gap_extend);
  const Sequence a(alphabet, request.a);
  const Sequence b(alphabet, request.b);

  AlignOptions options = aligner.options();
  if (request.k != 0) options.fastlsa.k = request.k;
  if (request.base_case_cells != 0) {
    options.fastlsa.base_case_cells = request.base_case_cells;
  }
  validate(options.fastlsa);
  // The worker's persistent workspace: this is the whole point of the
  // daemon shape — buffers stay warm across requests.
  options.fastlsa.workspace = &aligner.workspace();

  const Alignment alignment = flsa::align(a, b, scheme, options);
  const auto done = std::chrono::steady_clock::now();

  AlignResponse response;
  response.request_id = request.request_id;
  // Deadline re-check after the (uncancellable) alignment: a request
  // whose deadline expired mid-align must not be answered with a stale
  // success — the client has given up, and a late "82" is
  // indistinguishable from a correct one to whatever retried elsewhere.
  response.deadline_remaining_ms =
      remaining_ms(enqueued, request.deadline_ms, done, /*executed=*/true);
  response.score = alignment.score;
  if (!request.score_only) response.cigar = alignment.cigar();
  // The same (m+1)(n+1) DPM-cell quantity the admission budget uses —
  // STATS/bench numbers and max_request_cells agree at the boundary.
  response.cells = estimated_cells(request);
  response.queue_micros = micros_between(enqueued, started);
  response.exec_micros = micros_between(started, done);

  instruments_.completed.add();
  instruments_.cells.add(response.cells);
  instruments_.queue_seconds.observe(
      static_cast<double>(response.queue_micros) * 1e-6);
  instruments_.exec_seconds.observe(
      static_cast<double>(response.exec_micros) * 1e-6);
  return response;
}

std::string AlignmentServer::write_store_file(const Alphabet& alphabet,
                                              std::string_view letters,
                                              const std::string& name) {
  // Written under an `up<N>.flsa` scratch name: anything the registry
  // does not reference must look like an upload partial, so a crash here
  // is cleaned by the same boot-time orphan sweep. Registration renames
  // it to its durable content-token name.
  const std::string path =
      store_dir_ + "/up" +
      std::to_string(next_store_file_.fetch_add(1, std::memory_order_relaxed)) +
      ".flsa";
  store::StoreWriter writer(path, alphabet);
  writer.append_letters(letters);
  writer.finish_record(name);
  writer.finalize();
  return path;
}

std::string AlignmentServer::durable_payload_path(
    std::uint64_t content_token) const {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(content_token));
  return store_dir_ + "/ref_" + hex + ".flsa";
}

std::uint64_t AlignmentServer::register_store_file(
    const std::string& path, WireMatrix matrix, std::uint32_t build_k,
    std::uint64_t* distinct_kmers, std::uint64_t content_token,
    const std::string& name) {
  // Durability is ordering, not atomicity: (1) the finalized payload is
  // renamed to its content-token name, (2) the manifest record is
  // appended and fsync'd, (3) the handle appears in memory and is
  // acknowledged. A crash between any two steps leaves an invisible
  // orphan or a replayable record — never an acknowledged handle that a
  // restart cannot serve.
  std::string final_path = path;
  if (registry_ && content_token != 0) {
    final_path = durable_payload_path(content_token);
    if (final_path != path &&
        ::rename(path.c_str(), final_path.c_str()) != 0) {
      throw std::runtime_error("cannot rename '" + path + "' to '" +
                               final_path + "': " + std::strerror(errno));
    }
  }
  auto packed = store::PackedStore::open(final_path);
  // In an owned (temporary) directory the file is unlinked immediately:
  // the mapping keeps the bytes alive, and nothing can leak past the
  // mapping's lifetime.
  if (owns_store_dir_) ::unlink(final_path.c_str());
  SequenceView view = packed->view(0);
  std::shared_ptr<const search::ReferenceIndex> index;
  if (build_k != 0) {
    // The index reads straight through the packed view — the reference
    // is never inflated to byte residues.
    index = std::make_shared<const search::ReferenceIndex>(view, build_k);
    if (distinct_kmers != nullptr) {
      *distinct_kmers = index->kmers().distinct_kmers();
    }
  }
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(refs_mutex_);
    id = next_ref_id_++;
  }
  if (registry_) {
    store::RegistryEntry record;
    record.ref_id = id;
    record.content_token = content_token;
    record.matrix = static_cast<std::uint8_t>(matrix);
    record.build_k = build_k;
    record.residues = view.size();
    record.file = final_path.substr(final_path.rfind('/') + 1);
    record.name = name;
    std::lock_guard<std::mutex> lock(registry_mutex_);
    registry_->append(record);  // fsync'd before the handle goes live
  }
  std::lock_guard<std::mutex> lock(refs_mutex_);
  refs_.emplace(id, RefEntry{std::move(index), std::move(view), matrix,
                             build_k, content_token, name});
  instruments_.refs_live.set(static_cast<double>(refs_.size()));
  return id;
}

void AlignmentServer::recover_store_dir() {
  // Orphan sweep: `up*.flsa` files are unfinalized scratch from a crash
  // mid-upload (or mid-REF_PUT). No manifest record can reference one —
  // records are appended only after the payload is finalized and renamed
  // to `ref_*.flsa` — so they are garbage by construction, and a partial
  // file can never back a recovered handle.
  if (DIR* dir = ::opendir(store_dir_.c_str())) {
    while (const dirent* entry = ::readdir(dir)) {
      const std::string file = entry->d_name;
      if (file.size() > 7 && file.rfind("up", 0) == 0 &&
          file.compare(file.size() - 5, 5, ".flsa") == 0) {
        ::unlink((store_dir_ + "/" + file).c_str());
      }
    }
    ::closedir(dir);
  }

  const std::string manifest_path =
      store_dir_ + "/" + store::kRegistryFileName;
  store::RegistryReplayReport report;
  const std::vector<store::RegistryEntry> records =
      store::replay_registry(manifest_path, &report);
  recovery_.skipped = report.skipped;
  recovery_.warnings = report.warnings;

  std::uint64_t max_id = 0;
  for (const store::RegistryEntry& record : records) {
    max_id = std::max(max_id, record.ref_id);
    if (refs_.count(record.ref_id) != 0) continue;  // in-process restart
    try {
      if (!known_matrix(record.matrix)) {
        throw store::StoreError(
            store::StoreError::Kind::kBadRecord,
            "unknown wire matrix byte " + std::to_string(record.matrix));
      }
      const WireMatrix matrix = static_cast<WireMatrix>(record.matrix);
      auto packed =
          store::PackedStore::open(store_dir_ + "/" + record.file);
      SequenceView view = packed->view(0);
      if (&view.alphabet() != &alphabet_for(matrix)) {
        throw store::StoreError(
            store::StoreError::Kind::kBadRecord,
            "payload alphabet does not match the recorded matrix family");
      }
      if (view.size() != record.residues) {
        throw store::StoreError(
            store::StoreError::Kind::kBadRecord,
            "payload holds " + std::to_string(view.size()) +
                " residues but the record promises " +
                std::to_string(record.residues));
      }
      // The k-mer index is *not* rebuilt here: boot stays O(records),
      // and the first SEARCH against the handle rebuilds it lazily.
      refs_.emplace(record.ref_id,
                    RefEntry{nullptr, std::move(view), matrix,
                             record.build_k, record.content_token,
                             record.name});
      if (record.content_token != 0) {
        ref_tokens_.emplace(record.content_token, record.ref_id);
      }
      ++recovery_.recovered;
    } catch (const std::exception& e) {
      // A typed absence, never a failed boot: the handle is gone (its
      // payload vanished or rotted), the rest must still come back.
      ++recovery_.skipped;
      recovery_.warnings.push_back(
          "ref " + std::to_string(record.ref_id) + " (" + record.file +
          "): " + e.what());
    }
  }
  if (max_id >= next_ref_id_) next_ref_id_ = max_id + 1;
  instruments_.refs_live.set(static_cast<double>(refs_.size()));
  instruments_.refs_recovered.add(recovery_.recovered);
  instruments_.recovery_skipped.add(recovery_.skipped);

  // Open (or create) the manifest for this run's seals only after replay
  // read it — the writer's header write would race our own scan.
  registry_ = std::make_unique<store::RegistryWriter>(manifest_path);
}

void AlignmentServer::hygiene_loop() {
  const std::uint32_t timeout_ms = config_.upload_idle_timeout_ms;
  // Tick a few times per timeout so expiry latency stays proportional,
  // but never busier than 4 Hz (and never slower than 100 Hz in tests
  // that shrink the timeout to tens of milliseconds).
  const auto tick = std::chrono::milliseconds(
      timeout_ms == 0
          ? 250
          : std::max<std::uint32_t>(
                10, std::min<std::uint32_t>(250, timeout_ms / 4)));
  std::unique_lock<std::mutex> lock(hygiene_mutex_);
  while (!hygiene_stop_) {
    hygiene_cv_.wait_for(lock, tick);
    if (hygiene_stop_) return;
    if (timeout_ms == 0) continue;
    const auto now = std::chrono::steady_clock::now();
    const auto limit = std::chrono::milliseconds(timeout_ms);
    std::size_t reaped = 0;
    {
      std::lock_guard<std::mutex> uploads_lock(uploads_mutex_);
      for (auto it = uploads_.begin(); it != uploads_.end();) {
        if (now - it->second.last_activity >= limit) {
          // StoreWriter's destructor unlinks the partial file; the slot
          // against max_uploads_in_flight frees with the erase.
          it = uploads_.erase(it);
          ++reaped;
        } else {
          ++it;
        }
      }
      if (reaped != 0) {
        instruments_.uploads_active.set(
            static_cast<double>(uploads_.size()));
      }
    }
    if (reaped != 0) instruments_.uploads_reaped.add(reaped);
  }
}

void AlignmentServer::execute_ref_put(const Job& job,
                                      const RefPutRequest& request) {
  const auto started = std::chrono::steady_clock::now();
  RefPutResponse response;
  response.request_id = request.request_id;
  // Idempotent replay: a retried REF_PUT whose content token is already
  // mapped answers the existing id — a duplicate send after an ambiguous
  // failure cannot register (and index) the content twice.
  if (request.content_token != 0) {
    std::lock_guard<std::mutex> lock(refs_mutex_);
    const auto tok = ref_tokens_.find(request.content_token);
    if (tok != ref_tokens_.end()) {
      response.ref_id = tok->second;
      const auto it = refs_.find(tok->second);
      if (it != refs_.end()) {
        response.residues = it->second.view.size();
        if (it->second.index) {
          response.distinct_kmers = it->second.index->kmers().distinct_kmers();
        }
      }
      instruments_.completed.add();
      instruments_.ref_dedup_hits.add();
      respond(job.connection, encode(response));
      return;
    }
  }

  const Alphabet& alphabet = alphabet_for(request.matrix);
  const std::uint32_t k =
      request.k != 0 ? request.k : default_seed_k(config_, request.matrix);
  search::KmerIndex::require_indexable(request.sequence.size());
  const std::string path =
      write_store_file(alphabet, request.sequence, request.name);
  // The durable identity: the client's token when it sent one, else the
  // same derivation the client's retry path uses — every REF_PUT handle
  // gets a content-token payload name and a manifest record.
  const std::uint64_t durable = request.content_token != 0
                                    ? request.content_token
                                    : content_token_for(request);
  std::uint64_t distinct = 0;
  std::uint64_t ref_id = register_store_file(path, request.matrix, k,
                                             &distinct, durable, request.name);
  const auto done = std::chrono::steady_clock::now();

  if (request.content_token != 0) {
    std::lock_guard<std::mutex> lock(refs_mutex_);
    // Two concurrent registrations of the same content settle on the
    // first mapping; the loser's entry is merely unreferenced.
    ref_id = ref_tokens_.emplace(request.content_token, ref_id).first->second;
  }

  response.ref_id = ref_id;
  response.residues = request.sequence.size();
  response.distinct_kmers = distinct;
  response.build_micros = micros_between(started, done);
  instruments_.completed.add();
  instruments_.ref_puts.add();
  instruments_.ref_residues.add(response.residues);
  instruments_.ref_build_seconds.observe(
      static_cast<double>(response.build_micros) * 1e-6);
  respond(job.connection, encode(response));
}

void AlignmentServer::execute_search(const Job& job,
                                     const SearchRequest& request) {
  const auto started = std::chrono::steady_clock::now();
  RefEntry entry = find_ref(request.ref_id);
  if (!entry.index && entry.build_k != 0) {
    // Restart replay deferred this handle's index (boot stays cheap); the
    // first SEARCH rebuilds it from the mmap'd payload and installs it for
    // every later request. Two racing rebuilds are benign — the indexes
    // are identical, the loser's copy is just dropped.
    const auto build_started = std::chrono::steady_clock::now();
    auto rebuilt = std::make_shared<const search::ReferenceIndex>(
        entry.view, entry.build_k);
    instruments_.index_rebuilds.add();
    instruments_.ref_build_seconds.observe(
        static_cast<double>(micros_between(
            build_started, std::chrono::steady_clock::now())) *
        1e-6);
    {
      std::lock_guard<std::mutex> lock(refs_mutex_);
      const auto it = refs_.find(request.ref_id);
      if (it != refs_.end() && !it->second.index) it->second.index = rebuilt;
    }
    entry.index = std::move(rebuilt);
  }
  if (!entry.index) {
    // Registered via SEQ_END with build_index=false: alignable by handle,
    // but not seed-searchable.
    throw std::invalid_argument(
        "reference id " + std::to_string(request.ref_id) +
        " was stored without a k-mer index; re-upload with build_index");
  }
  const Alphabet& alphabet = alphabet_for(request.matrix);
  if (&alphabet != &entry.view.alphabet()) {
    throw std::invalid_argument(
        std::string("matrix ") + to_string(request.matrix) +
        " uses a different alphabet than the reference (registered with " +
        to_string(entry.matrix) + ")");
  }
  if (request.gap_extend > 0) {
    throw std::invalid_argument("gap penalty must be <= 0");
  }
  const ScoringScheme scheme(matrix_for(request.matrix), request.gap_extend);
  const Sequence query(alphabet, request.query);

  search::ChainedSearchParams params = config_.search_defaults;
  if (request.max_hits != 0) params.max_hits = request.max_hits;
  if (request.x_drop != 0) params.x_drop = request.x_drop;
  if (request.gap_weight != 0) params.chain.gap_weight = request.gap_weight;
  if (request.min_chain_score != 0) {
    params.chain.min_chain_score = request.min_chain_score;
  }
  if (request.band_pad != 0) params.band_pad = request.band_pad;
  if (request.max_overlap != 0) params.chain.max_overlap = request.max_overlap;
  if (request.max_positions_per_kmer != 0) {
    params.max_positions_per_kmer = request.max_positions_per_kmer;
  }

  search::ChainedSearchStats stats;
  const std::vector<search::SearchHit> hits =
      search::chained_search(query, *entry.index, scheme, params, &stats);
  const auto done = std::chrono::steady_clock::now();

  SearchResponse response;
  response.request_id = request.request_id;
  // Same contract as ALIGN: a deadline that expired mid-search answers
  // DEADLINE_EXCEEDED, never a stale success.
  response.deadline_remaining_ms =
      remaining_ms(job.enqueued, request.deadline_ms, done, /*executed=*/true);
  response.hits.reserve(hits.size());
  for (const search::SearchHit& hit : hits) {
    WireHit wire;
    wire.score = hit.alignment.score;
    wire.q_begin = hit.alignment.a_begin;
    wire.q_end = hit.alignment.a_end;
    wire.s_begin = hit.alignment.b_begin;
    wire.s_end = hit.alignment.b_end;
    if (!request.score_only) wire.cigar = hit.alignment.cigar();
    response.hits.push_back(std::move(wire));
  }
  response.anchors = stats.anchors;
  response.chains = stats.chains;
  response.queue_micros = micros_between(job.enqueued, started);
  response.exec_micros = micros_between(started, done);

  instruments_.completed.add();
  instruments_.search_completed.add();
  instruments_.search_hits.add(response.hits.size());
  instruments_.search_anchors.add(stats.anchors);
  instruments_.queue_seconds.observe(
      static_cast<double>(response.queue_micros) * 1e-6);
  instruments_.search_exec_seconds.observe(
      static_cast<double>(response.exec_micros) * 1e-6);
  respond(job.connection, encode(response));
}

void AlignmentServer::handle_seq_begin(
    const std::shared_ptr<Connection>& connection,
    const SeqBeginRequest& request) {
  SeqOkResponse response;
  response.request_id = request.request_id;
  response.upload_token = request.upload_token;
  {
    std::lock_guard<std::mutex> lock(uploads_mutex_);
    auto it = uploads_.find(request.upload_token);
    if (it != uploads_.end()) {
      // Resume: a re-BEGIN with a known token answers how far the
      // previous attempt got; the client continues from next_offset.
      instruments_.upload_resumes.add();
      it->second.last_activity = std::chrono::steady_clock::now();
      response.next_offset = it->second.received;
      response.residues = it->second.received;
    } else {
      if (uploads_.size() >= config_.max_uploads_in_flight) {
        throw Refusal(ErrorCode::kOverloaded,
                      "too many uploads in flight (" +
                          std::to_string(config_.max_uploads_in_flight) + ")");
      }
      Upload upload;
      upload.path = store_dir_ + "/up" +
                    std::to_string(next_store_file_.fetch_add(
                        1, std::memory_order_relaxed)) +
                    ".flsa";
      upload.writer = std::make_unique<store::StoreWriter>(
          upload.path, alphabet_for(request.matrix));
      upload.matrix = request.matrix;
      upload.name = request.name;
      upload.declared_total = request.total_residues;
      upload.rolling_hash = kFnvOffsetBasis;
      upload.last_activity = std::chrono::steady_clock::now();
      uploads_.emplace(request.upload_token, std::move(upload));
      instruments_.uploads_started.add();
      instruments_.uploads_active.set(static_cast<double>(uploads_.size()));
    }
  }
  instruments_.completed.add();
  respond(connection, encode(response));
}

void AlignmentServer::handle_seq_chunk(
    const std::shared_ptr<Connection>& connection,
    const SeqChunkRequest& request) {
  SeqOkResponse response;
  response.request_id = request.request_id;
  response.upload_token = request.upload_token;
  {
    std::lock_guard<std::mutex> lock(uploads_mutex_);
    const auto it = uploads_.find(request.upload_token);
    if (it == uploads_.end()) {
      throw Refusal(ErrorCode::kBadRequest,
                    "unknown upload token " +
                        std::to_string(request.upload_token) +
                        " (send SEQ_BEGIN first)");
    }
    Upload& upload = it->second;
    // Voids the session (StoreWriter's destructor unlinks the partial
    // file) and refuses the chunk.
    const auto abort_upload = [&](ErrorCode code, const std::string& message) {
      uploads_.erase(it);
      instruments_.uploads_active.set(static_cast<double>(uploads_.size()));
      throw Refusal(code, message);
    };
    upload.last_activity = std::chrono::steady_clock::now();
    const std::uint64_t chunk_end =
        add_sat_u64(request.offset, request.data.size());
    if (chunk_end > upload.received) {
      if (request.offset != upload.received) {
        // A gap (or partial overlap) — the session stays open so the
        // client can re-BEGIN, learn next_offset, and resume correctly.
        throw Refusal(ErrorCode::kBadRequest,
                      "chunk at offset " + std::to_string(request.offset) +
                          " does not resume at " +
                          std::to_string(upload.received));
      }
      const std::uint64_t limit = upload.declared_total != 0
                                      ? upload.declared_total
                                      : config_.max_store_residues;
      if (chunk_end > config_.max_store_residues || chunk_end > limit) {
        abort_upload(ErrorCode::kTooLarge,
                     "upload grew to " + std::to_string(chunk_end) +
                         " residues, past " + std::to_string(limit));
      }
      const std::uint64_t rolled = fnv1a64(
          request.data.data(), request.data.size(), upload.rolling_hash);
      if (request.prefix_hash != 0 && request.prefix_hash != rolled) {
        // The client's prefix checksum disagrees with what the store
        // actually received: some earlier byte was corrupted in flight,
        // so nothing already written can be trusted.
        abort_upload(ErrorCode::kBadRequest,
                     "prefix checksum mismatch at offset " +
                         std::to_string(chunk_end) + "; upload aborted");
      }
      try {
        upload.writer->append_letters(request.data);
      } catch (const std::invalid_argument& e) {
        abort_upload(ErrorCode::kBadRequest,
                     std::string(e.what()) + "; upload aborted");
      }
      upload.received = chunk_end;
      upload.rolling_hash = rolled;
      instruments_.upload_chunks.add();
      instruments_.upload_bytes.add(request.data.size());
    }
    // A chunk entirely below the high-water mark is the replay of bytes
    // already applied (a retry after a lost SEQ_OK): acknowledged, not
    // appended.
    response.next_offset = upload.received;
    response.residues = upload.received;
  }
  instruments_.completed.add();
  respond(connection, encode(response));
}

void AlignmentServer::handle_seq_end(
    const std::shared_ptr<Connection>& connection,
    const SeqEndRequest& request) {
  Upload upload;
  {
    std::lock_guard<std::mutex> lock(uploads_mutex_);
    const auto it = uploads_.find(request.upload_token);
    if (it == uploads_.end()) {
      throw Refusal(ErrorCode::kBadRequest,
                    "unknown upload token " +
                        std::to_string(request.upload_token) +
                        " (send SEQ_BEGIN first)");
    }
    it->second.last_activity = std::chrono::steady_clock::now();
    if (request.total_residues != it->second.received) {
      // Wrong length but the bytes present are fine: keep the session so
      // the client can resume the missing tail.
      throw Refusal(ErrorCode::kBadRequest,
                    "SEQ_END declares " +
                        std::to_string(request.total_residues) +
                        " residues but " +
                        std::to_string(it->second.received) +
                        " were received; resume from there or abort");
    }
    const bool hash_ok = request.total_hash == 0 ||
                         request.total_hash == it->second.rolling_hash;
    upload = std::move(it->second);
    uploads_.erase(it);
    instruments_.uploads_active.set(static_cast<double>(uploads_.size()));
    if (!hash_ok) {
      throw Refusal(ErrorCode::kBadRequest,
                    "whole-sequence checksum mismatch; upload aborted");
    }
  }
  // Seal and register outside uploads_mutex_: finalize fsyncs and a
  // requested index build is CPU work; neither should stall other
  // connections' chunks.
  std::uint32_t build_k = 0;
  if (request.build_index) {
    search::KmerIndex::require_indexable(upload.received);
    build_k =
        request.k != 0 ? request.k : default_seed_k(config_, upload.matrix);
  }
  upload.writer->finish_record(upload.name);
  upload.writer->finalize();
  upload.writer.reset();

  std::uint64_t distinct = 0;
  const std::uint64_t ref_id = register_store_file(
      upload.path, upload.matrix, build_k, &distinct,
      durable_token(upload.rolling_hash, upload.matrix), upload.name);
  instruments_.uploads_sealed.add();
  instruments_.ref_puts.add();
  instruments_.ref_residues.add(upload.received);
  instruments_.completed.add();

  SeqOkResponse response;
  response.request_id = request.request_id;
  response.upload_token = request.upload_token;
  response.next_offset = upload.received;
  response.ref_id = ref_id;
  response.residues = upload.received;
  respond(connection, encode(response));
}

void AlignmentServer::execute_align_ref(Aligner& aligner, const Job& job,
                                        const AlignRefRequest& request,
                                        const RefEntry& a_entry,
                                        const RefEntry* b_entry) {
  const auto started = std::chrono::steady_clock::now();
  const Alphabet& alphabet = alphabet_for(request.matrix);
  if (&alphabet != &a_entry.view.alphabet() ||
      (b_entry != nullptr && &alphabet != &b_entry->view.alphabet())) {
    throw std::invalid_argument(
        std::string("matrix ") + to_string(request.matrix) +
        " uses a different alphabet than the stored reference");
  }
  if (request.gap_open > 0 || request.gap_extend > 0) {
    throw std::invalid_argument("gap penalties must be <= 0");
  }

  // Materialize the packed views into byte sequences for the DP engine:
  // linear in the sequence lengths (megabytes), while the matrix the band
  // avoids is quadratic (terabytes at this scale).
  const Sequence a = a_entry.view.materialize();
  const Sequence b = b_entry != nullptr ? b_entry->view.materialize()
                                        : Sequence(alphabet, request.b);

  Alignment alignment;
  DpCounters counters;
  if (request.band != 0) {
    if (request.gap_open != 0) {
      throw std::invalid_argument(
          "banded ALIGN_REF requires linear gap penalties (gap_open = 0)");
    }
    const ScoringScheme scheme(matrix_for(request.matrix), request.gap_extend);
    alignment = banded_align(a, b, scheme, request.band, &counters);
  } else {
    const SubstitutionMatrix& matrix = matrix_for(request.matrix);
    const ScoringScheme scheme =
        request.gap_open == 0
            ? ScoringScheme(matrix, request.gap_extend)
            : ScoringScheme(matrix, request.gap_open, request.gap_extend);
    AlignOptions options = aligner.options();
    if (request.k != 0) options.fastlsa.k = request.k;
    if (request.base_case_cells != 0) {
      options.fastlsa.base_case_cells = request.base_case_cells;
    }
    validate(options.fastlsa);
    options.fastlsa.workspace = &aligner.workspace();
    alignment = flsa::align(a, b, scheme, options);
  }
  const auto done = std::chrono::steady_clock::now();
  const std::int64_t deadline_remaining_ms =
      remaining_ms(job.enqueued, request.deadline_ms, done, /*executed=*/true);

  const std::string cigar =
      request.score_only ? std::string() : alignment.cigar();
  const std::uint64_t cells = request.band != 0
                                  ? counters.cells_stored
                                  : estimated_cells(a.size(), b.size());

  // Stream the answer in bounded frames: every frame carries the full
  // trailer (authoritative on the last), so a client that only wants the
  // score can stop at frame 0 and a reassembler can size-check as it
  // goes. Always at least one frame, even for an empty cigar.
  const std::size_t slice = config_.align_part_chars != 0
                                ? config_.align_part_chars
                                : std::size_t{1} << 20;
  const std::size_t parts =
      cigar.empty() ? 1 : (cigar.size() + slice - 1) / slice;
  instruments_.completed.add();
  instruments_.cells.add(cells);
  instruments_.queue_seconds.observe(
      static_cast<double>(micros_between(job.enqueued, started)) * 1e-6);
  instruments_.exec_seconds.observe(
      static_cast<double>(micros_between(started, done)) * 1e-6);
  for (std::size_t part = 0; part < parts; ++part) {
    AlignPartResponse response;
    response.request_id = request.request_id;
    response.seq = static_cast<std::uint32_t>(part);
    response.last = part + 1 == parts;
    response.score = alignment.score;
    response.cells = cells;
    response.queue_micros = micros_between(job.enqueued, started);
    response.exec_micros = micros_between(started, done);
    response.deadline_remaining_ms = deadline_remaining_ms;
    if (!cigar.empty()) {
      const std::size_t begin = part * slice;
      response.cigar_part =
          cigar.substr(begin, std::min(slice, cigar.size() - begin));
    }
    instruments_.align_parts.add();
    // A peer that is gone has no reader for the remaining parts.
    if (!respond(job.connection, encode(response))) return;
  }
}

void AlignmentServer::answer_stats(
    const std::shared_ptr<Connection>& connection,
    const StatsRequest& request) {
  // Refresh the router-facing load gauges at the sample point so a STATS
  // poll always sees current depth/in-flight, not the last transition.
  instruments_.queue_depth.set(static_cast<double>(queue_.size()));
  instruments_.in_flight.set(
      static_cast<double>(jobs_in_flight_.load(std::memory_order_acquire)));
  instruments_.uptime_ms.set(static_cast<double>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_at_)
          .count()));
  StatsResponse response;
  response.request_id = request.request_id;
  for (const obs::MetricsRegistry::Sample& sample :
       obs::metrics().snapshot()) {
    response.entries.emplace_back(sample.name, sample.value);
  }
  frames_.respond(connection, encode(response));
}

void AlignmentServer::answer_ref_list(
    const std::shared_ptr<Connection>& connection,
    const RefListRequest& request) {
  RefListResponse response;
  response.request_id = request.request_id;
  {
    std::lock_guard<std::mutex> lock(refs_mutex_);
    response.refs.reserve(refs_.size());
    for (const auto& [id, entry] : refs_) {
      RefListEntry item;
      item.ref_id = id;
      item.content_token = entry.content_token;
      item.residues = entry.view.size();
      item.matrix = entry.matrix;
      item.k = entry.build_k;
      item.indexed = entry.build_k != 0;
      item.name = entry.name;
      response.refs.push_back(std::move(item));
    }
  }
  instruments_.completed.add();
  respond(connection, encode(response));
}

}  // namespace service
}  // namespace flsa
