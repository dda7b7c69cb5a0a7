// The alignment daemon: a POSIX-socket server that keeps the FastLSA
// engine warm across requests.
//
// Threading model
// ---------------
//   FrameServer          the shared connection layer (service/
//                        frame_server.hpp): accepts, caps and reaps
//                        connections, one handler thread each
//   connection threads   read and decode frames (FrameServer), then run
//                        admission control here and either answer
//                        inline (STATS, rejections) or enqueue a Job
//   worker threads       pop Jobs from the bounded queue; each worker owns
//                        a persistent Aligner whose workspace (core/arena)
//                        makes steady-state alignment allocation-free
//
// Admission control happens on the connection thread, before the queue:
//   * draining            -> SHUTTING_DOWN
//   * (m+1)(n+1) > budget -> TOO_LARGE   (a huge job must not occupy a
//                                         worker for seconds and starve
//                                         the pool)
//   * queue full          -> OVERLOADED  (backpressure is an answer, not
//                                         a hang or a dropped connection)
// Deadlines are enforced at dequeue: a job whose queueing time exceeded
// its deadline_ms is answered with DEADLINE_EXCEEDED instead of executed —
// the client has given up, so the cells would be wasted.
//
// Graceful drain: stop() (or the SIGINT/SIGTERM handler in flsa_serve
// calling it) closes the listener, closes the queue for admission, lets
// the workers finish every job admitted before the close, then unblocks
// and joins the connection threads. In-flight clients get their answers;
// new work gets SHUTTING_DOWN.
//
// Responses may complete out of submission order on one connection (the
// worker pool is shared); the request_id keys them. A per-connection write
// mutex keeps frames from interleaving.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/aligner.hpp"
#include "core/fastlsa.hpp"
#include "obs/metrics.hpp"
#include "search/chain.hpp"
#include "search/reference_index.hpp"
#include "sequence/sequence_view.hpp"
#include "service/bounded_queue.hpp"
#include "service/fault.hpp"
#include "service/frame_server.hpp"
#include "service/protocol.hpp"
#include "store/packed_store.hpp"
#include "store/registry.hpp"

namespace flsa {
namespace service {

struct ServiceConfig {
  /// Listen address. The daemon speaks a trusted-network protocol; the
  /// default binds loopback only.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (see AlignmentServer::port()).
  std::uint16_t port = 0;
  /// Worker pool size; 0 = hardware concurrency.
  unsigned workers = 0;
  /// Bounded request queue capacity (admission control threshold).
  std::size_t queue_capacity = 64;
  /// TOO_LARGE budget: maximum (m+1)*(n+1) DPM cells per request.
  std::uint64_t max_request_cells = std::uint64_t{1} << 28;
  /// Per-frame byte ceiling applied when reading requests.
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Base FastLSA tuning; requests may override k / base_case_cells.
  FastLsaOptions fastlsa;
  /// Arm the obs metrics registry on start() so the STATS verb has data.
  bool enable_metrics = true;
  /// listen(2) backlog.
  int backlog = 128;

  // ---- Connection hygiene ---------------------------------------------
  /// Per-recv read deadline in milliseconds (a receive timeout on
  /// accepted sockets, set by FrameServer). Bounds both idle connections
  /// and slow-loris peers that dribble a frame byte-by-byte: any single
  /// recv stalled past this is a TransportError and the connection is
  /// closed. 0 disables.
  std::uint32_t idle_timeout_ms = 60000;
  /// Cap on concurrently served connections. A connection over the cap
  /// is answered with a typed CONNECTION_LIMIT error and closed — never
  /// silently dropped. 0 means unlimited.
  std::size_t max_connections = 256;

  // ---- Reference-indexed search (REF_PUT / SEARCH) --------------------
  /// Cap on residues of one registered reference. REF_PUT above this is
  /// answered TOO_LARGE (the k-mer index itself hard-rejects >= 2^32).
  std::size_t max_reference_residues = std::size_t{1} << 26;
  /// Seed length for REF_PUT requests that leave k at 0; 0 picks a
  /// per-alphabet default (12 for DNA, 5 for protein).
  std::uint32_t default_seed_k = 0;
  /// Baseline chained-search tuning; SEARCH requests override field by
  /// field (0 = keep this default).
  search::ChainedSearchParams search_defaults;

  // ---- Streaming (SEQ_* / ALIGN_REF) ----------------------------------
  /// Directory for packed store files (one per registered reference).
  /// Empty = a private directory under TMPDIR, removed with the server.
  std::string store_dir;
  /// Cap on residues of one streamed upload; SEQ_BEGIN/SEQ_CHUNK past it
  /// answer TOO_LARGE. Defaults well above max_reference_residues: an
  /// upload is bounded by disk, not by the k-mer index position type,
  /// until SEQ_END asks for an index.
  std::uint64_t max_store_residues = std::uint64_t{1} << 32;
  /// Cap on concurrently open upload sessions (each holds an fd and a
  /// small write buffer). Admission answers OVERLOADED past it.
  std::size_t max_uploads_in_flight = 64;
  /// Idle ceiling for an open upload session: a session with no
  /// SEQ_BEGIN/SEQ_CHUNK/SEQ_END activity for this long is reaped (its
  /// partial file unlinked, its slot against max_uploads_in_flight
  /// freed). A dead client must not pin the cap until shutdown. 0
  /// disables reaping.
  std::uint32_t upload_idle_timeout_ms = 60000;
  /// TOO_LARGE budget for banded ALIGN_REF (band > 0): maximum
  /// (m+1)*(|n-m|+2*band+1) banded-matrix cells. Distinct from
  /// max_request_cells because the banded matrix is the memory ceiling
  /// at multi-megabase scale, not the full (m+1)*(n+1) rectangle.
  std::uint64_t max_banded_cells = std::uint64_t{1} << 33;
  /// Largest cigar slice carried by one ALIGN_PART frame.
  std::size_t align_part_chars = std::size_t{1} << 20;

  // ---- Fault injection ------------------------------------------------
  /// Chaos-testing plan (see service/fault.hpp); inactive by default.
  /// When enabled, the read/write/admission paths consult the seeded
  /// injector so tests and CI deterministically exercise failure edges.
  FaultPlan fault_plan;
};

class AlignmentServer {
 public:
  explicit AlignmentServer(ServiceConfig config = {});
  ~AlignmentServer();  ///< stops (drains) if still running

  AlignmentServer(const AlignmentServer&) = delete;
  AlignmentServer& operator=(const AlignmentServer&) = delete;

  /// Binds, listens, and spawns the acceptor and worker threads. Throws
  /// std::runtime_error on socket failures.
  void start();

  /// The bound TCP port (resolves config.port == 0 to the real one).
  std::uint16_t port() const { return frames_.port(); }

  /// Graceful drain; blocks until every admitted job is answered and all
  /// threads are joined. Idempotent and callable from any thread (the
  /// signal path in flsa_serve funnels here via a self-pipe).
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// What start() recovered from a persistent store directory. Empty
  /// (all zeros) when config.store_dir is empty — a private temp store
  /// has nothing to recover. A skipped entry is a warning, never a
  /// failed boot: the surviving handles must come back even when one
  /// record is torn or its payload vanished.
  struct RecoveryReport {
    std::size_t recovered = 0;  ///< handles serving again after replay
    std::size_t skipped = 0;    ///< manifest entries dropped (see warnings)
    std::vector<std::string> warnings;
  };
  /// Valid after start(); stable until the next start().
  const RecoveryReport& recovery() const { return recovery_; }

  /// Current depth of the bounded request queue.
  std::size_t queue_depth() const { return queue_.size(); }

  const ServiceConfig& config() const { return config_; }

 private:
  using Connection = FrameServer::Connection;
  struct Job;
  /// A queued verb's executor with its request bound; run by a worker.
  using Executor = std::function<void(Aligner&, const Job&)>;
  struct Job {
    std::shared_ptr<Connection> connection;
    std::uint64_t request_id = 0;
    std::uint32_t deadline_ms = 0;  ///< 0 = none
    std::chrono::steady_clock::time_point enqueued;
    Executor execute;
  };

  /// A verb's admission charge: `amount` of `unit` against `limit`; over
  /// the limit answers TOO_LARGE.
  struct Charge {
    std::uint64_t amount = 0;
    std::uint64_t limit = 0;
    const char* what = "";
    const char* unit = "";
  };

  /// One registered reference, living in the packed store: a zero-copy
  /// view of the mmap'd record (every worker reads the same pages), the
  /// matrix family it was encoded under (SEARCH/ALIGN_REF must agree on
  /// alphabet), and — when an index was requested — the k-mer index.
  /// `index` is null for ALIGN_REF-only handles (SEQ_END with
  /// build_index = false); SEARCH against them is a BAD_REQUEST.
  /// After a restart replay the index is also null for indexed handles
  /// (`build_k` != 0) until the first SEARCH rebuilds it lazily — boot
  /// must not pay O(total residues) index builds up front.
  struct RefEntry {
    std::shared_ptr<const search::ReferenceIndex> index;
    SequenceView view;
    WireMatrix matrix = WireMatrix::kDna;
    std::uint32_t build_k = 0;        ///< index seed length (0 = no index)
    std::uint64_t content_token = 0;  ///< durable identity across restarts
    std::string name;
  };

  /// One in-progress chunked upload, keyed by the client's token. Lives
  /// on the connection threads only (guarded by uploads_mutex_): chunks
  /// of one session arrive ordered on one connection, and the store
  /// write is I/O-bound, not CPU-bound, so the worker pool is not
  /// involved until SEQ_END registers the result.
  struct Upload {
    std::unique_ptr<store::StoreWriter> writer;
    WireMatrix matrix = WireMatrix::kDna;
    std::string name;
    std::string path;
    std::uint64_t declared_total = 0;  ///< SEQ_BEGIN's total (0 = unknown)
    std::uint64_t received = 0;        ///< letters applied so far
    std::uint64_t rolling_hash;        ///< FNV-1a of letters [0, received)
    /// Refreshed by every SEQ_* frame of the session; the hygiene loop
    /// reaps sessions idle past config.upload_idle_timeout_ms.
    std::chrono::steady_clock::time_point last_activity{};
  };

  void worker_loop();

  /// The verb table: one std::visit whose arm per verb counts it, runs its
  /// admission steps, and either answers inline on the connection thread
  /// or enqueues its executor for a worker.
  void handle_request(const std::shared_ptr<Connection>& connection,
                      Request request);

  // Admission steps; each throws the typed refusal that failure() answers.
  void refuse_while_draining() const;
  void check_budget(const Charge& charge) const;
  void admission_fault_site();
  /// The queued verbs' admission tail: drain check, budget, fault site,
  /// then the bounded queue (full -> OVERLOADED, closed -> SHUTTING_DOWN).
  void enqueue(const std::shared_ptr<Connection>& connection,
               std::uint64_t request_id, std::uint32_t deadline_ms,
               const Charge& charge, Executor execute);

  /// Called only inside a catch block: turns the exception in flight into
  /// the typed ErrorResponse for `request_id` and counts it under the
  /// counter its ErrorCode names. The one failure path of every verb.
  ErrorResponse failure(std::uint64_t request_id);
  /// Writes one answer; a peer that is gone counts in write_errors.
  bool respond(const std::shared_ptr<Connection>& connection,
               const std::string& payload);
  /// Copy of a registered handle; REF_NOT_FOUND when it is not.
  RefEntry find_ref(std::uint64_t ref_id);

  // Executors. Each answers on success (run_align returns its answer)
  // and throws on failure.
  /// One ALIGN (align, then the deadline re-check).
  AlignResponse run_align(Aligner& aligner,
                          std::chrono::steady_clock::time_point enqueued,
                          const AlignRequest& request);
  void execute_ref_put(const Job& job, const RefPutRequest& request);
  void execute_search(const Job& job, const SearchRequest& request);
  /// `b` is null when the second sequence is inline in the request.
  void execute_align_ref(Aligner& aligner, const Job& job,
                         const AlignRefRequest& request, const RefEntry& a,
                         const RefEntry* b);
  void answer_stats(const std::shared_ptr<Connection>& connection,
                    const StatsRequest& request);
  void answer_ref_list(const std::shared_ptr<Connection>& connection,
                       const RefListRequest& request);
  void handle_seq_begin(const std::shared_ptr<Connection>& connection,
                        const SeqBeginRequest& request);
  void handle_seq_chunk(const std::shared_ptr<Connection>& connection,
                        const SeqChunkRequest& request);
  void handle_seq_end(const std::shared_ptr<Connection>& connection,
                      const SeqEndRequest& request);

  /// Registers a finalized store file under a fresh ref id. Returns the
  /// id. `build_k` == 0 skips the k-mer index (ALIGN_REF-only handle).
  /// When a registry is active (persistent store dir) the manifest
  /// record is appended and fsync'd *before* the in-memory insert — a
  /// handle is never acknowledged to a client unless a crash-restart
  /// would bring it back.
  std::uint64_t register_store_file(const std::string& path,
                                    WireMatrix matrix, std::uint32_t build_k,
                                    std::uint64_t* distinct_kmers,
                                    std::uint64_t content_token,
                                    const std::string& name);

  /// Renames a finalized temp payload to its durable content-token name
  /// (`ref_<token-hex>.flsa`) inside store_dir_ and returns the new
  /// path. Same-content collisions rename onto the identical bytes, so
  /// an atomic replace is safe.
  std::string durable_payload_path(std::uint64_t content_token) const;

  /// Replays the FLSAREG1 manifest in a persistent store dir: re-mmaps
  /// every intact payload, restores refs_/ref_tokens_/next_ref_id_, and
  /// fills recovery_. Corrupt records and missing payloads become typed
  /// warnings, never a failed boot. Also sweeps orphaned `up*.flsa`
  /// partials left by a crash mid-upload.
  void recover_store_dir();

  /// Hygiene timer: reaps upload sessions idle past
  /// config.upload_idle_timeout_ms. Interruptible via hygiene_cv_.
  void hygiene_loop();

  /// Writes `sequence` (letters) through a StoreWriter into store_dir_
  /// and returns the finalized path. Used by REF_PUT so every reference
  /// lives in the store regardless of which verb registered it.
  std::string write_store_file(const Alphabet& alphabet,
                               std::string_view letters,
                               const std::string& name);

  /// Cached registry instruments (stable references, hot-path safe).
  struct Instruments {
    obs::Counter& requests;
    obs::Counter& completed;
    obs::Counter& rejected_overloaded;
    obs::Counter& rejected_too_large;
    obs::Counter& rejected_deadline;
    obs::Counter& rejected_shutdown;
    obs::Counter& bad_requests;
    obs::Counter& internal_errors;
    obs::Counter& write_errors;
    obs::Counter& cells;
    obs::Counter& search_requests;
    obs::Counter& search_completed;
    obs::Counter& search_hits;
    obs::Counter& search_anchors;
    obs::Counter& search_ref_not_found;
    obs::Counter& ref_puts;
    obs::Counter& ref_residues;
    obs::Counter& uploads_started;
    obs::Counter& upload_chunks;
    obs::Counter& upload_bytes;
    obs::Counter& upload_resumes;
    obs::Counter& uploads_sealed;
    obs::Counter& align_ref_requests;
    obs::Counter& align_parts;
    obs::Counter& ref_dedup_hits;
    obs::Counter& uploads_reaped;
    obs::Counter& refs_recovered;
    obs::Counter& recovery_skipped;
    obs::Counter& index_rebuilds;
    obs::Gauge& uploads_active;
    obs::Gauge& refs_live;
    obs::Gauge& queue_depth;
    obs::Gauge& in_flight;
    obs::Gauge& uptime_ms;
    obs::Histogram& queue_seconds;
    obs::Histogram& exec_seconds;
    obs::Histogram& search_exec_seconds;
    obs::Histogram& ref_build_seconds;
  };

  ServiceConfig config_;
  Instruments instruments_;
  /// Non-null only when config_.fault_plan is enabled; shared by every
  /// connection handler and worker (FaultInjector is thread-safe).
  std::unique_ptr<FaultInjector> injector_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  /// Admitted-but-unanswered jobs across all connections; exported as the
  /// `service.in_flight` gauge so a router can score backend load beyond
  /// queue depth (a deep queue and busy workers both count).
  std::atomic<std::size_t> jobs_in_flight_{0};
  std::chrono::steady_clock::time_point started_at_{};

  BoundedQueue<Job> queue_;
  std::vector<std::thread> workers_;

  /// Registered references. The map is touched briefly under the mutex
  /// (insert on REF_PUT/SEQ_END, shared_ptr copy on SEARCH/ALIGN_REF);
  /// the indexes and mmap'd views themselves are immutable and read
  /// without any lock.
  std::mutex refs_mutex_;
  std::map<std::uint64_t, RefEntry> refs_;
  std::uint64_t next_ref_id_ = 1;
  /// REF_PUT idempotency: content token -> already-assigned ref id.
  std::map<std::uint64_t, std::uint64_t> ref_tokens_;

  /// Open upload sessions by token (see Upload).
  std::mutex uploads_mutex_;
  std::map<std::uint64_t, Upload> uploads_;

  /// Resolved store directory; when `owns_store_dir_` the server created
  /// it (config.store_dir empty) and removes it on stop().
  std::string store_dir_;
  bool owns_store_dir_ = false;
  std::atomic<std::uint64_t> next_store_file_{1};

  /// Durable handle registry (FLSAREG1). Non-null only for a persistent
  /// store dir; appends are serialized by registry_mutex_ so records
  /// never interleave.
  std::unique_ptr<store::RegistryWriter> registry_;
  std::mutex registry_mutex_;
  RecoveryReport recovery_;

  /// Upload-session hygiene timer (see hygiene_loop()).
  std::thread hygiene_;
  std::mutex hygiene_mutex_;
  std::condition_variable hygiene_cv_;
  bool hygiene_stop_ = false;

  /// The client-facing connection layer; its handler is handle_request.
  /// Declared last so its handler threads are joined before any state
  /// they touch is destroyed.
  FrameServer frames_;
};

}  // namespace service
}  // namespace flsa
