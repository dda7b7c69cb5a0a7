// The front tier: a router that speaks the existing wire protocol to
// clients and multiplexes onto a fleet of flsa_serve backends.
//
// Request flow
// ------------
//   client conn threads  one per client, run by the shared connection
//                        layer (service::FrameServer): read and decode
//                        frames, then here assign a router-wide id,
//                        register a PendingOp, and push the id onto the
//                        chosen backend's outbound queue
//   backend flushers     one per backend: pop ids and forward each op as
//                        one frame on a pipelined channel, its deadline
//                        cut to the budget left and its handles mapped to
//                        that backend's local ids
//   channel readers      one per backend connection: read responses and
//                        complete PendingOps (write the answer to the
//                        origin client with the original request_id
//                        restored)
//   health prober        polls every backend with STATS; ejects/readmits
//                        and feeds queue-depth/in-flight gauges into
//                        least-loaded routing
//   deadline monitor     expires ops whose deadline is gone and sweeps
//                        abandoned upload routes
//
// Routing
// -------
//   ALIGN        least-loaded healthy backend (router in-flight + the
//                backend's reported queue_depth/in_flight)
//   SEARCH       the replicas holding the reference (rendezvous placement
//                from REF_PUT), least-loaded among them; the ref id is
//                rewritten per backend (each backend assigned its own)
//   REF_PUT      fanned out to R rendezvous-chosen replicas; >= 1 success
//                installs the mapping and answers success (degraded
//                replication is accepted and counted)
//   SEQ_*        pinned to one rendezvous-chosen backend per upload token
//                (chunks of a session must land on one store, in order:
//                the frames also stick to one channel), never failed
//                over; the SEQ_END answer's backend-local ref id is
//                rewritten to a fresh router id
//   ALIGN_REF    eligible backends are those holding *both* referenced
//                handles (intersection of their placements); ref ids are
//                rewritten per backend; never failed over (the response
//                may already be streaming in ALIGN_PART frames — non-last
//                parts are forwarded to the client as they arrive, the
//                last one completes the op)
//   STATS        answered locally from the router's own registry
//   REF_LIST     answered BAD_REQUEST locally: a backend would list its
//                own local ids, which name nothing at router scope
//   other codes  fail to decode and are answered BAD_REQUEST by the
//                connection layer
//
// Deadlines: the router re-computes the remaining budget (original
// deadline minus time since arrival) at every (re)send and answers
// DEADLINE_EXCEEDED locally once it is gone — a request never reaches a
// backend with a budget it cannot meet.
//
// Failure handling: a dead channel or a retryable typed error fails the
// op over to another healthy backend (bounded attempts); non-retryable
// errors are forwarded as-is. REF_PUT never fails over (re-sending after
// an ambiguous failure could register twice).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "router/shard_map.hpp"
#include "service/bounded_queue.hpp"
#include "service/client.hpp"
#include "service/frame_server.hpp"
#include "service/protocol.hpp"

namespace flsa {
namespace router {

struct RouterConfig {
  /// Listen address of the router itself.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 binds an ephemeral port
  /// The backend fleet (flsa_serve instances). At least one required.
  std::vector<service::Endpoint> backends;
  /// REF_PUT replication factor: each reference lives on min(R, backends)
  /// backends, placed by rendezvous hashing.
  std::size_t replication = 1;
  /// Pipelined connections per backend.
  std::size_t channels_per_backend = 2;
  /// Per-backend outbound queue capacity (admission control: a full queue
  /// answers OVERLOADED locally).
  std::size_t queue_capacity = 256;
  /// Frame ceiling for client reads.
  std::size_t max_frame_bytes = service::kMaxFrameBytes;
  /// Concurrent client connection cap (0 = unlimited).
  std::size_t max_connections = 256;
  /// Per-recv deadline on client sockets, ms (0 disables).
  std::uint32_t idle_timeout_ms = 60000;
  int backlog = 128;
  /// Arm the obs registry on start().
  bool enable_metrics = true;

  // ---- Failover / health ----------------------------------------------
  /// Total sends per op (first try + failovers).
  unsigned max_attempts = 3;
  /// STATS health-check period, ms.
  std::uint32_t health_interval_ms = 200;
  /// stop() waits this long for in-flight ops before answering the rest
  /// with SHUTTING_DOWN, ms.
  std::uint32_t drain_grace_ms = 5000;

  // ---- Upload placement hygiene ----------------------------------------
  /// TTL for a token-sticky upload placement with no SEQ_* traffic: an
  /// abandoned session's route is evicted after this long so the map
  /// cannot grow without bound (completion already evicts promptly).
  /// 0 disables the sweep.
  std::uint32_t upload_route_ttl_ms = 600000;
};

class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();  ///< stops (drains) if still running

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Connects the backend pool, binds the listen socket, spawns all
  /// threads and runs the first health round before accepting clients.
  /// Throws std::runtime_error when no backend is reachable or the socket
  /// setup fails.
  void start();

  /// Graceful drain: stops admission, waits (bounded) for in-flight ops,
  /// answers stragglers with SHUTTING_DOWN, tears everything down.
  void stop();

  std::uint16_t port() const { return frames_.port(); }
  bool running() const { return running_.load(std::memory_order_acquire); }

  const RouterConfig& config() const { return config_; }

  /// Remaining deadline budget in ms at `now` for an op that arrived at
  /// `arrival` with `deadline_ms` (0 = no deadline -> returns -1; fully
  /// spent -> returns 0). Pure — unit-tested directly.
  static std::int64_t remaining_deadline_ms(
      std::uint32_t deadline_ms,
      std::chrono::steady_clock::time_point arrival,
      std::chrono::steady_clock::time_point now);

 private:
  using ClientConn = service::FrameServer::Connection;
  struct Channel;
  struct Backend;
  struct RefPutAgg;
  struct PendingOp;

  /// The verb table: one std::visit with an arm per verb that either
  /// answers the client locally or routes the op and dispatches it.
  void handle_request(const std::shared_ptr<ClientConn>& conn,
                      service::Request request);
  /// Counts the request; answers SHUTTING_DOWN (false) while draining.
  bool admit(const PendingOp& op);
  /// Answers `op`'s client locally with a typed error (BAD_REQUEST counts
  /// in router.bad_requests).
  void refuse(const PendingOp& op, service::ErrorCode code,
              const std::string& message);
  /// Resolves router handle `ref_a` (and `ref_b`, when nonzero) to their
  /// placements and makes `op` eligible where both live; answers
  /// REF_NOT_FOUND (false) otherwise.
  bool place_on_refs(PendingOp& op, std::uint64_t ref_a,
                     std::uint64_t ref_b);
  /// Pins `op` to the backend and channel of upload `token`. `open_on`
  /// (SEQ_BEGIN) creates the route there when none exists; without it an
  /// unknown token answers BAD_REQUEST (false).
  bool pin_upload(PendingOp& op, std::uint64_t token,
                  std::optional<std::size_t> open_on = std::nullopt);
  void route_ref_put(const std::shared_ptr<ClientConn>& conn,
                     service::RefPutRequest request);
  void answer_stats(const std::shared_ptr<ClientConn>& conn,
                    const service::StatsRequest& request);

  void flusher_loop(std::size_t backend_index);
  /// `op`'s request as sent to `backend`: the deadline cut to `budget` ms
  /// (when it has one) and router handles mapped to that backend's ids.
  std::string encode_for(const PendingOp& op, std::size_t backend,
                         std::int64_t budget) const;
  void channel_loop(std::size_t backend_index, std::size_t channel_index);
  /// Health rounds every health_interval_ms; `probed` is set once the
  /// first round is done.
  void prober_loop(std::promise<void>* probed);
  void monitor_loop();

  /// Least-loaded healthy backend among `eligible` (all when empty);
  /// `exclude` (when >= 0) is skipped unless it is the only choice.
  /// Returns -1 when no healthy backend qualifies.
  int pick_backend(const std::vector<std::size_t>& eligible, int exclude);

  /// Registers the op and pushes it onto `backend`'s outbound queue;
  /// answers OVERLOADED locally when that queue is full.
  void dispatch(std::shared_ptr<PendingOp> op, std::size_t backend);

  /// Sends one encoded frame on an open channel of `backend`, recording
  /// `id` as outstanding there first. Returns false when no channel could
  /// be used (the backend is then marked unhealthy).
  /// `channel_pin` >= 0 restricts the send to that channel (mod the
  /// channel count) — upload chunks must not be striped across channels,
  /// or the backend sees them out of order on different connections.
  bool send_on_backend(std::size_t backend, const std::string& payload,
                       std::uint64_t id, int channel_pin = -1);

  /// Channel death: mark it closed, collect its outstanding ids, and
  /// fail each over (or answer the client when attempts are exhausted).
  void fail_channel(std::size_t backend_index, Channel& channel,
                    const char* why);
  void fail_over(std::uint64_t id, const std::string& why);

  /// Completes op `id` with a backend response (or drops it when the op
  /// is no longer pending — a late duplicate). `from_backend` is the
  /// answering backend; -1 for locally generated completions.
  void complete(std::uint64_t id, service::Response response,
                int from_backend);
  /// Local typed completion (deadline gone, no healthy backend, ...).
  void complete_error(std::uint64_t id, service::ErrorCode code,
                      const std::string& message);
  /// REF_PUT sub-op completion: folds into the aggregate and answers the
  /// client when the last replica reports.
  void complete_ref_put(const std::shared_ptr<PendingOp>& op,
                        service::Response response);

  std::uint64_t next_op_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  struct Instruments {
    obs::Counter& requests;
    obs::Counter& forwarded;
    obs::Counter& completed;
    obs::Counter& rejected_overloaded;
    obs::Counter& rejected_shutdown;
    obs::Counter& rejected_deadline;
    obs::Counter& bad_requests;
    obs::Counter& internal_errors;
    obs::Counter& failovers;
    obs::Counter& backend_ejected;
    obs::Counter& backend_readmitted;
    obs::Counter& ref_put_degraded;
    obs::Counter& write_errors;
    obs::Counter& backend_resyncs;
    obs::Counter& refs_pruned;
    obs::Counter& upload_routes_expired;
    obs::Gauge& pending;
    obs::Gauge& backends_healthy;
    obs::Gauge& upload_placements;
    obs::Histogram& latency_seconds;
  };

  RouterConfig config_;
  Instruments instruments_;
  ShardMap shard_map_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  std::atomic<std::uint64_t> next_id_{1};

  /// Pending ops by router id. One mutex guards the map and every op's
  /// mutable fields — routing decisions are tiny compared to DP work, so
  /// contention is not the bottleneck at this tier's scale.
  std::mutex pending_mutex_;
  std::map<std::uint64_t, std::shared_ptr<PendingOp>> pending_;

  /// router ref id -> per-backend placements (backend index, local id).
  std::mutex refs_mutex_;
  std::map<std::uint64_t, std::vector<std::pair<std::size_t, std::uint64_t>>>
      refs_;
  std::atomic<std::uint64_t> next_ref_id_{1};
  /// Open upload sessions: token -> pinned backend (guarded by
  /// refs_mutex_). Installed by SEQ_BEGIN, dropped when SEQ_END answers
  /// successfully — and swept by TTL when the client vanished mid-upload
  /// (every SEQ_* frame refreshes last_used). Exported as the
  /// `router.upload_placements` gauge.
  struct UploadRoute {
    std::size_t backend = 0;
    std::chrono::steady_clock::time_point last_used{};
  };
  std::map<std::uint64_t, UploadRoute> upload_routes_;

  /// Prunes placements on `backend_index` whose local ref id is absent
  /// from `surviving` (a REF_LIST snapshot taken at readmit): a backend
  /// restarted without durable state must answer a typed REF_NOT_FOUND,
  /// never serve a stale placement's wrong handle.
  void prune_backend_refs(std::size_t backend_index,
                          const std::vector<service::RefListEntry>& surviving);
  /// Evicts upload routes idle past config.upload_route_ttl_ms.
  void sweep_upload_routes(std::chrono::steady_clock::time_point now);

  std::vector<std::unique_ptr<Backend>> backends_;

  std::thread prober_;
  std::thread monitor_;

  /// The client-facing connection layer; its handler is handle_request.
  /// Declared last so its handler threads are joined before any state
  /// they touch is destroyed.
  service::FrameServer frames_;
};

}  // namespace router
}  // namespace flsa
