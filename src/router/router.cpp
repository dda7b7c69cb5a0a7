#include "router/router.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <future>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "support/assert.hpp"

namespace flsa {
namespace router {

using service::AlignPartResponse;
using service::AlignRefRequest;
using service::AlignRequest;
using service::ErrorCode;
using service::ErrorResponse;
using service::RefListRequest;
using service::RefListResponse;
using service::RefPutRequest;
using service::RefPutResponse;
using service::Request;
using service::Response;
using service::SearchRequest;
using service::SeqBeginRequest;
using service::SeqChunkRequest;
using service::SeqEndRequest;
using service::SeqOkResponse;
using service::StatsRequest;
using service::StatsResponse;
using service::TransportError;

namespace {

/// Period of the deadline monitor (monitor_loop), ms.
constexpr std::uint32_t kMonitorTickMs = 5;

/// The local id `backend` holds a router handle under, from its
/// placements; 0 (no handle) when it holds none.
std::uint64_t local_ref_id(
    const std::vector<std::pair<std::size_t, std::uint64_t>>& placements,
    std::size_t backend) {
  for (const auto& [holder, local_id] : placements) {
    if (holder == backend) return local_id;
  }
  return 0;
}

std::uint64_t millis_between(std::chrono::steady_clock::time_point from,
                             std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(to - from)
          .count());
}

/// Sleeps up to `total_ms` in small slices, returning early (false) when
/// `stop` flips — the shutdown-responsive sleep every background thread
/// of the router uses.
bool interruptible_sleep(std::uint32_t total_ms,
                         const std::atomic<bool>& stop) {
  constexpr std::uint32_t kSliceMs = 20;
  std::uint32_t slept = 0;
  while (slept < total_ms) {
    if (stop.load(std::memory_order_acquire)) return false;
    const std::uint32_t slice = std::min(kSliceMs, total_ms - slept);
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    slept += slice;
  }
  return !stop.load(std::memory_order_acquire);
}

}  // namespace

/// One pipelined router->backend connection. The reader thread owns the
/// fd lifecycle (dial, close, re-dial); writers only ever shutdown() it,
/// and only under write_mutex, so a recycled descriptor is impossible.
struct Router::Channel {
  int fd = -1;             ///< guarded by write_mutex
  std::mutex write_mutex;
  std::atomic<bool> open{false};
  std::thread reader;
  /// Router ids sent on this channel and not yet answered; on channel
  /// death every one of them is failed over.
  std::mutex outstanding_mutex;
  std::set<std::uint64_t> outstanding;
};

struct Router::Backend {
  service::Endpoint endpoint;
  std::atomic<bool> healthy{true};
  /// Router-side outstanding ops on this backend.
  std::atomic<std::int64_t> in_flight{0};
  /// queue_depth + in_flight gauges from the backend's last STATS answer.
  std::atomic<double> reported_load{0.0};
  std::atomic<std::size_t> next_channel{0};
  service::BoundedQueue<std::uint64_t> outbound;
  std::vector<std::unique_ptr<Channel>> channels;
  std::thread flusher;

  Backend(service::Endpoint ep, std::size_t queue_capacity)
      : endpoint(std::move(ep)), outbound(queue_capacity) {}
};

/// REF_PUT fan-out aggregate: one per client REF_PUT, shared by its R
/// replica sub-ops. The last sub-op to report answers the client.
struct Router::RefPutAgg {
  std::shared_ptr<ClientConn> client;
  std::uint64_t client_id = 0;
  std::uint64_t router_ref_id = 0;
  std::mutex mutex;
  std::size_t remaining = 0;
  std::vector<std::pair<std::size_t, std::uint64_t>> placements;
  bool have_ok = false;
  RefPutResponse ok;
  bool have_err = false;
  ErrorResponse err;
};

struct Router::PendingOp {
  std::uint64_t id = 0;
  std::shared_ptr<ClientConn> client;
  std::uint64_t client_id = 0;
  /// The decoded request with every request_id rewritten to `id`; kept so
  /// failovers can re-encode with a fresh deadline budget.
  Request request;
  std::chrono::steady_clock::time_point arrival;
  std::uint32_t deadline_ms = 0;  ///< original client budget (0 = none)
  unsigned attempts = 0;  ///< sends so far
  /// SEQ_* / ALIGN_REF: the op is welded to its one eligible backend —
  /// no failover (session state / a possibly-started response stream
  /// lives there; a second send could duplicate either).
  bool pinned = false;
  /// Channel restriction for the send (-1 = any): upload chunks of one
  /// session stay on one channel so the backend sees them in order.
  int channel_pin = -1;
  /// SEQ_END: complete() turns the backend's ref id into a router handle.
  bool seals_upload = false;
  int last_backend = -1;
  /// Backends allowed to serve this op (empty = any): SEARCH replicas,
  /// or the single REF_PUT target.
  std::vector<std::size_t> eligible;
  /// SEARCH / ALIGN_REF: this reference's local id on each replica
  /// backend (ALIGN_REF: ref_a's placements; ref_ids_b holds ref_b's).
  std::vector<std::pair<std::size_t, std::uint64_t>> ref_ids;
  std::vector<std::pair<std::size_t, std::uint64_t>> ref_ids_b;
  std::shared_ptr<RefPutAgg> agg;  ///< non-null for REF_PUT sub-ops
};

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      instruments_{
          obs::metrics().counter("router.requests"),
          obs::metrics().counter("router.forwarded"),
          obs::metrics().counter("router.completed"),
          obs::metrics().counter("router.rejected.overloaded"),
          obs::metrics().counter("router.rejected.shutting_down"),
          obs::metrics().counter("router.rejected.deadline"),
          obs::metrics().counter("router.bad_requests"),
          obs::metrics().counter("router.internal_errors"),
          obs::metrics().counter("router.failovers"),
          obs::metrics().counter("router.backend.ejected"),
          obs::metrics().counter("router.backend.readmitted"),
          obs::metrics().counter("router.ref_put.degraded"),
          obs::metrics().counter("router.write_errors"),
          obs::metrics().counter("router.backend.resyncs"),
          obs::metrics().counter("router.refs_pruned"),
          obs::metrics().counter("router.upload_routes_expired"),
          obs::metrics().gauge("router.pending"),
          obs::metrics().gauge("router.backends_healthy"),
          obs::metrics().gauge("router.upload_placements"),
          obs::metrics().histogram("router.latency_seconds"),
      },
      shard_map_(std::max<std::size_t>(config_.backends.size(), 1),
                 std::max<std::size_t>(config_.replication, 1)),
      frames_({config_.host, config_.port, config_.backlog,
               config_.idle_timeout_ms, config_.max_connections,
               config_.max_frame_bytes},
              {obs::metrics().counter("router.connections"),
               obs::metrics().counter("router.rejected.connection_limit"),
               instruments_.bad_requests, instruments_.write_errors},
              [this](const std::shared_ptr<ClientConn>& conn,
                     Request request) {
                handle_request(conn, std::move(request));
              }) {
  FLSA_REQUIRE(!config_.backends.empty());
  FLSA_REQUIRE(config_.channels_per_backend >= 1);
  FLSA_REQUIRE(config_.max_attempts >= 1);
  for (const service::Endpoint& endpoint : config_.backends) {
    backends_.push_back(std::make_unique<Backend>(
        endpoint, config_.queue_capacity == 0 ? 1 : config_.queue_capacity));
  }
}

Router::~Router() { stop(); }

std::int64_t Router::remaining_deadline_ms(
    std::uint32_t deadline_ms, std::chrono::steady_clock::time_point arrival,
    std::chrono::steady_clock::time_point now) {
  if (deadline_ms == 0) return -1;
  const std::int64_t elapsed =
      static_cast<std::int64_t>(millis_between(arrival, now));
  const std::int64_t remaining =
      static_cast<std::int64_t>(deadline_ms) - elapsed;
  return remaining > 0 ? remaining : 0;
}

void Router::start() {
  FLSA_REQUIRE(!running_.load());

  // Pre-flight: at least one backend must accept a connection, otherwise
  // the fleet config is wrong and starting a black-hole router helps no
  // one. Unreachable minorities are tolerated (the prober ejects them).
  std::size_t reachable = 0;
  for (const service::Endpoint& endpoint : config_.backends) {
    try {
      service::Client probe;
      probe.connect(endpoint.host, endpoint.port);
      ++reachable;
    } catch (const std::exception&) {
    }
  }
  if (reachable == 0) {
    throw std::runtime_error("no backend reachable (" +
                             std::to_string(config_.backends.size()) +
                             " configured)");
  }

  frames_.listen();

  if (config_.enable_metrics) obs::set_enabled(true);

  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);

  for (std::size_t bi = 0; bi < backends_.size(); ++bi) {
    Backend& backend = *backends_[bi];
    backend.channels.reserve(config_.channels_per_backend);
    for (std::size_t ci = 0; ci < config_.channels_per_backend; ++ci) {
      auto channel = std::make_unique<Channel>();
      // First dial before any client is accepted: a pinned op (SEQ_*,
      // ALIGN_REF) never fails over, so it must not find its channel still
      // connecting. The reader re-dials a backend that refused.
      try {
        channel->fd =
            service::dial_tcp(backend.endpoint.host, backend.endpoint.port);
        channel->open.store(true, std::memory_order_release);
      } catch (const TransportError&) {
      }
      backend.channels.push_back(std::move(channel));
    }
    for (std::size_t ci = 0; ci < config_.channels_per_backend; ++ci) {
      backend.channels[ci]->reader =
          std::thread([this, bi, ci] { channel_loop(bi, ci); });
    }
    backend.flusher = std::thread([this, bi] { flusher_loop(bi); });
  }
  // The first health round finishes before any client is accepted, so
  // the loads it reports are not inflated by the first requests.
  std::promise<void> probed;
  prober_ = std::thread([this, &probed] { prober_loop(&probed); });
  probed.get_future().wait();
  monitor_ = std::thread([this] { monitor_loop(); });
  frames_.start_accepting();
}

void Router::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  draining_.store(true, std::memory_order_release);

  // 1. Stop admitting clients.
  frames_.stop_accepting();

  // 2. Bounded drain: give in-flight ops a grace window to complete
  //    through the backends (the flushers and channels are still up).
  const auto grace_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.drain_grace_ms);
  while (std::chrono::steady_clock::now() < grace_deadline) {
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      if (pending_.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // 3. Close the outbound queues; flushers drain what is already queued
  //    and exit.
  for (auto& backend : backends_) backend->outbound.close();
  for (auto& backend : backends_) {
    if (backend->flusher.joinable()) backend->flusher.join();
  }

  // 4. Whatever is still pending gets a typed SHUTTING_DOWN — never a
  //    silent drop.
  std::vector<std::uint64_t> leftovers;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    leftovers.reserve(pending_.size());
    for (const auto& [id, op] : pending_) leftovers.push_back(id);
  }
  for (std::uint64_t id : leftovers) {
    complete_error(id, ErrorCode::kShuttingDown, "router is draining");
  }

  // 5. Tear down the backend channels and helper threads.
  for (std::size_t bi = 0; bi < backends_.size(); ++bi) {
    for (auto& channel : backends_[bi]->channels) {
      fail_channel(bi, *channel, "router shutdown");
    }
  }
  for (auto& backend : backends_) {
    for (auto& channel : backend->channels) {
      if (channel->reader.joinable()) channel->reader.join();
      std::lock_guard<std::mutex> lock(channel->write_mutex);
      if (channel->fd >= 0) {
        ::close(channel->fd);
        channel->fd = -1;
      }
    }
  }
  if (prober_.joinable()) prober_.join();
  if (monitor_.joinable()) monitor_.join();

  // 6. Unblock and reap the client connections.
  frames_.close_connections();
  instruments_.pending.set(0.0);
}

// ---- Client side -------------------------------------------------------

void Router::handle_request(const std::shared_ptr<ClientConn>& conn,
                            Request request) {
  auto op = std::make_shared<PendingOp>();
  op->id = next_op_id();
  op->client = conn;
  op->client_id = service::request_id(request);
  op->arrival = std::chrono::steady_clock::now();
  op->deadline_ms = service::deadline_ms(request);
  // One arm per verb. An arm returns true when `op` is routed and ready
  // to forward, false when it answered the client itself.
  const bool forward = std::visit(
      service::Overloaded{
          [&](const StatsRequest& stats) {
            answer_stats(conn, stats);
            return false;
          },
          [&](const RefListRequest&) {
            // Never forwarded: a backend answers with its own local ids,
            // which name nothing at router scope.
            if (admit(*op)) {
              refuse(*op, ErrorCode::kBadRequest,
                     "REF_LIST is not served by the router: backend handle "
                     "ids are local to each backend");
            }
            return false;
          },
          [&](RefPutRequest& put) {
            if (admit(*op)) route_ref_put(conn, std::move(put));
            return false;
          },
          [&](const AlignRequest&) { return admit(*op); },
          [&](const SearchRequest& search) {
            return admit(*op) && place_on_refs(*op, search.ref_id, 0);
          },
          [&](const AlignRefRequest& by_ref) {
            // The response may stream: one backend, one shot.
            op->pinned = true;
            return admit(*op) &&
                   place_on_refs(*op, by_ref.ref_a, by_ref.ref_b);
          },
          [&](const SeqBeginRequest& begin) {
            // A new session pins to one rendezvous-chosen backend (the
            // client may steer co-location with `placement`); a resume
            // re-uses the recorded route so the retried BEGIN reaches the
            // backend holding the bytes.
            const std::uint64_t key =
                begin.placement != 0 ? begin.placement : begin.upload_token;
            return admit(*op) &&
                   pin_upload(*op, begin.upload_token,
                              shard_map_.replicas(key).front());
          },
          [&](const SeqChunkRequest& chunk) {
            return admit(*op) && pin_upload(*op, chunk.upload_token);
          },
          [&](const SeqEndRequest& end) {
            op->seals_upload = true;
            return admit(*op) && pin_upload(*op, end.upload_token);
          },
      },
      request);
  if (!forward) return;
  service::request_id(request) = op->id;
  op->request = std::move(request);

  const int backend = pick_backend(op->eligible, -1);
  if (backend < 0) {
    instruments_.rejected_overloaded.add();
    refuse(*op, ErrorCode::kOverloaded, "no healthy backend available");
    return;
  }
  dispatch(std::move(op), static_cast<std::size_t>(backend));
}

bool Router::admit(const PendingOp& op) {
  instruments_.requests.add();
  if (!draining_.load(std::memory_order_acquire)) return true;
  instruments_.rejected_shutdown.add();
  refuse(op, ErrorCode::kShuttingDown, "router is draining");
  return false;
}

void Router::refuse(const PendingOp& op, ErrorCode code,
                    const std::string& message) {
  if (code == ErrorCode::kBadRequest) instruments_.bad_requests.add();
  frames_.reject(op.client, op.client_id, code, message);
}

bool Router::place_on_refs(PendingOp& op, std::uint64_t ref_a,
                           std::uint64_t ref_b) {
  std::uint64_t missing = 0;
  {
    std::lock_guard<std::mutex> lock(refs_mutex_);
    const auto a_it = refs_.find(ref_a);
    const auto b_it = ref_b != 0 ? refs_.find(ref_b) : refs_.end();
    if (a_it == refs_.end()) {
      missing = ref_a;
    } else if (ref_b != 0 && b_it == refs_.end()) {
      missing = ref_b;
    } else {
      op.ref_ids = a_it->second;
      if (ref_b != 0) op.ref_ids_b = b_it->second;
    }
  }
  if (missing != 0) {
    refuse(op, ErrorCode::kRefNotFound,
           "reference id " + std::to_string(missing) +
               " is not registered with the router");
    return false;
  }
  // Eligible = backends holding ref_a, intersected with ref_b's
  // placements when both are handles — the pair must be co-located.
  for (const auto& [backend, local_id] : op.ref_ids) {
    if (ref_b == 0 || local_ref_id(op.ref_ids_b, backend) != 0) {
      op.eligible.push_back(backend);
    }
  }
  if (op.eligible.empty()) {
    refuse(op, ErrorCode::kRefNotFound,
           "references " + std::to_string(ref_a) + " and " +
               std::to_string(ref_b) + " share no backend placement");
    return false;
  }
  return true;
}

bool Router::pin_upload(PendingOp& op, std::uint64_t token,
                        std::optional<std::size_t> open_on) {
  {
    std::lock_guard<std::mutex> lock(refs_mutex_);
    auto route = upload_routes_.find(token);
    if (route == upload_routes_.end() && open_on) {
      route = upload_routes_.emplace(token, UploadRoute{*open_on, {}}).first;
      instruments_.upload_placements.set(
          static_cast<double>(upload_routes_.size()));
    }
    if (route != upload_routes_.end()) {
      route->second.last_used = op.arrival;
      op.eligible = {route->second.backend};
    }
  }
  if (op.eligible.empty()) {
    refuse(op, ErrorCode::kBadRequest,
           "unknown upload token " + std::to_string(token) +
               " (send SEQ_BEGIN first)");
    return false;
  }
  op.pinned = true;
  op.channel_pin = static_cast<int>(token % config_.channels_per_backend);
  return true;
}

void Router::route_ref_put(const std::shared_ptr<ClientConn>& conn,
                           RefPutRequest request) {
  const std::uint64_t router_ref_id =
      next_ref_id_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<std::size_t> replicas = shard_map_.replicas(router_ref_id);

  auto agg = std::make_shared<RefPutAgg>();
  agg->client = conn;
  agg->client_id = request.request_id;
  agg->router_ref_id = router_ref_id;
  agg->remaining = replicas.size();

  // One sub-op per replica. REF_PUT is not idempotent (each send would
  // register a fresh id), so sub-ops are pinned to their backend and
  // never failed over; a failed replica just degrades the
  // replication factor, which the aggregate tolerates as long as one
  // placement succeeded.
  for (const std::size_t backend : replicas) {
    auto op = std::make_shared<PendingOp>();
    op->id = next_op_id();
    op->client = conn;
    op->client_id = request.request_id;
    op->arrival = std::chrono::steady_clock::now();
    op->agg = agg;
    op->eligible = {backend};
    RefPutRequest copy = request;
    copy.request_id = op->id;
    op->request = std::move(copy);
    dispatch(std::move(op), backend);
  }
}

void Router::answer_stats(const std::shared_ptr<ClientConn>& conn,
                          const StatsRequest& request) {
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    instruments_.pending.set(static_cast<double>(pending_.size()));
  }
  std::size_t healthy = 0;
  for (const auto& backend : backends_) {
    if (backend->healthy.load(std::memory_order_acquire)) ++healthy;
  }
  instruments_.backends_healthy.set(static_cast<double>(healthy));
  StatsResponse response;
  response.request_id = request.request_id;
  for (const obs::MetricsRegistry::Sample& sample :
       obs::metrics().snapshot()) {
    response.entries.emplace_back(sample.name, sample.value);
  }
  frames_.respond(conn, service::encode(response));
}

// ---- Routing / dispatch ------------------------------------------------

int Router::pick_backend(const std::vector<std::size_t>& eligible,
                         int exclude) {
  int best = -1;
  double best_score = std::numeric_limits<double>::infinity();
  const auto consider = [&](std::size_t index) {
    const Backend& backend = *backends_[index];
    if (!backend.healthy.load(std::memory_order_acquire)) return;
    if (static_cast<int>(index) == exclude) return;
    const double score =
        static_cast<double>(backend.in_flight.load(std::memory_order_acquire)) +
        backend.reported_load.load(std::memory_order_acquire);
    if (score < best_score) {
      best_score = score;
      best = static_cast<int>(index);
    }
  };
  if (eligible.empty()) {
    for (std::size_t i = 0; i < backends_.size(); ++i) consider(i);
  } else {
    for (const std::size_t i : eligible) consider(i);
  }
  if (best < 0 && exclude >= 0) {
    // Last resort: the excluded backend, if it is healthy and eligible —
    // retrying the same backend beats answering with an error.
    const auto index = static_cast<std::size_t>(exclude);
    const bool is_eligible =
        eligible.empty() ||
        std::find(eligible.begin(), eligible.end(), index) != eligible.end();
    if (is_eligible &&
        backends_[index]->healthy.load(std::memory_order_acquire)) {
      best = exclude;
    }
  }
  return best;
}

void Router::dispatch(std::shared_ptr<PendingOp> op, std::size_t backend) {
  const std::uint64_t id = op->id;
  op->client->in_flight.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_.emplace(id, std::move(op));
    instruments_.pending.set(static_cast<double>(pending_.size()));
  }
  switch (backends_[backend]->outbound.try_push(id)) {
    case service::BoundedQueue<std::uint64_t>::Push::kAccepted:
      return;
    case service::BoundedQueue<std::uint64_t>::Push::kFull:
      instruments_.rejected_overloaded.add();
      complete_error(
          id, ErrorCode::kOverloaded,
          "backend queue full (" +
              std::to_string(backends_[backend]->outbound.capacity()) +
              " entries)");
      return;
    case service::BoundedQueue<std::uint64_t>::Push::kClosed:
      instruments_.rejected_shutdown.add();
      complete_error(id, ErrorCode::kShuttingDown, "router is draining");
      return;
  }
}

// ---- Backend flusher --------------------------------------------------

void Router::flusher_loop(std::size_t backend_index) {
  Backend& backend = *backends_[backend_index];
  while (const auto id = backend.outbound.pop()) {
    bool expired = false;
    std::string payload;
    int channel_pin = -1;
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      const auto it = pending_.find(*id);
      if (it == pending_.end()) continue;  // already answered elsewhere
      PendingOp& op = *it->second;
      const std::int64_t budget = remaining_deadline_ms(
          op.deadline_ms, op.arrival, std::chrono::steady_clock::now());
      expired = budget == 0;
      if (!expired) {
        op.attempts += 1;
        op.last_backend = static_cast<int>(backend_index);
        instruments_.forwarded.add();
        payload = encode_for(op, backend_index, budget);
        channel_pin = op.channel_pin;
      }
    }
    if (expired) {
      instruments_.rejected_deadline.add();
      complete_error(*id, ErrorCode::kDeadlineExceeded,
                     "deadline budget exhausted before forwarding");
    } else if (!send_on_backend(backend_index, payload, *id, channel_pin)) {
      fail_over(*id, "backend " + backend.endpoint.host + ":" +
                         std::to_string(backend.endpoint.port) +
                         " unreachable");
    }
  }
}

std::string Router::encode_for(const PendingOp& op, std::size_t backend,
                               std::int64_t budget) const {
  Request request = op.request;
  if (budget > 0) {
    service::set_deadline_ms(request, static_cast<std::uint32_t>(budget));
  }
  // Handles travel as this backend's own local ids.
  if (auto* search = std::get_if<SearchRequest>(&request)) {
    search->ref_id = local_ref_id(op.ref_ids, backend);
  } else if (auto* by_ref = std::get_if<AlignRefRequest>(&request)) {
    by_ref->ref_a = local_ref_id(op.ref_ids, backend);
    by_ref->ref_b = local_ref_id(op.ref_ids_b, backend);
  }
  return service::encode(request);
}

bool Router::send_on_backend(std::size_t backend_index,
                             const std::string& payload, std::uint64_t id,
                             int channel_pin) {
  Backend& backend = *backends_[backend_index];
  const std::size_t channels = backend.channels.size();
  // A pinned frame (upload chunk) gets exactly one channel candidate:
  // spilling to a sibling channel would put it on a different backend
  // connection, where the server would see it out of session order.
  const std::size_t attempts_allowed = channel_pin >= 0 ? 1 : channels;
  for (std::size_t attempt = 0; attempt < attempts_allowed; ++attempt) {
    const std::size_t ci =
        channel_pin >= 0
            ? static_cast<std::size_t>(channel_pin) % channels
            : backend.next_channel.fetch_add(1, std::memory_order_relaxed) %
                  channels;
    Channel& channel = *backend.channels[ci];
    bool wrote = false;
    bool died = false;
    {
      std::lock_guard<std::mutex> lock(channel.write_mutex);
      if (!channel.open.load(std::memory_order_acquire)) continue;
      {
        // Outstanding before the write: a response cannot overtake its
        // own registration.
        std::lock_guard<std::mutex> out_lock(channel.outstanding_mutex);
        channel.outstanding.insert(id);
      }
      backend.in_flight.fetch_add(1, std::memory_order_acq_rel);
      try {
        wrote = service::write_frame(channel.fd, payload);
      } catch (const std::exception&) {
        wrote = false;
      }
      if (!wrote) {
        std::lock_guard<std::mutex> out_lock(channel.outstanding_mutex);
        channel.outstanding.erase(id);
        backend.in_flight.fetch_sub(1, std::memory_order_acq_rel);
        died = true;
      }
    }
    if (wrote) return true;
    if (died) fail_channel(backend_index, channel, "write failed");
  }
  return false;
}

// ---- Backend channels --------------------------------------------------

void Router::channel_loop(std::size_t backend_index,
                          std::size_t channel_index) {
  Backend& backend = *backends_[backend_index];
  Channel& channel = *backend.channels[channel_index];
  while (!draining_.load(std::memory_order_acquire)) {
    if (!channel.open.load(std::memory_order_acquire)) {
      // (Re)dial. The reader owns the fd: nobody else ever closes it.
      int fd = -1;
      try {
        fd = service::dial_tcp(backend.endpoint.host, backend.endpoint.port);
      } catch (const TransportError&) {
        if (!interruptible_sleep(config_.health_interval_ms, draining_)) {
          return;
        }
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(channel.write_mutex);
        if (channel.fd >= 0) ::close(channel.fd);
        channel.fd = fd;
        channel.open.store(true, std::memory_order_release);
      }
    }

    std::string payload;
    try {
      while (service::read_frame(channel.fd, &payload)) {
        Response response = service::decode_response(payload);
        const std::uint64_t id = service::request_id(response);
        if (const auto* part = std::get_if<AlignPartResponse>(&response);
            part != nullptr && !part->last) {
          // A non-final ALIGN_PART frame: forward it to the origin client
          // with its request id restored, but keep the op pending and
          // outstanding — the stream completes only on the last frame.
          std::shared_ptr<PendingOp> op;
          {
            std::lock_guard<std::mutex> lock(pending_mutex_);
            const auto it = pending_.find(id);
            if (it != pending_.end()) op = it->second;
          }
          if (op != nullptr) {
            AlignPartResponse forwarded = *part;
            forwarded.request_id = op->client_id;
            if (!frames_.respond(op->client, service::encode(forwarded))) {
              instruments_.write_errors.add();
            }
          }
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(channel.outstanding_mutex);
          if (channel.outstanding.erase(id) != 0) {
            backend.in_flight.fetch_sub(1, std::memory_order_acq_rel);
          }
        }
        complete(id, std::move(response), static_cast<int>(backend_index));
      }
      fail_channel(backend_index, channel, "backend closed the connection");
    } catch (const std::exception& e) {
      // TransportError (reset, mid-frame EOF) or ProtocolError (corrupt
      // frame — the stream position is unrecoverable): either way this
      // channel is done; outstanding ops fail over.
      fail_channel(backend_index, channel, e.what());
    }
  }
}

void Router::fail_channel(std::size_t backend_index, Channel& channel,
                          const char* why) {
  {
    std::lock_guard<std::mutex> lock(channel.write_mutex);
    if (!channel.open.load(std::memory_order_acquire)) return;
    channel.open.store(false, std::memory_order_release);
    ::shutdown(channel.fd, SHUT_RDWR);
  }
  std::vector<std::uint64_t> orphans;
  {
    std::lock_guard<std::mutex> lock(channel.outstanding_mutex);
    orphans.assign(channel.outstanding.begin(), channel.outstanding.end());
    channel.outstanding.clear();
  }
  Backend& backend = *backends_[backend_index];
  backend.in_flight.fetch_sub(static_cast<std::int64_t>(orphans.size()),
                              std::memory_order_acq_rel);
  const std::string reason =
      "backend " + backend.endpoint.host + ":" +
      std::to_string(backend.endpoint.port) + " channel failed: " + why;
  for (const std::uint64_t id : orphans) fail_over(id, reason);
}

void Router::fail_over(std::uint64_t id, const std::string& why) {
  int target = -1;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;  // already answered
    PendingOp& op = *it->second;
    // REF_PUT sub-ops never retarget: the send may have executed, and a
    // second send would register a second reference id. Pinned ops
    // (SEQ_* sessions, ALIGN_REF streams) never retarget either — their
    // state lives on exactly one backend.
    if (!op.agg && !op.pinned &&
        !draining_.load(std::memory_order_acquire) &&
        op.attempts < config_.max_attempts) {
      const std::int64_t budget = remaining_deadline_ms(
          op.deadline_ms, op.arrival, std::chrono::steady_clock::now());
      if (budget != 0) {
        target = pick_backend(op.eligible, op.last_backend);
      }
    }
  }
  if (target >= 0) {
    instruments_.failovers.add();
    if (backends_[static_cast<std::size_t>(target)]->outbound.try_push(id) ==
        service::BoundedQueue<std::uint64_t>::Push::kAccepted) {
      return;
    }
    // Fall through: the failover target is saturated or closed.
  }
  complete_error(id, ErrorCode::kInternal, why);
}

// ---- Completion --------------------------------------------------------

void Router::complete(std::uint64_t id, Response response, int from_backend) {
  std::shared_ptr<PendingOp> op;
  int refire_target = -1;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;  // late duplicate
    op = it->second;
    // A retryable typed error (OVERLOADED, SHUTTING_DOWN, CONNECTION_
    // LIMIT) from a backend means the job was never executed there —
    // fail it over instead of bouncing the rejection to the client.
    const auto* error = std::get_if<ErrorResponse>(&response);
    if (error != nullptr && service::is_retryable(error->code) &&
        from_backend >= 0 && !op->agg && !op->pinned &&
        !draining_.load(std::memory_order_acquire) &&
        op->attempts < config_.max_attempts) {
      const std::int64_t budget = remaining_deadline_ms(
          op->deadline_ms, op->arrival, std::chrono::steady_clock::now());
      if (budget != 0) {
        refire_target = pick_backend(op->eligible, from_backend);
      }
    }
    if (refire_target < 0) {
      pending_.erase(it);
      instruments_.pending.set(static_cast<double>(pending_.size()));
    }
  }

  if (refire_target >= 0) {
    instruments_.failovers.add();
    if (backends_[static_cast<std::size_t>(refire_target)]
            ->outbound.try_push(id) ==
        service::BoundedQueue<std::uint64_t>::Push::kAccepted) {
      return;
    }
    complete_error(id, ErrorCode::kOverloaded,
                   "failover target queue full");
    return;
  }

  op->client->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  if (op->agg) {
    complete_ref_put(op, std::move(response));
    return;
  }
  // A sealed upload: the backend answered SEQ_END with its local ref id.
  // Install a router id for it (single placement — streamed uploads are
  // not replicated) and rewrite the answer; clients only see router ids.
  if (op->seals_upload) {
    if (auto* ok = std::get_if<SeqOkResponse>(&response);
        ok != nullptr && ok->ref_id != 0 && from_backend >= 0) {
      const std::uint64_t router_ref_id =
          next_ref_id_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(refs_mutex_);
      refs_[router_ref_id] = {{static_cast<std::size_t>(from_backend),
                               ok->ref_id}};
      // Session over: the sticky placement is garbage now. Aborted or
      // abandoned sessions (no SEQ_END ever succeeds) are swept by the
      // upload_route_ttl_ms monitor instead.
      upload_routes_.erase(ok->upload_token);
      instruments_.upload_placements.set(
          static_cast<double>(upload_routes_.size()));
      ok->ref_id = router_ref_id;
    }
  }
  if (from_backend >= 0) {
    instruments_.latency_seconds.observe(
        static_cast<double>(millis_between(
            op->arrival, std::chrono::steady_clock::now())) *
        1e-3);
  }
  instruments_.completed.add();
  service::request_id(response) = op->client_id;
  if (!frames_.respond(op->client, service::encode(response))) {
    instruments_.write_errors.add();
  }
}

void Router::complete_error(std::uint64_t id, ErrorCode code,
                            const std::string& message) {
  std::shared_ptr<PendingOp> op;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;
    op = it->second;
    pending_.erase(it);
    instruments_.pending.set(static_cast<double>(pending_.size()));
  }
  op->client->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  ErrorResponse response;
  response.request_id = op->client_id;
  response.code = code;
  response.message = message;
  if (op->agg) {
    complete_ref_put(op, Response(std::move(response)));
    return;
  }
  if (code == ErrorCode::kInternal) instruments_.internal_errors.add();
  instruments_.completed.add();
  if (!frames_.respond(op->client, service::encode(response))) {
    instruments_.write_errors.add();
  }
}

void Router::complete_ref_put(const std::shared_ptr<PendingOp>& op,
                              Response response) {
  const std::shared_ptr<RefPutAgg>& agg = op->agg;
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(agg->mutex);
    if (const auto* ok = std::get_if<RefPutResponse>(&response)) {
      agg->placements.emplace_back(op->eligible.front(), ok->ref_id);
      if (!agg->have_ok) {
        agg->have_ok = true;
        agg->ok = *ok;
      }
    } else if (const auto* error = std::get_if<ErrorResponse>(&response)) {
      if (!agg->have_err) {
        agg->have_err = true;
        agg->err = *error;
      }
    }
    last = (--agg->remaining == 0);
  }
  if (!last) return;

  if (agg->have_ok) {
    {
      std::lock_guard<std::mutex> lock(refs_mutex_);
      refs_[agg->router_ref_id] = agg->placements;
    }
    if (agg->have_err) instruments_.ref_put_degraded.add();
    RefPutResponse out = agg->ok;
    out.request_id = agg->client_id;
    out.ref_id = agg->router_ref_id;  // clients only ever see router ids
    instruments_.completed.add();
    if (!frames_.respond(agg->client, service::encode(out))) {
      instruments_.write_errors.add();
    }
  } else {
    ErrorResponse out = agg->err;
    out.request_id = agg->client_id;
    instruments_.completed.add();
    if (!frames_.respond(agg->client, service::encode(out))) {
      instruments_.write_errors.add();
    }
  }
}

// ---- Placement hygiene -------------------------------------------------

void Router::prune_backend_refs(
    std::size_t backend_index,
    const std::vector<service::RefListEntry>& surviving) {
  std::set<std::uint64_t> alive;
  for (const service::RefListEntry& entry : surviving) {
    alive.insert(entry.ref_id);
  }
  std::size_t pruned = 0;
  {
    std::lock_guard<std::mutex> lock(refs_mutex_);
    for (auto it = refs_.begin(); it != refs_.end();) {
      auto& placements = it->second;
      const std::size_t before = placements.size();
      placements.erase(
          std::remove_if(placements.begin(), placements.end(),
                         [&](const std::pair<std::size_t, std::uint64_t>& p) {
                           return p.first == backend_index &&
                                  alive.count(p.second) == 0;
                         }),
          placements.end());
      pruned += before - placements.size();
      // A handle with no surviving replica anywhere answers REF_NOT_FOUND
      // at routing time — drop the empty entry so the map stays bounded.
      if (placements.empty()) {
        it = refs_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (pruned != 0) instruments_.refs_pruned.add(pruned);
}

void Router::sweep_upload_routes(std::chrono::steady_clock::time_point now) {
  if (config_.upload_route_ttl_ms == 0) return;
  const auto ttl = std::chrono::milliseconds(config_.upload_route_ttl_ms);
  std::size_t expired = 0;
  {
    std::lock_guard<std::mutex> lock(refs_mutex_);
    for (auto it = upload_routes_.begin(); it != upload_routes_.end();) {
      if (now - it->second.last_used >= ttl) {
        it = upload_routes_.erase(it);
        ++expired;
      } else {
        ++it;
      }
    }
    if (expired != 0) {
      instruments_.upload_placements.set(
          static_cast<double>(upload_routes_.size()));
    }
  }
  if (expired != 0) instruments_.upload_routes_expired.add(expired);
}

// ---- Health prober -----------------------------------------------------

void Router::prober_loop(std::promise<void>* probed) {
  std::vector<service::Client> probers(backends_.size());
  while (!draining_.load(std::memory_order_acquire)) {
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      Backend& backend = *backends_[i];
      try {
        if (!probers[i].connected()) {
          probers[i].connect(backend.endpoint.host, backend.endpoint.port);
        }
        Response response = probers[i].call(StatsRequest{});
        if (const auto* stats = std::get_if<StatsResponse>(&response)) {
          double load = 0.0;
          for (const auto& [name, value] : stats->entries) {
            if (name == "service.queue_depth" || name == "service.in_flight") {
              load += value;
            }
          }
          backend.reported_load.store(load, std::memory_order_release);
          if (!backend.healthy.exchange(true, std::memory_order_acq_rel)) {
            instruments_.backend_readmitted.add();
            // Readmit re-sync: the backend may have restarted while it
            // was ejected. Ask it which handles actually survive (a
            // durable store replays them; a fresh one has none) and
            // prune placements whose local ids are gone — a stale
            // placement must become a typed REF_NOT_FOUND at routing
            // time, never an answer computed against the wrong handle.
            Response refs_response = probers[i].call(RefListRequest{});
            if (const auto* list =
                    std::get_if<RefListResponse>(&refs_response)) {
              prune_backend_refs(i, list->refs);
              instruments_.backend_resyncs.add();
            }
          }
        }
      } catch (const std::exception&) {
        probers[i].close();
        backend.reported_load.store(0.0, std::memory_order_release);
        if (backend.healthy.exchange(false, std::memory_order_acq_rel)) {
          instruments_.backend_ejected.add();
        }
      }
    }
    std::size_t healthy = 0;
    for (const auto& backend : backends_) {
      if (backend->healthy.load(std::memory_order_acquire)) ++healthy;
    }
    instruments_.backends_healthy.set(static_cast<double>(healthy));
    if (probed != nullptr) {
      probed->set_value();
      probed = nullptr;
    }
    if (!interruptible_sleep(config_.health_interval_ms, draining_)) return;
  }
}

// ---- Deadline monitor --------------------------------------------------

void Router::monitor_loop() {
  auto last_route_sweep = std::chrono::steady_clock::now();
  while (interruptible_sleep(kMonitorTickMs, draining_)) {
    const auto now = std::chrono::steady_clock::now();
    // Abandoned-upload sweep: a few times per TTL is prompt enough, and
    // keeps the map walk off the deadline tick.
    if (config_.upload_route_ttl_ms != 0 &&
        millis_between(last_route_sweep, now) >=
            std::max<std::uint64_t>(1, config_.upload_route_ttl_ms / 4)) {
      last_route_sweep = now;
      sweep_upload_routes(now);
    }
    std::vector<std::uint64_t> expired;
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      for (const auto& [id, op] : pending_) {
        if (op->deadline_ms != 0 &&
            remaining_deadline_ms(op->deadline_ms, op->arrival, now) == 0) {
          expired.push_back(id);
        }
      }
    }
    for (const std::uint64_t id : expired) {
      instruments_.rejected_deadline.add();
      complete_error(id, ErrorCode::kDeadlineExceeded,
                     "deadline expired while waiting for a backend");
    }
  }
}

}  // namespace router
}  // namespace flsa
