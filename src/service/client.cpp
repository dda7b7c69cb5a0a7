#include "service/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "service/frame_server.hpp"
#include "support/assert.hpp"
#include "support/fnv.hpp"

namespace flsa {
namespace service {

namespace {

/// splitmix64 step — the jitter source for decorrelated backoff.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Retry instruments, resolved once (registry references are stable).
struct RetryInstruments {
  obs::Counter& attempts;    ///< retry attempts beyond the first try
  obs::Counter& reconnects;  ///< sockets re-dialled by the retry loop
  obs::Counter& recovered;   ///< calls that succeeded after >= 1 retry
  obs::Counter& exhausted;   ///< calls that ran out of attempts/budget
  obs::Histogram& backoff_seconds;

  static RetryInstruments& get() {
    static RetryInstruments instance{
        obs::metrics().counter("client.retry.attempts"),
        obs::metrics().counter("client.retry.reconnects"),
        obs::metrics().counter("client.retry.recovered"),
        obs::metrics().counter("client.retry.exhausted"),
        obs::metrics().histogram("client.retry.backoff_seconds"),
    };
    return instance;
  }
};

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      last_id_(std::exchange(other.last_id_, 0)),
      endpoints_(std::move(other.endpoints_)),
      cursor_(std::exchange(other.cursor_, 0)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    last_id_ = std::exchange(other.last_id_, 0);
    endpoints_ = std::move(other.endpoints_);
    cursor_ = std::exchange(other.cursor_, 0);
  }
  return *this;
}

void Client::connect(const std::string& host, std::uint16_t port) {
  connect(std::vector<Endpoint>{{host, port}});
}

void Client::connect(std::vector<Endpoint> endpoints) {
  FLSA_REQUIRE(!endpoints.empty());
  endpoints_ = std::move(endpoints);
  cursor_ = 0;
  reconnect();
}

void Client::reconnect() {
  FLSA_REQUIRE(!endpoints_.empty());
  std::exception_ptr last_error;
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const std::size_t index = (cursor_ + i) % endpoints_.size();
    try {
      close();
      fd_ = dial_tcp(endpoints_[index].host, endpoints_[index].port);
      cursor_ = index;
      return;
    } catch (const TransportError&) {
      last_error = std::current_exception();
    }
  }
  std::rethrow_exception(last_error);
}

void Client::advance_endpoint() {
  if (endpoints_.size() > 1) cursor_ = (cursor_ + 1) % endpoints_.size();
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t Client::next_id() { return ++last_id_; }

std::uint64_t Client::send(Request request) {
  FLSA_REQUIRE(connected());
  std::uint64_t& id = request_id(request);
  if (id == 0) id = next_id();
  if (!write_frame(fd_, encode(request))) {
    throw TransportError("server closed the connection");
  }
  return id;
}

Response Client::receive() {
  FLSA_REQUIRE(connected());
  std::string payload;
  if (!read_frame(fd_, &payload)) {
    throw TransportError("server closed the connection");
  }
  return decode_response(payload);
}

Response Client::wait_for(std::uint64_t id) {
  Response response = receive();
  // Connection-scoped errors (id 0: unparseable frame, connection cap)
  // answer whatever is in flight — there is no request id to echo.
  if (const auto* error = std::get_if<ErrorResponse>(&response);
      error != nullptr && error->request_id == 0) {
    return response;
  }
  if (request_id(response) != id) {
    throw std::runtime_error(
        "out-of-order response (id " + std::to_string(request_id(response)) +
        ", expected " + std::to_string(id) +
        "): call() must not be mixed with pipelined send()s");
  }
  return response;
}

Response Client::call(Request request) {
  if (auto* by_ref = std::get_if<AlignRefRequest>(&request)) {
    return call(std::move(*by_ref));
  }
  return wait_for(send(std::move(request)));
}

Response Client::call(AlignRefRequest request) {
  const std::uint64_t id = send(std::move(request));
  AlignPartResponse assembled;
  std::uint32_t expected_seq = 0;
  while (true) {
    Response response = wait_for(id);
    if (std::holds_alternative<ErrorResponse>(response)) return response;
    auto* part = std::get_if<AlignPartResponse>(&response);
    if (part == nullptr) {
      throw std::runtime_error("ALIGN_REF answered with an unexpected verb");
    }
    if (part->seq != expected_seq) {
      throw ProtocolError("ALIGN_PART out of sequence: got frame " +
                          std::to_string(part->seq) + ", expected " +
                          std::to_string(expected_seq));
    }
    const bool last = part->last;
    if (expected_seq == 0) {
      assembled = std::move(*part);
    } else {
      assembled.cigar_part += part->cigar_part;
      // Every frame carries the trailer; the last frame's copy is the
      // authoritative one, so overwrite as frames arrive.
      assembled.score = part->score;
      assembled.cells = part->cells;
      assembled.queue_micros = part->queue_micros;
      assembled.exec_micros = part->exec_micros;
      assembled.deadline_remaining_ms = part->deadline_remaining_ms;
      assembled.last = part->last;
    }
    ++expected_seq;
    if (last) return Response{std::move(assembled)};
  }
}

template <typename RequestT>
Response Client::retry_impl(RequestT request, const RetryPolicy& policy) {
  FLSA_REQUIRE(!endpoints_.empty());  // connect() must have been called once
  if (request.request_id == 0) request.request_id = next_id();

  RetryInstruments& instruments = RetryInstruments::get();
  const unsigned max_attempts = std::max(1u, policy.max_attempts);
  const auto budget_deadline =
      std::chrono::steady_clock::now() + policy.retry_budget;

  std::uint64_t jitter_state = policy.seed;
  std::chrono::milliseconds previous_sleep = policy.base_delay;
  std::exception_ptr last_transport_error;
  bool have_rejection = false;
  Response last_rejection;

  for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Decorrelated jitter: uniform in [base, 3 * previous], capped.
      const std::int64_t base = policy.base_delay.count();
      const std::int64_t high =
          std::max<std::int64_t>(base, 3 * previous_sleep.count());
      const std::int64_t span = high - base + 1;
      const auto sleep_ms = std::chrono::milliseconds(
          base + static_cast<std::int64_t>(
                     splitmix64(jitter_state) % static_cast<std::uint64_t>(span)));
      previous_sleep = std::min(
          std::chrono::milliseconds(policy.max_delay), sleep_ms);
      if (std::chrono::steady_clock::now() + previous_sleep >
          budget_deadline) {
        break;  // the retry budget is spent
      }
      instruments.attempts.add();
      instruments.backoff_seconds.observe(
          static_cast<double>(previous_sleep.count()) * 1e-3);
      std::this_thread::sleep_for(previous_sleep);
    }
    try {
      if (!connected()) {
        if (attempt > 0) instruments.reconnects.add();
        reconnect();
      }
      Response response = call(request);
      const auto* error = std::get_if<ErrorResponse>(&response);
      if (error != nullptr && is_retryable(error->code)) {
        // A connection-scoped refusal (CONNECTION_LIMIT echoes id 0) is
        // followed by the server closing the socket; re-dial eagerly
        // instead of burning the next attempt on a dead connection.
        // With alternatives available, any transient rejection also
        // rotates the cursor: a server answering OVERLOADED stays
        // overloaded for a while, so the next attempt goes elsewhere.
        if (error->request_id == 0) close();
        if (endpoints_.size() > 1) {
          close();
          advance_endpoint();
        }
        have_rejection = true;
        last_rejection = std::move(response);
        continue;
      }
      if (attempt > 0) instruments.recovered.add();
      return response;
    } catch (const TransportError&) {
      // The request never completed on this connection; dropping the
      // socket and re-dialling is idempotent-safe (and the next attempt
      // starts at the next endpoint of a multi-address list — the one
      // that just died is the worst candidate). ProtocolError (a
      // delivered-but-malformed frame) deliberately propagates: the
      // stream consumed an answer we cannot interpret.
      last_transport_error = std::current_exception();
      close();
      advance_endpoint();
    }
  }

  instruments.exhausted.add();
  if (have_rejection) return last_rejection;
  if (last_transport_error) std::rethrow_exception(last_transport_error);
  throw TransportError("retry budget spent before any attempt completed");
}

Response Client::call_with_retry(AlignRequest request,
                                 const RetryPolicy& policy) {
  return retry_impl(std::move(request), policy);
}

Response Client::call_with_retry(SearchRequest request,
                                 const RetryPolicy& policy) {
  return retry_impl(std::move(request), policy);
}

Response Client::call_with_retry(AlignRefRequest request,
                                 const RetryPolicy& policy) {
  return retry_impl(std::move(request), policy);
}

Response Client::call_with_retry(RefPutRequest request,
                                 const RetryPolicy& policy) {
  if (request.content_token == 0) {
    request.content_token = content_token_for(request);
  }
  return retry_impl(std::move(request), policy);
}

Response Client::upload_sequence(std::string_view letters,
                                 const UploadOptions& options) {
  FLSA_REQUIRE(!endpoints_.empty());  // connect() must have been called once
  std::uint64_t token = options.token;
  const std::uint64_t total_hash =
      fnv1a64(letters.data(), letters.size());
  if (token == 0) token = total_hash != 0 ? total_hash : 1;
  const std::size_t chunk_residues =
      options.chunk_residues != 0 ? options.chunk_residues
                                  : std::size_t{1} << 20;

  unsigned resumes = 0;
  while (true) {
    try {
      if (!connected()) reconnect();
      // (Re-)open the session. On a resume the server answers how far
      // the previous attempt got; bytes before next_offset are already
      // durable on its side and are never re-sent.
      SeqBeginRequest begin;
      begin.upload_token = token;
      begin.placement = options.placement;
      begin.matrix = options.matrix;
      begin.total_residues = letters.size();
      begin.name = options.name;
      Response opened = call(std::move(begin));
      const auto* ok = std::get_if<SeqOkResponse>(&opened);
      if (ok == nullptr) return opened;  // typed rejection — not ours to fix
      std::uint64_t offset = ok->next_offset;

      // Rebuild the rolling prefix hash up to the resume point, then
      // chain it chunk by chunk.
      std::uint64_t rolling = fnv1a64(letters.data(), offset);
      while (offset < letters.size()) {
        const std::size_t len =
            std::min(chunk_residues, letters.size() - offset);
        rolling = fnv1a64(letters.data() + offset, len, rolling);
        SeqChunkRequest chunk;
        chunk.upload_token = token;
        chunk.offset = offset;
        chunk.prefix_hash = rolling;
        chunk.data.assign(letters.data() + offset, len);
        Response acked = call(std::move(chunk));
        const auto* chunk_ok = std::get_if<SeqOkResponse>(&acked);
        if (chunk_ok == nullptr) return acked;
        offset = chunk_ok->next_offset;
      }

      SeqEndRequest end;
      end.upload_token = token;
      end.total_residues = letters.size();
      end.total_hash = total_hash;
      end.k = options.k;
      end.build_index = options.build_index;
      return call(std::move(end));
    } catch (const TransportError&) {
      if (resumes >= options.max_resumes) throw;
      ++resumes;
      close();
      advance_endpoint();
    }
  }
}

}  // namespace service
}  // namespace flsa
