// Blocking client for the alignment service. One Client owns one TCP
// connection; it is not thread-safe (use one per thread — the load
// generator follows the same rule). Requests may be
// pipelined with send()/receive(); call() is the closed-loop convenience
// that assigns request ids, and call_with_retry() layers exponential
// backoff with decorrelated jitter over call() for transient failures
// (OVERLOADED, SHUTTING_DOWN, CONNECTION_LIMIT, connect/reset) —
// deterministic rejections (BAD_REQUEST, TOO_LARGE) are never retried.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.hpp"

namespace flsa {
namespace service {

/// One dialable server address. Clients hold a list of these; the router
/// and the retry loop rotate through it on failure.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Retry/backoff schedule for call_with_retry(). The sleep before
/// attempt n+1 is drawn uniformly from [base_delay, 3 * previous_sleep]
/// and capped at max_delay — "decorrelated jitter", which spreads a
/// thundering herd of retrying clients across time instead of
/// resynchronizing them the way fixed exponential steps do. A retry
/// budget bounds the total time burnt across all attempts, so a retrying
/// caller still has a worst-case latency.
struct RetryPolicy {
  /// Total attempts, including the first; minimum 1.
  unsigned max_attempts = 5;
  /// Floor of every backoff sleep.
  std::chrono::milliseconds base_delay{10};
  /// Cap of every backoff sleep.
  std::chrono::milliseconds max_delay{2000};
  /// Ceiling on the summed backoff sleeps; once spent, no more retries.
  std::chrono::milliseconds retry_budget{30000};
  /// Jitter RNG seed — per-client determinism for tests and CI.
  std::uint64_t seed = 0x5eedULL;
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to host:port (remembered for reconnects). Throws
  /// TransportError on any failure, a malformed address included.
  void connect(const std::string& host, std::uint16_t port);

  /// Connects to the first reachable endpoint of the list, trying them in
  /// order; the whole list is remembered, and later reconnects (the retry
  /// loop, explicit reconnect()) resume from the current cursor so a dead
  /// address is skipped instead of re-dialled forever. Throws the last
  /// TransportError when every endpoint refused.
  void connect(std::vector<Endpoint> endpoints);

  /// Re-dials starting at the current endpoint, rotating through the list
  /// until one accepts. Requires a previous connect().
  void reconnect();

  /// The endpoint the current/most recent connection used.
  const Endpoint& current_endpoint() const { return endpoints_[cursor_]; }

  bool connected() const { return fd_ >= 0; }
  void close();

  /// Fire-and-forget send (pipelining). Assigns the next request id when
  /// the request's id is 0 and returns the id actually sent. Throws
  /// TransportError when the server is gone.
  std::uint64_t send(Request request);

  /// Blocks for the next response frame (any request id). Throws
  /// ProtocolError on malformed frames, TransportError when the server
  /// closed the connection (cleanly or mid-frame).
  Response receive();

  /// Closed-loop helper: send one request, wait for *its* response (by
  /// request id; other pipelined responses arriving first are an error —
  /// do not mix call() with pipelining on one connection). An ALIGN_REF
  /// is reassembled as call(AlignRefRequest) describes.
  Response call(Request request);

  /// Closed-loop ALIGN_REF with streamed-response reassembly: blocks
  /// until the last ALIGN_PART frame and returns a single
  /// AlignPartResponse whose cigar_part is the complete cigar and whose
  /// trailer fields come from the last (authoritative) frame — or the
  /// ErrorResponse the server answered instead. Memory is bounded by the
  /// cigar itself, never by the DP matrix.
  Response call(AlignRefRequest request);

  /// call() plus retry: reconnects and resends after TransportErrors and
  /// after the typed transient rejections of is_retryable() — all
  /// idempotent-safe, the request was never executed. With a multi-
  /// endpoint connect(), every retryable failure advances the endpoint
  /// cursor first, so attempt n+1 dials the *next* address instead of
  /// hammering the one that just failed (single-endpoint clients keep the
  /// old re-dial-same-address behaviour). Returns the first success or
  /// non-retryable response; when every attempt failed, returns the last
  /// typed rejection, or rethrows the last TransportError if no typed
  /// answer was ever received. Per-attempt metrics land in the obs
  /// registry under client.retry.*.
  Response call_with_retry(AlignRequest request, const RetryPolicy& policy);
  /// SEARCH and ALIGN_REF are read-only against immutable references, so
  /// they share ALIGN's idempotent-safe retry contract (a mid-stream
  /// TransportError re-sends the whole ALIGN_REF; the re-computed parts
  /// are identical).
  Response call_with_retry(SearchRequest request, const RetryPolicy& policy);
  Response call_with_retry(AlignRefRequest request,
                           const RetryPolicy& policy);
  /// REF_PUT becomes retry-safe through its content token: when
  /// request.content_token == 0 this fills in content_token_for(request)
  /// first, so a re-send after an ambiguous failure answers the already
  /// registered id instead of registering a duplicate.
  Response call_with_retry(RefPutRequest request, const RetryPolicy& policy);

  /// Streams `letters` to the server as one chunked upload
  /// (SEQ_BEGIN / SEQ_CHUNK* / SEQ_END) and returns the final response —
  /// a SeqOkResponse carrying the registered ref id on success, or the
  /// first non-transport error. Transport failures mid-upload reconnect
  /// and resume from the server's acknowledged offset (up to
  /// `max_resumes` times): already-delivered bytes are never re-sent.
  struct UploadOptions {
    std::uint64_t token = 0;  ///< 0 = derive from the content hash
    /// Router placement key: uploads sharing one land on the same
    /// backend (required to ALIGN_REF them against each other through
    /// the router). 0 = place by token; direct connections ignore it.
    std::uint64_t placement = 0;
    std::string name;
    WireMatrix matrix = WireMatrix::kDna;
    std::size_t chunk_residues = std::size_t{1} << 20;
    std::uint32_t k = 0;            ///< SEQ_END seed length (0 = default)
    bool build_index = false;       ///< also build the k-mer index
    unsigned max_resumes = 3;       ///< transport failures tolerated
  };
  Response upload_sequence(std::string_view letters,
                           const UploadOptions& options);

 private:
  std::uint64_t next_id();
  Response wait_for(std::uint64_t id);
  /// Rotates the cursor to the next endpoint (no-op for a single one).
  void advance_endpoint();
  template <typename RequestT>
  Response retry_impl(RequestT request, const RetryPolicy& policy);

  int fd_ = -1;
  std::uint64_t last_id_ = 0;
  std::vector<Endpoint> endpoints_;
  std::size_t cursor_ = 0;
};

}  // namespace service
}  // namespace flsa
