// Wire protocol of the alignment service.
//
// Transport framing is length-prefixed: a frame is a 4-byte little-endian
// payload length followed by the payload. Every payload starts with a
// 1-byte protocol version and a 1-byte verb; the remainder is the verb's
// body. Each message's verb and its field list in wire order are stated
// once, in protocol.cpp; the encoder and the decoder are both derived
// from that list. All integers are little-endian and fixed-width, bools
// and enums are one byte, strings are a u32 byte count followed by raw
// bytes, vectors a u32 element count followed by the elements, doubles
// the IEEE-754 bit pattern as a u64. The format is versioned so a v2
// server can keep answering v1 clients; decoders reject unknown versions
// with a typed error instead of guessing.
//
// Verbs (requests from the client, responses from the server):
//   ALIGN   -> ALIGN_OK | ERROR    one pairwise alignment job
//   STATS   -> STATS_OK | ERROR    snapshot of the server metrics registry
//   REF_PUT -> REF_PUT_OK | ERROR  register a reference; returns its id
//   SEARCH  -> SEARCH_OK | ERROR   chained search of a query against a
//                                  registered reference (by id)
//   SEQ_BEGIN   -> SEQ_OK | ERROR  open (or resume) a chunked sequence
//                                  upload session, keyed by a client
//                                  token; SEQ_OK reports the next byte
//                                  offset expected (0 for a new session)
//   SEQ_CHUNK   -> SEQ_OK | ERROR  one slice of letters at an explicit
//                                  offset with a rolling prefix hash;
//                                  replayed prefixes are acknowledged
//                                  idempotently (resume after reconnect)
//   SEQ_END     -> SEQ_OK | ERROR  seal the upload (total length + hash
//                                  must match), register the sequence in
//                                  the server's packed store, and return
//                                  its reference id
//   ALIGN_REF   -> ALIGN_PART* | ERROR
//                                  align by handle: the sequences are
//                                  named by store ids (uploaded once via
//                                  SEQ_* or REF_PUT) instead of being
//                                  resent; the answer is streamed as a
//                                  bounded-size sequence of ALIGN_PART
//                                  frames (cigar slices, final frame
//                                  carries score + timings) so a
//                                  megabase edit script never needs one
//                                  huge frame
//   REF_LIST    -> REF_LIST_OK | ERROR
//                                  the registered reference handles
//
// Codes 0x05 and 0x86 are unassigned (a retired batch verb used them) and
// decode as unknown verbs.
//
// Responses carry the request_id of the request they answer, so clients
// may pipeline: with a shared worker pool, responses on one connection can
// complete out of submission order (an OVERLOADED rejection overtakes a
// job still running).
//
// Decoding is strict: every read is bounds-checked, a vector count larger
// than the rest of the payload could hold is refused before anything is
// allocated, an enum byte outside the enum is refused, and trailing
// garbage is an error (ProtocolError). The server maps ProtocolError to a
// BAD_REQUEST response; it never crashes on hostile bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "scoring/scheme.hpp"

namespace flsa {
namespace service {

/// Protocol version this build speaks.
inline constexpr std::uint8_t kProtocolVersion = 1;

/// Hard ceiling a decoder applies to incoming frame payloads; servers and
/// clients may configure a smaller limit.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

enum class Verb : std::uint8_t {
  kAlign = 0x01,
  kStats = 0x02,
  kRefPut = 0x03,
  kSearch = 0x04,
  kSeqBegin = 0x06,
  kSeqChunk = 0x07,
  kSeqEnd = 0x08,
  kAlignRef = 0x09,
  kRefList = 0x0a,
  kAlignOk = 0x81,
  kError = 0x82,
  kStatsOk = 0x83,
  kRefPutOk = 0x84,
  kSearchOk = 0x85,
  kSeqOk = 0x87,
  kAlignPart = 0x88,
  kRefListOk = 0x89,
};

/// Substitution matrix selector (the server owns the tables; the wire
/// carries only the choice, never a matrix).
enum class WireMatrix : std::uint8_t {
  kMdm78 = 0,
  kPam250 = 1,
  kBlosum62 = 2,
  kDna = 3,
  kDnaN = 4,
};

/// Typed rejection/failure codes. Everything the admission controller or a
/// worker can do to a request short of answering it has a code here.
enum class ErrorCode : std::uint8_t {
  kBadRequest = 1,        ///< malformed frame, bad residues, bad options
  kTooLarge = 2,          ///< estimated DPM cells above the server budget
  kOverloaded = 3,        ///< bounded request queue full (admission control)
  kDeadlineExceeded = 4,  ///< deadline expired before or during execution
  kShuttingDown = 5,      ///< server is draining; no new work accepted
  kInternal = 6,          ///< unexpected server-side failure
  kConnectionLimit = 7,   ///< concurrent-connection cap reached
  kRefNotFound = 8,       ///< SEARCH named a reference id never registered
};

/// Transient rejections a client may safely retry: the request was never
/// executed (OVERLOADED, SHUTTING_DOWN, CONNECTION_LIMIT reject before any
/// work happens), so resending cannot double-apply anything. BAD_REQUEST /
/// TOO_LARGE are deterministic — retrying them only repeats the rejection —
/// and DEADLINE_EXCEEDED means the caller's own deadline already passed.
bool is_retryable(ErrorCode code);

const char* to_string(Verb verb);
const char* to_string(ErrorCode code);
const char* to_string(WireMatrix matrix);

/// Parses a matrix name ("mdm78", "pam250", ...). Returns false on unknown
/// names; `out` is untouched then.
bool parse_wire_matrix(std::string_view name, WireMatrix* out);

/// One pairwise alignment job.
struct AlignRequest {
  std::uint64_t request_id = 0;
  WireMatrix matrix = WireMatrix::kMdm78;
  /// Gap model: gap_open == 0 selects linear gaps (both must be <= 0).
  /// Defaults come from scoring/scheme.hpp so an omitted gap model means
  /// the same scheme everywhere (engine, CLI, wire).
  std::int32_t gap_open = kDefaultGapOpen;
  std::int32_t gap_extend = kDefaultGapExtend;
  /// FastLSA tuning; 0 means "use the server default".
  std::uint32_t k = 0;
  std::uint64_t base_case_cells = 0;
  /// Queueing deadline in milliseconds from submission; 0 = none. A job
  /// still waiting in the queue past its deadline is answered with
  /// DEADLINE_EXCEEDED instead of being executed.
  std::uint32_t deadline_ms = 0;
  /// Skip the traceback CIGAR in the response (score only).
  bool score_only = false;
  /// Residue letters of the two sequences (alphabet follows the matrix).
  std::string a;
  std::string b;
};

/// Registry snapshot request.
struct StatsRequest {
  std::uint64_t request_id = 0;
};

/// Enumerates the registered reference handles (REF_PUT and sealed
/// uploads alike). The answer is what survives a restart from the
/// durable registry, so clients and the router front tier can
/// re-resolve handles instead of guessing from stale placement state.
struct RefListRequest {
  std::uint64_t request_id = 0;
};

/// Registers a reference sequence for SEARCH-by-id. The server builds a
/// ReferenceIndex (packed residues + k-mer index) once and shares it
/// read-only across workers; the response carries the id to search by.
struct RefPutRequest {
  std::uint64_t request_id = 0;
  WireMatrix matrix = WireMatrix::kDna;  ///< fixes the alphabet
  std::uint32_t k = 0;                   ///< seed length; 0 = server default
  /// Idempotency token, normally a content hash of (matrix, k, sequence);
  /// 0 means none. A registration whose token matches an earlier one
  /// answers the *existing* id instead of building a duplicate index —
  /// which makes REF_PUT safe to retry after an ambiguous transport
  /// failure (the double-send lands on the same id).
  std::uint64_t content_token = 0;
  std::string name;                      ///< optional label
  std::string sequence;                  ///< residue letters
};

/// Opens (or, with a token the server already knows, resumes) a chunked
/// upload session. The server answers SEQ_OK with `next_offset` = the
/// letters it already holds for this token, so a client can continue
/// after a reconnect without resending the prefix.
struct SeqBeginRequest {
  std::uint64_t request_id = 0;
  /// Client-chosen session key; must be nonzero. Also the default
  /// placement key at the router tier.
  std::uint64_t upload_token = 0;
  /// Router placement override: sequences sharing a placement key land
  /// on the same backend (required to ALIGN_REF two uploads against
  /// each other through the router). 0 = place by upload_token.
  std::uint64_t placement = 0;
  WireMatrix matrix = WireMatrix::kDna;  ///< fixes the alphabet
  /// Declared total length; 0 = unknown until SEQ_END.
  std::uint64_t total_residues = 0;
  std::string name;  ///< optional label
};

/// One slice of residue letters at an explicit offset. `prefix_hash` is
/// the FNV-1a of all letters [0, offset + data.size()) — a rolling
/// checksum, so corruption is caught at the chunk where it happened.
/// A chunk entirely below the server's high-water mark is acknowledged
/// without being applied (idempotent replay); a chunk past it is a gap
/// and is rejected.
struct SeqChunkRequest {
  std::uint64_t request_id = 0;
  std::uint64_t upload_token = 0;
  std::uint64_t offset = 0;       ///< letters before this chunk
  std::uint64_t prefix_hash = 0;  ///< FNV-1a of letters [0, offset+|data|)
  std::string data;               ///< residue letters
};

/// Seals an upload: the server verifies total length and hash, writes
/// the packed store record, registers it, and answers SEQ_OK carrying
/// the new reference id.
struct SeqEndRequest {
  std::uint64_t request_id = 0;
  std::uint64_t upload_token = 0;
  std::uint64_t total_residues = 0;  ///< must equal the letters received
  std::uint64_t total_hash = 0;      ///< FNV-1a of all letters
  std::uint32_t k = 0;  ///< seed length for the k-mer index; 0 = default
  /// Build a k-mer index (required for SEARCH by this id). Skipping it
  /// makes the handle ALIGN_REF-only but registration O(1) after the
  /// store write.
  bool build_index = false;
};

/// Align by store handle. `ref_a` names a registered sequence; `ref_b`
/// may name a second one (two uploaded chromosomes) or be 0 with the
/// second sequence inline in `b` (many short reads against one stored
/// reference, the common case). `band` > 0 selects banded global
/// alignment with that half-width (linear gaps only) — the only
/// practical mode at multi-megabase scale; 0 runs full FastLSA.
struct AlignRefRequest {
  std::uint64_t request_id = 0;
  std::uint64_t ref_a = 0;  ///< store id of sequence A (required)
  std::uint64_t ref_b = 0;  ///< store id of sequence B; 0 = inline `b`
  WireMatrix matrix = WireMatrix::kMdm78;
  std::int32_t gap_open = kDefaultGapOpen;
  std::int32_t gap_extend = kDefaultGapExtend;
  std::uint32_t k = 0;  ///< FastLSA division factor; 0 = server default
  std::uint64_t base_case_cells = 0;
  std::uint32_t band = 0;  ///< banded half-width; 0 = full FastLSA
  std::uint32_t deadline_ms = 0;
  bool score_only = false;
  std::string b;  ///< residue letters when ref_b == 0
};

/// Chained (seed-chain-extend) search of one query against a registered
/// reference. Tuning fields at 0 mean "use the server default"; the
/// request's matrix alphabet must match the reference's.
struct SearchRequest {
  std::uint64_t request_id = 0;
  std::uint64_t ref_id = 0;
  WireMatrix matrix = WireMatrix::kDna;
  /// Linear gap penalty per residue (must be <= 0). Chained search runs
  /// linear-gap kernels only.
  std::int32_t gap_extend = kDefaultGapExtend;
  std::uint32_t max_hits = 0;         ///< cap on reported hits
  std::int32_t x_drop = 0;            ///< flank extension drop-off
  std::int32_t gap_weight = 0;        ///< chain gap cost per residue
  std::int32_t min_chain_score = 0;   ///< chain/hit score floor
  std::uint32_t band_pad = 0;         ///< gap-fill band padding
  std::uint32_t max_overlap = 0;      ///< chaining overlap tolerance
  std::uint32_t max_positions_per_kmer = 0;  ///< repeat mask threshold
  /// Queueing deadline in milliseconds from submission; 0 = none.
  std::uint32_t deadline_ms = 0;
  /// Skip per-hit CIGARs in the response.
  bool score_only = false;
  std::string query;  ///< residue letters (alphabet follows the matrix)
};

/// Successful alignment.
struct AlignResponse {
  std::uint64_t request_id = 0;
  std::int64_t score = 0;
  std::string cigar;  ///< empty when the request asked for score only
  /// DPM cells of the problem, (m+1)*(n+1) — the same estimated_cells()
  /// quantity the admission budget is expressed in, so STATS/bench
  /// numbers and `max_request_cells` agree at the boundary.
  std::uint64_t cells = 0;
  std::uint64_t queue_micros = 0;  ///< time spent waiting for a worker
  std::uint64_t exec_micros = 0;   ///< time spent aligning
  /// Milliseconds left on the request's deadline when the answer was
  /// produced; -1 when the request carried no deadline. A job whose
  /// deadline expired mid-align is answered DEADLINE_EXCEEDED instead of
  /// with a stale success, so this is never negative on the wire.
  std::int64_t deadline_remaining_ms = -1;
};

/// Typed failure.
struct ErrorResponse {
  std::uint64_t request_id = 0;  ///< 0 when the request was unparseable
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// Metrics snapshot: flat name -> value pairs (counters and gauges as-is,
/// histograms expanded into count/mean/quantile entries by the server).
struct StatsResponse {
  std::uint64_t request_id = 0;
  std::vector<std::pair<std::string, double>> entries;
};

/// Successful reference registration.
struct RefPutResponse {
  std::uint64_t request_id = 0;
  std::uint64_t ref_id = 0;          ///< handle for SearchRequest::ref_id
  std::uint64_t residues = 0;        ///< reference length as stored
  std::uint64_t distinct_kmers = 0;  ///< index fill, for observability
  std::uint64_t build_micros = 0;    ///< index build time
};

/// Acknowledges SEQ_BEGIN / SEQ_CHUNK / SEQ_END. `next_offset` is the
/// total letters the server holds for the session — the offset the next
/// chunk must start at (and the resume point after a reconnect).
/// `ref_id` is 0 until SEQ_END registers the sequence.
struct SeqOkResponse {
  std::uint64_t request_id = 0;
  std::uint64_t upload_token = 0;
  std::uint64_t next_offset = 0;
  std::uint64_t ref_id = 0;    ///< nonzero only on the SEQ_END answer
  std::uint64_t residues = 0;  ///< letters stored (== next_offset)
};

/// One slice of a streamed ALIGN_REF answer. Parts arrive in `seq`
/// order on the requesting connection; `cigar_part` concatenated over
/// all parts is the full edit script. Every frame carries the trailer
/// fields; they are authoritative on the frame with `last` set (a
/// score_only answer is exactly one part with an empty cigar_part).
struct AlignPartResponse {
  std::uint64_t request_id = 0;
  std::uint32_t seq = 0;  ///< part index, 0-based
  bool last = false;
  std::int64_t score = 0;
  std::uint64_t cells = 0;
  std::uint64_t queue_micros = 0;
  std::uint64_t exec_micros = 0;
  std::int64_t deadline_remaining_ms = -1;
  std::string cigar_part;
};

/// One search hit on the wire: subject/query-global coordinates plus the
/// alignment score and (unless score_only) CIGAR.
struct WireHit {
  std::int64_t score = 0;
  std::uint64_t q_begin = 0, q_end = 0;  ///< query range [begin, end)
  std::uint64_t s_begin = 0, s_end = 0;  ///< subject (reference) range
  std::string cigar;                     ///< empty when score_only
};

/// Successful search: hits best-first, non-overlapping in the reference.
struct SearchResponse {
  std::uint64_t request_id = 0;
  std::vector<WireHit> hits;
  std::uint64_t anchors = 0;  ///< seed anchors found (pipeline visibility)
  std::uint64_t chains = 0;   ///< colinear chains above the score floor
  std::uint64_t queue_micros = 0;
  std::uint64_t exec_micros = 0;
  /// Same contract as AlignResponse::deadline_remaining_ms.
  std::int64_t deadline_remaining_ms = -1;
};

/// One registered handle as reported by REF_LIST.
struct RefListEntry {
  std::uint64_t ref_id = 0;
  std::uint64_t content_token = 0;  ///< idempotency/content token (may be 0)
  std::uint64_t residues = 0;
  WireMatrix matrix = WireMatrix::kDna;
  std::uint32_t k = 0;   ///< seed length of the index (0 = none requested)
  bool indexed = false;  ///< SEARCH-able (index present or lazily rebuilt)
  std::string name;      ///< display name (may be empty)
};

/// Successful handle enumeration, in ascending ref_id order.
struct RefListResponse {
  std::uint64_t request_id = 0;
  std::vector<RefListEntry> refs;
};

using Request =
    std::variant<AlignRequest, StatsRequest, RefPutRequest, SearchRequest,
                 SeqBeginRequest, SeqChunkRequest, SeqEndRequest,
                 AlignRefRequest, RefListRequest>;
using Response =
    std::variant<AlignResponse, ErrorResponse, StatsResponse, RefPutResponse,
                 SearchResponse, SeqOkResponse, AlignPartResponse,
                 RefListResponse>;

template <typename T, typename Variant>
inline constexpr bool kAlternativeOf = false;
template <typename T, typename... Alternatives>
inline constexpr bool kAlternativeOf<T, std::variant<Alternatives...>> =
    (std::is_same_v<T, Alternatives> || ...);

/// A message a payload can carry: an alternative of Request or Response.
template <typename T>
concept WireMessage =
    kAlternativeOf<T, Request> || kAlternativeOf<T, Response>;

/// Thrown by decoders on malformed payloads (truncation, trailing bytes,
/// unknown version/verb/enum value, length or count overflow).
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown on connection-level failures: peer gone, connection reset,
/// EOF in the middle of a frame (a peer killed mid-write), or a read
/// deadline expiring. Distinct from ProtocolError (malformed bytes that
/// *were* delivered): a TransportError never consumed a half-answer, so
/// the client retry layer treats it as idempotent-safe to retry after a
/// reconnect, while a ProtocolError is never retried.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// The socket receive deadline expired while waiting *at a frame
/// boundary*: the peer is connected but has sent nothing. A subtype so
/// generic TransportError handling still applies, but the server can
/// tell a genuinely idle peer (safe to hang up on) from one that is
/// merely waiting for a slow in-flight job. A deadline that expires
/// mid-frame is a slow-loris stall and stays a plain TransportError.
class ReadTimeout : public TransportError {
 public:
  explicit ReadTimeout(const std::string& what) : TransportError(what) {}
};

/// Payload encoder (version byte + verb + body; no length prefix). Takes
/// the message itself, so a hot path never copies it into a variant;
/// protocol.cpp instantiates it for every WireMessage.
template <WireMessage T>
std::string encode(const T& message);

/// Encodes whichever verb the variant holds.
std::string encode(const Request& request);
std::string encode(const Response& response);

/// The request_id every verb carries. The mutable overloads let a relay
/// rewrite it in place.
std::uint64_t request_id(const Request& request);
std::uint64_t request_id(const Response& response);
std::uint64_t& request_id(Request& request);
std::uint64_t& request_id(Response& response);

/// The queueing deadline a request carries, in milliseconds; 0 when it
/// has none, whether unset or because its verb carries no deadline.
std::uint32_t deadline_ms(const Request& request);
/// Overwrites the deadline of a verb that carries one; a no-op otherwise.
void set_deadline_ms(Request& request, std::uint32_t budget_ms);

/// Overload set for std::visit over Request or Response: one lambda per
/// verb. A verb left without a lambda fails to compile.
template <typename... Arms>
struct Overloaded : Arms... {
  using Arms::operator()...;
};
template <typename... Arms>
Overloaded(Arms...) -> Overloaded<Arms...>;

/// Payload decoders; throw ProtocolError on malformed input.
Request decode_request(std::string_view payload);
Response decode_response(std::string_view payload);

/// Estimated DPM cells of an m x n problem, the quantity the admission
/// controller's TOO_LARGE budget is expressed in: (m+1) * (n+1),
/// *saturating* — at multi-megabase (let alone chromosome) lengths the
/// product overflows 64 bits, and a wrapped estimate would sail under
/// the budget instead of over it. All the request overloads below and
/// every admission/bench call site go through this.
std::uint64_t estimated_cells(std::uint64_t m, std::uint64_t n);

/// Cells of the band banded_align fills (a 2-bit move each) for an
/// m x n problem at half-width w, bounded by (m+1) * (|n-m| + 2w + 1),
/// saturating.
std::uint64_t estimated_banded_cells(std::uint64_t m, std::uint64_t n,
                                     std::uint32_t half_width);

/// Estimated DPM cells of a request: (|a|+1) * (|b|+1), saturating.
std::uint64_t estimated_cells(const AlignRequest& request);

/// Admission estimate for a search: (|query|+1)^2 — the worst-case DP
/// area when chaining degenerates to one full-query gap fill. Chained
/// search normally does far less work, so this is a conservative bound
/// in the same currency as the ALIGN budget.
std::uint64_t estimated_cells(const SearchRequest& request);

/// Canonical idempotency token for a REF_PUT: FNV-1a over the fields
/// that determine what gets registered (matrix, k, sequence letters —
/// the display name is excluded). Never returns 0, which the wire
/// reserves for "no token". Client::call_with_retry(RefPutRequest) fills
/// this in automatically; pipelined senders that want retry safety call
/// it themselves.
std::uint64_t content_token_for(const RefPutRequest& request);

// ---- Framed transport over a connected socket ------------------------

/// The exact on-the-wire bytes of one frame: 4-byte little-endian length
/// prefix followed by the payload. Exposed so the fault injector and the
/// partial-write tests can send deliberate prefixes of a real frame.
std::string frame_bytes(std::string_view payload);

/// Sends raw bytes (no framing). Returns false when the peer is gone
/// (EPIPE/ECONNRESET); throws TransportError on other socket errors.
bool write_all(int fd, std::string_view bytes);

/// Writes one length-prefixed frame. Returns false when the peer is gone
/// (EPIPE/ECONNRESET); throws TransportError on other socket errors.
bool write_frame(int fd, std::string_view payload);

/// Reads one length-prefixed frame into *payload. Returns false on clean
/// EOF at a frame boundary; throws ProtocolError on oversized frames,
/// TransportError on EOF mid-frame, read deadlines, or socket errors.
bool read_frame(int fd, std::string* payload,
                std::size_t max_bytes = kMaxFrameBytes);

}  // namespace service
}  // namespace flsa
