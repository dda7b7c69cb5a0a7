#include "service/protocol.hpp"

#include <sys/socket.h>

#include <bit>
#include <cerrno>
#include <concepts>
#include <cstring>
#include <type_traits>
#include <utility>

#include "support/checked.hpp"
#include "support/fnv.hpp"

namespace flsa {
namespace service {
namespace {

// ---- Wire layouts -----------------------------------------------------
// The single statement of every message's layout: its verb (a nested
// element has none) and its fields in wire order. The writer, the reader
// and the minimum encoded size that bounds a vector's count are all
// derived from these lists.

template <auto... Members>
struct Fields {};

template <Verb V, auto... Members>
struct Message : Fields<Members...> {
  static constexpr Verb verb = V;
};

template <typename T>
struct Layout;

using StatsEntry = std::pair<std::string, double>;

template <>
struct Layout<AlignRequest>
    : Message<Verb::kAlign, &AlignRequest::request_id, &AlignRequest::matrix,
              &AlignRequest::gap_open, &AlignRequest::gap_extend,
              &AlignRequest::k, &AlignRequest::base_case_cells,
              &AlignRequest::deadline_ms, &AlignRequest::score_only,
              &AlignRequest::a, &AlignRequest::b> {};
template <>
struct Layout<StatsRequest>
    : Message<Verb::kStats, &StatsRequest::request_id> {};
template <>
struct Layout<RefPutRequest>
    : Message<Verb::kRefPut, &RefPutRequest::request_id,
              &RefPutRequest::matrix, &RefPutRequest::k,
              &RefPutRequest::content_token, &RefPutRequest::name,
              &RefPutRequest::sequence> {};
template <>
struct Layout<SearchRequest>
    : Message<Verb::kSearch, &SearchRequest::request_id,
              &SearchRequest::ref_id, &SearchRequest::matrix,
              &SearchRequest::gap_extend, &SearchRequest::max_hits,
              &SearchRequest::x_drop, &SearchRequest::gap_weight,
              &SearchRequest::min_chain_score, &SearchRequest::band_pad,
              &SearchRequest::max_overlap,
              &SearchRequest::max_positions_per_kmer,
              &SearchRequest::deadline_ms, &SearchRequest::score_only,
              &SearchRequest::query> {};
template <>
struct Layout<SeqBeginRequest>
    : Message<Verb::kSeqBegin, &SeqBeginRequest::request_id,
              &SeqBeginRequest::upload_token, &SeqBeginRequest::placement,
              &SeqBeginRequest::matrix, &SeqBeginRequest::total_residues,
              &SeqBeginRequest::name> {};
template <>
struct Layout<SeqChunkRequest>
    : Message<Verb::kSeqChunk, &SeqChunkRequest::request_id,
              &SeqChunkRequest::upload_token, &SeqChunkRequest::offset,
              &SeqChunkRequest::prefix_hash, &SeqChunkRequest::data> {};
template <>
struct Layout<SeqEndRequest>
    : Message<Verb::kSeqEnd, &SeqEndRequest::request_id,
              &SeqEndRequest::upload_token, &SeqEndRequest::total_residues,
              &SeqEndRequest::total_hash, &SeqEndRequest::k,
              &SeqEndRequest::build_index> {};
template <>
struct Layout<AlignRefRequest>
    : Message<Verb::kAlignRef, &AlignRefRequest::request_id,
              &AlignRefRequest::ref_a, &AlignRefRequest::ref_b,
              &AlignRefRequest::matrix, &AlignRefRequest::gap_open,
              &AlignRefRequest::gap_extend, &AlignRefRequest::k,
              &AlignRefRequest::base_case_cells, &AlignRefRequest::band,
              &AlignRefRequest::deadline_ms, &AlignRefRequest::score_only,
              &AlignRefRequest::b> {};
template <>
struct Layout<RefListRequest>
    : Message<Verb::kRefList, &RefListRequest::request_id> {};

template <>
struct Layout<AlignResponse>
    : Message<Verb::kAlignOk, &AlignResponse::request_id,
              &AlignResponse::score, &AlignResponse::cigar,
              &AlignResponse::cells, &AlignResponse::queue_micros,
              &AlignResponse::exec_micros,
              &AlignResponse::deadline_remaining_ms> {};
template <>
struct Layout<ErrorResponse>
    : Message<Verb::kError, &ErrorResponse::request_id, &ErrorResponse::code,
              &ErrorResponse::message> {};
template <>
struct Layout<StatsEntry> : Fields<&StatsEntry::first, &StatsEntry::second> {};
template <>
struct Layout<StatsResponse>
    : Message<Verb::kStatsOk, &StatsResponse::request_id,
              &StatsResponse::entries> {};
template <>
struct Layout<RefPutResponse>
    : Message<Verb::kRefPutOk, &RefPutResponse::request_id,
              &RefPutResponse::ref_id, &RefPutResponse::residues,
              &RefPutResponse::distinct_kmers,
              &RefPutResponse::build_micros> {};
template <>
struct Layout<WireHit>
    : Fields<&WireHit::score, &WireHit::q_begin, &WireHit::q_end,
             &WireHit::s_begin, &WireHit::s_end, &WireHit::cigar> {};
template <>
struct Layout<SearchResponse>
    : Message<Verb::kSearchOk, &SearchResponse::request_id,
              &SearchResponse::hits, &SearchResponse::anchors,
              &SearchResponse::chains, &SearchResponse::queue_micros,
              &SearchResponse::exec_micros,
              &SearchResponse::deadline_remaining_ms> {};
template <>
struct Layout<SeqOkResponse>
    : Message<Verb::kSeqOk, &SeqOkResponse::request_id,
              &SeqOkResponse::upload_token, &SeqOkResponse::next_offset,
              &SeqOkResponse::ref_id, &SeqOkResponse::residues> {};
template <>
struct Layout<AlignPartResponse>
    : Message<Verb::kAlignPart, &AlignPartResponse::request_id,
              &AlignPartResponse::seq, &AlignPartResponse::last,
              &AlignPartResponse::score, &AlignPartResponse::cells,
              &AlignPartResponse::queue_micros,
              &AlignPartResponse::exec_micros,
              &AlignPartResponse::deadline_remaining_ms,
              &AlignPartResponse::cigar_part> {};
template <>
struct Layout<RefListEntry>
    : Fields<&RefListEntry::ref_id, &RefListEntry::content_token,
             &RefListEntry::residues, &RefListEntry::matrix,
             &RefListEntry::k, &RefListEntry::indexed,
             &RefListEntry::name> {};
template <>
struct Layout<RefListResponse>
    : Message<Verb::kRefListOk, &RefListResponse::request_id,
              &RefListResponse::refs> {};

// ---- Codec over the field types ---------------------------------------

template <typename T>
concept Vector = std::same_as<T, std::vector<typename T::value_type>>;

/// The type of the field `Member` points to in a T.
template <typename T, auto Member>
using FieldType = std::remove_cvref_t<decltype(std::declval<T&>().*Member)>;

/// Smallest encoding of a T: empty strings and vectors, fixed fields at
/// their width.
template <typename T>
constexpr std::size_t min_size() {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    return 1;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, std::string> || Vector<T>) {
    return 4;
  } else {
    return []<auto... Members>(Fields<Members...>) {
      return (min_size<FieldType<T, Members>>() + ... + 0);
    }(Layout<T>{});
  }
}

/// Append-only little-endian payload builder.
class Writer {
 public:
  explicit Writer(Verb verb) {
    put(kProtocolVersion);
    put(verb);
  }

  template <typename T>
  void put(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      put(static_cast<std::uint8_t>(value ? 1 : 0));
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(value));
    } else if constexpr (std::is_same_v<T, double>) {
      put(std::bit_cast<std::uint64_t>(value));
    } else if constexpr (std::is_integral_v<T>) {
      const std::uint64_t bits = static_cast<std::make_unsigned_t<T>>(value);
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        out_.push_back(static_cast<char>(bits >> (8 * i)));
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      put(count(value.size()));
      out_.append(value);
    } else if constexpr (Vector<T>) {
      put(count(value.size()));
      for (const auto& element : value) put(element);
    } else {
      [&]<auto... Members>(Fields<Members...>) {
        (put(value.*Members), ...);
      }(Layout<T>{});
    }
  }

  std::string take() { return std::move(out_); }

 private:
  static std::uint32_t count(std::size_t n) {
    if (n > kMaxFrameBytes) {
      throw ProtocolError("field exceeds the frame limit");
    }
    return static_cast<std::uint32_t>(n);
  }

  std::string out_;
};

/// Bounds-checked little-endian payload consumer.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  template <typename T>
  void get(T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      value = take<std::uint8_t>() != 0;
    } else if constexpr (std::is_enum_v<T>) {
      value = static_cast<T>(take<std::underlying_type_t<T>>());
      if (std::string_view(to_string(value)) == "?") {
        throw ProtocolError("unknown enum value " +
                            std::to_string(static_cast<unsigned>(value)));
      }
    } else if constexpr (std::is_same_v<T, double>) {
      value = std::bit_cast<double>(take<std::uint64_t>());
    } else if constexpr (std::is_integral_v<T>) {
      value = static_cast<T>(take<std::make_unsigned_t<T>>());
    } else if constexpr (std::is_same_v<T, std::string>) {
      const std::uint32_t n = take<std::uint32_t>();
      need(n);
      value.assign(data_.substr(pos_, n));
      pos_ += n;
    } else if constexpr (Vector<T>) {
      // Refused before the resize, so a hostile count cannot drive the
      // allocation.
      const std::uint32_t n = take<std::uint32_t>();
      if (n > remaining() / min_size<typename T::value_type>()) {
        throw ProtocolError("element count exceeds the payload size");
      }
      value.resize(n);
      for (auto& element : value) get(element);
    } else {
      [&]<auto... Members>(Fields<Members...>) {
        (get(value.*Members), ...);
      }(Layout<T>{});
    }
  }

  template <std::unsigned_integral U>
  U take() {
    need(sizeof(U));
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= std::uint64_t{static_cast<unsigned char>(data_[pos_ + i])}
           << (8 * i);
    }
    pos_ += sizeof(U);
    return static_cast<U>(v);
  }

  void finish() const {
    if (pos_ != data_.size()) {
      throw ProtocolError("trailing bytes after payload body");
    }
  }

 private:
  std::size_t remaining() const { return data_.size() - pos_; }

  void need(std::size_t n) const {
    if (remaining() < n) throw ProtocolError("truncated payload");
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Decodes a payload into the alternative of `Variant` its verb names.
template <typename Variant>
Variant decode(std::string_view payload, const char* side) {
  Reader r(payload);
  const auto version = r.take<std::uint8_t>();
  if (version != kProtocolVersion) {
    throw ProtocolError("unsupported protocol version " +
                        std::to_string(version));
  }
  const auto verb = static_cast<Verb>(r.take<std::uint8_t>());
  Variant out;
  const bool known = [&]<std::size_t... I>(std::index_sequence<I...>) {
    return ((Layout<std::variant_alternative_t<I, Variant>>::verb == verb &&
             (r.get(out.template emplace<I>()), true)) ||
            ...);
  }(std::make_index_sequence<std::variant_size_v<Variant>>{});
  if (!known) {
    throw ProtocolError(std::string("unexpected ") + side + " verb " +
                        to_string(verb));
  }
  r.finish();
  return out;
}

}  // namespace

const char* to_string(Verb verb) {
  switch (verb) {
    case Verb::kAlign: return "ALIGN";
    case Verb::kStats: return "STATS";
    case Verb::kRefPut: return "REF_PUT";
    case Verb::kSearch: return "SEARCH";
    case Verb::kSeqBegin: return "SEQ_BEGIN";
    case Verb::kSeqChunk: return "SEQ_CHUNK";
    case Verb::kSeqEnd: return "SEQ_END";
    case Verb::kAlignRef: return "ALIGN_REF";
    case Verb::kRefList: return "REF_LIST";
    case Verb::kAlignOk: return "ALIGN_OK";
    case Verb::kError: return "ERROR";
    case Verb::kStatsOk: return "STATS_OK";
    case Verb::kRefPutOk: return "REF_PUT_OK";
    case Verb::kSearchOk: return "SEARCH_OK";
    case Verb::kSeqOk: return "SEQ_OK";
    case Verb::kAlignPart: return "ALIGN_PART";
    case Verb::kRefListOk: return "REF_LIST_OK";
  }
  return "?";
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "BAD_REQUEST";
    case ErrorCode::kTooLarge: return "TOO_LARGE";
    case ErrorCode::kOverloaded: return "OVERLOADED";
    case ErrorCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case ErrorCode::kShuttingDown: return "SHUTTING_DOWN";
    case ErrorCode::kInternal: return "INTERNAL";
    case ErrorCode::kConnectionLimit: return "CONNECTION_LIMIT";
    case ErrorCode::kRefNotFound: return "REF_NOT_FOUND";
  }
  return "?";
}

bool is_retryable(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOverloaded:
    case ErrorCode::kShuttingDown:
    case ErrorCode::kConnectionLimit:
      return true;
    case ErrorCode::kBadRequest:
    case ErrorCode::kTooLarge:
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kInternal:
    case ErrorCode::kRefNotFound:  // deterministic until someone REF_PUTs
      return false;
  }
  return false;
}

const char* to_string(WireMatrix matrix) {
  switch (matrix) {
    case WireMatrix::kMdm78: return "mdm78";
    case WireMatrix::kPam250: return "pam250";
    case WireMatrix::kBlosum62: return "blosum62";
    case WireMatrix::kDna: return "dna";
    case WireMatrix::kDnaN: return "dna-n";
  }
  return "?";
}

bool parse_wire_matrix(std::string_view name, WireMatrix* out) {
  for (WireMatrix m : {WireMatrix::kMdm78, WireMatrix::kPam250,
                       WireMatrix::kBlosum62, WireMatrix::kDna,
                       WireMatrix::kDnaN}) {
    if (name == to_string(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

template <WireMessage T>
std::string encode(const T& message) {
  Writer w(Layout<T>::verb);
  w.put(message);
  return w.take();
}

template std::string encode(const AlignRequest&);
template std::string encode(const StatsRequest&);
template std::string encode(const RefPutRequest&);
template std::string encode(const SearchRequest&);
template std::string encode(const SeqBeginRequest&);
template std::string encode(const SeqChunkRequest&);
template std::string encode(const SeqEndRequest&);
template std::string encode(const AlignRefRequest&);
template std::string encode(const RefListRequest&);
template std::string encode(const AlignResponse&);
template std::string encode(const ErrorResponse&);
template std::string encode(const StatsResponse&);
template std::string encode(const RefPutResponse&);
template std::string encode(const SearchResponse&);
template std::string encode(const SeqOkResponse&);
template std::string encode(const AlignPartResponse&);
template std::string encode(const RefListResponse&);

std::string encode(const Request& request) {
  return std::visit([](const auto& r) { return encode(r); }, request);
}

std::string encode(const Response& response) {
  return std::visit([](const auto& r) { return encode(r); }, response);
}

std::uint64_t request_id(const Request& request) {
  return std::visit([](const auto& r) { return r.request_id; }, request);
}

std::uint64_t request_id(const Response& response) {
  return std::visit([](const auto& r) { return r.request_id; }, response);
}

std::uint64_t& request_id(Request& request) {
  return std::visit([](auto& r) -> std::uint64_t& { return r.request_id; },
                    request);
}

std::uint64_t& request_id(Response& response) {
  return std::visit([](auto& r) -> std::uint64_t& { return r.request_id; },
                    response);
}

std::uint32_t deadline_ms(const Request& request) {
  return std::visit(
      [](const auto& r) -> std::uint32_t {
        if constexpr (requires { r.deadline_ms; }) {
          return r.deadline_ms;
        } else {
          return 0;
        }
      },
      request);
}

void set_deadline_ms(Request& request, std::uint32_t budget_ms) {
  std::visit(
      [budget_ms](auto& r) {
        if constexpr (requires { r.deadline_ms; }) r.deadline_ms = budget_ms;
      },
      request);
}

Request decode_request(std::string_view payload) {
  return decode<Request>(payload, "request");
}

Response decode_response(std::string_view payload) {
  return decode<Response>(payload, "response");
}

std::uint64_t estimated_cells(std::uint64_t m, std::uint64_t n) {
  return mul_sat_u64(add_sat_u64(m, 1), add_sat_u64(n, 1));
}

std::uint64_t estimated_banded_cells(std::uint64_t m, std::uint64_t n,
                                     std::uint32_t half_width) {
  const std::uint64_t diff = m > n ? m - n : n - m;
  const std::uint64_t width =
      add_sat_u64(diff, add_sat_u64(2 * std::uint64_t{half_width}, 1));
  return mul_sat_u64(add_sat_u64(m, 1), width);
}

std::uint64_t estimated_cells(const AlignRequest& request) {
  return estimated_cells(request.a.size(), request.b.size());
}

std::uint64_t estimated_cells(const SearchRequest& request) {
  return estimated_cells(request.query.size(), request.query.size());
}

std::uint64_t content_token_for(const RefPutRequest& request) {
  const std::uint8_t matrix_byte = static_cast<std::uint8_t>(request.matrix);
  const std::uint8_t k_bytes[4] = {
      static_cast<std::uint8_t>(request.k),
      static_cast<std::uint8_t>(request.k >> 8),
      static_cast<std::uint8_t>(request.k >> 16),
      static_cast<std::uint8_t>(request.k >> 24),
  };
  std::uint64_t token = fnv1a64(&matrix_byte, 1);
  token = fnv1a64(k_bytes, sizeof(k_bytes), token);
  token = fnv1a64(request.sequence.data(), request.sequence.size(), token);
  return token != 0 ? token : 1;
}

std::string frame_bytes(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw ProtocolError("frame payload exceeds the frame limit");
  }
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string buffer;
  buffer.reserve(4 + payload.size());
  for (int i = 0; i < 4; ++i) {
    buffer.push_back(static_cast<char>((n >> (8 * i)) & 0xff));
  }
  buffer.append(payload);
  return buffer;
}

bool write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t rc = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                              MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw TransportError(std::string("send failed: ") +
                           std::strerror(errno));
    }
    sent += static_cast<std::size_t>(rc);
  }
  return true;
}

bool write_frame(int fd, std::string_view payload) {
  return write_all(fd, frame_bytes(payload));
}

namespace {

/// Reads exactly `n` bytes. Returns 0 on EOF before any byte, n on
/// success; throws TransportError on EOF mid-read (a peer that died
/// mid-frame) and on an expired socket receive deadline. When
/// `boundary` is set and the deadline expires before the first byte,
/// throws the ReadTimeout subtype instead (idle peer, not a stall).
std::size_t read_exact(int fd, char* out, std::size_t n,
                       bool boundary = false) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::recv(fd, out + got, n - got, 0);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (boundary && got == 0) {
          throw ReadTimeout("idle deadline expired at a frame boundary");
        }
        throw TransportError("read deadline expired mid-frame");
      }
      if (errno == ECONNRESET) return got;  // treated like EOF
      throw TransportError(std::string("recv failed: ") +
                           std::strerror(errno));
    }
    if (rc == 0) break;
    got += static_cast<std::size_t>(rc);
  }
  if (got != 0 && got != n) {
    throw TransportError("connection closed mid-frame");
  }
  return got;
}

}  // namespace

bool read_frame(int fd, std::string* payload, std::size_t max_bytes) {
  char header[4];
  if (read_exact(fd, header, 4, /*boundary=*/true) == 0) return false;
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) {
    n |= std::uint32_t(static_cast<unsigned char>(header[i])) << (8 * i);
  }
  if (n > max_bytes) {
    throw ProtocolError("frame of " + std::to_string(n) +
                        " bytes exceeds the limit of " +
                        std::to_string(max_bytes));
  }
  payload->resize(n);
  if (n != 0 && read_exact(fd, payload->data(), n) != n) {
    throw TransportError("connection closed mid-frame");
  }
  return true;
}

}  // namespace service
}  // namespace flsa
