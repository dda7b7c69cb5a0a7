#include "service/protocol.hpp"

#include <sys/socket.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "support/checked.hpp"
#include "support/fnv.hpp"

namespace flsa {
namespace service {
namespace {

/// Append-only little-endian payload builder.
class Writer {
 public:
  explicit Writer(Verb verb) {
    out_.push_back(static_cast<char>(kProtocolVersion));
    out_.push_back(static_cast<char>(verb));
  }

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void str(std::string_view s) {
    if (s.size() > kMaxFrameBytes) {
      throw ProtocolError("string field exceeds the frame limit");
    }
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }

  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian payload consumer.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v |= std::uint32_t(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= std::uint64_t(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  void finish() const {
    if (pos_ != data_.size()) {
      throw ProtocolError("trailing bytes after payload body");
    }
  }

  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) throw ProtocolError("truncated payload");
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

Verb read_header(Reader& r) {
  const std::uint8_t version = r.u8();
  if (version != kProtocolVersion) {
    throw ProtocolError("unsupported protocol version " +
                        std::to_string(version));
  }
  return static_cast<Verb>(r.u8());
}

WireMatrix read_matrix(Reader& r) {
  const std::uint8_t raw = r.u8();
  if (raw > static_cast<std::uint8_t>(WireMatrix::kDnaN)) {
    throw ProtocolError("unknown matrix selector " + std::to_string(raw));
  }
  return static_cast<WireMatrix>(raw);
}

ErrorCode read_error_code(Reader& r) {
  const std::uint8_t raw = r.u8();
  if (raw < static_cast<std::uint8_t>(ErrorCode::kBadRequest) ||
      raw > static_cast<std::uint8_t>(ErrorCode::kRefNotFound)) {
    throw ProtocolError("unknown error code " + std::to_string(raw));
  }
  return static_cast<ErrorCode>(raw);
}

// ---- Shared body codecs ----------------------------------------------
// The ALIGN job / answer / error bodies appear both as whole payloads and
// as batch elements, so they are encoded and decoded by one helper each.

void write_align_body(Writer& w, const AlignRequest& request) {
  w.u64(request.request_id);
  w.u8(static_cast<std::uint8_t>(request.matrix));
  w.i32(request.gap_open);
  w.i32(request.gap_extend);
  w.u32(request.k);
  w.u64(request.base_case_cells);
  w.u32(request.deadline_ms);
  w.u8(request.score_only ? 1 : 0);
  w.str(request.a);
  w.str(request.b);
}

AlignRequest read_align_body(Reader& r) {
  AlignRequest req;
  req.request_id = r.u64();
  req.matrix = read_matrix(r);
  req.gap_open = r.i32();
  req.gap_extend = r.i32();
  req.k = r.u32();
  req.base_case_cells = r.u64();
  req.deadline_ms = r.u32();
  req.score_only = r.u8() != 0;
  req.a = r.str();
  req.b = r.str();
  return req;
}

/// Smallest possible encoded AlignRequest body (empty sequences) — the
/// sanity bound a batch decoder applies to its count field so a hostile
/// count cannot drive a huge up-front reservation.
constexpr std::size_t kMinAlignBodyBytes = 8 + 1 + 4 + 4 + 4 + 8 + 4 + 1 + 4 + 4;

void write_align_ok_body(Writer& w, const AlignResponse& response) {
  w.u64(response.request_id);
  w.i64(response.score);
  w.str(response.cigar);
  w.u64(response.cells);
  w.u64(response.queue_micros);
  w.u64(response.exec_micros);
  w.i64(response.deadline_remaining_ms);
}

AlignResponse read_align_ok_body(Reader& r) {
  AlignResponse res;
  res.request_id = r.u64();
  res.score = r.i64();
  res.cigar = r.str();
  res.cells = r.u64();
  res.queue_micros = r.u64();
  res.exec_micros = r.u64();
  res.deadline_remaining_ms = r.i64();
  return res;
}

void write_error_body(Writer& w, const ErrorResponse& response) {
  w.u64(response.request_id);
  w.u8(static_cast<std::uint8_t>(response.code));
  w.str(response.message);
}

ErrorResponse read_error_body(Reader& r) {
  ErrorResponse res;
  res.request_id = r.u64();
  res.code = read_error_code(r);
  res.message = r.str();
  return res;
}

}  // namespace

const char* to_string(Verb verb) {
  switch (verb) {
    case Verb::kAlign: return "ALIGN";
    case Verb::kStats: return "STATS";
    case Verb::kRefPut: return "REF_PUT";
    case Verb::kSearch: return "SEARCH";
    case Verb::kAlignBatch: return "ALIGN_BATCH";
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
    case Verb::kAlignBatchOk: return "ALIGN_BATCH_OK";
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

std::string encode(const AlignRequest& request) {
  Writer w(Verb::kAlign);
  write_align_body(w, request);
  return w.take();
}

std::string encode(const AlignBatchRequest& request) {
  Writer w(Verb::kAlignBatch);
  w.u64(request.request_id);
  w.u32(static_cast<std::uint32_t>(request.jobs.size()));
  for (const AlignRequest& job : request.jobs) write_align_body(w, job);
  return w.take();
}

std::string encode(const StatsRequest& request) {
  Writer w(Verb::kStats);
  w.u64(request.request_id);
  return w.take();
}

std::string encode(const RefPutRequest& request) {
  Writer w(Verb::kRefPut);
  w.u64(request.request_id);
  w.u8(static_cast<std::uint8_t>(request.matrix));
  w.u32(request.k);
  w.u64(request.content_token);
  w.str(request.name);
  w.str(request.sequence);
  return w.take();
}

std::string encode(const SeqBeginRequest& request) {
  Writer w(Verb::kSeqBegin);
  w.u64(request.request_id);
  w.u64(request.upload_token);
  w.u64(request.placement);
  w.u8(static_cast<std::uint8_t>(request.matrix));
  w.u64(request.total_residues);
  w.str(request.name);
  return w.take();
}

std::string encode(const SeqChunkRequest& request) {
  Writer w(Verb::kSeqChunk);
  w.u64(request.request_id);
  w.u64(request.upload_token);
  w.u64(request.offset);
  w.u64(request.prefix_hash);
  w.str(request.data);
  return w.take();
}

std::string encode(const SeqEndRequest& request) {
  Writer w(Verb::kSeqEnd);
  w.u64(request.request_id);
  w.u64(request.upload_token);
  w.u64(request.total_residues);
  w.u64(request.total_hash);
  w.u32(request.k);
  w.u8(request.build_index ? 1 : 0);
  return w.take();
}

std::string encode(const AlignRefRequest& request) {
  Writer w(Verb::kAlignRef);
  w.u64(request.request_id);
  w.u64(request.ref_a);
  w.u64(request.ref_b);
  w.u8(static_cast<std::uint8_t>(request.matrix));
  w.i32(request.gap_open);
  w.i32(request.gap_extend);
  w.u32(request.k);
  w.u64(request.base_case_cells);
  w.u32(request.band);
  w.u32(request.deadline_ms);
  w.u8(request.score_only ? 1 : 0);
  w.str(request.b);
  return w.take();
}

std::string encode(const RefListRequest& request) {
  Writer w(Verb::kRefList);
  w.u64(request.request_id);
  return w.take();
}

std::string encode(const SearchRequest& request) {
  Writer w(Verb::kSearch);
  w.u64(request.request_id);
  w.u64(request.ref_id);
  w.u8(static_cast<std::uint8_t>(request.matrix));
  w.i32(request.gap_extend);
  w.u32(request.max_hits);
  w.i32(request.x_drop);
  w.i32(request.gap_weight);
  w.i32(request.min_chain_score);
  w.u32(request.band_pad);
  w.u32(request.max_overlap);
  w.u32(request.max_positions_per_kmer);
  w.u32(request.deadline_ms);
  w.u8(request.score_only ? 1 : 0);
  w.str(request.query);
  return w.take();
}

std::string encode(const AlignResponse& response) {
  Writer w(Verb::kAlignOk);
  write_align_ok_body(w, response);
  return w.take();
}

std::string encode(const ErrorResponse& response) {
  Writer w(Verb::kError);
  write_error_body(w, response);
  return w.take();
}

std::string encode(const AlignBatchResponse& response) {
  Writer w(Verb::kAlignBatchOk);
  w.u64(response.request_id);
  w.u32(static_cast<std::uint32_t>(response.items.size()));
  for (const BatchItem& item : response.items) {
    if (const auto* ok = std::get_if<AlignResponse>(&item)) {
      w.u8(0);
      write_align_ok_body(w, *ok);
    } else {
      w.u8(1);
      write_error_body(w, std::get<ErrorResponse>(item));
    }
  }
  return w.take();
}

std::string encode(const StatsResponse& response) {
  Writer w(Verb::kStatsOk);
  w.u64(response.request_id);
  w.u32(static_cast<std::uint32_t>(response.entries.size()));
  for (const auto& [name, value] : response.entries) {
    w.str(name);
    w.f64(value);
  }
  return w.take();
}

std::string encode(const RefPutResponse& response) {
  Writer w(Verb::kRefPutOk);
  w.u64(response.request_id);
  w.u64(response.ref_id);
  w.u64(response.residues);
  w.u64(response.distinct_kmers);
  w.u64(response.build_micros);
  return w.take();
}

std::string encode(const SeqOkResponse& response) {
  Writer w(Verb::kSeqOk);
  w.u64(response.request_id);
  w.u64(response.upload_token);
  w.u64(response.next_offset);
  w.u64(response.ref_id);
  w.u64(response.residues);
  return w.take();
}

std::string encode(const AlignPartResponse& response) {
  Writer w(Verb::kAlignPart);
  w.u64(response.request_id);
  w.u32(response.seq);
  w.u8(response.last ? 1 : 0);
  w.i64(response.score);
  w.u64(response.cells);
  w.u64(response.queue_micros);
  w.u64(response.exec_micros);
  w.i64(response.deadline_remaining_ms);
  w.str(response.cigar_part);
  return w.take();
}

std::string encode(const RefListResponse& response) {
  Writer w(Verb::kRefListOk);
  w.u64(response.request_id);
  w.u32(static_cast<std::uint32_t>(response.refs.size()));
  for (const RefListEntry& entry : response.refs) {
    w.u64(entry.ref_id);
    w.u64(entry.content_token);
    w.u64(entry.residues);
    w.u8(static_cast<std::uint8_t>(entry.matrix));
    w.u32(entry.k);
    w.u8(entry.indexed ? 1 : 0);
    w.str(entry.name);
  }
  return w.take();
}

std::string encode(const SearchResponse& response) {
  Writer w(Verb::kSearchOk);
  w.u64(response.request_id);
  w.u32(static_cast<std::uint32_t>(response.hits.size()));
  for (const WireHit& hit : response.hits) {
    w.i64(hit.score);
    w.u64(hit.q_begin);
    w.u64(hit.q_end);
    w.u64(hit.s_begin);
    w.u64(hit.s_end);
    w.str(hit.cigar);
  }
  w.u64(response.anchors);
  w.u64(response.chains);
  w.u64(response.queue_micros);
  w.u64(response.exec_micros);
  w.i64(response.deadline_remaining_ms);
  return w.take();
}

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
  Reader r(payload);
  const Verb verb = read_header(r);
  switch (verb) {
    case Verb::kAlign: {
      AlignRequest req = read_align_body(r);
      r.finish();
      return req;
    }
    case Verb::kAlignBatch: {
      AlignBatchRequest req;
      req.request_id = r.u64();
      const std::uint32_t count = r.u32();
      if (count > r.remaining() / kMinAlignBodyBytes) {
        throw ProtocolError("batch job count exceeds the payload size");
      }
      req.jobs.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        req.jobs.push_back(read_align_body(r));
      }
      r.finish();
      return req;
    }
    case Verb::kStats: {
      StatsRequest req;
      req.request_id = r.u64();
      r.finish();
      return req;
    }
    case Verb::kRefPut: {
      RefPutRequest req;
      req.request_id = r.u64();
      req.matrix = read_matrix(r);
      req.k = r.u32();
      req.content_token = r.u64();
      req.name = r.str();
      req.sequence = r.str();
      r.finish();
      return req;
    }
    case Verb::kSeqBegin: {
      SeqBeginRequest req;
      req.request_id = r.u64();
      req.upload_token = r.u64();
      req.placement = r.u64();
      req.matrix = read_matrix(r);
      req.total_residues = r.u64();
      req.name = r.str();
      r.finish();
      return req;
    }
    case Verb::kSeqChunk: {
      SeqChunkRequest req;
      req.request_id = r.u64();
      req.upload_token = r.u64();
      req.offset = r.u64();
      req.prefix_hash = r.u64();
      req.data = r.str();
      r.finish();
      return req;
    }
    case Verb::kSeqEnd: {
      SeqEndRequest req;
      req.request_id = r.u64();
      req.upload_token = r.u64();
      req.total_residues = r.u64();
      req.total_hash = r.u64();
      req.k = r.u32();
      req.build_index = r.u8() != 0;
      r.finish();
      return req;
    }
    case Verb::kAlignRef: {
      AlignRefRequest req;
      req.request_id = r.u64();
      req.ref_a = r.u64();
      req.ref_b = r.u64();
      req.matrix = read_matrix(r);
      req.gap_open = r.i32();
      req.gap_extend = r.i32();
      req.k = r.u32();
      req.base_case_cells = r.u64();
      req.band = r.u32();
      req.deadline_ms = r.u32();
      req.score_only = r.u8() != 0;
      req.b = r.str();
      r.finish();
      return req;
    }
    case Verb::kRefList: {
      RefListRequest req;
      req.request_id = r.u64();
      r.finish();
      return req;
    }
    case Verb::kSearch: {
      SearchRequest req;
      req.request_id = r.u64();
      req.ref_id = r.u64();
      req.matrix = read_matrix(r);
      req.gap_extend = r.i32();
      req.max_hits = r.u32();
      req.x_drop = r.i32();
      req.gap_weight = r.i32();
      req.min_chain_score = r.i32();
      req.band_pad = r.u32();
      req.max_overlap = r.u32();
      req.max_positions_per_kmer = r.u32();
      req.deadline_ms = r.u32();
      req.score_only = r.u8() != 0;
      req.query = r.str();
      r.finish();
      return req;
    }
    default:
      throw ProtocolError(std::string("unexpected request verb ") +
                          to_string(verb));
  }
}

Response decode_response(std::string_view payload) {
  Reader r(payload);
  const Verb verb = read_header(r);
  switch (verb) {
    case Verb::kAlignOk: {
      AlignResponse res = read_align_ok_body(r);
      r.finish();
      return res;
    }
    case Verb::kError: {
      ErrorResponse res = read_error_body(r);
      r.finish();
      return res;
    }
    case Verb::kAlignBatchOk: {
      AlignBatchResponse res;
      res.request_id = r.u64();
      const std::uint32_t count = r.u32();
      // Smallest item: 1 tag byte + an error body with an empty message.
      if (count > r.remaining() / (1 + 8 + 1 + 4)) {
        throw ProtocolError("batch item count exceeds the payload size");
      }
      res.items.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint8_t tag = r.u8();
        if (tag == 0) {
          res.items.emplace_back(read_align_ok_body(r));
        } else if (tag == 1) {
          res.items.emplace_back(read_error_body(r));
        } else {
          throw ProtocolError("unknown batch item tag " +
                              std::to_string(tag));
        }
      }
      r.finish();
      return res;
    }
    case Verb::kStatsOk: {
      StatsResponse res;
      res.request_id = r.u64();
      const std::uint32_t count = r.u32();
      res.entries.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        std::string name = r.str();
        const double value = r.f64();
        res.entries.emplace_back(std::move(name), value);
      }
      r.finish();
      return res;
    }
    case Verb::kSeqOk: {
      SeqOkResponse res;
      res.request_id = r.u64();
      res.upload_token = r.u64();
      res.next_offset = r.u64();
      res.ref_id = r.u64();
      res.residues = r.u64();
      r.finish();
      return res;
    }
    case Verb::kAlignPart: {
      AlignPartResponse res;
      res.request_id = r.u64();
      res.seq = r.u32();
      res.last = r.u8() != 0;
      res.score = r.i64();
      res.cells = r.u64();
      res.queue_micros = r.u64();
      res.exec_micros = r.u64();
      res.deadline_remaining_ms = r.i64();
      res.cigar_part = r.str();
      r.finish();
      return res;
    }
    case Verb::kRefPutOk: {
      RefPutResponse res;
      res.request_id = r.u64();
      res.ref_id = r.u64();
      res.residues = r.u64();
      res.distinct_kmers = r.u64();
      res.build_micros = r.u64();
      r.finish();
      return res;
    }
    case Verb::kRefListOk: {
      RefListResponse res;
      res.request_id = r.u64();
      const std::uint32_t count = r.u32();
      // Smallest entry: the fixed fields plus an empty-name length.
      if (count > r.remaining() / (8 + 8 + 8 + 1 + 4 + 1 + 4)) {
        throw ProtocolError("ref list count exceeds the payload size");
      }
      res.refs.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        RefListEntry entry;
        entry.ref_id = r.u64();
        entry.content_token = r.u64();
        entry.residues = r.u64();
        entry.matrix = read_matrix(r);
        entry.k = r.u32();
        entry.indexed = r.u8() != 0;
        entry.name = r.str();
        res.refs.push_back(std::move(entry));
      }
      r.finish();
      return res;
    }
    case Verb::kSearchOk: {
      SearchResponse res;
      res.request_id = r.u64();
      const std::uint32_t count = r.u32();
      res.hits.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        WireHit hit;
        hit.score = r.i64();
        hit.q_begin = r.u64();
        hit.q_end = r.u64();
        hit.s_begin = r.u64();
        hit.s_end = r.u64();
        hit.cigar = r.str();
        res.hits.push_back(std::move(hit));
      }
      res.anchors = r.u64();
      res.chains = r.u64();
      res.queue_micros = r.u64();
      res.exec_micros = r.u64();
      res.deadline_remaining_ms = r.i64();
      r.finish();
      return res;
    }
    default:
      throw ProtocolError(std::string("unexpected response verb ") +
                          to_string(verb));
  }
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

std::uint64_t estimated_cells(const AlignBatchRequest& request) {
  std::uint64_t total = 0;
  for (const AlignRequest& job : request.jobs) {
    total = add_sat_u64(total, estimated_cells(job));
  }
  return total;
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
