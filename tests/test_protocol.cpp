// Serialization round-trip and hostile-input tests for the service wire
// protocol. Every message type must survive encode -> decode bit-exactly,
// and every malformed payload must produce a typed ProtocolError — the
// daemon's first line of defence against untrusted bytes.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "scoring/scheme.hpp"
#include "service/protocol.hpp"

namespace flsa {
namespace service {
namespace {

AlignRequest sample_align_request() {
  AlignRequest request;
  request.request_id = 0x1122334455667788ULL;
  request.matrix = WireMatrix::kBlosum62;
  request.gap_open = -11;
  request.gap_extend = -1;
  request.k = 4;
  request.base_case_cells = 1 << 16;
  request.deadline_ms = 250;
  request.score_only = true;
  request.a = "HEAGAWGHEE";
  request.b = "PAWHEAE";
  return request;
}

TEST(Protocol, AlignRequestRoundTrip) {
  const AlignRequest request = sample_align_request();
  const Request decoded = decode_request(encode(request));
  const auto* align = std::get_if<AlignRequest>(&decoded);
  ASSERT_NE(align, nullptr);
  EXPECT_EQ(align->request_id, request.request_id);
  EXPECT_EQ(align->matrix, request.matrix);
  EXPECT_EQ(align->gap_open, request.gap_open);
  EXPECT_EQ(align->gap_extend, request.gap_extend);
  EXPECT_EQ(align->k, request.k);
  EXPECT_EQ(align->base_case_cells, request.base_case_cells);
  EXPECT_EQ(align->deadline_ms, request.deadline_ms);
  EXPECT_EQ(align->score_only, request.score_only);
  EXPECT_EQ(align->a, request.a);
  EXPECT_EQ(align->b, request.b);
}

TEST(Protocol, AlignRequestDefaultsRoundTrip) {
  AlignRequest request;
  request.a = "A";
  request.b = "C";
  const Request decoded = decode_request(encode(request));
  const auto* align = std::get_if<AlignRequest>(&decoded);
  ASSERT_NE(align, nullptr);
  EXPECT_EQ(align->request_id, 0u);
  EXPECT_EQ(align->gap_open, 0);
  EXPECT_FALSE(align->score_only);
}

TEST(Protocol, DefaultGapModelMatchesEngineDefaults) {
  // Regression: the wire defaults and the engine's paper_default() scheme
  // are sourced from one header (scoring/scheme.hpp); a request that
  // omits penalties must mean exactly the scheme flsa_align defaults to.
  const AlignRequest request;  // penalties omitted
  EXPECT_EQ(request.gap_open, ScoringScheme::paper_default().gap_open());
  EXPECT_EQ(request.gap_extend,
            ScoringScheme::paper_default().gap_extend());
  EXPECT_EQ(request.gap_open, kDefaultGapOpen);
  EXPECT_EQ(request.gap_extend, kDefaultGapExtend);

  // And the defaults survive the wire bit-exactly.
  AlignRequest on_wire;
  on_wire.a = "HEAGAWGHEE";
  on_wire.b = "PAWHEAE";
  const Request decoded = decode_request(encode(on_wire));
  const auto* align = std::get_if<AlignRequest>(&decoded);
  ASSERT_NE(align, nullptr);
  EXPECT_EQ(align->gap_open, kDefaultGapOpen);
  EXPECT_EQ(align->gap_extend, kDefaultGapExtend);
}

TEST(Protocol, StatsRequestRoundTrip) {
  StatsRequest request;
  request.request_id = 7;
  const Request decoded = decode_request(encode(request));
  const auto* stats = std::get_if<StatsRequest>(&decoded);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->request_id, 7u);
}

TEST(Protocol, AlignResponseRoundTrip) {
  AlignResponse response;
  response.request_id = 42;
  response.score = -12345;
  response.cigar = "3M1I2M1D4M";
  response.cells = 99;
  response.queue_micros = 1234;
  response.exec_micros = 56789;
  response.deadline_remaining_ms = 17;
  const Response decoded = decode_response(encode(response));
  const auto* ok = std::get_if<AlignResponse>(&decoded);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->request_id, 42u);
  EXPECT_EQ(ok->score, -12345);
  EXPECT_EQ(ok->cigar, "3M1I2M1D4M");
  EXPECT_EQ(ok->cells, 99u);
  EXPECT_EQ(ok->queue_micros, 1234u);
  EXPECT_EQ(ok->exec_micros, 56789u);
  EXPECT_EQ(ok->deadline_remaining_ms, 17);
}

TEST(Protocol, AlignResponseNoDeadlineSentinelRoundTrip) {
  AlignResponse response;  // deadline_remaining_ms defaults to -1
  const Response decoded = decode_response(encode(response));
  const auto* ok = std::get_if<AlignResponse>(&decoded);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->deadline_remaining_ms, -1);
}

TEST(Protocol, ErrorResponseRoundTripAllCodes) {
  for (ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kTooLarge, ErrorCode::kOverloaded,
        ErrorCode::kDeadlineExceeded, ErrorCode::kShuttingDown,
        ErrorCode::kInternal, ErrorCode::kConnectionLimit,
        ErrorCode::kRefNotFound}) {
    ErrorResponse response;
    response.request_id = 9;
    response.code = code;
    response.message = std::string("why: ") + to_string(code);
    const Response decoded = decode_response(encode(response));
    const auto* error = std::get_if<ErrorResponse>(&decoded);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, code);
    EXPECT_EQ(error->message, response.message);
  }
}

TEST(Protocol, StatsResponseRoundTrip) {
  StatsResponse response;
  response.request_id = 3;
  response.entries = {{"service.requests", 10.0},
                      {"service.exec_seconds.p99", 0.125},
                      {"negative", -1.5}};
  const Response decoded = decode_response(encode(response));
  const auto* stats = std::get_if<StatsResponse>(&decoded);
  ASSERT_NE(stats, nullptr);
  ASSERT_EQ(stats->entries.size(), 3u);
  EXPECT_EQ(stats->entries[0].first, "service.requests");
  EXPECT_DOUBLE_EQ(stats->entries[0].second, 10.0);
  EXPECT_DOUBLE_EQ(stats->entries[1].second, 0.125);
  EXPECT_DOUBLE_EQ(stats->entries[2].second, -1.5);
}

TEST(Protocol, EmptySequencesRoundTrip) {
  AlignRequest request;  // both sequences empty
  const Request decoded = decode_request(encode(request));
  const auto* align = std::get_if<AlignRequest>(&decoded);
  ASSERT_NE(align, nullptr);
  EXPECT_TRUE(align->a.empty());
  EXPECT_TRUE(align->b.empty());
}

TEST(Protocol, RejectsEmptyPayload) {
  EXPECT_THROW(decode_request(""), ProtocolError);
  EXPECT_THROW(decode_response(""), ProtocolError);
}

TEST(Protocol, RejectsUnknownVersion) {
  std::string payload = encode(sample_align_request());
  payload[0] = static_cast<char>(kProtocolVersion + 1);
  EXPECT_THROW(decode_request(payload), ProtocolError);
}

TEST(Protocol, RejectsUnknownVerb) {
  // 0x05 and 0x86 belonged to the retired ALIGN_BATCH verb pair.
  for (const char verb : {'\x7f', '\x05', '\x86'}) {
    std::string request = encode(sample_align_request());
    request[1] = verb;
    EXPECT_THROW(decode_request(request), ProtocolError);
    std::string response = encode(AlignResponse{});
    response[1] = verb;
    EXPECT_THROW(decode_response(response), ProtocolError);
  }
}

TEST(Protocol, RejectsResponseVerbInRequestAndViceVersa) {
  EXPECT_THROW(decode_request(encode(AlignResponse{})), ProtocolError);
  EXPECT_THROW(decode_response(encode(sample_align_request())),
               ProtocolError);
}

TEST(Protocol, RejectsTruncationAtEveryPrefix) {
  const std::string payload = encode(sample_align_request());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW(decode_request(payload.substr(0, cut)), ProtocolError)
        << "prefix of " << cut << " bytes decoded successfully";
  }
}

TEST(Protocol, RejectsTrailingGarbage) {
  std::string payload = encode(sample_align_request());
  payload.push_back('\0');
  EXPECT_THROW(decode_request(payload), ProtocolError);
}

TEST(Protocol, RejectsStringLengthPastEnd) {
  // Corrupt the final string's length field to point past the payload.
  AlignRequest request = sample_align_request();
  request.b = "XYZ";
  std::string payload = encode(request);
  // b's length field is the 4 bytes preceding its 3 characters.
  const std::size_t len_offset = payload.size() - 3 - 4;
  payload[len_offset] = '\xff';
  payload[len_offset + 1] = '\xff';
  EXPECT_THROW(decode_request(payload), ProtocolError);
}

TEST(Protocol, RejectsUnknownMatrixAndErrorCode) {
  std::string align = encode(sample_align_request());
  // Layout after version+verb: u64 request_id, then the matrix byte.
  align[2 + 8] = '\x63';
  EXPECT_THROW(decode_request(align), ProtocolError);

  ErrorResponse error;
  error.code = ErrorCode::kOverloaded;
  std::string encoded = encode(error);
  encoded[2 + 8] = '\x63';  // same offset: request_id then code byte
  EXPECT_THROW(decode_response(encoded), ProtocolError);
}

TEST(Protocol, RefPutRequestRoundTrip) {
  RefPutRequest request;
  request.request_id = 0xdeadbeefULL;
  request.matrix = WireMatrix::kDnaN;
  request.k = 11;
  request.name = "chr7";
  request.sequence = "ACGTNACGT";
  const Request decoded = decode_request(encode(request));
  const auto* put = std::get_if<RefPutRequest>(&decoded);
  ASSERT_NE(put, nullptr);
  EXPECT_EQ(put->request_id, request.request_id);
  EXPECT_EQ(put->matrix, request.matrix);
  EXPECT_EQ(put->k, request.k);
  EXPECT_EQ(put->name, request.name);
  EXPECT_EQ(put->sequence, request.sequence);
}

TEST(Protocol, SearchRequestRoundTrip) {
  SearchRequest request;
  request.request_id = 77;
  request.ref_id = 0x0102030405060708ULL;
  request.matrix = WireMatrix::kBlosum62;
  request.gap_extend = -7;
  request.max_hits = 3;
  request.x_drop = 25;
  request.gap_weight = 2;
  request.min_chain_score = 40;
  request.band_pad = 9;
  request.max_overlap = 4;
  request.max_positions_per_kmer = 128;
  request.deadline_ms = 1500;
  request.score_only = true;
  request.query = "HEAGAWGHEE";
  const Request decoded = decode_request(encode(request));
  const auto* search = std::get_if<SearchRequest>(&decoded);
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(search->request_id, request.request_id);
  EXPECT_EQ(search->ref_id, request.ref_id);
  EXPECT_EQ(search->matrix, request.matrix);
  EXPECT_EQ(search->gap_extend, request.gap_extend);
  EXPECT_EQ(search->max_hits, request.max_hits);
  EXPECT_EQ(search->x_drop, request.x_drop);
  EXPECT_EQ(search->gap_weight, request.gap_weight);
  EXPECT_EQ(search->min_chain_score, request.min_chain_score);
  EXPECT_EQ(search->band_pad, request.band_pad);
  EXPECT_EQ(search->max_overlap, request.max_overlap);
  EXPECT_EQ(search->max_positions_per_kmer, request.max_positions_per_kmer);
  EXPECT_EQ(search->deadline_ms, request.deadline_ms);
  EXPECT_EQ(search->score_only, request.score_only);
  EXPECT_EQ(search->query, request.query);
}

TEST(Protocol, RefPutResponseRoundTrip) {
  RefPutResponse response;
  response.request_id = 5;
  response.ref_id = 12;
  response.residues = 6200;
  response.distinct_kmers = 6189;
  response.build_micros = 1042;
  const Response decoded = decode_response(encode(response));
  const auto* put = std::get_if<RefPutResponse>(&decoded);
  ASSERT_NE(put, nullptr);
  EXPECT_EQ(put->ref_id, response.ref_id);
  EXPECT_EQ(put->residues, response.residues);
  EXPECT_EQ(put->distinct_kmers, response.distinct_kmers);
  EXPECT_EQ(put->build_micros, response.build_micros);
}

TEST(Protocol, SearchResponseRoundTrip) {
  SearchResponse response;
  response.request_id = 6;
  response.hits.push_back({928, 0, 200, 3000, 3200, "7=1X192="});
  response.hits.push_back({600, 0, 120, 9000, 9120, ""});  // score_only
  response.anchors = 7;
  response.chains = 2;
  response.queue_micros = 11;
  response.exec_micros = 222;
  response.deadline_remaining_ms = 480;
  const Response decoded = decode_response(encode(response));
  const auto* search = std::get_if<SearchResponse>(&decoded);
  ASSERT_NE(search, nullptr);
  ASSERT_EQ(search->hits.size(), 2u);
  EXPECT_EQ(search->hits[0].score, 928);
  EXPECT_EQ(search->hits[0].q_end, 200u);
  EXPECT_EQ(search->hits[0].s_begin, 3000u);
  EXPECT_EQ(search->hits[0].cigar, "7=1X192=");
  EXPECT_EQ(search->hits[1].score, 600);
  EXPECT_TRUE(search->hits[1].cigar.empty());
  EXPECT_EQ(search->anchors, 7u);
  EXPECT_EQ(search->chains, 2u);
  EXPECT_EQ(search->deadline_remaining_ms, 480);

  SearchResponse empty;  // zero hits must round-trip too
  const Response decoded_empty = decode_response(encode(empty));
  const auto* no_hits = std::get_if<SearchResponse>(&decoded_empty);
  ASSERT_NE(no_hits, nullptr);
  EXPECT_TRUE(no_hits->hits.empty());
  EXPECT_EQ(no_hits->deadline_remaining_ms, -1);
}

TEST(Protocol, SearchMessagesRejectTruncationAtEveryPrefix) {
  SearchRequest request;
  request.query = "ACGT";
  const std::string req_payload = encode(request);
  for (std::size_t cut = 0; cut < req_payload.size(); ++cut) {
    EXPECT_THROW(decode_request(req_payload.substr(0, cut)), ProtocolError);
  }
  SearchResponse response;
  response.hits.push_back({1, 0, 4, 10, 14, "4="});
  const std::string resp_payload = encode(response);
  for (std::size_t cut = 0; cut < resp_payload.size(); ++cut) {
    EXPECT_THROW(decode_response(resp_payload.substr(0, cut)),
                 ProtocolError);
  }
}

TEST(Protocol, HostileCountIsAProtocolError) {
  // A count field claiming more elements than the payload could possibly
  // hold must be refused up front (guarding the decoder's allocation),
  // not turn into a huge reservation or run off the end element by
  // element. Layout of each: version, verb, u64 request_id, u32 count.
  const std::size_t count_offset = 2 + 8;
  for (std::string payload :
       {encode(StatsResponse{}), encode(SearchResponse{}),
        encode(RefListResponse{})}) {
    payload.resize(count_offset);
    payload.append(4, '\xff');  // 0xFFFFFFFF elements, none present
    EXPECT_THROW(decode_response(payload), ProtocolError)
        << to_string(static_cast<Verb>(payload[1]));
  }
}

TEST(Protocol, EstimatedCellsForSearchIsQuerySquared) {
  // SEARCH admission uses the worst-case degenerate gap fill, (|q|+1)^2 —
  // the same DPM-cell currency as the ALIGN budget.
  SearchRequest request;
  request.query = std::string(9, 'A');
  EXPECT_EQ(estimated_cells(request), 100u);
  SearchRequest empty;
  EXPECT_EQ(estimated_cells(empty), 1u);
}

TEST(Protocol, EstimatedCellsCountsDpmEntries) {
  AlignRequest request;
  request.a = std::string(9, 'A');
  request.b = std::string(4, 'C');
  EXPECT_EQ(estimated_cells(request), 50u);  // (9+1) * (4+1)
  AlignRequest empty;
  EXPECT_EQ(estimated_cells(empty), 1u);
}

TEST(Protocol, MatrixNamesRoundTrip) {
  for (WireMatrix matrix :
       {WireMatrix::kMdm78, WireMatrix::kPam250, WireMatrix::kBlosum62,
        WireMatrix::kDna, WireMatrix::kDnaN}) {
    WireMatrix parsed = WireMatrix::kMdm78;
    ASSERT_TRUE(parse_wire_matrix(to_string(matrix), &parsed));
    EXPECT_EQ(parsed, matrix);
  }
  WireMatrix out = WireMatrix::kDna;
  EXPECT_FALSE(parse_wire_matrix("nonsense", &out));
  EXPECT_EQ(out, WireMatrix::kDna);  // untouched on failure
}

TEST(Protocol, VerbAndCodeNamesAreStable) {
  EXPECT_STREQ(to_string(Verb::kAlign), "ALIGN");
  EXPECT_STREQ(to_string(Verb::kStats), "STATS");
  EXPECT_STREQ(to_string(Verb::kRefPut), "REF_PUT");
  EXPECT_STREQ(to_string(Verb::kSearch), "SEARCH");
  EXPECT_STREQ(to_string(ErrorCode::kRefNotFound), "REF_NOT_FOUND");
  EXPECT_STREQ(to_string(ErrorCode::kOverloaded), "OVERLOADED");
  EXPECT_STREQ(to_string(ErrorCode::kTooLarge), "TOO_LARGE");
  EXPECT_STREQ(to_string(ErrorCode::kDeadlineExceeded), "DEADLINE_EXCEEDED");
  EXPECT_STREQ(to_string(ErrorCode::kShuttingDown), "SHUTTING_DOWN");
  EXPECT_STREQ(to_string(ErrorCode::kConnectionLimit), "CONNECTION_LIMIT");
}

TEST(Protocol, RetryableClassificationIsIdempotentSafe) {
  // Retry is only safe when the server provably did not run the job.
  EXPECT_TRUE(is_retryable(ErrorCode::kOverloaded));
  EXPECT_TRUE(is_retryable(ErrorCode::kShuttingDown));
  EXPECT_TRUE(is_retryable(ErrorCode::kConnectionLimit));
  EXPECT_FALSE(is_retryable(ErrorCode::kBadRequest));
  EXPECT_FALSE(is_retryable(ErrorCode::kTooLarge));
  EXPECT_FALSE(is_retryable(ErrorCode::kDeadlineExceeded));
  EXPECT_FALSE(is_retryable(ErrorCode::kInternal));
  // REF_NOT_FOUND is deterministic until someone registers the reference;
  // blind retry would just repeat the miss.
  EXPECT_FALSE(is_retryable(ErrorCode::kRefNotFound));
}

// A reader guarded against hanging forever if the partial-write tests fail.
void arm_read_deadline(int fd) {
  struct timeval tv {};
  tv.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

// The fault-injected partial-write path: the server dies (or is killed by
// the injector) after writing only a prefix of a frame. For every possible
// cut point the client-side reader must surface a typed TransportError —
// never a hang, never a garbage score. Cut 0 is the one clean case: EOF on
// a frame boundary, reported as an orderly false.
TEST(Protocol, PartialWriteAtEveryPrefixIsATypedTransportError) {
  AlignResponse response;
  response.request_id = 7;
  response.score = 82;
  response.cigar = "10M";
  const std::string wire = frame_bytes(encode(response));
  ASSERT_GT(wire.size(), 4u);

  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    int fds[2] = {-1, -1};
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    arm_read_deadline(fds[0]);
    ASSERT_TRUE(write_all(fds[1], std::string_view(wire).substr(0, cut)));
    close(fds[1]);  // server gone mid-frame

    std::string payload;
    if (cut == 0) {
      EXPECT_FALSE(read_frame(fds[0], &payload))
          << "EOF on a frame boundary must be an orderly close";
    } else if (cut == wire.size()) {
      ASSERT_TRUE(read_frame(fds[0], &payload));
      const Response decoded = decode_response(payload);
      const auto* ok = std::get_if<AlignResponse>(&decoded);
      ASSERT_NE(ok, nullptr);
      EXPECT_EQ(ok->score, 82);
    } else {
      EXPECT_THROW(read_frame(fds[0], &payload), TransportError)
          << "prefix of " << cut << " of " << wire.size()
          << " bytes did not produce a typed transport error";
    }
    close(fds[0]);
  }
}

TEST(Protocol, SeqBeginRequestRoundTrip) {
  SeqBeginRequest request;
  request.request_id = 0xa1b2c3d4e5f60718ULL;
  request.upload_token = 0x0f0e0d0c0b0a0908ULL;
  request.placement = 42;
  request.matrix = WireMatrix::kDnaN;
  request.total_residues = 3'200'000'000ULL;
  request.name = "chr1";
  const Request decoded = decode_request(encode(request));
  const auto* begin = std::get_if<SeqBeginRequest>(&decoded);
  ASSERT_NE(begin, nullptr);
  EXPECT_EQ(begin->request_id, request.request_id);
  EXPECT_EQ(begin->upload_token, request.upload_token);
  EXPECT_EQ(begin->placement, request.placement);
  EXPECT_EQ(begin->matrix, request.matrix);
  EXPECT_EQ(begin->total_residues, request.total_residues);
  EXPECT_EQ(begin->name, request.name);
}

TEST(Protocol, SeqChunkRequestRoundTrip) {
  SeqChunkRequest request;
  request.request_id = 9;
  request.upload_token = 0xfeedULL;
  request.offset = (std::uint64_t{1} << 40) + 17;
  request.prefix_hash = 0x123456789abcdef0ULL;
  request.data = "ACGTACGTACGT";
  const Request decoded = decode_request(encode(request));
  const auto* chunk = std::get_if<SeqChunkRequest>(&decoded);
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->request_id, request.request_id);
  EXPECT_EQ(chunk->upload_token, request.upload_token);
  EXPECT_EQ(chunk->offset, request.offset);
  EXPECT_EQ(chunk->prefix_hash, request.prefix_hash);
  EXPECT_EQ(chunk->data, request.data);
}

TEST(Protocol, SeqEndRequestRoundTrip) {
  SeqEndRequest request;
  request.request_id = 10;
  request.upload_token = 0xfeedULL;
  request.total_residues = 2'200'000ULL;
  request.total_hash = 0x0dedbeefcafef00dULL;
  request.k = 13;
  request.build_index = true;
  const Request decoded = decode_request(encode(request));
  const auto* end = std::get_if<SeqEndRequest>(&decoded);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(end->request_id, request.request_id);
  EXPECT_EQ(end->upload_token, request.upload_token);
  EXPECT_EQ(end->total_residues, request.total_residues);
  EXPECT_EQ(end->total_hash, request.total_hash);
  EXPECT_EQ(end->k, request.k);
  EXPECT_EQ(end->build_index, request.build_index);
}

TEST(Protocol, AlignRefRequestRoundTrip) {
  AlignRefRequest request;
  request.request_id = 11;
  request.ref_a = 3;
  request.ref_b = 4;
  request.matrix = WireMatrix::kDna;
  request.gap_open = 0;
  request.gap_extend = -2;
  request.k = 6;
  request.base_case_cells = 1 << 18;
  request.band = 512;
  request.deadline_ms = 30000;
  request.score_only = true;
  request.b = "";
  const Request decoded = decode_request(encode(request));
  const auto* align = std::get_if<AlignRefRequest>(&decoded);
  ASSERT_NE(align, nullptr);
  EXPECT_EQ(align->request_id, request.request_id);
  EXPECT_EQ(align->ref_a, request.ref_a);
  EXPECT_EQ(align->ref_b, request.ref_b);
  EXPECT_EQ(align->matrix, request.matrix);
  EXPECT_EQ(align->gap_open, request.gap_open);
  EXPECT_EQ(align->gap_extend, request.gap_extend);
  EXPECT_EQ(align->k, request.k);
  EXPECT_EQ(align->base_case_cells, request.base_case_cells);
  EXPECT_EQ(align->band, request.band);
  EXPECT_EQ(align->deadline_ms, request.deadline_ms);
  EXPECT_EQ(align->score_only, request.score_only);
  EXPECT_EQ(align->b, request.b);
}

TEST(Protocol, AlignRefInlineBRoundTrip) {
  AlignRefRequest request;
  request.ref_a = 1;
  request.ref_b = 0;
  request.b = "HEAGAWGHEE";
  const Request decoded = decode_request(encode(request));
  const auto* align = std::get_if<AlignRefRequest>(&decoded);
  ASSERT_NE(align, nullptr);
  EXPECT_EQ(align->ref_b, 0u);
  EXPECT_EQ(align->b, "HEAGAWGHEE");
}

TEST(Protocol, SeqOkResponseRoundTrip) {
  SeqOkResponse response;
  response.request_id = 12;
  response.upload_token = 0xfeedULL;
  response.next_offset = 1'048'576;
  response.ref_id = 7;
  response.residues = 1'048'576;
  const Response decoded = decode_response(encode(response));
  const auto* ok = std::get_if<SeqOkResponse>(&decoded);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->request_id, response.request_id);
  EXPECT_EQ(ok->upload_token, response.upload_token);
  EXPECT_EQ(ok->next_offset, response.next_offset);
  EXPECT_EQ(ok->ref_id, response.ref_id);
  EXPECT_EQ(ok->residues, response.residues);
}

TEST(Protocol, AlignPartResponseRoundTrip) {
  AlignPartResponse response;
  response.request_id = 13;
  response.seq = 3;
  response.last = true;
  response.score = -12345;
  response.cells = std::numeric_limits<std::uint64_t>::max();
  response.queue_micros = 17;
  response.exec_micros = 90210;
  response.deadline_remaining_ms = 250;
  response.cigar_part = "100M2D40M";
  const Response decoded = decode_response(encode(response));
  const auto* part = std::get_if<AlignPartResponse>(&decoded);
  ASSERT_NE(part, nullptr);
  EXPECT_EQ(part->request_id, response.request_id);
  EXPECT_EQ(part->seq, response.seq);
  EXPECT_EQ(part->last, response.last);
  EXPECT_EQ(part->score, response.score);
  EXPECT_EQ(part->cells, response.cells);
  EXPECT_EQ(part->queue_micros, response.queue_micros);
  EXPECT_EQ(part->exec_micros, response.exec_micros);
  EXPECT_EQ(part->deadline_remaining_ms, response.deadline_remaining_ms);
  EXPECT_EQ(part->cigar_part, response.cigar_part);
}

TEST(Protocol, RefPutContentTokenRoundTrip) {
  RefPutRequest request;
  request.request_id = 14;
  request.matrix = WireMatrix::kDna;
  request.sequence = "ACGT";
  request.content_token = 0x00c0ffee00c0ffeeULL;
  const Request decoded = decode_request(encode(request));
  const auto* put = std::get_if<RefPutRequest>(&decoded);
  ASSERT_NE(put, nullptr);
  EXPECT_EQ(put->content_token, request.content_token);
}

TEST(Protocol, StreamingMessagesRejectTruncationAtEveryPrefix) {
  SeqChunkRequest chunk;
  chunk.upload_token = 1;
  chunk.data = "ACGTAC";
  const std::string chunk_payload = encode(chunk);
  for (std::size_t cut = 0; cut < chunk_payload.size(); ++cut) {
    EXPECT_THROW(decode_request(chunk_payload.substr(0, cut)), ProtocolError);
  }
  AlignRefRequest align;
  align.ref_a = 1;
  align.b = "AW";
  const std::string align_payload = encode(align);
  for (std::size_t cut = 0; cut < align_payload.size(); ++cut) {
    EXPECT_THROW(decode_request(align_payload.substr(0, cut)), ProtocolError);
  }
  AlignPartResponse part;
  part.cigar_part = "5M";
  const std::string part_payload = encode(part);
  for (std::size_t cut = 0; cut < part_payload.size(); ++cut) {
    EXPECT_THROW(decode_response(part_payload.substr(0, cut)), ProtocolError);
  }
  SeqOkResponse ok;
  const std::string ok_payload = encode(ok);
  for (std::size_t cut = 0; cut < ok_payload.size(); ++cut) {
    EXPECT_THROW(decode_response(ok_payload.substr(0, cut)), ProtocolError);
  }
}

TEST(Protocol, ContentTokenIsDeterministicAndIgnoresTheName) {
  RefPutRequest a;
  a.matrix = WireMatrix::kDna;
  a.k = 12;
  a.name = "chr1";
  a.sequence = "ACGTACGTACGT";
  RefPutRequest b = a;
  b.name = "renamed";
  b.request_id = 999;  // ids must not perturb the token either
  EXPECT_EQ(content_token_for(a), content_token_for(b));
  EXPECT_NE(content_token_for(a), 0u);

  RefPutRequest different_k = a;
  different_k.k = 13;
  EXPECT_NE(content_token_for(a), content_token_for(different_k));

  RefPutRequest different_matrix = a;
  different_matrix.matrix = WireMatrix::kDnaN;
  EXPECT_NE(content_token_for(a), content_token_for(different_matrix));

  RefPutRequest different_sequence = a;
  different_sequence.sequence = "ACGTACGTACGA";
  EXPECT_NE(content_token_for(a), content_token_for(different_sequence));

  RefPutRequest empty;
  EXPECT_NE(content_token_for(empty), 0u);
}

TEST(Protocol, EstimatedCellsSaturatesInsteadOfWrapping) {
  const std::uint64_t max64 = std::numeric_limits<std::uint64_t>::max();
  // Ordinary sizes are exact.
  EXPECT_EQ(estimated_cells(0, 0), 1u);
  EXPECT_EQ(estimated_cells(10, 20), 11u * 21u);
  // (2^32)^2 == 2^64 wraps to 0 in naive arithmetic; the estimate must
  // pin to the ceiling so admission rejects instead of admitting.
  const std::uint64_t just_past = std::uint64_t{1} << 32;
  EXPECT_EQ(estimated_cells(just_past, just_past), max64);
  EXPECT_EQ(estimated_cells(max64, 1), max64);
  EXPECT_EQ(estimated_cells(max64, max64), max64);
  // Below the boundary stays exact: (2^32 - 1 + 1) * 2 == 2^33.
  EXPECT_EQ(estimated_cells((std::uint64_t{1} << 32) - 1, 1),
            std::uint64_t{1} << 33);
}

TEST(Protocol, EstimatedBandedCellsSaturatesInsteadOfWrapping) {
  const std::uint64_t max64 = std::numeric_limits<std::uint64_t>::max();
  // 2 Mbp pair at half-width 32: (m+1) * (|n-m| + 2w + 1), small & exact.
  EXPECT_EQ(estimated_banded_cells(2'000'000, 2'000'100, 32),
            2'000'001ULL * (100 + 64 + 1));
  EXPECT_EQ(estimated_banded_cells(2'000'100, 2'000'000, 32),
            2'000'101ULL * (100 + 64 + 1));
  // Huge m with a wide band must saturate, not wrap.
  EXPECT_EQ(estimated_banded_cells(max64 - 1, max64 - 1,
                                   std::numeric_limits<std::uint32_t>::max()),
            max64);
  EXPECT_EQ(estimated_banded_cells(max64, 0, 0), max64);
}

TEST(Protocol, CorruptedVersionByteIsAProtocolErrorNotAScore) {
  // The injector's corrupt fault XORs the version byte; the client must
  // get a typed decode failure, never a plausible wrong answer.
  AlignResponse response;
  response.score = 82;
  std::string payload = encode(response);
  payload[0] = static_cast<char>(payload[0] ^ 0xA5);
  EXPECT_THROW(decode_response(payload), ProtocolError);
}

// ---- Golden wire bytes ------------------------------------------------
// One fixed instance of every Request and Response alternative with the
// payload bytes it encodes to, pinned so a change to the codec cannot
// move a byte of any verb unnoticed.

template <typename T>
struct Golden {
  T message;
  std::string_view hex;
};

Golden<AlignRequest> golden(std::type_identity<AlignRequest>) {
  return {sample_align_request(),
          "0101887766554433221102f5ffffffffffffff040000000000010000000000fa"
          "000000010a000000484541474157474845450700000050415748454145"};
}

Golden<StatsRequest> golden(std::type_identity<StatsRequest>) {
  StatsRequest request;
  request.request_id = 7;
  return {request, "01020700000000000000"};
}

Golden<RefPutRequest> golden(std::type_identity<RefPutRequest>) {
  RefPutRequest request;
  request.request_id = 0xdeadbeefULL;
  request.matrix = WireMatrix::kDnaN;
  request.k = 11;
  request.content_token = 0x00c0ffee00c0ffeeULL;
  request.name = "chr7";
  request.sequence = "ACGTNACGT";
  return {request,
          "0103efbeadde00000000040b000000eeffc000eeffc000040000006368723709"
          "000000414347544e41434754"};
}

Golden<SearchRequest> golden(std::type_identity<SearchRequest>) {
  SearchRequest request;
  request.request_id = 77;
  request.ref_id = 0x0102030405060708ULL;
  request.matrix = WireMatrix::kBlosum62;
  request.gap_extend = -7;
  request.max_hits = 3;
  request.x_drop = 25;
  request.gap_weight = -2;
  request.min_chain_score = 40;
  request.band_pad = 9;
  request.max_overlap = 4;
  request.max_positions_per_kmer = 128;
  request.deadline_ms = 1500;
  request.score_only = true;
  request.query = "HEAGAWGHEE";
  return {request,
          "01044d00000000000000080706050403020102f9ffffff0300000019000000fe"
          "ffffff28000000090000000400000080000000dc050000010a00000048454147"
          "415747484545"};
}

Golden<SeqBeginRequest> golden(std::type_identity<SeqBeginRequest>) {
  SeqBeginRequest request;
  request.request_id = 0xa1b2c3d4e5f60718ULL;
  request.upload_token = 0x0f0e0d0c0b0a0908ULL;
  request.placement = 42;
  request.matrix = WireMatrix::kDna;
  request.total_residues = 3'200'000'000ULL;
  request.name = "chr1";
  return {request,
          "01061807f6e5d4c3b2a108090a0b0c0d0e0f2a00000000000000030020bcbe00"
          "0000000400000063687231"};
}

Golden<SeqChunkRequest> golden(std::type_identity<SeqChunkRequest>) {
  SeqChunkRequest request;
  request.request_id = 9;
  request.upload_token = 0xfeedULL;
  request.offset = (std::uint64_t{1} << 40) + 17;
  request.prefix_hash = 0x123456789abcdef0ULL;
  request.data = "ACGTAC";
  return {request,
          "01070900000000000000edfe0000000000001100000000010000f0debc9a7856"
          "341206000000414347544143"};
}

Golden<SeqEndRequest> golden(std::type_identity<SeqEndRequest>) {
  SeqEndRequest request;
  request.request_id = 10;
  request.upload_token = 0xfeedULL;
  request.total_residues = 2'200'000ULL;
  request.total_hash = 0x0dedbeefcafef00dULL;
  request.k = 13;
  request.build_index = true;
  return {request,
          "01080a00000000000000edfe000000000000c0912100000000000df0fecaefbe"
          "ed0d0d00000001"};
}

Golden<AlignRefRequest> golden(std::type_identity<AlignRefRequest>) {
  AlignRefRequest request;
  request.request_id = 11;
  request.ref_a = 3;
  request.ref_b = 0;
  request.matrix = WireMatrix::kPam250;
  request.gap_open = -10;
  request.gap_extend = -2;
  request.k = 6;
  request.base_case_cells = 1 << 18;
  request.band = 512;
  request.deadline_ms = 30000;
  request.score_only = false;
  request.b = "AW";
  return {request,
          "01090b000000000000000300000000000000000000000000000001f6fffffffe"
          "ffffff060000000000040000000000000200003075000000020000004157"};
}

Golden<RefListRequest> golden(std::type_identity<RefListRequest>) {
  RefListRequest request;
  request.request_id = 15;
  return {request, "010a0f00000000000000"};
}

Golden<AlignResponse> golden(std::type_identity<AlignResponse>) {
  AlignResponse response;
  response.request_id = 42;
  response.score = -12345;
  response.cigar = "3M1I2M1D4M";
  response.cells = 99;
  response.queue_micros = 1234;
  response.exec_micros = 56789;
  response.deadline_remaining_ms = 17;
  return {response,
          "01812a00000000000000c7cfffffffffffff0a000000334d3149324d3144344d"
          "6300000000000000d204000000000000d5dd0000000000001100000000000000"};
}

Golden<ErrorResponse> golden(std::type_identity<ErrorResponse>) {
  ErrorResponse response;
  response.request_id = 9;
  response.code = ErrorCode::kRefNotFound;
  response.message = "no such ref";
  return {response, "01820900000000000000080b0000006e6f207375636820726566"};
}

Golden<StatsResponse> golden(std::type_identity<StatsResponse>) {
  StatsResponse response;
  response.request_id = 3;
  response.entries = {{"service.requests", 10.0}, {"negative", -1.5}};
  return {response,
          "018303000000000000000200000010000000736572766963652e726571756573"
          "74730000000000002440080000006e65676174697665000000000000f8bf"};
}

Golden<RefPutResponse> golden(std::type_identity<RefPutResponse>) {
  RefPutResponse response;
  response.request_id = 5;
  response.ref_id = 12;
  response.residues = 6200;
  response.distinct_kmers = 6189;
  response.build_micros = 1042;
  return {response,
          "018405000000000000000c0000000000000038180000000000002d1800000000"
          "00001204000000000000"};
}

Golden<SearchResponse> golden(std::type_identity<SearchResponse>) {
  SearchResponse response;
  response.request_id = 6;
  response.hits.push_back({928, 0, 200, 3000, 3200, "7=1X192="});
  response.hits.push_back({-4, 1, 2, 9000, 9001, ""});
  response.anchors = 7;
  response.chains = 2;
  response.queue_micros = 11;
  response.exec_micros = 222;
  response.deadline_remaining_ms = -1;
  return {response,
          "0185060000000000000002000000a0030000000000000000000000000000c800"
          "000000000000b80b000000000000800c00000000000008000000373d31583139"
          "323dfcffffffffffffff01000000000000000200000000000000282300000000"
          "0000292300000000000000000000070000000000000002000000000000000b00"
          "000000000000de00000000000000ffffffffffffffff"};
}

Golden<SeqOkResponse> golden(std::type_identity<SeqOkResponse>) {
  SeqOkResponse response;
  response.request_id = 12;
  response.upload_token = 0xfeedULL;
  response.next_offset = 1'048'576;
  response.ref_id = 7;
  response.residues = 1'048'576;
  return {response,
          "01870c00000000000000edfe0000000000000000100000000000070000000000"
          "00000000100000000000"};
}

Golden<AlignPartResponse> golden(std::type_identity<AlignPartResponse>) {
  AlignPartResponse response;
  response.request_id = 13;
  response.seq = 3;
  response.last = true;
  response.score = -12345;
  response.cells = std::numeric_limits<std::uint64_t>::max();
  response.queue_micros = 17;
  response.exec_micros = 90210;
  response.deadline_remaining_ms = 250;
  response.cigar_part = "100M2D40M";
  return {response,
          "01880d000000000000000300000001c7cfffffffffffffffffffffffffffff11"
          "000000000000006260010000000000fa00000000000000090000003130304d32"
          "4434304d"};
}

Golden<RefListResponse> golden(std::type_identity<RefListResponse>) {
  RefListResponse response;
  response.request_id = 16;
  response.refs.push_back({1, 0x00c0ffee00c0ffeeULL, 2'000'000,
                           WireMatrix::kDna, 12, true, "chr7"});
  response.refs.push_back({2, 0, 5, WireMatrix::kMdm78, 0, false, ""});
  return {response,
          "01891000000000000000020000000100000000000000eeffc000eeffc0008084"
          "1e0000000000030c000000010400000063687237020000000000000000000000"
          "00000000050000000000000000000000000000000000"};
}

/// Calls `visit(std::type_identity<T>{})` for every alternative T.
template <typename Variant, typename Visit>
void for_each_alternative(Visit visit) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (visit(std::type_identity<std::variant_alternative_t<I, Variant>>{}),
     ...);
  }(std::make_index_sequence<std::variant_size_v<Variant>>{});
}

template <typename Variant>
constexpr bool every_alternative_has_a_golden_entry() {
  return []<std::size_t... I>(std::index_sequence<I...>) {
    return (requires {
      golden(std::type_identity<std::variant_alternative_t<I, Variant>>{});
    } && ...);
  }(std::make_index_sequence<std::variant_size_v<Variant>>{});
}
static_assert(every_alternative_has_a_golden_entry<Request>());
static_assert(every_alternative_has_a_golden_entry<Response>());

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xf]);
  }
  return hex;
}

template <typename Variant, typename Decode>
void expect_golden_bytes(Decode decode) {
  for_each_alternative<Variant>([&]<typename T>(std::type_identity<T> tag) {
    const Golden<T> entry = golden(tag);
    const std::string payload = encode(entry.message);
    ASSERT_GE(payload.size(), 2u);
    const char* verb = to_string(static_cast<Verb>(payload[1]));
    EXPECT_EQ(to_hex(payload), entry.hex) << verb;

    // The pinned bytes decode to the same verb and re-encode unchanged.
    const Variant decoded = decode(payload);
    ASSERT_TRUE(std::holds_alternative<T>(decoded)) << verb;
    EXPECT_EQ(encode(std::get<T>(decoded)), payload) << verb;

    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_THROW(decode(payload.substr(0, cut)), ProtocolError)
          << verb << ": prefix of " << cut << " bytes decoded";
    }
    EXPECT_THROW(decode(payload + '\0'), ProtocolError)
        << verb << ": a trailing byte decoded";
  });
}

TEST(Protocol, GoldenWireBytesOfEveryVerb) {
  expect_golden_bytes<Request>(
      [](std::string_view payload) { return decode_request(payload); });
  expect_golden_bytes<Response>(
      [](std::string_view payload) { return decode_response(payload); });
}

}  // namespace
}  // namespace service
}  // namespace flsa
