// Served-path differential fuzzer: fixed-seed request streams go through
// an in-process daemon, and through a router in front of two daemons.
// Every answer must be the typed refusal its oracle predicts, or match an
// independent in-process oracle bit for bit:
//
//   ALIGN      full_matrix_align / full_matrix_align_affine: score and path
//   ALIGN_REF  banded_align on the same bytes, with bands on both sides of
//              |a| - |b| (a band that cannot reach the corner is refused
//              BAD_REQUEST, and so is the oracle's call)
//   SEARCH     chained_search against a locally built ReferenceIndex
//
// Any other typed error fails the stream: a precondition that trips inside
// a worker also comes back as BAD_REQUEST, so accepting every typed error
// would pass a kernel that breaks an engine invariant.
//
// ALIGN lengths and per-request base_case_cells straddle the base case, so
// the Fill Grid Cache sweeps run on the default kernel (kAuto: the int16
// tier for the linear schemes that fit it) as well as inside the base
// case. Seeds 1..4 run by default; FLSA_FUZZ_SEEDS=n runs seeds 1..n.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "dp/banded.hpp"
#include "dp/fullmatrix.hpp"
#include "dp/gotoh.hpp"
#include "router/router.hpp"
#include "scoring/builtin.hpp"
#include "search/chain.hpp"
#include "search/reference_index.hpp"
#include "sequence/generate.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace flsa {
namespace service {
namespace {

/// Seeds to run: FLSA_FUZZ_SEEDS when set (clamped to [1, 1000]), else 4.
std::uint64_t fuzz_seeds() {
  const char* env = std::getenv("FLSA_FUZZ_SEEDS");
  if (env == nullptr) return 4;
  return static_cast<std::uint64_t>(
      std::clamp(std::strtol(env, nullptr, 10), 1L, 1000L));
}

const SubstitutionMatrix& dna_matrix() {
  static const SubstitutionMatrix matrix = scoring::dna();
  return matrix;
}

/// The wire matrices this fuzzer sends and the tables the daemon resolves
/// them to.
struct WireTable {
  WireMatrix wire;
  const SubstitutionMatrix& matrix;
  const Alphabet& alphabet;
};

WireTable pick_table(Xoshiro256& rng) {
  switch (rng.bounded(4)) {
    case 0: return {WireMatrix::kMdm78, scoring::mdm78(), Alphabet::protein()};
    case 1: return {WireMatrix::kPam250, scoring::pam250(), Alphabet::protein()};
    case 2:
      return {WireMatrix::kBlosum62, scoring::blosum62(), Alphabet::protein()};
    default: return {WireMatrix::kDna, dna_matrix(), Alphabet::dna()};
  }
}

/// One served topology: a daemon alone, or a router in front of two.
class Served {
 public:
  explicit Served(std::size_t daemons) {
    ServiceConfig config;
    config.workers = 2;
    for (std::size_t i = 0; i < daemons; ++i) {
      daemons_.push_back(std::make_unique<AlignmentServer>(config));
      daemons_.back()->start();
    }
    if (daemons > 1) {
      router::RouterConfig rc;
      for (const auto& daemon : daemons_) {
        rc.backends.push_back({"127.0.0.1", daemon->port()});
      }
      router_ = std::make_unique<router::Router>(rc);
      router_->start();
    }
  }

  ~Served() {
    if (router_) router_->stop();
    for (auto& daemon : daemons_) daemon->stop();
  }

  Client connect() const {
    Client client;
    client.connect("127.0.0.1",
                   router_ ? router_->port() : daemons_.front()->port());
    return client;
  }

 private:
  std::vector<std::unique_ptr<AlignmentServer>> daemons_;
  std::unique_ptr<router::Router> router_;
};

/// What the oracle says a request must get back: a BAD_REQUEST refusal,
/// or this score and edit script.
struct Expected {
  bool refused = false;
  std::int64_t score = 0;
  std::string cigar;
};

/// What one stream exercised: the generator must reach both sides of
/// every boundary it sets out to straddle.
struct Coverage {
  int base_case_only = 0;  ///< ALIGNs whose whole DPM fits the base case
  int fill_grid = 0;       ///< ALIGNs that sweep the Fill Grid Cache first
  int band_refused = 0;    ///< ALIGN_REFs whose band misses the corner
  int band_answered = 0;
  int search_hits = 0;     ///< SEARCHes the oracle finds hits for
  int search_empty = 0;
};

/// Checks `got` against `want`. `Answer` is the success frame the verb
/// answers with.
template <typename Answer>
void expect_answer(const Response& got, const Expected& want,
                   bool score_only, const std::string& what) {
  const auto* error = std::get_if<ErrorResponse>(&got);
  if (want.refused) {
    ASSERT_NE(error, nullptr) << what << ": the oracle refuses it";
    EXPECT_EQ(error->code, ErrorCode::kBadRequest)
        << what << ": " << error->message;
    return;
  }
  ASSERT_EQ(error, nullptr) << what << ": " << to_string(error->code) << " "
                            << error->message;
  const auto* answer = std::get_if<Answer>(&got);
  ASSERT_NE(answer, nullptr) << what;
  EXPECT_EQ(answer->score, want.score) << what;
  if constexpr (std::is_same_v<Answer, AlignPartResponse>) {
    EXPECT_TRUE(answer->last) << what;
    EXPECT_EQ(answer->cigar_part, score_only ? "" : want.cigar) << what;
  } else {
    EXPECT_EQ(answer->cigar, score_only ? "" : want.cigar) << what;
  }
}

/// A related pair (a mutated copy) or an unrelated one, of length
/// `length` give or take the indels.
SequencePair make_pair(const Alphabet& alphabet, std::size_t length,
                       Xoshiro256& rng) {
  if (rng.bounded(4) == 0) {
    return {random_sequence(alphabet, length, rng),
            random_sequence(alphabet, rng.bounded(length + 40), rng)};
  }
  MutationModel model;
  model.substitution_rate = 0.02 + 0.3 * rng.uniform01();
  model.insertion_rate = 0.03 * rng.uniform01();
  model.deletion_rate = 0.03 * rng.uniform01();
  return homologous_pair(alphabet, length, model, rng);
}

/// ALIGN: linear and affine schemes over every wire matrix, sizes from
/// empty to ~900 residues and base-case buffers from 16 cells up to the
/// server default, so some jobs fit the base case and others run the fill
/// grid first.
void fuzz_align(Client& client, Xoshiro256& rng, int jobs,
                const std::string& where, Coverage& coverage) {
  for (int job = 0; job < jobs; ++job) {
    const WireTable table = pick_table(rng);
    AlignRequest request;
    request.matrix = table.wire;
    if (rng.bounded(3) == 0) {
      request.gap_open = -static_cast<std::int32_t>(2 + rng.bounded(12));
      request.gap_extend = -static_cast<std::int32_t>(1 + rng.bounded(3));
    } else {
      request.gap_open = 0;
      request.gap_extend = -static_cast<std::int32_t>(1 + rng.bounded(12));
    }
    const std::size_t length =
        rng.bounded(3) == 0 ? rng.bounded(60) : 200 + rng.bounded(700);
    if (rng.bounded(3) != 0) {
      request.base_case_cells = 16 + rng.bounded(20000);
    }
    if (rng.bounded(2) == 0) {
      request.k = 2 + static_cast<std::uint32_t>(rng.bounded(9));
    }
    request.score_only = rng.bounded(5) == 0;
    const SequencePair pair = make_pair(table.alphabet, length, rng);
    request.a = pair.a.to_string();
    request.b = pair.b.to_string();

    const ScoringScheme scheme =
        request.gap_open == 0
            ? ScoringScheme(table.matrix, request.gap_extend)
            : ScoringScheme(table.matrix, request.gap_open,
                            request.gap_extend);
    const Alignment oracle =
        scheme.is_linear() ? full_matrix_align(pair.a, pair.b, scheme)
                           : full_matrix_align_affine(pair.a, pair.b, scheme);
    const std::string what =
        where + " ALIGN #" + std::to_string(job) + " " +
        to_string(request.matrix) + " gap " +
        std::to_string(request.gap_open) + "/" +
        std::to_string(request.gap_extend) + " " +
        std::to_string(pair.a.size()) + "x" + std::to_string(pair.b.size()) +
        " k " + std::to_string(request.k) + " bm " +
        std::to_string(request.base_case_cells);
    const std::uint64_t bm = request.base_case_cells != 0
                                 ? request.base_case_cells
                                 : FastLsaOptions{}.base_case_cells;
    ++((pair.a.size() + 1) * (pair.b.size() + 1) <= bm
           ? coverage.base_case_only
           : coverage.fill_grid);
    const bool score_only = request.score_only;
    expect_answer<AlignResponse>(client.call(std::move(request)),
                                 {false, oracle.score, oracle.cigar()},
                                 score_only, what);
  }
}

/// Uploads `letters` through SEQ_* and returns the registered id (0 after
/// a failed assertion).
std::uint64_t upload(Client& client, const std::string& letters,
                     WireMatrix matrix, std::uint64_t placement,
                     std::uint32_t k, bool build_index) {
  Client::UploadOptions options;
  options.matrix = matrix;
  options.placement = placement;
  options.chunk_residues = 700;  // several chunks per sequence
  options.k = k;
  options.build_index = build_index;
  const Response sealed = client.upload_sequence(letters, options);
  const auto* ok = std::get_if<SeqOkResponse>(&sealed);
  EXPECT_NE(ok, nullptr) << "upload refused";
  if (ok == nullptr) return 0;
  EXPECT_EQ(ok->residues, letters.size());
  return ok->ref_id;
}

/// SEQ_* uploads of a DNA and a protein pair, then banded ALIGN_REFs with
/// an inline or an uploaded second sequence and half-widths on both sides
/// of |a| - |b|.
void fuzz_align_ref(Client& client, Xoshiro256& rng, int jobs,
                    const std::string& where, Coverage& coverage) {
  struct Stored {
    WireTable table;
    Sequence a;
    std::uint64_t id_a = 0;
    Sequence b;
    std::uint64_t id_b = 0;
  };
  std::vector<Stored> stored;
  for (const WireTable& table :
       {WireTable{WireMatrix::kDna, dna_matrix(), Alphabet::dna()},
        WireTable{WireMatrix::kMdm78, scoring::mdm78(),
                  Alphabet::protein()}}) {
    SequencePair pair = make_pair(table.alphabet, 800 + rng.bounded(1500),
                                  rng);
    // One placement key for both halves: ALIGN_REF by two handles needs
    // them on one daemon behind the router.
    const std::uint64_t placement = 1 + rng.bounded(1u << 30);
    const std::uint64_t id_a = upload(client, pair.a.to_string(), table.wire,
                                      placement, 0, false);
    const std::uint64_t id_b = upload(client, pair.b.to_string(), table.wire,
                                      placement, 0, false);
    if (id_a == 0 || id_b == 0) return;
    stored.push_back(
        {table, std::move(pair.a), id_a, std::move(pair.b), id_b});
  }

  for (int job = 0; job < jobs; ++job) {
    const Stored& s = stored[rng.bounded(stored.size())];
    AlignRefRequest request;
    request.ref_a = s.id_a;
    request.matrix = s.table.wire;
    request.gap_open = 0;  // banded mode is linear-gap only
    request.gap_extend = -static_cast<std::int32_t>(1 + rng.bounded(10));
    // Bands cycle through too narrow to reach the corner (diff - 1, with
    // an inline b at least 2 shorter than a), the exact limit (diff),
    // one to spare, and room to spare, where diff = ||a| - |b||.
    const int side = job % 4;
    Sequence b = s.b;
    if (side != 0 && rng.bounded(2) == 0) {
      request.ref_b = s.id_b;
    } else {
      // An inline b: a prefix of the stored b, so |a| - |b| varies.
      const std::size_t cap =
          side == 0 ? std::min(s.b.size(), s.a.size() - 2) : s.b.size();
      b = Sequence(s.table.alphabet,
                   s.b.to_string().substr(0, rng.bounded(cap + 1)));
      request.b = b.to_string();
    }
    const std::size_t diff = s.a.size() > b.size() ? s.a.size() - b.size()
                                                   : b.size() - s.a.size();
    const std::size_t band = side == 0   ? diff - 1
                             : side == 1 ? diff
                             : side == 2 ? diff + 1
                                         : diff + 2 + rng.bounded(64);
    request.band = static_cast<std::uint32_t>(std::max<std::size_t>(1, band));
    request.score_only = rng.bounded(5) == 0;

    Expected want;
    try {
      const Alignment oracle = banded_align(
          s.a, b, ScoringScheme(s.table.matrix, request.gap_extend),
          request.band);
      want = {false, oracle.score, oracle.cigar()};
    } catch (const std::invalid_argument&) {
      want.refused = true;
    }
    ++(want.refused ? coverage.band_refused : coverage.band_answered);
    const std::string what =
        where + " ALIGN_REF #" + std::to_string(job) + " " +
        to_string(request.matrix) + " " + std::to_string(s.a.size()) + "x" +
        std::to_string(b.size()) + " band " + std::to_string(request.band) +
        (request.ref_b != 0 ? " by handle" : " inline");
    expect_answer<AlignPartResponse>(client.call(request), want,
                                     request.score_only, what);
  }
}

/// A SEQ_* upload of a DNA reference with mutated gene copies planted in
/// it, then SEARCHes for the genes, for slices of the reference and for
/// unrelated reads.
void fuzz_search(Client& client, Xoshiro256& rng, int jobs,
                 const std::string& where, Coverage& coverage) {
  const Alphabet& dna = Alphabet::dna();
  std::vector<Sequence> genes;
  for (int g = 0; g < 3; ++g) {
    genes.push_back(random_sequence(dna, 150 + rng.bounded(400), rng));
  }
  MutationModel model;
  model.substitution_rate = 0.05;
  model.insertion_rate = 0.005;
  model.deletion_rate = 0.005;
  std::string reference;
  for (int copy = 0; copy < 6; ++copy) {
    reference += random_sequence(dna, 500 + rng.bounded(3000), rng)
                     .to_string();
    reference += mutate(genes[rng.bounded(genes.size())], model, rng)
                     .to_string();
  }
  // Seeds of 13+ letters: an unrelated read almost never shares one with
  // ~20 kbp of reference, so some searches come back empty.
  const std::uint32_t k = 13 + static_cast<std::uint32_t>(rng.bounded(3));
  const std::uint64_t ref_id =
      upload(client, reference, WireMatrix::kDna, 0, k, true);
  if (ref_id == 0) return;
  const search::ReferenceIndex index(Sequence(dna, reference), k);

  for (int job = 0; job < jobs; ++job) {
    // A mutated gene, a slice of the reference, or an unrelated read.
    const int kind = job % 3;
    const std::size_t length = 100 + rng.bounded(900);
    const Sequence query =
        kind == 0 ? mutate(genes[rng.bounded(genes.size())], model, rng)
        : kind == 1
            ? Sequence(dna, reference.substr(
                                rng.bounded(reference.size() - length),
                                length))
            : random_sequence(dna, length, rng);
    SearchRequest request;
    request.ref_id = ref_id;
    request.matrix = WireMatrix::kDna;
    request.gap_extend = -static_cast<std::int32_t>(1 + rng.bounded(6));
    search::ChainedSearchParams params;
    if (rng.bounded(2) == 0) {
      request.max_hits = 1 + static_cast<std::uint32_t>(rng.bounded(4));
      params.max_hits = request.max_hits;
    }
    request.score_only = rng.bounded(5) == 0;
    request.query = query.to_string();

    search::ChainedSearchStats stats;
    const std::vector<search::SearchHit> hits = search::chained_search(
        query, index, ScoringScheme(dna_matrix(), request.gap_extend), params,
        &stats);
    ++(hits.empty() ? coverage.search_empty : coverage.search_hits);
    const std::string what = where + " SEARCH #" + std::to_string(job) +
                             " |q| " + std::to_string(query.size()) +
                             " gap " + std::to_string(request.gap_extend);
    const bool score_only = request.score_only;
    const Response got = client.call(std::move(request));
    const auto* error = std::get_if<ErrorResponse>(&got);
    ASSERT_EQ(error, nullptr) << what << ": " << to_string(error->code) << " "
                              << error->message;
    const auto* ok = std::get_if<SearchResponse>(&got);
    ASSERT_NE(ok, nullptr) << what;
    EXPECT_EQ(ok->anchors, stats.anchors) << what;
    EXPECT_EQ(ok->chains, stats.chains) << what;
    ASSERT_EQ(ok->hits.size(), hits.size()) << what;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      const Alignment& want = hits[i].alignment;
      const WireHit& hit = ok->hits[i];
      EXPECT_EQ(hit.score, want.score) << what << " hit " << i;
      EXPECT_EQ(hit.q_begin, want.a_begin) << what << " hit " << i;
      EXPECT_EQ(hit.q_end, want.a_end) << what << " hit " << i;
      EXPECT_EQ(hit.s_begin, want.b_begin) << what << " hit " << i;
      EXPECT_EQ(hit.s_end, want.b_end) << what << " hit " << i;
      EXPECT_EQ(hit.cigar, score_only ? "" : want.cigar())
          << what << " hit " << i;
    }
  }
}

/// One seed's stream through one topology.
void fuzz_stream(const Served& served, std::uint64_t seed,
                 const std::string& topology) {
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 0x5E5Eu);
  Client client = served.connect();
  const std::string where = topology + " seed " + std::to_string(seed);
  Coverage coverage;
  fuzz_align(client, rng, 40, where, coverage);
  fuzz_align_ref(client, rng, 16, where, coverage);
  fuzz_search(client, rng, 16, where, coverage);
  EXPECT_GT(coverage.base_case_only, 0) << where;
  EXPECT_GT(coverage.fill_grid, 0) << where;
  EXPECT_GT(coverage.band_refused, 0) << where;
  EXPECT_GT(coverage.band_answered, 0) << where;
  EXPECT_GT(coverage.search_hits, 0) << where;
  EXPECT_GT(coverage.search_empty, 0) << where;
}

TEST(ServedFuzz, DaemonAnswersMatchTheOracles) {
  const Served served(1);
  for (std::uint64_t seed = 1; seed <= fuzz_seeds(); ++seed) {
    SCOPED_TRACE(seed);
    fuzz_stream(served, seed, "daemon");
  }
}

TEST(ServedFuzz, RouterFleetAnswersMatchTheOracles) {
  const Served served(2);
  for (std::uint64_t seed = 1; seed <= fuzz_seeds(); ++seed) {
    SCOPED_TRACE(seed);
    fuzz_stream(served, seed, "router");
  }
}

}  // namespace
}  // namespace service
}  // namespace flsa
