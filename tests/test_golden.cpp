// Golden regression tests: exact scores, cell counts and shape statistics
// for fixed seeds. Any algorithmic drift — a changed tie-break, an
// off-by-one in grid geometry, a different recursion shape — trips these
// even when all the cross-checks still agree with each other.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "benchlib/workloads.hpp"
#include "flsa/flsa.hpp"
#include "support/fnv.hpp"

namespace flsa {
namespace {

TEST(Golden, Prot500WorkloadIsStable) {
  const SequencePair pair = bench::sized_workload(500).make();
  ASSERT_EQ(pair.a.size(), 500u);
  ASSERT_EQ(pair.b.size(), 493u);
  // First residues of the parent are frozen by the PRNG contract.
  EXPECT_EQ(pair.a.to_string().substr(0, 10), "PPFWVYIIIY");
  EXPECT_EQ(full_matrix_score(pair.a, pair.b,
                              ScoringScheme::paper_default()),
            7534);
}

TEST(Golden, FastLsaShapeStatsStable) {
  const SequencePair pair = bench::sized_workload(500).make();
  FastLsaOptions options;
  options.k = 4;
  options.base_case_cells = 1024;
  FastLsaStats stats;
  const Alignment aln = fastlsa_align(pair.a, pair.b,
                                      ScoringScheme::paper_default(),
                                      options, &stats);
  EXPECT_EQ(aln.score, 7534);
  // Exact work/shape fingerprint of the recursion for this input.
  EXPECT_EQ(stats.counters.cells_scored, 288566u);
  EXPECT_EQ(stats.counters.cells_stored, 15334u);
  EXPECT_EQ(stats.counters.total_cells(), 303900u);
  EXPECT_EQ(stats.base_case_invocations, 32u);
  EXPECT_EQ(stats.recursive_splits, 6u);
  EXPECT_EQ(stats.max_recursion_depth, 3u);
}

TEST(Golden, HirschbergCellCountStable) {
  const SequencePair pair = bench::sized_workload(500).make();
  DpCounters counters;
  HirschbergOptions options;
  options.base_case_cells = 256;
  hirschberg_align(pair.a, pair.b, ScoringScheme::paper_default(), options,
                   &counters);
  EXPECT_EQ(counters.total_cells(), 485741u);
}

TEST(Golden, AffineScoreStable) {
  const SequencePair pair = bench::sized_workload(500).make();
  const ScoringScheme scheme(scoring::mdm78(), -12, -2);
  EXPECT_EQ(global_score_affine(pair.a.residues(), pair.b.residues(),
                                scheme),
            7562);
}

// The paper's Figure 1 worked example (MDM78, optimal score 82) on EVERY
// registered kernel tier — including the saturating narrow tier — on the
// sequential and the parallel engine. The registry loop means a newly
// added tier is golden-tested automatically.
TEST(Golden, PaperWorkedExampleOnEveryKernelTier) {
  const Sequence a(Alphabet::protein(), "TLDKLLKD");
  const Sequence b(Alphabet::protein(), "TDVLKAD");
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  const Alignment fm = full_matrix_align(a, b, scheme);
  ASSERT_EQ(fm.score, 82);

  for (const KernelInfo& info : kernel_registry()) {
    const KernelKind kind = info.kind;
    EXPECT_EQ(global_score_linear(kind, a.residues(), b.residues(), scheme),
              82)
        << info.name;

    HirschbergOptions hopts;
    hopts.base_case_cells = 2;
    hopts.kernel = kind;
    EXPECT_EQ(hirschberg_align(a, b, scheme, hopts).score, 82) << info.name;

    FastLsaOptions fopts;
    fopts.k = 2;
    fopts.base_case_cells = 16;
    fopts.kernel = kind;
    const Alignment fl = fastlsa_align(a, b, scheme, fopts);
    EXPECT_EQ(fl.score, 82) << info.name;
    EXPECT_EQ(fl.gapped_a, fm.gapped_a) << info.name;
    EXPECT_EQ(fl.gapped_b, fm.gapped_b) << info.name;

    ParallelOptions popts;
    popts.threads = 2;
    const Alignment par = parallel_fastlsa_align(a, b, scheme, fopts, popts);
    EXPECT_EQ(par.score, 82) << "parallel/" << info.name;
    EXPECT_EQ(par.gapped_a, fm.gapped_a) << "parallel/" << info.name;
  }
}

TEST(Golden, VirtualTimeFingerprintStable) {
  const SequencePair pair = bench::sized_workload(500).make();
  FastLsaOptions options;
  options.k = 8;
  options.base_case_cells = 1024;
  const SimulatedRun run =
      record_fastlsa(pair.a, pair.b, ScoringScheme::paper_default(),
                     options, 8, 1, 1, 1);
  EXPECT_EQ(run.trace.total_cells(), 276345u);
  EXPECT_EQ(run.trace.grids.size(), 130u);
}

// FNV-1a over a value's bytes, chained into a running digest.
template <typename T>
std::uint64_t fold(std::uint64_t state, const T& value) {
  return fnv1a64(&value, sizeof(value), state);
}

std::uint64_t fold_text(std::uint64_t state, const std::string& text) {
  state = fold(state, text.size());
  return fnv1a64(text.data(), text.size(), state);
}

// Pins every chained_search hit (score, extents, CIGAR) of a fixed-seed
// read set: substitution/indel-mutated reads of a random reference, some
// with unrelated overhangs so the flank extensions stop by X-drop, some
// reverse-ordered so the left flank runs long. The same digest must come
// out of a byte-backed and a 2-bit-packed view of the reference.
TEST(Golden, ChainedSearchHitsDigestStable) {
  Xoshiro256 rng(2501);
  const Sequence reference =
      random_sequence(Alphabet::dna(), 60000, rng, "reference");
  std::vector<Sequence> reads;
  for (std::size_t r = 0; r < 40; ++r) {
    MutationModel model;
    model.substitution_rate = 0.03 + 0.01 * static_cast<double>(r % 5);
    model.insertion_rate = 0.002 * static_cast<double>(r % 4);
    model.deletion_rate = 0.002 * static_cast<double>((r + 1) % 4);
    const std::size_t length = 200 + rng.bounded(500);
    const std::size_t offset = rng.bounded(reference.size() - length);
    std::string read =
        mutate(reference.subsequence(offset, length), model, rng).to_string();
    if (r % 3 == 0) {
      read = random_sequence(Alphabet::dna(), 1 + rng.bounded(120), rng)
                 .to_string() +
             read;
    }
    if (r % 4 == 1) {
      read += random_sequence(Alphabet::dna(), 1 + rng.bounded(120), rng)
                  .to_string();
    }
    reads.emplace_back(Alphabet::dna(), read);
  }

  const SubstitutionMatrix matrix = scoring::dna(5, -4);
  const ScoringScheme scheme(matrix, -6);
  const auto digest = [&](const search::ReferenceIndex& index,
                          std::size_t* hit_count) {
    std::uint64_t state = kFnvOffsetBasis;
    *hit_count = 0;
    for (const Sequence& read : reads) {
      const auto hits = search::chained_search(read, index, scheme);
      state = fold(state, hits.size());
      *hit_count += hits.size();
      for (const search::SearchHit& hit : hits) {
        const Alignment& aln = hit.alignment;
        state = fold(state, aln.score);
        state = fold(state, aln.a_begin);
        state = fold(state, aln.a_end);
        state = fold(state, aln.b_begin);
        state = fold(state, aln.b_end);
        state = fold_text(state, aln.cigar());
      }
    }
    return state;
  };

  std::size_t hits = 0;
  const search::ReferenceIndex byte_index(reference, 12);
  EXPECT_EQ(digest(byte_index, &hits), 0xe6be4327b39b561eull);
  EXPECT_EQ(hits, 91u);

  auto packed = std::make_shared<std::vector<std::uint8_t>>(
      (reference.size() + 3) / 4, std::uint8_t{0});
  for (std::size_t i = 0; i < reference.size(); ++i) {
    (*packed)[i / 4] = static_cast<std::uint8_t>(
        (*packed)[i / 4] | static_cast<unsigned>(reference[i]) << (i % 4 * 2));
  }
  const SequenceView packed_view(packed, packed->data(), reference.size(),
                                 Packing::kTwoBit, Alphabet::dna());
  const search::ReferenceIndex packed_index(packed_view, 12);
  EXPECT_EQ(digest(packed_index, &hits), 0xe6be4327b39b561eull);
  EXPECT_EQ(hits, 91u);
}

// Pins banded_align's score, path and stored-cell count over fixed pairs
// x band half-widths, with the length difference on either side of the
// diagonal (|a| - |b| within the band).
TEST(Golden, BandedAlignPathsDigestStable) {
  Xoshiro256 rng(2502);
  const SubstitutionMatrix matrix = scoring::dna(5, -4);
  const ScoringScheme dna(matrix, -6);
  const ScoringScheme& protein = ScoringScheme::paper_default();
  std::uint64_t state = kFnvOffsetBasis;
  std::uint64_t cells = 0;
  std::size_t runs = 0;
  for (std::size_t trial = 0; trial < 24; ++trial) {
    const bool is_dna = trial % 2 == 0;
    const Alphabet& alphabet = is_dna ? Alphabet::dna() : Alphabet::protein();
    MutationModel model;
    model.substitution_rate = 0.1;
    model.insertion_rate = trial % 3 == 0 ? 0.08 : 0.02;
    model.deletion_rate = trial % 3 == 1 ? 0.08 : 0.02;
    const Sequence a = random_sequence(alphabet, 20 + rng.bounded(150), rng);
    const Sequence b = mutate(a, model, rng);
    for (const std::size_t w : {1u, 2u, 3u, 5u, 8u, 13u, 40u, 200u}) {
      for (const bool swap : {false, true}) {
        const Sequence& x = swap ? b : a;
        const Sequence& y = swap ? a : b;
        if (x.size() > y.size() + w) continue;
        DpCounters counters;
        const Alignment aln =
            banded_align(x, y, is_dna ? dna : protein, w, &counters);
        state = fold(state, aln.score);
        state = fold_text(state, aln.gapped_a);
        state = fold_text(state, aln.gapped_b);
        state = fold(state, counters.cells_stored);
        cells += counters.cells_stored;
        ++runs;
      }
    }
  }
  EXPECT_EQ(runs, 302u);
  EXPECT_EQ(cells, 1275272u);
  EXPECT_EQ(state, 0x1e9d4e3940f90818ull);
}

}  // namespace
}  // namespace flsa
