// Tests for fitting and overlap alignment: full-matrix reference vs
// brute-force window enumeration, and linear-space (FastLSA) vs
// full-matrix.
#include <gtest/gtest.h>

#include "core/semiglobal.hpp"
#include "dp/fullmatrix.hpp"
#include "dp/gotoh.hpp"
#include "dp/semiglobal.hpp"
#include "scoring/builtin.hpp"
#include "sequence/generate.hpp"

namespace flsa {
namespace {

ScoringScheme scheme() {
  static const SubstitutionMatrix m = scoring::dna(5, -4);
  return ScoringScheme(m, -6);
}

/// Brute force: fitting score = max over all windows b[js..je) of the
/// global alignment score of a x window.
Score brute_force_fitting(const Sequence& a, const Sequence& b) {
  Score best = kNegInf;
  for (std::size_t js = 0; js <= b.size(); ++js) {
    for (std::size_t je = js; je <= b.size(); ++je) {
      const Sequence window = b.subsequence(js, je - js);
      best = std::max(best, full_matrix_score(a, window, scheme()));
    }
  }
  return best;
}

/// Brute force: overlap score = max over suffix of a x prefix of b.
Score brute_force_overlap(const Sequence& a, const Sequence& b) {
  Score best = kNegInf;
  for (std::size_t is = 0; is <= a.size(); ++is) {
    const Sequence suffix = a.subsequence(is, a.size() - is);
    for (std::size_t je = 0; je <= b.size(); ++je) {
      const Sequence prefix = b.subsequence(0, je);
      best = std::max(best, full_matrix_score(suffix, prefix, scheme()));
    }
  }
  return best;
}

TEST(Fitting, MatchesBruteForceOnSmallPairs) {
  Xoshiro256 rng(171);
  for (int trial = 0; trial < 12; ++trial) {
    const Sequence a =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(8), rng);
    const Sequence b =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(12), rng);
    const Alignment aln = fitting_align_full_matrix(a, b, scheme());
    EXPECT_EQ(aln.score, brute_force_fitting(a, b))
        << a.to_string() << " / " << b.to_string();
  }
}

TEST(Overlap, MatchesBruteForceOnSmallPairs) {
  Xoshiro256 rng(172);
  for (int trial = 0; trial < 12; ++trial) {
    const Sequence a =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(10), rng);
    const Sequence b =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(10), rng);
    const Alignment aln = overlap_align_full_matrix(a, b, scheme());
    EXPECT_EQ(aln.score, brute_force_overlap(a, b))
        << a.to_string() << " / " << b.to_string();
  }
}

TEST(Fitting, FindsPlantedQueryExactly) {
  Xoshiro256 rng(173);
  const Sequence query = random_sequence(Alphabet::dna(), 30, rng);
  const Sequence left = random_sequence(Alphabet::dna(), 50, rng);
  const Sequence right = random_sequence(Alphabet::dna(), 40, rng);
  const Sequence host(Alphabet::dna(), left.to_string() +
                                           query.to_string() +
                                           right.to_string());
  const Alignment aln = fitting_align_full_matrix(query, host, scheme());
  EXPECT_EQ(aln.score, 30 * 5);
  EXPECT_EQ(aln.b_begin, 50u);
  EXPECT_EQ(aln.b_end, 80u);
  EXPECT_EQ(aln.a_begin, 0u);
  EXPECT_EQ(aln.a_end, 30u);
}

TEST(Overlap, FindsPlantedDovetail) {
  Xoshiro256 rng(174);
  const Sequence shared = random_sequence(Alphabet::dna(), 25, rng);
  const Sequence a(Alphabet::dna(),
                   random_sequence(Alphabet::dna(), 40, rng).to_string() +
                       shared.to_string());
  const Sequence b(Alphabet::dna(),
                   shared.to_string() +
                       random_sequence(Alphabet::dna(), 35, rng).to_string());
  const Alignment aln = overlap_align_full_matrix(a, b, scheme());
  EXPECT_GE(aln.score, 25 * 5 - 8);  // the planted overlap, maybe extended
  EXPECT_EQ(aln.a_end, a.size());
  EXPECT_EQ(aln.b_begin, 0u);
}

TEST(Fitting, LinearSpaceMatchesFullMatrix) {
  Xoshiro256 rng(175);
  for (int trial = 0; trial < 15; ++trial) {
    const Sequence a =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(40), rng);
    const Sequence b =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(80), rng);
    const Alignment fm = fitting_align_full_matrix(a, b, scheme());
    FastLsaOptions options;
    options.k = 3;
    options.base_case_cells = 64;
    const Alignment ls = fitting_align(a, b, scheme(), options);
    EXPECT_EQ(ls.score, fm.score);
    // The matched windows agree (deterministic tie-breaking end to end).
    EXPECT_EQ(ls.b_end, fm.b_end);
  }
}

TEST(Overlap, LinearSpaceMatchesFullMatrix) {
  Xoshiro256 rng(176);
  for (int trial = 0; trial < 15; ++trial) {
    const Sequence a =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(60), rng);
    const Sequence b =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(60), rng);
    const Alignment fm = overlap_align_full_matrix(a, b, scheme());
    const Alignment ls = overlap_align(a, b, scheme());
    EXPECT_EQ(ls.score, fm.score);
  }
}

TEST(Fitting, GappedRowsConsumeExactRegions) {
  Xoshiro256 rng(177);
  MutationModel model;
  const Sequence query = random_sequence(Alphabet::dna(), 60, rng);
  const Sequence mutated = mutate(query, model, rng);
  const Sequence host(Alphabet::dna(),
                      random_sequence(Alphabet::dna(), 100, rng).to_string() +
                          mutated.to_string() +
                          random_sequence(Alphabet::dna(), 90, rng)
                              .to_string());
  const Alignment aln = fitting_align(query, host, scheme());
  std::size_t a_res = 0, b_res = 0;
  for (char c : aln.gapped_a) a_res += (c != '-');
  for (char c : aln.gapped_b) b_res += (c != '-');
  EXPECT_EQ(a_res, query.size());
  EXPECT_EQ(b_res, aln.b_end - aln.b_begin);
  // The window sits near the planted location.
  EXPECT_GE(aln.b_begin + 10, 100u);
  EXPECT_LE(aln.b_end, 100u + mutated.size() + 10);
}

TEST(Semiglobal, ScoresAtLeastGlobal) {
  // Freeing end gaps can only help.
  Xoshiro256 rng(178);
  for (int trial = 0; trial < 10; ++trial) {
    const Sequence a =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(40), rng);
    const Sequence b =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(40), rng);
    const Score global = full_matrix_score(a, b, scheme());
    EXPECT_GE(fitting_align_full_matrix(a, b, scheme()).score, global);
    EXPECT_GE(overlap_align_full_matrix(a, b, scheme()).score, global);
  }
}

TEST(Semiglobal, EmptyInputs) {
  const Sequence empty(Alphabet::dna(), "");
  const Sequence acg(Alphabet::dna(), "ACG");
  // Empty query fits trivially anywhere with score 0.
  EXPECT_EQ(fitting_align_full_matrix(empty, acg, scheme()).score, 0);
  EXPECT_EQ(fitting_align(empty, acg, scheme()).score, 0);
  // Empty overlap is always available.
  EXPECT_EQ(overlap_align_full_matrix(acg, empty, scheme()).score, 0);
  EXPECT_EQ(overlap_align(acg, empty, scheme()).score, 0);
  EXPECT_EQ(overlap_align_full_matrix(empty, acg, scheme()).score, 0);
}

TEST(Semiglobal, RejectsAffine) {
  const SubstitutionMatrix m = scoring::dna();
  const ScoringScheme affine(m, -5, -1);
  const Sequence a(Alphabet::dna(), "ACG");
  EXPECT_THROW(fitting_align(a, a, affine), std::invalid_argument);
  EXPECT_THROW(overlap_align(a, a, affine), std::invalid_argument);
}

}  // namespace
}  // namespace flsa
