// Tests for the full-matrix (Needleman-Wunsch) baseline: the paper's FM
// algorithm, including its worked example (Figure 1).
#include <gtest/gtest.h>

#include "dp/fullmatrix.hpp"
#include "dp/kernel.hpp"
#include "scoring/builtin.hpp"
#include "sequence/generate.hpp"

namespace flsa {
namespace {

TEST(FullMatrix, PaperExampleAlignment) {
  const Sequence a(Alphabet::protein(), "TLDKLLKD");
  const Sequence b(Alphabet::protein(), "TDVLKAD");
  const Alignment aln =
      full_matrix_align(a, b, ScoringScheme::paper_default());
  EXPECT_EQ(aln.score, 82);
  // The paper lists two co-optimal alignments; the deterministic
  // diag-first traceback yields one of them.
  const bool first = aln.gapped_a == "TLDKLLK-D" &&
                     aln.gapped_b == "T-DVL-KAD";
  const bool second = aln.gapped_a == "TLDKLLK-D" &&
                      aln.gapped_b == "T-D-VLKAD";
  EXPECT_TRUE(first || second)
      << aln.gapped_a << " / " << aln.gapped_b;
  // Independent re-scoring agrees.
  EXPECT_EQ(score_alignment(aln, ScoringScheme::paper_default(),
                            Alphabet::protein()),
            82);
}

TEST(FullMatrix, Figure1DpmEntriesOnTheOptimalPath) {
  // Spot-check DPM values printed in the paper's Figure 1 (rows TLDKLLKD,
  // columns TDVLKAD); the subscripted entries form the optimal path
  // 0 -> 20 -> 10 -> 30 -> 20 -> 32 -> 52 -> 72 -> 62 -> 82.
  const Sequence a(Alphabet::protein(), "TLDKLLKD");  // rows
  const Sequence b(Alphabet::protein(), "TDVLKAD");   // columns
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  std::vector<Score> top(b.size() + 1), left(a.size() + 1);
  init_global_boundary_linear(scheme, top);
  init_global_boundary_linear(scheme, left);
  Matrix2D<Score> dpm;
  fill_full_matrix_linear(a.residues(), b.residues(), scheme, top, left,
                          dpm);
  EXPECT_EQ(dpm(0, 0), 0);
  EXPECT_EQ(dpm(1, 1), 20);  // [T,T], subscript 9 in the figure
  EXPECT_EQ(dpm(2, 1), 10);  // [T,L], subscript 8
  EXPECT_EQ(dpm(3, 2), 30);  // [D,D], subscript 7
  EXPECT_EQ(dpm(4, 2), 20);  // [D,K], subscript 6
  EXPECT_EQ(dpm(5, 3), 32);  // [V,L], subscript 5
  EXPECT_EQ(dpm(5, 4), 50);  // [L,L] neighbour value from the figure
  EXPECT_EQ(dpm(6, 4), 52);  // [L,L], subscript 4
  EXPECT_EQ(dpm(7, 5), 72);  // [K,K], subscript 3
  EXPECT_EQ(dpm(7, 6), 62);  // [A,K], subscript 2
  EXPECT_EQ(dpm(8, 6), 72);  // [A,D] marked entry
  EXPECT_EQ(dpm(8, 7), 82);  // corner, subscript 1: the optimal score
}

TEST(FullMatrix, EmptyAndDegenerateInputs) {
  const SubstitutionMatrix m = scoring::dna(1, -1);
  const ScoringScheme scheme(m, -2);
  const Sequence empty(Alphabet::dna(), "");
  const Sequence acg(Alphabet::dna(), "ACG");

  Alignment aln = full_matrix_align(empty, empty, scheme);
  EXPECT_EQ(aln.score, 0);
  EXPECT_EQ(aln.length(), 0u);

  aln = full_matrix_align(acg, empty, scheme);
  EXPECT_EQ(aln.score, -6);
  EXPECT_EQ(aln.gapped_a, "ACG");
  EXPECT_EQ(aln.gapped_b, "---");

  aln = full_matrix_align(empty, acg, scheme);
  EXPECT_EQ(aln.score, -6);
  EXPECT_EQ(aln.gapped_a, "---");
  EXPECT_EQ(aln.gapped_b, "ACG");
}

TEST(FullMatrix, IdenticalSequencesAlignPerfectly) {
  Xoshiro256 rng(21);
  const Sequence s = random_sequence(Alphabet::protein(), 64, rng);
  const Alignment aln =
      full_matrix_align(s, s, ScoringScheme::paper_default());
  EXPECT_EQ(aln.gapped_a, aln.gapped_b);
  EXPECT_EQ(aln.gap_count(), 0u);
  EXPECT_DOUBLE_EQ(aln.identity(), 1.0);
}

TEST(FullMatrix, TracebackPrefersDiagonalOnTies) {
  // With identity scoring 0/0 and gap 0 every path is optimal; the
  // deterministic tie-break must pick all-diagonal.
  const SubstitutionMatrix m = scoring::identity(Alphabet::dna(), 0, 0);
  const ScoringScheme scheme(m, 0);
  const Sequence a(Alphabet::dna(), "ACGT");
  const Sequence b(Alphabet::dna(), "TGCA");
  const Alignment aln = full_matrix_align(a, b, scheme);
  EXPECT_EQ(aln.gapped_a, "ACGT");
  EXPECT_EQ(aln.gapped_b, "TGCA");
}

TEST(FullMatrix, AlignmentScoreAlwaysMatchesScoreOnlyPass) {
  Xoshiro256 rng(22);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 1 + rng.bounded(40);
    const std::size_t n = 1 + rng.bounded(40);
    const Sequence a = random_sequence(Alphabet::protein(), m, rng);
    const Sequence b = random_sequence(Alphabet::protein(), n, rng);
    const ScoringScheme& scheme = ScoringScheme::paper_default();
    const Alignment aln = full_matrix_align(a, b, scheme);
    EXPECT_EQ(aln.score,
              global_score_linear(KernelKind::kScalar, a.residues(),
                                  b.residues(), scheme));
    EXPECT_EQ(score_alignment(aln, scheme, Alphabet::protein()), aln.score);
  }
}

TEST(FullMatrix, HomologousPairsScoreAboveRandom) {
  Xoshiro256 rng(23);
  MutationModel model;
  model.substitution_rate = 0.1;
  const SequencePair pair =
      homologous_pair(Alphabet::protein(), 120, model, rng);
  const Sequence random_b =
      random_sequence(Alphabet::protein(), pair.b.size(), rng);
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  const Score related = full_matrix_score(pair.a, pair.b, scheme);
  const Score unrelated = full_matrix_score(pair.a, random_b, scheme);
  EXPECT_GT(related, unrelated);
}

TEST(FullMatrix, RegionFillMatchesWholeFill) {
  Xoshiro256 rng(24);
  const Sequence a = random_sequence(Alphabet::dna(), 12, rng);
  const Sequence b = random_sequence(Alphabet::dna(), 9, rng);
  const SubstitutionMatrix m = scoring::dna(2, -1);
  const ScoringScheme scheme(m, -2);
  std::vector<Score> top(b.size() + 1), left(a.size() + 1);
  init_global_boundary_linear(scheme, top);
  init_global_boundary_linear(scheme, left);

  Matrix2D<Score> whole;
  fill_full_matrix_linear(a.residues(), b.residues(), scheme, top, left,
                          whole);

  // Fill the same matrix in four quadrant regions (wavefront order).
  Matrix2D<Score> tiled(a.size() + 1, b.size() + 1);
  std::copy(top.begin(), top.end(), tiled.row(0));
  for (std::size_t r = 0; r <= a.size(); ++r) tiled(r, 0) = left[r];
  const std::size_t rm = 5, cm = 4;
  fill_matrix_region_linear(a.residues(), b.residues(), scheme, tiled, 1, 1,
                            rm, cm);
  fill_matrix_region_linear(a.residues(), b.residues(), scheme, tiled, 1,
                            cm + 1, rm, b.size() - cm);
  fill_matrix_region_linear(a.residues(), b.residues(), scheme, tiled,
                            rm + 1, 1, a.size() - rm, cm);
  fill_matrix_region_linear(a.residues(), b.residues(), scheme, tiled,
                            rm + 1, cm + 1, a.size() - rm, b.size() - cm);
  for (std::size_t r = 0; r <= a.size(); ++r) {
    for (std::size_t c = 0; c <= b.size(); ++c) {
      EXPECT_EQ(tiled(r, c), whole(r, c)) << r << "," << c;
    }
  }
}

TEST(FullMatrix, ExtendPathToOriginAddsLeadingGaps) {
  Path p(Cell{3, 2});
  p.push_traceback(Move::kDiag);
  p.push_traceback(Move::kDiag);  // front now (1, 0)
  extend_path_to_origin(p);
  EXPECT_TRUE(p.reaches_origin());
  EXPECT_EQ(p.to_string(), "UDD");
}

// Property sweep over gap penalties: optimal score must be monotone
// non-increasing as the gap penalty deepens.
class GapPenaltySweep : public ::testing::TestWithParam<Score> {};

TEST_P(GapPenaltySweep, ScoreMonotoneInGapPenalty) {
  const Score gap = GetParam();
  Xoshiro256 rng(31);
  const Sequence a = random_sequence(Alphabet::protein(), 50, rng);
  const Sequence b = random_sequence(Alphabet::protein(), 45, rng);
  const ScoringScheme scheme(scoring::mdm78(), gap);
  const ScoringScheme deeper(scoring::mdm78(), gap - 5);
  EXPECT_GE(full_matrix_score(a, b, scheme),
            full_matrix_score(a, b, deeper));
}

INSTANTIATE_TEST_SUITE_P(Gaps, GapPenaltySweep,
                         ::testing::Values(0, -2, -5, -10, -20, -40));

}  // namespace
}  // namespace flsa
