// Tests for the affine-gap (Gotoh) kernels and full-matrix baseline.
#include <gtest/gtest.h>

#include "dp/fullmatrix.hpp"
#include "dp/gotoh.hpp"
#include "dp/kernel.hpp"
#include "scoring/builtin.hpp"
#include "sequence/generate.hpp"

namespace flsa {
namespace {

ScoringScheme affine_dna() {
  static const SubstitutionMatrix m = scoring::dna(5, -4);
  return ScoringScheme(m, -8, -2);
}

TEST(Gotoh, BoundaryInitialization) {
  const ScoringScheme scheme = affine_dna();
  std::vector<AffineCell> row(4);
  init_global_boundary_affine(scheme, row, /*horizontal=*/true);
  EXPECT_EQ(row[0].d, 0);
  EXPECT_EQ(row[0].ix, kNegInf);
  EXPECT_EQ(row[0].iy, kNegInf);
  EXPECT_EQ(row[1].d, -10);  // open -8 + extend -2
  EXPECT_EQ(row[1].iy, -10);
  EXPECT_EQ(row[1].ix, kNegInf);
  EXPECT_EQ(row[3].d, -14);

  std::vector<AffineCell> col(3);
  init_global_boundary_affine(scheme, col, /*horizontal=*/false);
  EXPECT_EQ(col[2].ix, -12);
  EXPECT_EQ(col[2].iy, kNegInf);
}

TEST(Gotoh, SingleGapCostsOpenPlusExtend) {
  const ScoringScheme scheme = affine_dna();
  const Sequence a(Alphabet::dna(), "AC");
  const Sequence b(Alphabet::dna(), "A");
  // Best: align A/A (5), gap C (open -8 + extend -2) = -5.
  EXPECT_EQ(global_score_affine(a.residues(), b.residues(), scheme), -5);
}

TEST(Gotoh, LongGapPreferredOverTwoShortOnes) {
  // With a big open penalty, one long gap beats two short ones: align
  // ACGTACGT vs ACAC — one 4-gap costs open+4*ext; mismatch layouts cost
  // more. Just verify the affine score exceeds the linear-equivalent where
  // each gap residue pays open+ext.
  const SubstitutionMatrix m = scoring::dna(5, -4);
  const ScoringScheme affine(m, -8, -1);
  const ScoringScheme linear_equiv(m, -9);
  const Sequence a(Alphabet::dna(), "ACGTACGT");
  const Sequence b(Alphabet::dna(), "ACAC");
  const Score s_affine = global_score_affine(a.residues(), b.residues(),
                                             affine);
  const Score s_linear = global_score_linear(KernelKind::kScalar, a.residues(),
                                             b.residues(), linear_equiv);
  EXPECT_GT(s_affine, s_linear);
}

TEST(Gotoh, ZeroOpenReducesToLinear) {
  Xoshiro256 rng(41);
  const SubstitutionMatrix m = scoring::dna(3, -2);
  const ScoringScheme affine(m, 0, -4);
  const ScoringScheme linear(m, -4);
  for (int trial = 0; trial < 10; ++trial) {
    const Sequence a =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(30), rng);
    const Sequence b =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(30), rng);
    EXPECT_EQ(global_score_affine(a.residues(), b.residues(), affine),
              global_score_linear(KernelKind::kScalar, a.residues(),
                                  b.residues(), linear));
  }
}

TEST(Gotoh, FullMatrixAlignmentScoreMatchesScorePass) {
  Xoshiro256 rng(42);
  const ScoringScheme scheme = affine_dna();
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t m = 1 + rng.bounded(25);
    const std::size_t n = 1 + rng.bounded(25);
    const Sequence a = random_sequence(Alphabet::dna(), m, rng);
    const Sequence b = random_sequence(Alphabet::dna(), n, rng);
    const Alignment aln = full_matrix_align_affine(a, b, scheme);
    EXPECT_EQ(aln.score,
              global_score_affine(a.residues(), b.residues(), scheme));
    // Independent rescoring of the produced alignment.
    EXPECT_EQ(score_alignment(aln, scheme, Alphabet::dna()), aln.score);
  }
}

TEST(Gotoh, AffineScoreNeverExceedsLinearWithSamePerResidueCost) {
  // A linear scheme with gap = open + extend dominates: every affine gap
  // run of length L costs open + L*ext >= L*(open+ext) is false in
  // general, but for L = 1 they agree and for L > 1 affine is cheaper, so
  // affine score >= the linear score with per-residue (open + extend).
  Xoshiro256 rng(43);
  const SubstitutionMatrix m = scoring::dna(5, -4);
  const ScoringScheme affine(m, -6, -2);
  const ScoringScheme linear(m, -8);
  for (int trial = 0; trial < 10; ++trial) {
    const Sequence a =
        random_sequence(Alphabet::dna(), 5 + rng.bounded(40), rng);
    const Sequence b =
        random_sequence(Alphabet::dna(), 5 + rng.bounded(40), rng);
    EXPECT_GE(global_score_affine(a.residues(), b.residues(), affine),
              global_score_linear(KernelKind::kScalar, a.residues(),
                                  b.residues(), linear));
  }
}

TEST(Gotoh, SweepBottomRowMatchesFullMatrix) {
  Xoshiro256 rng(44);
  const ScoringScheme scheme = affine_dna();
  const Sequence a = random_sequence(Alphabet::dna(), 18, rng);
  const Sequence b = random_sequence(Alphabet::dna(), 27, rng);
  std::vector<AffineCell> top(b.size() + 1), left(a.size() + 1);
  init_global_boundary_affine(scheme, top, true);
  init_global_boundary_affine(scheme, left, false);

  std::vector<AffineCell> bottom(b.size() + 1), right(a.size() + 1);
  sweep_rectangle_affine(KernelKind::kScalar, a.residues(), b.residues(),
                         scheme, top, left, bottom, right);
  Matrix2D<AffineCell> dpm;
  fill_full_matrix_affine(a.residues(), b.residues(), scheme, top, left,
                          dpm);
  for (std::size_t c = 0; c <= b.size(); ++c) {
    EXPECT_EQ(bottom[c], dpm(a.size(), c));
  }
  for (std::size_t r = 0; r <= a.size(); ++r) {
    EXPECT_EQ(right[r], dpm(r, b.size()));
  }
}

TEST(Gotoh, CompositionAcrossCachedRowMatchesWholeSweep) {
  Xoshiro256 rng(45);
  const ScoringScheme scheme = affine_dna();
  const Sequence a = random_sequence(Alphabet::dna(), 20, rng);
  const Sequence b = random_sequence(Alphabet::dna(), 15, rng);

  std::vector<AffineCell> whole(b.size() + 1), left(a.size() + 1);
  init_global_boundary_affine(scheme, whole, true);
  init_global_boundary_affine(scheme, left, false);
  sweep_rectangle_affine(KernelKind::kScalar, a.residues(), b.residues(),
                         scheme, whole, left, whole, {});

  const std::size_t mid = 8;
  std::vector<AffineCell> row(b.size() + 1);
  init_global_boundary_affine(scheme, row, true);
  std::vector<AffineCell> left_top(left.begin(), left.begin() + mid + 1);
  sweep_rectangle_affine(KernelKind::kScalar, a.residues().subspan(0, mid),
                         b.residues(), scheme, row, left_top, row, {});
  std::vector<AffineCell> left_bottom(left.begin() + mid, left.end());
  sweep_rectangle_affine(KernelKind::kScalar, a.residues().subspan(mid),
                         b.residues(), scheme, row, left_bottom, row, {});
  for (std::size_t c = 0; c <= b.size(); ++c) {
    EXPECT_EQ(row[c], whole[c]) << "column " << c;
  }
}

TEST(Gotoh, RegionFillMatchesWholeFill) {
  Xoshiro256 rng(46);
  const ScoringScheme scheme = affine_dna();
  const Sequence a = random_sequence(Alphabet::dna(), 10, rng);
  const Sequence b = random_sequence(Alphabet::dna(), 13, rng);
  std::vector<AffineCell> top(b.size() + 1), left(a.size() + 1);
  init_global_boundary_affine(scheme, top, true);
  init_global_boundary_affine(scheme, left, false);

  Matrix2D<AffineCell> whole;
  fill_full_matrix_affine(a.residues(), b.residues(), scheme, top, left,
                          whole);

  Matrix2D<AffineCell> tiled(a.size() + 1, b.size() + 1);
  std::copy(top.begin(), top.end(), tiled.row(0));
  for (std::size_t r = 0; r <= a.size(); ++r) tiled(r, 0) = left[r];
  fill_matrix_region_affine(a.residues(), b.residues(), scheme, tiled, 1, 1,
                            4, b.size());
  fill_matrix_region_affine(a.residues(), b.residues(), scheme, tiled, 5, 1,
                            a.size() - 4, b.size());
  for (std::size_t r = 0; r <= a.size(); ++r) {
    for (std::size_t c = 0; c <= b.size(); ++c) {
      EXPECT_EQ(tiled(r, c), whole(r, c));
    }
  }
}

TEST(Gotoh, CountersTrackWork) {
  Xoshiro256 rng(47);
  const ScoringScheme scheme = affine_dna();
  const Sequence a = random_sequence(Alphabet::dna(), 7, rng);
  const Sequence b = random_sequence(Alphabet::dna(), 9, rng);
  DpCounters counters;
  global_score_affine(a.residues(), b.residues(), scheme, &counters);
  EXPECT_EQ(counters.cells_scored, 63u);
  counters = {};
  full_matrix_align_affine(a, b, scheme, &counters);
  EXPECT_EQ(counters.cells_stored, 63u);
  EXPECT_GT(counters.traceback_steps, 0u);
}

// Parameterized sweep over affine penalty combinations: the full-matrix
// alignment rescoring must match the score pass for every combination.
class AffinePenaltySweep
    : public ::testing::TestWithParam<std::pair<Score, Score>> {};

TEST_P(AffinePenaltySweep, AlignmentMatchesScorePass) {
  const auto [open, extend] = GetParam();
  const SubstitutionMatrix m = scoring::dna(4, -3);
  const ScoringScheme scheme(m, open, extend);
  Xoshiro256 rng(static_cast<std::uint64_t>(-open) * 100 +
                 static_cast<std::uint64_t>(-extend));
  for (int trial = 0; trial < 8; ++trial) {
    const Sequence a =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(30), rng);
    const Sequence b =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(30), rng);
    const Alignment aln = full_matrix_align_affine(a, b, scheme);
    EXPECT_EQ(aln.score,
              global_score_affine(a.residues(), b.residues(), scheme));
    EXPECT_EQ(score_alignment(aln, scheme, Alphabet::dna()), aln.score);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Penalties, AffinePenaltySweep,
    ::testing::Values(std::pair<Score, Score>{0, -1},
                      std::pair<Score, Score>{-1, -1},
                      std::pair<Score, Score>{-5, -1},
                      std::pair<Score, Score>{-10, -1},
                      std::pair<Score, Score>{-10, -5},
                      std::pair<Score, Score>{-20, -2},
                      std::pair<Score, Score>{0, 0},
                      std::pair<Score, Score>{-3, 0}));

}  // namespace
}  // namespace flsa
