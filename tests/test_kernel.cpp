// Tests for the boundary-cache DP sweep kernel, the shared FindScore
// primitive of Hirschberg and FastLSA.
#include <gtest/gtest.h>

#include "dp/fullmatrix.hpp"
#include "dp/kernel.hpp"
#include "dp/matrix.hpp"
#include "scoring/builtin.hpp"
#include "sequence/generate.hpp"

namespace flsa {
namespace {

ScoringScheme dna_scheme() {
  static const SubstitutionMatrix m = scoring::dna(5, -4);
  return ScoringScheme(m, -6);
}

TEST(Kernel, GlobalBoundaryIsGapRamp) {
  const ScoringScheme scheme = dna_scheme();
  std::vector<Score> boundary(5);
  init_global_boundary_linear(scheme, boundary);
  EXPECT_EQ(boundary, (std::vector<Score>{0, -6, -12, -18, -24}));
}

TEST(Kernel, PaperExampleScore) {
  // DPM of the paper's Figure 1: optimal score 82 at the corner.
  const Sequence a(Alphabet::protein(), "TLDKLLKD");
  const Sequence b(Alphabet::protein(), "TDVLKAD");
  EXPECT_EQ(global_score_linear(KernelKind::kScalar, a.residues(), b.residues(),
                                ScoringScheme::paper_default()),
            82);
}

TEST(Kernel, PaperExampleIsSymmetric) {
  const Sequence a(Alphabet::protein(), "TLDKLLKD");
  const Sequence b(Alphabet::protein(), "TDVLKAD");
  EXPECT_EQ(global_score_linear(KernelKind::kScalar, b.residues(), a.residues(),
                                ScoringScheme::paper_default()),
            82);
}

TEST(Kernel, EmptySequences) {
  const ScoringScheme scheme = dna_scheme();
  const Sequence empty(Alphabet::dna(), "");
  const Sequence acgt(Alphabet::dna(), "ACGT");
  EXPECT_EQ(global_score_linear(KernelKind::kScalar, empty.residues(),
                                empty.residues(), scheme),
            0);
  // Aligning against empty = all gaps.
  EXPECT_EQ(global_score_linear(KernelKind::kScalar, acgt.residues(),
                                empty.residues(), scheme),
            -24);
  EXPECT_EQ(global_score_linear(KernelKind::kScalar, empty.residues(),
                                acgt.residues(), scheme),
            -24);
}

TEST(Kernel, SingleResiduePairs) {
  const ScoringScheme scheme = dna_scheme();
  const Sequence a(Alphabet::dna(), "A");
  const Sequence c(Alphabet::dna(), "C");
  EXPECT_EQ(global_score_linear(KernelKind::kScalar, a.residues(), a.residues(),
                                scheme), 5);
  // max(mismatch -4, two gaps -12) = -4.
  EXPECT_EQ(global_score_linear(KernelKind::kScalar, a.residues(), c.residues(),
                                scheme), -4);
}

TEST(Kernel, LastRowMatchesFullMatrixRow) {
  Xoshiro256 rng(11);
  const Sequence a = random_sequence(Alphabet::dna(), 37, rng);
  const Sequence b = random_sequence(Alphabet::dna(), 53, rng);
  const ScoringScheme scheme = dna_scheme();

  const std::vector<Score> last = last_row_linear(KernelKind::kScalar,
                                                  a.residues(), b.residues(),
                                                  scheme);

  std::vector<Score> top(b.size() + 1), left(a.size() + 1);
  init_global_boundary_linear(scheme, top);
  init_global_boundary_linear(scheme, left);
  Matrix2D<Score> dpm;
  fill_full_matrix_linear(a.residues(), b.residues(), scheme, top, left,
                          dpm);
  for (std::size_t c = 0; c <= b.size(); ++c) {
    EXPECT_EQ(last[c], dpm(a.size(), c)) << "column " << c;
  }
}

TEST(Kernel, SweepOutputsMatchFullMatrixBoundaries) {
  Xoshiro256 rng(12);
  const Sequence a = random_sequence(Alphabet::protein(), 19, rng);
  const Sequence b = random_sequence(Alphabet::protein(), 23, rng);
  const ScoringScheme& scheme = ScoringScheme::paper_default();

  std::vector<Score> top(b.size() + 1), left(a.size() + 1);
  init_global_boundary_linear(scheme, top);
  init_global_boundary_linear(scheme, left);

  std::vector<Score> bottom(b.size() + 1), right(a.size() + 1);
  sweep_rectangle_linear(KernelKind::kScalar, a.residues(), b.residues(),
                         scheme, top, left, bottom, right);

  Matrix2D<Score> dpm;
  fill_full_matrix_linear(a.residues(), b.residues(), scheme, top, left,
                          dpm);
  for (std::size_t c = 0; c <= b.size(); ++c) {
    EXPECT_EQ(bottom[c], dpm(a.size(), c));
  }
  for (std::size_t r = 0; r <= a.size(); ++r) {
    EXPECT_EQ(right[r], dpm(r, b.size()));
  }
}

TEST(Kernel, SweepInPlaceAliasingTopAsBottom) {
  Xoshiro256 rng(13);
  const Sequence a = random_sequence(Alphabet::dna(), 8, rng);
  const Sequence b = random_sequence(Alphabet::dna(), 11, rng);
  const ScoringScheme scheme = dna_scheme();

  std::vector<Score> row(b.size() + 1), left(a.size() + 1);
  init_global_boundary_linear(scheme, row);
  init_global_boundary_linear(scheme, left);
  const std::vector<Score> expected =
      last_row_linear(KernelKind::kScalar, a.residues(), b.residues(), scheme);
  sweep_rectangle_linear(KernelKind::kScalar, a.residues(), b.residues(),
                         scheme, row, left, row, {});
  EXPECT_EQ(row, expected);
}

TEST(Kernel, CompositionOfSweepsEqualsOneSweep) {
  // Sweeping the top half then the bottom half with the intermediate row
  // as cache must equal one full sweep — the invariant FastLSA's grid
  // caching rests on.
  Xoshiro256 rng(14);
  const Sequence a = random_sequence(Alphabet::protein(), 30, rng);
  const Sequence b = random_sequence(Alphabet::protein(), 21, rng);
  const ScoringScheme& scheme = ScoringScheme::paper_default();

  const std::vector<Score> whole =
      last_row_linear(KernelKind::kScalar, a.residues(), b.residues(), scheme);

  const std::size_t mid = 13;
  std::vector<Score> row(b.size() + 1), left_top(mid + 1),
      left_bottom(a.size() - mid + 1);
  init_global_boundary_linear(scheme, row);
  init_global_boundary_linear(scheme, left_top);
  sweep_rectangle_linear(KernelKind::kScalar, a.residues().subspan(0, mid),
                         b.residues(), scheme, row, left_top, row, {});
  // Left boundary of the bottom half: continue the gap ramp.
  for (std::size_t r = 0; r < left_bottom.size(); ++r) {
    left_bottom[r] =
        static_cast<Score>(mid + r) * scheme.gap_extend();
  }
  sweep_rectangle_linear(KernelKind::kScalar, a.residues().subspan(mid),
                         b.residues(), scheme, row, left_bottom, row, {});
  EXPECT_EQ(row, whole);
}

TEST(Kernel, CountersAccumulateCells) {
  Xoshiro256 rng(15);
  const Sequence a = random_sequence(Alphabet::dna(), 10, rng);
  const Sequence b = random_sequence(Alphabet::dna(), 20, rng);
  DpCounters counters;
  global_score_linear(KernelKind::kScalar, a.residues(), b.residues(),
                      dna_scheme(), &counters);
  EXPECT_EQ(counters.cells_scored, 200u);
  EXPECT_EQ(counters.cells_stored, 0u);
  EXPECT_EQ(counters.total_cells(), 200u);
}

TEST(Kernel, RejectsMismatchedBoundaries) {
  const Sequence a(Alphabet::dna(), "ACG");
  const Sequence b(Alphabet::dna(), "AC");
  const ScoringScheme scheme = dna_scheme();
  std::vector<Score> top(3), left(4), bottom(3);
  init_global_boundary_linear(scheme, top);
  init_global_boundary_linear(scheme, left);
  std::vector<Score> bad_top(2);
  EXPECT_THROW(sweep_rectangle_linear(KernelKind::kScalar, a.residues(),
                                      b.residues(), scheme, bad_top, left,
                                      bottom, {}),
               std::invalid_argument);
  std::vector<Score> corner_mismatch = top;
  corner_mismatch[0] = 99;
  EXPECT_THROW(sweep_rectangle_linear(KernelKind::kScalar, a.residues(),
                                      b.residues(), scheme, corner_mismatch,
                                      left, bottom, {}),
               std::invalid_argument);
}

TEST(Kernel, RejectsAffineScheme) {
  const Sequence a(Alphabet::dna(), "AC");
  const SubstitutionMatrix m = scoring::dna();
  const ScoringScheme affine(m, -5, -1);
  EXPECT_THROW(
      global_score_linear(KernelKind::kScalar, a.residues(), a.residues(),
                          affine),
      std::invalid_argument);
}

// Property sweep: random rectangles of many shapes — kernel score equals
// the full-matrix corner value.
class KernelShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(KernelShapes, ScoreMatchesFullMatrix) {
  const auto [m, n] = GetParam();
  Xoshiro256 rng(m * 1000 + n);
  const Sequence a = random_sequence(Alphabet::protein(), m, rng);
  const Sequence b = random_sequence(Alphabet::protein(), n, rng);
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  DpCounters fm_counters;
  const Score fm = full_matrix_score(a, b, scheme, &fm_counters);
  EXPECT_EQ(global_score_linear(KernelKind::kScalar, a.residues(), b.residues(),
                                scheme), fm);
  EXPECT_EQ(fm_counters.cells_stored, static_cast<std::uint64_t>(m) * n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{1, 50},
                      std::pair<std::size_t, std::size_t>{50, 1},
                      std::pair<std::size_t, std::size_t>{2, 3},
                      std::pair<std::size_t, std::size_t>{17, 17},
                      std::pair<std::size_t, std::size_t>{31, 64},
                      std::pair<std::size_t, std::size_t>{64, 31},
                      std::pair<std::size_t, std::size_t>{100, 100}));

}  // namespace
}  // namespace flsa
