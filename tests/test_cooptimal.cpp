// Tests for the 3-bit direction-set encoding and co-optimal path
// counting (paper Section 2.1).
#include <gtest/gtest.h>

#include <vector>

#include "dp/cooptimal.hpp"
#include "dp/fullmatrix.hpp"
#include "scoring/builtin.hpp"
#include "sequence/generate.hpp"

namespace flsa {
namespace {

/// Brute-force oracle: the number of Diag/Up/Left move sequences from
/// (r, c) back to the origin in which every move reproduces `dpm`'s value
/// from its predecessor, i.e. the number of optimal paths into (r, c).
/// Plain recursion over cells, one call per path: small inputs only.
std::uint64_t count_paths_brute_force(const Sequence& a, const Sequence& b,
                                      const ScoringScheme& scheme,
                                      const Matrix2D<Score>& dpm,
                                      std::size_t r, std::size_t c) {
  if (r == 0 && c == 0) return 1;
  const Score gap = scheme.gap_extend();
  std::uint64_t total = 0;
  if (r > 0 && c > 0 &&
      dpm(r - 1, c - 1) + scheme.matrix().at(a[r - 1], b[c - 1]) ==
          dpm(r, c)) {
    total += count_paths_brute_force(a, b, scheme, dpm, r - 1, c - 1);
  }
  if (r > 0 && dpm(r - 1, c) + gap == dpm(r, c)) {
    total += count_paths_brute_force(a, b, scheme, dpm, r - 1, c);
  }
  if (c > 0 && dpm(r, c - 1) + gap == dpm(r, c)) {
    total += count_paths_brute_force(a, b, scheme, dpm, r, c - 1);
  }
  return total;
}

TEST(DirectionSetMatrix, PacksThreeBitsPerCell) {
  DirectionSetMatrix m(3, 5);
  m.set(0, 0, true, false, true);
  m.set(0, 1, false, true, false);
  m.set(2, 4, true, true, true);
  EXPECT_TRUE(m.diag(0, 0));
  EXPECT_FALSE(m.up(0, 0));
  EXPECT_TRUE(m.left(0, 0));
  EXPECT_TRUE(m.up(0, 1));
  EXPECT_FALSE(m.diag(0, 1));
  EXPECT_TRUE(m.diag(2, 4) && m.up(2, 4) && m.left(2, 4));
  // Neighbours unaffected.
  EXPECT_FALSE(m.diag(1, 0) || m.up(1, 0) || m.left(1, 0));
}

TEST(CoOptimal, PaperExampleHasASingleOptimalPath) {
  // The paper (Section 2.1): "in our example, there is a single optimal
  // path and it is denoted by numerical subscripts" — under the MDM78
  // scheme the score-82 optimum is unique, and it is the V-L-pairing
  // alignment of the introduction. (The introduction's "2 different ways
  // of obtaining 5 identically aligned letters" counts identical-letter
  // maximizers, a different objective.)
  const Sequence a(Alphabet::protein(), "TLDKLLKD");
  const Sequence b(Alphabet::protein(), "TDVLKAD");
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  const CoOptimalAnalysis analysis = count_optimal_paths(a, b, scheme);
  EXPECT_EQ(analysis.score, 82);
  EXPECT_EQ(analysis.path_count, 1u);
}

TEST(CoOptimal, CountMatchesBruteForceOnSmallCases) {
  Xoshiro256 rng(252);
  const SubstitutionMatrix m = scoring::dna(2, -1);
  const ScoringScheme scheme(m, -1);
  for (int trial = 0; trial < 20; ++trial) {
    const Sequence a =
        random_sequence(Alphabet::dna(), rng.bounded(8), rng);
    const Sequence b =
        random_sequence(Alphabet::dna(), rng.bounded(8), rng);
    std::vector<Score> top(b.size() + 1), left(a.size() + 1);
    init_global_boundary_linear(scheme, top);
    init_global_boundary_linear(scheme, left);
    Matrix2D<Score> dpm;
    fill_full_matrix_linear(a.residues(), b.residues(), scheme, top, left,
                            dpm);
    const std::size_t rows = a.size();
    const std::size_t cols = b.size();
    ASSERT_EQ(dpm(rows, cols), full_matrix_align(a, b, scheme).score);
    const CoOptimalAnalysis analysis = count_optimal_paths(a, b, scheme);
    EXPECT_EQ(analysis.score, dpm(rows, cols));
    EXPECT_EQ(analysis.path_count,
              count_paths_brute_force(a, b, scheme, dpm, rows, cols))
        << a.to_string() << "/" << b.to_string();
  }
}

TEST(CoOptimal, UniquePathForStrongDiagonalSignal) {
  // Identical sequences with strong match reward: exactly one optimum.
  Xoshiro256 rng(253);
  const Sequence s = random_sequence(Alphabet::protein(), 50, rng);
  const CoOptimalAnalysis analysis =
      count_optimal_paths(s, s, ScoringScheme::paper_default());
  EXPECT_EQ(analysis.path_count, 1u);
}

TEST(CoOptimal, SaturatesOnDegenerateScoring) {
  // All-zero scoring with free gaps: every monotone path is optimal;
  // C(80, 40) >> 2^64 saturates the counter.
  const SubstitutionMatrix m = scoring::identity(Alphabet::dna(), 0, 0);
  const ScoringScheme scheme(m, 0);
  Xoshiro256 rng(254);
  const Sequence a = random_sequence(Alphabet::dna(), 40, rng);
  const Sequence b = random_sequence(Alphabet::dna(), 40, rng);
  const CoOptimalAnalysis analysis = count_optimal_paths(a, b, scheme);
  EXPECT_TRUE(analysis.saturated());
}

TEST(CoOptimal, CountsLatticePathsExactly) {
  // Same degenerate scoring, small sizes: the count is the binomial
  // C(m+n, m) since every monotone path (including diagonals...) — with
  // all three moves allowed the count is the Delannoy number D(m, n).
  const SubstitutionMatrix m = scoring::identity(Alphabet::dna(), 0, 0);
  const ScoringScheme scheme(m, 0);
  const Sequence a(Alphabet::dna(), "AC");
  const Sequence b(Alphabet::dna(), "GT");
  // Delannoy D(2,2) = 13.
  EXPECT_EQ(count_optimal_paths(a, b, scheme).path_count, 13u);
  const Sequence one(Alphabet::dna(), "A");
  // D(1,1) = 3: diag, up+left, left+up.
  EXPECT_EQ(count_optimal_paths(one, one, scheme).path_count, 3u);
}

TEST(CoOptimal, EmptyInputs) {
  const SubstitutionMatrix m = scoring::dna();
  const ScoringScheme scheme(m, -2);
  const Sequence empty(Alphabet::dna(), "");
  const Sequence acg(Alphabet::dna(), "ACG");
  EXPECT_EQ(count_optimal_paths(empty, empty, scheme).path_count, 1u);
  EXPECT_EQ(count_optimal_paths(acg, empty, scheme).path_count, 1u);
}

}  // namespace
}  // namespace flsa
