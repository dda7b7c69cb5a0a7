// Tests for the banded global aligner.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "dp/banded.hpp"
#include "dp/fullmatrix.hpp"
#include "scoring/builtin.hpp"
#include "sequence/generate.hpp"

namespace flsa {
namespace {

ScoringScheme scheme() {
  static const SubstitutionMatrix m = scoring::dna(5, -4);
  return ScoringScheme(m, -6);
}

TEST(Banded, WideBandMatchesFullMatrix) {
  Xoshiro256 rng(61);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t m = 1 + rng.bounded(40);
    const std::size_t n = 1 + rng.bounded(40);
    const Sequence a = random_sequence(Alphabet::dna(), m, rng);
    const Sequence b = random_sequence(Alphabet::dna(), n, rng);
    const std::size_t wide = std::max(m, n);
    const Alignment aln = banded_align(a, b, scheme(), wide);
    EXPECT_EQ(aln.score, full_matrix_score(a, b, scheme()));
    EXPECT_EQ(score_alignment(aln, scheme(), Alphabet::dna()), aln.score);
  }
}

TEST(Banded, ScoreMonotoneInBandWidth) {
  Xoshiro256 rng(62);
  MutationModel model;
  const SequencePair pair = homologous_pair(Alphabet::dna(), 100, model, rng);
  Score previous = kNegInf;
  for (std::size_t w : {1u, 2u, 4u, 8u, 16u, 32u, 100u}) {
    const Score s = banded_align(pair.a, pair.b, scheme(), w).score;
    EXPECT_GE(s, previous) << "w=" << w;
    previous = s;
  }
  EXPECT_EQ(previous, full_matrix_score(pair.a, pair.b, scheme()));
}

TEST(Banded, HighIdentityPairConvergesWithNarrowBand) {
  Xoshiro256 rng(63);
  MutationModel model;
  model.substitution_rate = 0.02;
  model.insertion_rate = 0.002;
  model.deletion_rate = 0.002;
  const SequencePair pair = homologous_pair(Alphabet::dna(), 300, model, rng);
  const Score exact = full_matrix_score(pair.a, pair.b, scheme());
  // A modest band already recovers the unconstrained optimum on a
  // high-identity pair.
  EXPECT_EQ(banded_align(pair.a, pair.b, scheme(), 24).score, exact);
}

TEST(Banded, BandReducesStoredCells) {
  Xoshiro256 rng(64);
  const Sequence a = random_sequence(Alphabet::dna(), 200, rng);
  const Sequence b = random_sequence(Alphabet::dna(), 200, rng);
  DpCounters banded_counters, fm_counters;
  banded_align(a, b, scheme(), 10, &banded_counters);
  full_matrix_score(a, b, scheme(), &fm_counters);
  EXPECT_LT(banded_counters.cells_stored, fm_counters.cells_stored / 3);
}

TEST(Banded, EqualLengthIdenticalSequencesWithMinimalBand) {
  Xoshiro256 rng(65);
  const Sequence s = random_sequence(Alphabet::dna(), 50, rng);
  const Alignment aln = banded_align(s, s, scheme(), 1);
  EXPECT_EQ(aln.score, 250);
  EXPECT_EQ(aln.gap_count(), 0u);
}

TEST(Banded, LengthMismatchStillReachesCorner) {
  const Sequence a(Alphabet::dna(), "ACGT");
  const Sequence b(Alphabet::dna(), "ACGTACGTACGT");
  // With |a| <= |b| the band contains both corners, whatever the
  // half-width.
  const Alignment aln = banded_align(a, b, scheme(), 1);
  EXPECT_EQ(score_alignment(aln, scheme(), Alphabet::dna()), aln.score);
  std::size_t b_res = 0;
  for (char c : aln.gapped_b) b_res += (c != '-');
  EXPECT_EQ(b_res, b.size());
}

TEST(Banded, RejectsLengthDifferenceBeyondTheBand) {
  // The band j - i in [-w, (n - m) + w] holds the corner (m, n) only when
  // m - n <= w; past that there is no path to align, not a poor one.
  Xoshiro256 rng(66);
  const Sequence a30 = random_sequence(Alphabet::dna(), 30, rng);
  const Sequence b20 = random_sequence(Alphabet::dna(), 20, rng);
  EXPECT_THROW(banded_align(a30, b20, scheme(), 6), std::invalid_argument);
  EXPECT_THROW(banded_align(a30, b20, scheme(), 8), std::invalid_argument);
  for (const std::size_t w : {1u, 3u, 6u, 8u}) {
    const Sequence b = random_sequence(Alphabet::dna(), 25, rng);
    for (const std::size_t over : {w + 1, 2 * w}) {
      if (over == w) continue;  // w = 1: 2w is w + 1, already covered
      const Sequence a = random_sequence(Alphabet::dna(), 25 + over, rng);
      EXPECT_THROW(banded_align(a, b, scheme(), w), std::invalid_argument)
          << "w=" << w << " |a|-|b|=" << over;
    }
    // At the limit the band still reaches the corner.
    const Sequence a = random_sequence(Alphabet::dna(), 25 + w, rng);
    const Alignment aln = banded_align(a, b, scheme(), w);
    EXPECT_EQ(score_alignment(aln, scheme(), Alphabet::dna()), aln.score);
    const auto residues = [](const std::string& row) {
      return row.size() -
             static_cast<std::size_t>(std::count(row.begin(), row.end(), '-'));
    };
    EXPECT_EQ(residues(aln.gapped_a), a.size());
    EXPECT_EQ(residues(aln.gapped_b), b.size());
  }
}

TEST(Banded, RejectsBadParameters) {
  const Sequence a(Alphabet::dna(), "ACG");
  EXPECT_THROW(banded_align(a, a, scheme(), 0), std::invalid_argument);
  const SubstitutionMatrix m = scoring::dna();
  const ScoringScheme affine(m, -5, -1);
  EXPECT_THROW(banded_align(a, a, affine, 2), std::invalid_argument);
}

TEST(Banded, DpCountersSaturateInsteadOfWrapping) {
  // Counter merges across workers sum (m+1)*(n+1)-flavoured quantities;
  // at the 64-bit boundary they must pin, not wrap to a small lie.
  const std::uint64_t max64 = std::numeric_limits<std::uint64_t>::max();
  DpCounters a;
  a.cells_scored = max64 - 10;
  a.cells_stored = 100;
  EXPECT_EQ(a.total_cells(), max64);

  DpCounters b;
  b.cells_scored = max64 - 1;
  b.traceback_steps = max64;
  a += b;
  EXPECT_EQ(a.cells_scored, max64);
  EXPECT_EQ(a.cells_stored, 100u);
  EXPECT_EQ(a.traceback_steps, max64);
  EXPECT_EQ(a.total_cells(), max64);

  DpCounters small;
  small.cells_scored = 3;
  small.cells_stored = 4;
  EXPECT_EQ(small.total_cells(), 7u);  // ordinary sums stay exact
}

}  // namespace
}  // namespace flsa
