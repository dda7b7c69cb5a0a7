// Tests for the center-star multiple sequence aligner.
#include <gtest/gtest.h>

#include <algorithm>

#include "dp/fullmatrix.hpp"
#include "msa/center_star.hpp"
#include "scoring/builtin.hpp"
#include "sequence/generate.hpp"

namespace flsa {
namespace {

ScoringScheme scheme() {
  static const SubstitutionMatrix m = scoring::dna(5, -4);
  return ScoringScheme(m, -6);
}

std::string degap(const std::string& row) {
  std::string out;
  for (char c : row) {
    if (c != '-') out.push_back(c);
  }
  return out;
}

std::vector<Sequence> family(std::size_t count, std::size_t length,
                             std::uint64_t seed) {
  Xoshiro256 rng(seed);
  MutationModel model;
  model.substitution_rate = 0.1;
  model.insertion_rate = 0.02;
  model.deletion_rate = 0.02;
  const Sequence ancestor = random_sequence(Alphabet::dna(), length, rng);
  std::vector<Sequence> sequences;
  for (std::size_t i = 0; i < count; ++i) {
    sequences.push_back(
        mutate(ancestor, model, rng, "member-" + std::to_string(i)));
  }
  return sequences;
}

TEST(CenterStar, SingleSequenceIsItself) {
  const std::vector<Sequence> seqs{Sequence(Alphabet::dna(), "ACGT")};
  const msa::MultipleAlignment aln = msa::center_star_align(seqs, scheme());
  ASSERT_EQ(aln.rows.size(), 1u);
  EXPECT_EQ(aln.rows[0], "ACGT");
}

TEST(CenterStar, TwoSequencesEqualPairwise) {
  Xoshiro256 rng(211);
  MutationModel model;
  const SequencePair pair = homologous_pair(Alphabet::dna(), 80, model, rng);
  const std::vector<Sequence> seqs{pair.a, pair.b};
  const msa::MultipleAlignment aln = msa::center_star_align(seqs, scheme());
  ASSERT_EQ(aln.rows.size(), 2u);
  const Score sp =
      msa::sum_of_pairs_score(aln, scheme(), Alphabet::dna());
  EXPECT_EQ(sp, full_matrix_score(pair.a, pair.b, scheme()));
}

TEST(CenterStar, RowsEqualWidthAndDegapToInputs) {
  const std::vector<Sequence> seqs = family(6, 120, 212);
  const msa::MultipleAlignment aln = msa::center_star_align(seqs, scheme());
  ASSERT_EQ(aln.rows.size(), 6u);
  for (const std::string& row : aln.rows) {
    EXPECT_EQ(row.size(), aln.width());
  }
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(degap(aln.rows[i]), seqs[i].to_string()) << "row " << i;
  }
  EXPECT_LT(aln.center_index, seqs.size());
}

TEST(CenterStar, NoAllGapColumns) {
  const std::vector<Sequence> seqs = family(5, 60, 213);
  const msa::MultipleAlignment aln = msa::center_star_align(seqs, scheme());
  for (std::size_t col = 0; col < aln.width(); ++col) {
    bool any_residue = false;
    for (const std::string& row : aln.rows) {
      any_residue |= row[col] != '-';
    }
    EXPECT_TRUE(any_residue) << "column " << col;
  }
}

TEST(CenterStar, IdenticalSequencesAlignPerfectly) {
  const Sequence s(Alphabet::dna(), "ACGTACGTACGT");
  const std::vector<Sequence> seqs{s, s, s, s};
  const msa::MultipleAlignment aln = msa::center_star_align(seqs, scheme());
  EXPECT_EQ(aln.width(), s.size());
  for (const std::string& row : aln.rows) {
    EXPECT_EQ(row, s.to_string());
  }
  // SP score: 6 pairs x 12 matches x 5.
  EXPECT_EQ(msa::sum_of_pairs_score(aln, scheme(), Alphabet::dna()),
            6 * 12 * 5);
}

TEST(CenterStar, CenterPairRowsScoreOptimally) {
  // Projecting (center, j) out of the MSA reproduces the optimal pairwise
  // score — the merge must not distort the star's own alignments.
  const std::vector<Sequence> seqs = family(5, 100, 214);
  const msa::MultipleAlignment aln = msa::center_star_align(seqs, scheme());
  const std::size_t c = aln.center_index;
  for (std::size_t j = 0; j < seqs.size(); ++j) {
    if (j == c) continue;
    Alignment pair;
    for (std::size_t col = 0; col < aln.width(); ++col) {
      const char cx = aln.rows[c][col];
      const char cy = aln.rows[j][col];
      if (cx == '-' && cy == '-') continue;
      pair.gapped_a.push_back(cx);
      pair.gapped_b.push_back(cy);
    }
    EXPECT_EQ(score_alignment(pair, scheme(), Alphabet::dna()),
              full_matrix_score(seqs[c], seqs[j], scheme()))
        << "pair (center," << j << ")";
  }
}

TEST(CenterStar, SumOfPairsBeatsUnalignedBaseline) {
  // The MSA's SP score must dominate the trivial no-gap left-justified
  // "alignment" padded with end gaps.
  const std::vector<Sequence> seqs = family(4, 90, 215);
  const msa::MultipleAlignment aln = msa::center_star_align(seqs, scheme());
  std::size_t width = 0;
  for (const Sequence& s : seqs) width = std::max(width, s.size());
  msa::MultipleAlignment naive;
  for (const Sequence& s : seqs) {
    std::string row = s.to_string();
    row.resize(width, '-');
    naive.rows.push_back(std::move(row));
  }
  EXPECT_GE(msa::sum_of_pairs_score(aln, scheme(), Alphabet::dna()),
            msa::sum_of_pairs_score(naive, scheme(), Alphabet::dna()));
}

TEST(CenterStar, ThreadedBuildMatchesSerial) {
  const std::vector<Sequence> seqs = family(7, 80, 216);
  msa::CenterStarOptions serial;
  serial.threads = 1;
  msa::CenterStarOptions threaded;
  threaded.threads = 4;
  const msa::MultipleAlignment a =
      msa::center_star_align(seqs, scheme(), serial);
  const msa::MultipleAlignment b =
      msa::center_star_align(seqs, scheme(), threaded);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.center_index, b.center_index);
}

TEST(CenterStar, RejectsBadInput) {
  EXPECT_THROW(msa::center_star_align({}, scheme()),
               std::invalid_argument);
  const SubstitutionMatrix m = scoring::dna();
  const ScoringScheme affine(m, -5, -1);
  const std::vector<Sequence> seqs{Sequence(Alphabet::dna(), "ACG"),
                                   Sequence(Alphabet::dna(), "ACC")};
  EXPECT_THROW(msa::center_star_align(seqs, affine),
               std::invalid_argument);
  const std::vector<Sequence> mixed{
      Sequence(Alphabet::dna(), "ACG"),
      Sequence(Alphabet::protein(), "ACD")};
  EXPECT_THROW(msa::center_star_align(mixed, scheme()),
               std::invalid_argument);
}

TEST(Consensus, MajorityRuleAndGapSkipping) {
  msa::MultipleAlignment aln;
  aln.rows = {"AC-GT", "AC-GA", "ATCGT"};
  EXPECT_EQ(msa::consensus(aln, Alphabet::dna()), "ACGT");
  const auto conservation =
      msa::column_conservation(aln, Alphabet::dna());
  ASSERT_EQ(conservation.size(), 5u);
  EXPECT_NEAR(conservation[0], 1.0, 1e-12);        // AAA
  EXPECT_NEAR(conservation[1], 2.0 / 3.0, 1e-12);  // CCT
  EXPECT_NEAR(conservation[2], 0.0, 1e-12);        // --C: gap majority
  EXPECT_NEAR(conservation[3], 1.0, 1e-12);        // GGG
  EXPECT_NEAR(conservation[4], 2.0 / 3.0, 1e-12);  // TAT
}

TEST(Consensus, RecoversAncestorOfACleanFamily) {
  Xoshiro256 rng(272);
  const Sequence ancestor = random_sequence(Alphabet::dna(), 80, rng);
  MutationModel light;
  light.substitution_rate = 0.05;
  light.insertion_rate = 0.005;
  light.deletion_rate = 0.005;
  std::vector<Sequence> family;
  for (int i = 0; i < 7; ++i) {
    family.push_back(mutate(ancestor, light, rng));
  }
  const msa::MultipleAlignment aln = msa::center_star_align(family, scheme());
  const Sequence cons(Alphabet::dna(),
                      msa::consensus(aln, Alphabet::dna()));
  // Independent mutations mostly cancel: the consensus is very close to
  // the ancestor. With match 0 and every mismatch or gap -1, the optimal
  // global score is minus the edit distance.
  const SubstitutionMatrix unit = scoring::identity(Alphabet::dna(), 0, -1);
  const double d = static_cast<double>(
      -full_matrix_score(cons, ancestor, ScoringScheme(unit, -1)));
  EXPECT_LT(d / static_cast<double>(ancestor.size()), 0.10);
}

}  // namespace
}  // namespace flsa
