// Tests for Smith-Waterman local alignment (full matrix and score pass).
#include <gtest/gtest.h>

#include "dp/fullmatrix.hpp"
#include "dp/local.hpp"
#include "scoring/builtin.hpp"
#include "sequence/generate.hpp"

namespace flsa {
namespace {

ScoringScheme local_scheme() {
  static const SubstitutionMatrix m = scoring::dna(5, -4);
  return ScoringScheme(m, -6);
}

TEST(Local, FindsEmbeddedCommonSubstring) {
  const Sequence a(Alphabet::dna(), "TTTTACGTACGTTTTT");
  const Sequence b(Alphabet::dna(), "GGGGGACGTACGGGGG");
  const Alignment aln = local_align_full_matrix(a, b, local_scheme());
  EXPECT_EQ(aln.score, 35);  // the shared ACGTACG core, 7 matches at +5
  EXPECT_GE(aln.matches(), 7u);
  // The aligned region covers the shared core.
  const std::string sub_a = a.to_string().substr(
      aln.a_begin, aln.a_end - aln.a_begin);
  EXPECT_NE(sub_a.find("ACGTACG"), std::string::npos);
}

TEST(Local, ScorePassAgreesWithFullMatrix) {
  Xoshiro256 rng(51);
  const ScoringScheme scheme = local_scheme();
  for (int trial = 0; trial < 20; ++trial) {
    const Sequence a =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(60), rng);
    const Sequence b =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(60), rng);
    const BestCell pass =
        local_score_linear(a.residues(), b.residues(), scheme);
    const Alignment aln = local_align_full_matrix(a, b, scheme);
    EXPECT_EQ(pass.score, aln.score);
  }
}

TEST(Local, LocalScoreAtLeastGlobalScore) {
  Xoshiro256 rng(52);
  const ScoringScheme scheme = local_scheme();
  for (int trial = 0; trial < 10; ++trial) {
    const Sequence a =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(40), rng);
    const Sequence b =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(40), rng);
    EXPECT_GE(local_align_full_matrix(a, b, scheme).score,
              full_matrix_score(a, b, scheme));
  }
}

TEST(Local, AllMismatchesYieldEmptyAlignment) {
  const SubstitutionMatrix m = scoring::dna(-1, -5);
  const ScoringScheme scheme(m, -6);
  const Sequence a(Alphabet::dna(), "AAAA");
  const Sequence b(Alphabet::dna(), "CCCC");
  const Alignment aln = local_align_full_matrix(a, b, scheme);
  EXPECT_EQ(aln.score, 0);
  EXPECT_EQ(aln.length(), 0u);
}

TEST(Local, RegionBoundsAreConsistent) {
  Xoshiro256 rng(53);
  const ScoringScheme scheme = local_scheme();
  MutationModel model;
  const SequencePair pair = homologous_pair(Alphabet::dna(), 80, model, rng);
  const Alignment aln = local_align_full_matrix(pair.a, pair.b, scheme);
  EXPECT_LE(aln.a_begin, aln.a_end);
  EXPECT_LE(aln.a_end, pair.a.size());
  EXPECT_LE(aln.b_begin, aln.b_end);
  EXPECT_LE(aln.b_end, pair.b.size());
  // Gapped rows consume exactly the aligned region.
  std::size_t a_res = 0, b_res = 0;
  for (char c : aln.gapped_a) a_res += (c != '-');
  for (char c : aln.gapped_b) b_res += (c != '-');
  EXPECT_EQ(a_res, aln.a_end - aln.a_begin);
  EXPECT_EQ(b_res, aln.b_end - aln.b_begin);
}

TEST(Local, LocalAlignmentScoreIsRescorable) {
  Xoshiro256 rng(54);
  const ScoringScheme scheme = local_scheme();
  for (int trial = 0; trial < 10; ++trial) {
    MutationModel model;
    const SequencePair pair =
        homologous_pair(Alphabet::dna(), 50 + rng.bounded(50), model, rng);
    const Alignment aln = local_align_full_matrix(pair.a, pair.b, scheme);
    if (aln.length() == 0) continue;
    EXPECT_EQ(score_alignment(aln, scheme, Alphabet::dna()), aln.score);
  }
}

TEST(Local, IdenticalSequencesAlignFully) {
  Xoshiro256 rng(55);
  const Sequence s = random_sequence(Alphabet::dna(), 40, rng);
  const Alignment aln = local_align_full_matrix(s, s, local_scheme());
  EXPECT_EQ(aln.score, static_cast<Score>(40 * 5));
  EXPECT_EQ(aln.a_begin, 0u);
  EXPECT_EQ(aln.a_end, 40u);
}

// ---------- affine-gap Smith-Waterman ----------

ScoringScheme affine_local_scheme() {
  static const SubstitutionMatrix m = scoring::dna(5, -4);
  return ScoringScheme(m, -8, -2);
}

TEST(LocalAffine, ReducesToLinearWhenOpenIsZero) {
  Xoshiro256 rng(57);
  const SubstitutionMatrix m = scoring::dna(5, -4);
  const ScoringScheme affine(m, 0, -6);
  const ScoringScheme linear(m, -6);
  for (int trial = 0; trial < 12; ++trial) {
    const Sequence a =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(40), rng);
    const Sequence b =
        random_sequence(Alphabet::dna(), 1 + rng.bounded(40), rng);
    EXPECT_EQ(local_align_full_matrix_affine(a, b, affine).score,
              local_align_full_matrix(a, b, linear).score);
  }
}

TEST(LocalAffine, AlignmentIsRescorable) {
  Xoshiro256 rng(58);
  const ScoringScheme scheme = affine_local_scheme();
  MutationModel model;
  model.extension_prob = 0.7;
  for (int trial = 0; trial < 10; ++trial) {
    const SequencePair pair =
        homologous_pair(Alphabet::dna(), 60 + rng.bounded(60), model, rng);
    const Alignment aln =
        local_align_full_matrix_affine(pair.a, pair.b, scheme);
    if (aln.length() == 0) continue;
    EXPECT_EQ(score_alignment(aln, scheme, Alphabet::dna()), aln.score);
  }
}

TEST(LocalAffine, LocalScoreAtLeastLinearLocalWithHarsherGaps) {
  // Affine with open+extend == linear gap on length-1 runs, cheaper on
  // longer runs: the affine local optimum dominates the linear one whose
  // per-residue penalty equals open+extend.
  Xoshiro256 rng(59);
  const SubstitutionMatrix m = scoring::dna(5, -4);
  const ScoringScheme affine(m, -4, -2);
  const ScoringScheme linear(m, -6);
  for (int trial = 0; trial < 10; ++trial) {
    const Sequence a =
        random_sequence(Alphabet::dna(), 10 + rng.bounded(60), rng);
    const Sequence b =
        random_sequence(Alphabet::dna(), 10 + rng.bounded(60), rng);
    EXPECT_GE(local_align_full_matrix_affine(a, b, affine).score,
              local_align_full_matrix(a, b, linear).score);
  }
}

TEST(LocalAffine, EmptyOnAllNegative) {
  const SubstitutionMatrix m = scoring::dna(-1, -5);
  const ScoringScheme scheme(m, -6, -2);
  const Sequence a(Alphabet::dna(), "AAAA");
  const Sequence b(Alphabet::dna(), "CCCC");
  const Alignment aln = local_align_full_matrix_affine(a, b, scheme);
  EXPECT_EQ(aln.score, 0);
  EXPECT_EQ(aln.length(), 0u);
}

TEST(Local, DeterministicTieBreak) {
  // Two identical copies of the motif: the earliest end in row-major order
  // wins, deterministically.
  const Sequence a(Alphabet::dna(), "ACGACG");
  const Sequence b(Alphabet::dna(), "ACG");
  const Alignment first = local_align_full_matrix(a, b, local_scheme());
  const Alignment second = local_align_full_matrix(a, b, local_scheme());
  EXPECT_EQ(first.a_begin, second.a_begin);
  EXPECT_EQ(first.a_end, second.a_end);
  EXPECT_EQ(first.a_end, 3u);  // the first copy
}

}  // namespace
}  // namespace flsa
