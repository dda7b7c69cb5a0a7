// Tests for Path geometry and Alignment construction/statistics.
#include <gtest/gtest.h>

#include "dp/alignment.hpp"
#include "dp/path.hpp"
#include "scoring/builtin.hpp"

namespace flsa {
namespace {

TEST(Path, TracebackMovesFrontTowardOrigin) {
  Path p(Cell{3, 3});
  EXPECT_EQ(p.front(), (Cell{3, 3}));
  p.push_traceback(Move::kDiag);
  EXPECT_EQ(p.front(), (Cell{2, 2}));
  p.push_traceback(Move::kUp);
  EXPECT_EQ(p.front(), (Cell{1, 2}));
  p.push_traceback(Move::kLeft);
  EXPECT_EQ(p.front(), (Cell{1, 1}));
  p.push_traceback(Move::kDiag);
  EXPECT_TRUE(p.reaches_origin());
  EXPECT_TRUE(p.is_consistent());
}

TEST(Path, ForwardMovesAreReversedTraceback) {
  Path p(Cell{2, 1});
  p.push_traceback(Move::kUp);
  p.push_traceback(Move::kDiag);
  const auto forward = p.forward_moves();
  ASSERT_EQ(forward.size(), 2u);
  EXPECT_EQ(forward[0], Move::kDiag);
  EXPECT_EQ(forward[1], Move::kUp);
  EXPECT_EQ(p.to_string(), "DU");
}

TEST(Path, RejectsMovesLeavingMatrix) {
  Path p(Cell{1, 1});
  p.push_traceback(Move::kDiag);
  EXPECT_THROW(p.push_traceback(Move::kUp), std::invalid_argument);
  EXPECT_THROW(p.push_traceback(Move::kLeft), std::invalid_argument);
  EXPECT_THROW(p.push_traceback(Move::kDiag), std::invalid_argument);
}

TEST(Path, MoveChars) {
  EXPECT_EQ(to_char(Move::kDiag), 'D');
  EXPECT_EQ(to_char(Move::kUp), 'U');
  EXPECT_EQ(to_char(Move::kLeft), 'L');
}

TEST(Alignment, FromPathBuildsPaperExample) {
  // The paper's worked example: TLDKLLKD vs TDVLKAD, optimal score 82 with
  // alignment TLDKLLK-D / T-D-VLKAD.
  const Sequence a(Alphabet::protein(), "TLDKLLKD");
  const Sequence b(Alphabet::protein(), "TDVLKAD");
  Path p(Cell{8, 7});
  // Forward moves: D U D U D D D L D (from the paper's Figure 1 path).
  const Move forward[] = {Move::kDiag, Move::kUp,   Move::kDiag,
                          Move::kUp,   Move::kDiag, Move::kDiag,
                          Move::kDiag, Move::kLeft, Move::kDiag};
  for (auto it = std::rbegin(forward); it != std::rend(forward); ++it) {
    p.push_traceback(*it);
  }
  ASSERT_TRUE(p.reaches_origin());
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  const Alignment aln = alignment_from_path(a, b, p, scheme);
  EXPECT_EQ(aln.gapped_a, "TLDKLLK-D");
  EXPECT_EQ(aln.gapped_b, "T-D-VLKAD");
  EXPECT_EQ(aln.score, 82);
}

TEST(Alignment, StatisticsOnKnownAlignment) {
  Alignment aln;
  aln.gapped_a = "TLDKLLK-D";
  aln.gapped_b = "T-D-VLKAD";
  EXPECT_EQ(aln.length(), 9u);
  EXPECT_EQ(aln.matches(), 5u);  // T, D, L, K, D
  EXPECT_NEAR(aln.identity(), 5.0 / 9.0, 1e-12);
  EXPECT_EQ(aln.gap_count(), 3u);
}

TEST(Alignment, CigarEncoding) {
  Alignment aln;
  aln.gapped_a = "AAC-GT";
  aln.gapped_b = "AATTG-";
  EXPECT_EQ(aln.cigar(), "2=1X1I1=1D");
}

TEST(Alignment, CigarEmpty) {
  Alignment aln;
  EXPECT_EQ(aln.cigar(), "");
}

TEST(Alignment, PrettyWrapsAndMarksMatches) {
  Alignment aln;
  aln.gapped_a = "ACGT";
  aln.gapped_b = "AC-A";
  const std::string pretty = aln.pretty(2);
  // Expect two blocks of three lines each separated by a blank line.
  EXPECT_NE(pretty.find("AC\n||\nAC\n"), std::string::npos);
  EXPECT_NE(pretty.find("GT\n .\n-A\n"), std::string::npos);
}

TEST(Alignment, ScoreAlignmentLinearGaps) {
  Alignment aln;
  aln.gapped_a = "AC-T";
  aln.gapped_b = "A-GT";
  const SubstitutionMatrix m = scoring::dna(5, -4);
  const ScoringScheme scheme(m, -2);
  // A/A=5, C/-=-2, -/G=-2, T/T=5.
  EXPECT_EQ(score_alignment(aln, scheme, Alphabet::dna()), 6);
}

TEST(Alignment, ScoreAlignmentAffineChargesOpenPerRun) {
  Alignment aln;
  aln.gapped_a = "A--CT";
  aln.gapped_b = "AGG-T";
  const SubstitutionMatrix m = scoring::dna(5, -4);
  const ScoringScheme scheme(m, -3, -1);
  // A/A=5; gap run of 2 in a: -3-2; gap run of 1 in b: -3-1; T/T=5.
  EXPECT_EQ(score_alignment(aln, scheme, Alphabet::dna()), 5 - 5 - 4 + 5);
}

TEST(Alignment, ScoreAlignmentRejectsDoubleGapColumn) {
  Alignment aln;
  aln.gapped_a = "A-";
  aln.gapped_b = "A-";
  EXPECT_THROW(score_alignment(aln, ScoringScheme::paper_default(),
                               Alphabet::protein()),
               std::invalid_argument);
}

TEST(Alignment, FromPathMaterialisesTheRegionItCrosses) {
  // A path that stops short of the origin (a local or semi-global
  // traceback) yields the alignment of the region [front, end) only.
  const Sequence a(Alphabet::dna(), "GACT");
  const Sequence b(Alphabet::dna(), "TACG");
  const SubstitutionMatrix m = scoring::dna(5, -4);
  const ScoringScheme scheme(m, -2);
  Path p(Cell{3, 3});
  p.push_traceback(Move::kDiag);
  p.push_traceback(Move::kDiag);
  const Alignment aln = alignment_from_path(a, b, p, scheme);
  EXPECT_EQ(aln.gapped_a, "AC");
  EXPECT_EQ(aln.gapped_b, "AC");
  EXPECT_EQ(aln.score, 10);
  EXPECT_EQ(aln.a_begin, 1u);
  EXPECT_EQ(aln.a_end, 3u);
  EXPECT_EQ(aln.b_begin, 1u);
  EXPECT_EQ(aln.b_end, 3u);
}

TEST(Alignment, FromPathRejectsPathOutsideSequences) {
  const Sequence a(Alphabet::dna(), "AC");
  const Sequence b(Alphabet::dna(), "AC");
  Path p(Cell{3, 2});  // ends below the last row of a
  p.push_traceback(Move::kDiag);
  const SubstitutionMatrix m = scoring::dna();
  const ScoringScheme scheme(m, -2);
  EXPECT_THROW(alignment_from_path(a, b, p, scheme), std::invalid_argument);
}

TEST(SimilarColumns, CountsPositiveScorePairs) {
  // The paper's motivating example: V/L are similar (12 > 0), K/L are not.
  Alignment aln;
  aln.gapped_a = "VKL-";
  aln.gapped_b = "LLLP";
  const std::size_t similar =
      similar_columns(aln, scoring::mdm78(), Alphabet::protein());
  // V/L similar, K/L not, L/L match (also similar), -/P gap ignored.
  EXPECT_EQ(similar, 2u);
}

}  // namespace
}  // namespace flsa
