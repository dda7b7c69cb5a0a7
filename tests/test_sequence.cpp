// Tests for alphabets, sequences, FASTA I/O, and the synthetic generators.
#include <gtest/gtest.h>

#include <sstream>

#include "sequence/fasta.hpp"
#include "sequence/generate.hpp"
#include "sequence/sequence.hpp"

namespace flsa {
namespace {

TEST(Alphabet, DnaBasics) {
  const Alphabet& dna = Alphabet::dna();
  EXPECT_EQ(dna.size(), 4u);
  EXPECT_EQ(dna.code('A'), 0);
  EXPECT_EQ(dna.code('a'), 0);  // case-insensitive
  EXPECT_EQ(dna.code('T'), 3);
  EXPECT_EQ(dna.letter(2), 'G');
  EXPECT_TRUE(dna.contains('c'));
  EXPECT_FALSE(dna.contains('N'));
}

TEST(Alphabet, ProteinHasTwentyResiduesInPamOrder) {
  const Alphabet& protein = Alphabet::protein();
  EXPECT_EQ(protein.size(), 20u);
  EXPECT_EQ(protein.code('A'), 0);
  EXPECT_EQ(protein.code('R'), 1);
  EXPECT_EQ(protein.code('V'), 19);
}

TEST(Alphabet, ForeignCharacterThrows) {
  EXPECT_THROW(Alphabet::dna().code('X'), std::invalid_argument);
}

TEST(Alphabet, RejectsDuplicateLetters) {
  EXPECT_THROW(Alphabet("AAB", "bad"), std::invalid_argument);
  EXPECT_THROW(Alphabet("aA", "bad-case"), std::invalid_argument);
}

TEST(Alphabet, RejectsEmpty) {
  EXPECT_THROW(Alphabet("", "empty"), std::invalid_argument);
}

TEST(Sequence, EncodeDecodeRoundTrip) {
  const Sequence s(Alphabet::dna(), "ACGTacgt", "id1", "a description");
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(s.to_string(), "ACGTACGT");  // canonical upper case
  EXPECT_EQ(s.id(), "id1");
  EXPECT_EQ(s.description(), "a description");
}

TEST(Sequence, IndexingReturnsCodes) {
  const Sequence s(Alphabet::dna(), "ACGT");
  EXPECT_EQ(s[0], 0);
  EXPECT_EQ(s[3], 3);
}

TEST(Sequence, ReversedReversesResidues) {
  const Sequence s(Alphabet::dna(), "AACGT");
  EXPECT_EQ(s.reversed().to_string(), "TGCAA");
  EXPECT_EQ(s.reversed().reversed().to_string(), s.to_string());
}

TEST(Sequence, SubsequenceSlices) {
  const Sequence s(Alphabet::dna(), "ACGTACGT");
  EXPECT_EQ(s.subsequence(2, 4).to_string(), "GTAC");
  EXPECT_EQ(s.subsequence(0, 0).to_string(), "");
  EXPECT_EQ(s.subsequence(8, 0).to_string(), "");
  EXPECT_THROW(s.subsequence(7, 3), std::invalid_argument);
}

TEST(Sequence, EncodedConstructorValidatesCodes) {
  EXPECT_NO_THROW(Sequence(Alphabet::dna(), std::vector<Residue>{0, 3, 2}));
  EXPECT_THROW(Sequence(Alphabet::dna(), std::vector<Residue>{0, 4}),
               std::invalid_argument);
}

TEST(Fasta, ParsesMultiRecordStream) {
  std::istringstream in(
      ">seq1 first sequence\nACGT\nACG\n\n>seq2\nTTTT\n");
  const auto records = read_fasta(in, Alphabet::dna());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id(), "seq1");
  EXPECT_EQ(records[0].description(), "first sequence");
  EXPECT_EQ(records[0].to_string(), "ACGTACG");
  EXPECT_EQ(records[1].id(), "seq2");
  EXPECT_EQ(records[1].to_string(), "TTTT");
}

TEST(Fasta, HandlesWindowsLineEndings) {
  std::istringstream in(">s\r\nACGT\r\n");
  const auto records = read_fasta(in, Alphabet::dna());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].to_string(), "ACGT");
}

TEST(Fasta, DataBeforeHeaderThrows) {
  std::istringstream in("ACGT\n>late\nACGT\n");
  EXPECT_THROW(read_fasta(in, Alphabet::dna()), std::invalid_argument);
}

TEST(Fasta, BadResidueNamesTheRecord) {
  std::istringstream in(">oops\nACGX\n");
  try {
    read_fasta(in, Alphabet::dna());
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("oops"), std::string::npos);
  }
}

TEST(Fasta, WriteReadRoundTrip) {
  std::vector<Sequence> records;
  records.emplace_back(Alphabet::dna(), "ACGTACGTACGT", "r1", "desc");
  records.emplace_back(Alphabet::dna(), "", "empty");
  std::ostringstream out;
  write_fasta(out, records, /*width=*/5);
  std::istringstream in(out.str());
  const auto parsed = read_fasta(in, Alphabet::dna());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].to_string(), "ACGTACGTACGT");
  EXPECT_EQ(parsed[0].id(), "r1");
  EXPECT_EQ(parsed[1].size(), 0u);
}

// ---- Hostile-input hardening (the alignment service feeds these parsers
// ---- untrusted bytes; every failure mode must be a clean typed error).

TEST(Fasta, TruncatedFinalRecordThrows) {
  // A header as the last line of the stream is a truncated upload.
  std::istringstream in(">seq1\nACGT\n>cut\n");
  try {
    read_fasta(in, Alphabet::dna());
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cut"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(Fasta, TruncatedHeaderWithoutNewlineThrows) {
  std::istringstream in(">seq1\nACGT\n>cut");
  EXPECT_THROW(read_fasta(in, Alphabet::dna()), std::invalid_argument);
}

TEST(Fasta, HeaderThenBlankLineIsExplicitEmptyRecord) {
  // write_fasta emits empty records as header + blank line; that must keep
  // round-tripping even with the truncation check in place.
  std::istringstream in(">empty\n\n");
  const auto records = read_fasta(in, Alphabet::dna());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].size(), 0u);
}

TEST(Fasta, FinalLineWithoutNewlineStillParses) {
  std::istringstream in(">s\nACGT");
  const auto records = read_fasta(in, Alphabet::dna());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].to_string(), "ACGT");
}

TEST(Fasta, OversizedLineThrowsCleanly) {
  ParseLimits limits;
  limits.max_line_bytes = 16;
  std::istringstream in(">s\n" + std::string(64, 'A') + "\n");
  EXPECT_THROW(read_fasta(in, Alphabet::dna(), limits), std::invalid_argument);
}

TEST(Fasta, OversizedRecordAcrossManyLinesThrows) {
  ParseLimits limits;
  limits.max_record_residues = 10;
  std::istringstream in(">s\nACGT\nACGT\nACGT\n");
  EXPECT_THROW(read_fasta(in, Alphabet::dna(), limits), std::invalid_argument);
}

TEST(Fasta, LimitBoundaryIsInclusive) {
  ParseLimits limits;
  limits.max_line_bytes = 4;
  limits.max_record_residues = 4;
  std::istringstream in(">s\nACGT\n");
  const auto records = read_fasta(in, Alphabet::dna(), limits);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].to_string(), "ACGT");
}

TEST(Fasta, CrlfWithBlankLinesAndFinalRecord) {
  std::istringstream in(">a one\r\nAC\r\nGT\r\n\r\n>b\r\nTT\r\n");
  const auto records = read_fasta(in, Alphabet::dna());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].to_string(), "ACGT");
  EXPECT_EQ(records[0].description(), "one");
  EXPECT_EQ(records[1].to_string(), "TT");
}

TEST(Generate, RandomSequenceHasRequestedLength) {
  Xoshiro256 rng(1);
  const Sequence s = random_sequence(Alphabet::protein(), 1000, rng);
  EXPECT_EQ(s.size(), 1000u);
}

TEST(Generate, RandomSequenceDeterministicPerSeed) {
  Xoshiro256 rng1(9), rng2(9);
  const Sequence a = random_sequence(Alphabet::dna(), 64, rng1);
  const Sequence b = random_sequence(Alphabet::dna(), 64, rng2);
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(Generate, RandomSequenceUsesWholeAlphabet) {
  Xoshiro256 rng(2);
  const Sequence s = random_sequence(Alphabet::dna(), 4000, rng);
  int counts[4] = {};
  for (std::size_t i = 0; i < s.size(); ++i) ++counts[s[i]];
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(Generate, MutateZeroRatesIsIdentity) {
  Xoshiro256 rng(3);
  const Sequence parent = random_sequence(Alphabet::protein(), 200, rng);
  MutationModel model;
  model.substitution_rate = 0;
  model.insertion_rate = 0;
  model.deletion_rate = 0;
  const Sequence child = mutate(parent, model, rng);
  EXPECT_EQ(child.to_string(), parent.to_string());
}

TEST(Generate, MutateSubstitutionOnlyPreservesLength) {
  Xoshiro256 rng(4);
  const Sequence parent = random_sequence(Alphabet::protein(), 500, rng);
  MutationModel model;
  model.substitution_rate = 0.3;
  model.insertion_rate = 0;
  model.deletion_rate = 0;
  const Sequence child = mutate(parent, model, rng);
  ASSERT_EQ(child.size(), parent.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < parent.size(); ++i) {
    differing += parent[i] != child[i];
  }
  // ~30% substitution rate, all to different residues.
  EXPECT_NEAR(static_cast<double>(differing), 150.0, 50.0);
}

TEST(Generate, HomologousPairLengthsNearTarget) {
  Xoshiro256 rng(5);
  MutationModel model;  // defaults: 2% indels each way
  const SequencePair pair =
      homologous_pair(Alphabet::dna(), 2000, model, rng);
  EXPECT_EQ(pair.a.size(), 2000u);
  EXPECT_NEAR(static_cast<double>(pair.b.size()), 2000.0, 400.0);
}

TEST(Generate, MutationModelValidation) {
  Xoshiro256 rng(6);
  const Sequence parent = random_sequence(Alphabet::dna(), 10, rng);
  MutationModel model;
  model.substitution_rate = 1.5;
  EXPECT_THROW(mutate(parent, model, rng), std::invalid_argument);
  model.substitution_rate = 0.1;
  model.extension_prob = 1.0;
  EXPECT_THROW(mutate(parent, model, rng), std::invalid_argument);
}

TEST(Generate, BiasedSequenceFollowsWeights) {
  Xoshiro256 rng(7);
  const double weights[] = {8.0, 1.0, 1.0, 0.0};
  const Sequence s = biased_sequence(Alphabet::dna(), weights, 5000, rng);
  int counts[4] = {};
  for (std::size_t i = 0; i < s.size(); ++i) ++counts[s[i]];
  EXPECT_GT(counts[0], 3600);
  EXPECT_EQ(counts[3], 0);
}

TEST(Generate, BiasedSequenceValidatesWeights) {
  Xoshiro256 rng(8);
  const double wrong_arity[] = {1.0, 1.0};
  EXPECT_THROW(biased_sequence(Alphabet::dna(), wrong_arity, 10, rng),
               std::invalid_argument);
  const double negative[] = {1.0, -1.0, 1.0, 1.0};
  EXPECT_THROW(biased_sequence(Alphabet::dna(), negative, 10, rng),
               std::invalid_argument);
  const double zeros[] = {0.0, 0.0, 0.0, 0.0};
  EXPECT_THROW(biased_sequence(Alphabet::dna(), zeros, 10, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace flsa
