// Tests for the k-mer index behind chained search.
#include <gtest/gtest.h>

#include <memory>

#include "search/kmer_index.hpp"
#include "sequence/generate.hpp"

namespace flsa {
namespace {

TEST(KmerIndex, FindsEveryOccurrence) {
  const Sequence subject(Alphabet::dna(), "ACGTACGTAACGT");
  const search::KmerIndex index(subject, 4);
  const Sequence probe(Alphabet::dna(), "ACGT");
  const auto& hits = index.lookup(probe.residues());
  EXPECT_EQ(hits, (std::vector<std::uint32_t>{0, 4, 9}));
  const Sequence absent(Alphabet::dna(), "TTTT");
  EXPECT_TRUE(index.lookup(absent.residues()).empty());
}

TEST(KmerIndex, RollingPackMatchesDirectPack) {
  Xoshiro256 rng(261);
  const Sequence subject = random_sequence(Alphabet::dna(), 200, rng);
  const search::KmerIndex index(subject, 6);
  // Every indexed position must round-trip through lookup.
  for (std::size_t pos = 0; pos + 6 <= subject.size(); pos += 17) {
    const auto& hits = index.lookup(subject.residues().subspan(pos, 6));
    EXPECT_NE(std::find(hits.begin(), hits.end(),
                        static_cast<std::uint32_t>(pos)),
              hits.end())
        << "position " << pos;
  }
}

TEST(KmerIndex, ProteinAlphabetWorks) {
  Xoshiro256 rng(262);
  const Sequence subject = random_sequence(Alphabet::protein(), 300, rng);
  const search::KmerIndex index(subject, 4);  // 20^4 = 160k keys
  EXPECT_GT(index.distinct_kmers(), 200u);
  const auto& hits = index.lookup(subject.residues().subspan(100, 4));
  EXPECT_FALSE(hits.empty());
}

TEST(KmerIndex, Validation) {
  const Sequence s(Alphabet::protein(), "ACDEFG");
  EXPECT_THROW(search::KmerIndex(s, 0), std::invalid_argument);
  EXPECT_THROW(search::KmerIndex(s, 20), std::invalid_argument);  // 20^20
  const search::KmerIndex tiny(Sequence(Alphabet::dna(), "AC"), 4);
  EXPECT_EQ(tiny.distinct_kmers(), 0u);  // subject shorter than k
}

TEST(KmerIndex, SharedSubjectOutlivesTheCallersHandle) {
  // The index co-owns its subject: the caller may drop every other
  // reference (or pass a temporary) and keep searching safely.
  std::unique_ptr<search::KmerIndex> index;
  {
    auto subject = std::make_shared<const Sequence>(Alphabet::dna(),
                                                    "ACGTACGTAACGT");
    index = std::make_unique<search::KmerIndex>(subject, 4);
  }
  EXPECT_EQ(index->subject().size(), 13u);
  const Sequence probe(Alphabet::dna(), "ACGT");
  EXPECT_EQ(index->lookup(probe.residues()),
            (std::vector<std::uint32_t>{0, 4, 9}));
  // The copying convenience constructor is just as safe with temporaries.
  const search::KmerIndex copied(Sequence(Alphabet::dna(), "ACGTACGT"), 4);
  EXPECT_EQ(copied.lookup(probe.residues()).size(), 2u);
}

TEST(KmerIndex, SubjectsPastUint32PositionsAreATypedError) {
  // lookup() returns uint32_t positions; a subject whose positions do not
  // fit must be rejected loudly, never silently truncated.
  constexpr std::size_t kLimit = search::KmerIndex::kMaxSubjectResidues;
  EXPECT_EQ(kLimit, (std::uint64_t{1} << 32) - 1);
  EXPECT_NO_THROW(search::KmerIndex::require_indexable(kLimit));
  try {
    search::KmerIndex::require_indexable(kLimit + 1);
    FAIL() << "expected SubjectTooLarge";
  } catch (const search::SubjectTooLarge& e) {
    EXPECT_EQ(e.residues(), kLimit + 1);
    EXPECT_NE(std::string(e.what()).find("4294967296"), std::string::npos);
  }
}

}  // namespace
}  // namespace flsa
