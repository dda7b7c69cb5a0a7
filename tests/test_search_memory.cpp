// Memory regression tests for the search paths: the linear-space local
// aligner must not allocate the O(|query| * window) full Smith-Waterman
// matrix, and chained search must stay below one such matrix end to end.
// A byte-counting global allocator (the test_arena.cpp trick, counting
// sizes instead of calls) measures the real heap traffic — reverting
// local_align to local_align_full_matrix fails these by an order of
// magnitude.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/local_align.hpp"
#include "dp/local.hpp"
#include "scoring/builtin.hpp"
#include "search/chain.hpp"
#include "search/reference_index.hpp"
#include "sequence/generate.hpp"

namespace {

std::atomic<std::uint64_t> g_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size) {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flsa {
namespace {

ScoringScheme scheme() {
  static const SubstitutionMatrix m = scoring::dna(5, -4);
  return ScoringScheme(m, -6);
}

std::uint64_t bytes() { return g_bytes.load(std::memory_order_relaxed); }

template <typename Fn>
std::uint64_t bytes_allocated_by(Fn&& fn) {
  const std::uint64_t before = bytes();
  fn();
  return bytes() - before;
}

TEST(SearchMemory, LinearSpaceAlignerAllocatesFarLessThanTheFullMatrix) {
  Xoshiro256 rng(281);
  const Sequence gene = random_sequence(Alphabet::dna(), 400, rng);
  const Sequence window(
      Alphabet::dna(),
      random_sequence(Alphabet::dna(), 1800, rng).to_string() +
          gene.to_string() +
          random_sequence(Alphabet::dna(), 1800, rng).to_string());

  // A linearly-bounded base case: FastLSA recursion memory tracks the
  // perimeter, not the cell product.
  FastLsaOptions linear_options;
  linear_options.base_case_cells =
      8 * (gene.size() + window.size());

  Score linear_score = 0, full_score = 0;
  const std::uint64_t linear_bytes = bytes_allocated_by([&] {
    linear_score = local_align(gene, window, scheme(), linear_options).score;
  });
  const std::uint64_t full_bytes = bytes_allocated_by([&] {
    full_score = local_align_full_matrix(gene, window, scheme()).score;
  });
  EXPECT_EQ(linear_score, full_score);
  EXPECT_EQ(linear_score, 400 * 5);
  // The full matrix holds |query| * |window| cells; linear space keeps
  // O(|query| + |window|) rows plus the FastLSA grid. An order of
  // magnitude is a loose bound — a full-matrix fallback trips it at once.
  EXPECT_LT(linear_bytes * 10, full_bytes)
      << "linear " << linear_bytes << " vs full " << full_bytes;
}

TEST(SearchMemory, LinearSpaceScalesLinearlyFullMatrixQuadratically) {
  // Fixed query, doubling windows: the full matrix's heap traffic tracks
  // the |query| * window product (~2x per doubling) while the linear-
  // space aligner tracks the perimeter (well under 2x of the product
  // trend; comfortably under 3x across the 4x span).
  Xoshiro256 rng(282);
  const Sequence gene = random_sequence(Alphabet::dna(), 300, rng);
  auto planted_window = [&](std::size_t flank) {
    return Sequence(
        Alphabet::dna(),
        random_sequence(Alphabet::dna(), flank, rng).to_string() +
            gene.to_string() +
            random_sequence(Alphabet::dna(), flank, rng).to_string());
  };
  const Sequence small = planted_window(350);   // ~1000 residues
  const Sequence large = planted_window(1850);  // ~4000 residues

  auto linear_options = [&](const Sequence& window) {
    FastLsaOptions options;
    options.base_case_cells = 8 * (gene.size() + window.size());
    return options;
  };
  const std::uint64_t linear_small = bytes_allocated_by(
      [&] { local_align(gene, small, scheme(), linear_options(small)); });
  const std::uint64_t linear_large = bytes_allocated_by(
      [&] { local_align(gene, large, scheme(), linear_options(large)); });
  const std::uint64_t full_small = bytes_allocated_by(
      [&] { local_align_full_matrix(gene, small, scheme()); });
  const std::uint64_t full_large = bytes_allocated_by(
      [&] { local_align_full_matrix(gene, large, scheme()); });

  EXPECT_GE(full_large, full_small * 7 / 2)  // ~4x: the matrix product
      << full_small << " -> " << full_large;
  EXPECT_LT(linear_large, linear_small * 3)  // linear in the window
      << linear_small << " -> " << linear_large;
}

TEST(SearchMemory, ChainedSearchHeapTrafficStaysFarBelowTheMatrixProduct) {
  // End to end on the path the daemon serves: anchors, chaining, banded
  // gap fills and gapped flank extensions of every filled chain. Besides
  // the planted gene, the subject carries ten 150-residue fragments of it
  // (domain repeats): each is a chain of its own, and under this scheme
  // its flanks extend for hundreds of rows. A flank spans at most
  // |query| by |query| + band_pad residues, and the whole search must
  // allocate less than one |query| x (|query| + 2 * band_pad) int32 DP
  // matrix — a fresh flank traceback per chain overshoots it.
  Xoshiro256 rng(283);
  const Sequence gene = random_sequence(Alphabet::dna(), 1000, rng);
  MutationModel model;
  model.substitution_rate = 0.03;
  std::string subject = random_sequence(Alphabet::dna(), 4000, rng)
                            .to_string();
  for (std::size_t c = 0; c < 10; ++c) {
    subject += gene.to_string().substr(50 + 90 * c, 150);
    subject += random_sequence(Alphabet::dna(), 500, rng).to_string();
  }
  subject += mutate(gene, model, rng).to_string();
  subject += random_sequence(Alphabet::dna(), 3000, rng).to_string();
  const search::ReferenceIndex index(Sequence(Alphabet::dna(), subject), 12);

  const search::ChainedSearchParams params;
  std::size_t hit_count = 0;
  const std::uint64_t search_bytes = bytes_allocated_by([&] {
    hit_count = search::chained_search(gene, index, scheme(), params).size();
  });
  ASSERT_GT(hit_count, 1u);  // the gene and some of its repeats

  const std::size_t window = gene.size() + 2 * params.band_pad;
  const std::uint64_t one_matrix =
      static_cast<std::uint64_t>(gene.size()) * window * 4;
  EXPECT_LT(search_bytes, one_matrix)
      << "search allocated " << search_bytes << " bytes; one full matrix "
      << "would be at least " << one_matrix;
}

}  // namespace
}  // namespace flsa
