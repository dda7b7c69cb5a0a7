// Differential tests for the SIMD anti-diagonal kernels: every sweep must
// produce bit-identical boundary rows/columns and counters to the scalar
// reference, across alphabets, schemes (linear and affine), shapes from 0
// to 300 residues, and arbitrary (non-global) boundary caches.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "dp/gotoh.hpp"
#include "dp/kernel.hpp"
#include "dp/kernel_simd.hpp"
#include "scoring/builtin.hpp"
#include "sequence/generate.hpp"
#include "support/prng.hpp"

namespace flsa {
namespace {

// All builtin scoring schemes the repo ships, linear-gap flavour.
std::vector<std::pair<const char*, ScoringScheme>> linear_schemes() {
  static const SubstitutionMatrix dna = scoring::dna(5, -4);
  static const SubstitutionMatrix dna_n = scoring::dna_n();
  static const SubstitutionMatrix lcs =
      scoring::identity(Alphabet::dna(), 1, 0);
  std::vector<std::pair<const char*, ScoringScheme>> schemes;
  schemes.emplace_back("mdm78", ScoringScheme::paper_default());
  schemes.emplace_back("pam250", ScoringScheme(scoring::pam250(), -8));
  schemes.emplace_back("blosum62", ScoringScheme(scoring::blosum62(), -4));
  schemes.emplace_back("dna", ScoringScheme(dna, -6));
  schemes.emplace_back("dna_n", ScoringScheme(dna_n, -6));
  schemes.emplace_back("lcs", ScoringScheme(lcs, 0));
  return schemes;
}

std::vector<std::pair<const char*, ScoringScheme>> affine_schemes() {
  static const SubstitutionMatrix dna = scoring::dna(5, -4);
  std::vector<std::pair<const char*, ScoringScheme>> schemes;
  schemes.emplace_back("blosum62", ScoringScheme(scoring::blosum62(), -11, -1));
  schemes.emplace_back("pam250", ScoringScheme(scoring::pam250(), -10, -2));
  schemes.emplace_back("dna", ScoringScheme(dna, -8, -2));
  schemes.emplace_back("mdm78", ScoringScheme(scoring::mdm78(), -30, -20));
  return schemes;
}

// Arbitrary boundary caches (what the kernels see mid-grid in FastLSA):
// random values, equal corners.
std::vector<Score> random_boundary(std::size_t len, Xoshiro256& rng,
                                   Score corner) {
  std::vector<Score> boundary(len);
  if (boundary.empty()) return boundary;
  boundary[0] = corner;
  for (std::size_t i = 1; i < len; ++i) {
    boundary[i] = static_cast<Score>(rng() % 101) - 50;
  }
  return boundary;
}

std::vector<AffineCell> random_affine_boundary(std::size_t len,
                                               Xoshiro256& rng,
                                               AffineCell corner) {
  std::vector<AffineCell> boundary(len);
  if (boundary.empty()) return boundary;
  boundary[0] = corner;
  for (std::size_t i = 1; i < len; ++i) {
    const auto v = [&] { return static_cast<Score>(rng() % 101) - 50; };
    boundary[i] = AffineCell{v(), v(), v()};
  }
  return boundary;
}

// The shapes exercised by the differential sweeps. Deliberately includes
// degenerate rectangles, lengths around the lane widths (4, 8) and their
// remainders, and a 300-residue long edge.
const std::pair<std::size_t, std::size_t> kShapes[] = {
    {0, 0},  {0, 7},   {7, 0},    {1, 1},   {1, 300},  {300, 1},
    {2, 2},  {3, 5},   {4, 4},    {5, 3},   {7, 9},    {8, 8},
    {9, 7},  {13, 31}, {16, 16},  {17, 64}, {64, 17},  {100, 100},
    {128, 3}, {3, 128}, {255, 33}, {33, 255}, {300, 300}};

class SimdLinear
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SimdLinear, SweepMatchesScalarBitForBit) {
  const auto [m, n] = GetParam();
  for (const auto& [name, scheme] : linear_schemes()) {
    const Alphabet& alphabet = scheme.matrix().alphabet();
    Xoshiro256 rng(977 * m + 31 * n + 1);
    const Sequence a = random_sequence(alphabet, m, rng);
    const Sequence b = random_sequence(alphabet, n, rng);
    const Score corner = static_cast<Score>(rng() % 41) - 20;
    const std::vector<Score> top = random_boundary(n + 1, rng, corner);
    const std::vector<Score> left = random_boundary(m + 1, rng, corner);

    std::vector<Score> bottom_s(n + 1), right_s(m + 1);
    std::vector<Score> bottom_v(n + 1), right_v(m + 1);
    DpCounters counters_s, counters_v;
    sweep_rectangle_linear(KernelKind::kScalar, a.residues(), b.residues(),
                           scheme, top, left, bottom_s, right_s, &counters_s);
    sweep_rectangle_linear_simd(a.residues(), b.residues(), scheme, top,
                                left, bottom_v, right_v, &counters_v);
    EXPECT_EQ(bottom_v, bottom_s) << name << " " << m << "x" << n;
    EXPECT_EQ(right_v, right_s) << name << " " << m << "x" << n;
    EXPECT_EQ(counters_v.cells_scored, counters_s.cells_scored) << name;
    EXPECT_EQ(counters_v.cells_stored, counters_s.cells_stored) << name;
  }
}

TEST_P(SimdLinear, InPlaceAliasedSweepMatchesScalar) {
  const auto [m, n] = GetParam();
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  Xoshiro256 rng(501 * m + n);
  const Sequence a = random_sequence(Alphabet::protein(), m, rng);
  const Sequence b = random_sequence(Alphabet::protein(), n, rng);

  std::vector<Score> row_s(n + 1), row_v(n + 1), left(m + 1);
  init_global_boundary_linear(scheme, row_s);
  init_global_boundary_linear(scheme, left);
  row_v = row_s;
  sweep_rectangle_linear(KernelKind::kScalar, a.residues(), b.residues(),
                         scheme, row_s, left, row_s, {});
  sweep_rectangle_linear_simd(a.residues(), b.residues(), scheme, row_v,
                              left, row_v, {});
  EXPECT_EQ(row_v, row_s);
}

class SimdAffine
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SimdAffine, SweepMatchesScalarBitForBit) {
  const auto [m, n] = GetParam();
  for (const auto& [name, scheme] : affine_schemes()) {
    const Alphabet& alphabet = scheme.matrix().alphabet();
    Xoshiro256 rng(389 * m + 17 * n + 2);
    const Sequence a = random_sequence(alphabet, m, rng);
    const Sequence b = random_sequence(alphabet, n, rng);
    const auto v = [&] { return static_cast<Score>(rng() % 41) - 20; };
    const AffineCell corner{v(), v(), v()};
    const std::vector<AffineCell> top =
        random_affine_boundary(n + 1, rng, corner);
    const std::vector<AffineCell> left =
        random_affine_boundary(m + 1, rng, corner);

    std::vector<AffineCell> bottom_s(n + 1), right_s(m + 1);
    std::vector<AffineCell> bottom_v(n + 1), right_v(m + 1);
    DpCounters counters_s, counters_v;
    sweep_rectangle_affine(KernelKind::kScalar, a.residues(), b.residues(),
                           scheme, top, left, bottom_s, right_s, &counters_s);
    sweep_rectangle_affine_simd(a.residues(), b.residues(), scheme, top,
                                left, bottom_v, right_v, &counters_v);
    EXPECT_EQ(bottom_v, bottom_s) << name << " " << m << "x" << n;
    EXPECT_EQ(right_v, right_s) << name << " " << m << "x" << n;
    EXPECT_EQ(counters_v.cells_scored, counters_s.cells_scored) << name;
  }
}

TEST_P(SimdAffine, GlobalBoundarySweepMatchesScalar) {
  const auto [m, n] = GetParam();
  const ScoringScheme scheme(scoring::blosum62(), -11, -1);
  Xoshiro256 rng(811 * m + n);
  const Sequence a = random_sequence(Alphabet::protein(), m, rng);
  const Sequence b = random_sequence(Alphabet::protein(), n, rng);
  std::vector<AffineCell> top(n + 1), left(m + 1);
  init_global_boundary_affine(scheme, top, /*horizontal=*/true);
  init_global_boundary_affine(scheme, left, /*horizontal=*/false);
  left[0] = top[0];

  std::vector<AffineCell> row_s = top, row_v = top;
  sweep_rectangle_affine(KernelKind::kScalar, a.residues(), b.residues(),
                         scheme, row_s, left, row_s, {});
  sweep_rectangle_affine_simd(a.residues(), b.residues(), scheme, row_v,
                              left, row_v, {});
  EXPECT_EQ(row_v, row_s);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SimdLinear, ::testing::ValuesIn(kShapes));
INSTANTIATE_TEST_SUITE_P(Shapes, SimdAffine, ::testing::ValuesIn(kShapes));

TEST(SimdKernel, DispatchOverloadsAgreeWithScalar) {
  Xoshiro256 rng(42);
  const Sequence a = random_sequence(Alphabet::protein(), 113, rng);
  const Sequence b = random_sequence(Alphabet::protein(), 97, rng);
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  const Score expect =
      global_score_linear(KernelKind::kScalar, a.residues(), b.residues(),
                          scheme);
  for (const KernelKind kind :
       {KernelKind::kAuto, KernelKind::kScalar, KernelKind::kSimd}) {
    EXPECT_EQ(global_score_linear(kind, a.residues(), b.residues(), scheme),
              expect)
        << to_string(kind);
    EXPECT_EQ(
        last_row_linear(kind, a.residues(), b.residues(), scheme).back(),
        expect)
        << to_string(kind);
  }
}

TEST(SimdKernel, PaperExampleScoresEightyTwo) {
  // The paper's Figure 1 MDM78 example, pushed through the vector lanes.
  const Sequence a(Alphabet::protein(), "TLDKLLKD");
  const Sequence b(Alphabet::protein(), "TDVLKAD");
  EXPECT_EQ(global_score_linear(KernelKind::kSimd, a.residues(),
                                b.residues(), ScoringScheme::paper_default()),
            82);
}

TEST(SimdKernel, ResolveAndNames) {
  // kAuto runs the paper's linear MDM78 scheme on the int16 tier, an
  // affine scheme on the int32 SIMD tier (the narrow tier has no affine
  // core), and both on the scalar sweep off a vector ISA.
  const ScoringScheme& paper = ScoringScheme::paper_default();
  const ScoringScheme affine(scoring::mdm78(), -11, -1);
  EXPECT_EQ(resolve_kernel(KernelKind::kScalar, paper), KernelKind::kScalar);
  EXPECT_EQ(resolve_kernel(KernelKind::kSimd, paper), KernelKind::kSimd);
  if (simd_kernel_available()) {
    EXPECT_EQ(resolve_kernel(KernelKind::kAuto, paper), KernelKind::kInt16);
    EXPECT_EQ(resolve_kernel(KernelKind::kAuto, affine), KernelKind::kSimd);
  } else {
    EXPECT_EQ(resolve_kernel(KernelKind::kAuto, paper), KernelKind::kScalar);
    EXPECT_EQ(resolve_kernel(KernelKind::kAuto, affine), KernelKind::kScalar);
    EXPECT_STREQ(simd_kernel_isa(), "scalar");
  }
  KernelKind kind = KernelKind::kAuto;
  for (const char* name : {"auto", "scalar", "simd"}) {
    EXPECT_TRUE(parse_kernel_kind(name, &kind)) << name;
    EXPECT_STREQ(to_string(kind), name);
  }
  EXPECT_FALSE(parse_kernel_kind("avx512", &kind));
}

TEST(SimdKernel, RejectsMismatchedBoundaries) {
  const Sequence a(Alphabet::dna(), "ACG");
  const Sequence b(Alphabet::dna(), "AC");
  const ScoringScheme scheme(scoring::dna(), -6);
  std::vector<Score> top(3), left(4), bottom(3);
  init_global_boundary_linear(scheme, top);
  init_global_boundary_linear(scheme, left);
  if (simd_kernel_available()) {
    std::vector<Score> bad_top(2);
    EXPECT_THROW(
        sweep_rectangle_linear_simd(a.residues(), b.residues(), scheme,
                                    bad_top, left, bottom, {}),
        std::invalid_argument);
  }
  // The affine guard is shared with the scalar kernel either way.
  const ScoringScheme affine(scoring::dna(), -5, -1);
  EXPECT_THROW(sweep_rectangle_linear_simd(a.residues(), b.residues(),
                                           affine, top, left, bottom, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace flsa
