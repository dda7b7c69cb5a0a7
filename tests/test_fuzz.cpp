// Randomized cross-validation "fuzz" suite: hundreds of small random
// problems where every algorithm in the library must agree with every
// other, across random alphabets, matrices, gap penalties, and shapes.
// This is the broadest net for boundary/tie-breaking bugs.
#include <gtest/gtest.h>

#include "flsa/flsa.hpp"

namespace flsa {
namespace {

/// A random scoring scheme over a random small alphabet.
struct RandomScenario {
  std::shared_ptr<Alphabet> alphabet;
  std::shared_ptr<SubstitutionMatrix> matrix;
  Score gap;

  static RandomScenario make(Xoshiro256& rng) {
    RandomScenario s;
    static const char* kLetterSets[] = {"AB", "ACGT", "ABCDEFGH",
                                        "ARNDCQEGHILKMFPSTWYV"};
    const char* letters = kLetterSets[rng.bounded(4)];
    s.alphabet = std::make_shared<Alphabet>(letters, "fuzz");
    s.matrix = std::make_shared<SubstitutionMatrix>(*s.alphabet, "fuzz");
    for (Residue x = 0; x < s.alphabet->size(); ++x) {
      for (Residue y = x; y < s.alphabet->size(); ++y) {
        // Diagonal biased positive, off-diagonal biased negative, but both
        // signs possible everywhere: exercises unusual landscapes.
        const Score base = x == y ? static_cast<Score>(rng.bounded(15))
                                  : static_cast<Score>(rng.bounded(13)) - 9;
        s.matrix->set_symmetric(x, y, base);
      }
    }
    s.gap = -static_cast<Score>(rng.bounded(12));
    return s;
  }

  ScoringScheme scheme() const { return ScoringScheme(*matrix, gap); }
};

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, AllGlobalAlgorithmsAgree) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17);
  for (int scenario = 0; scenario < 4; ++scenario) {
    const RandomScenario s = RandomScenario::make(rng);
    const ScoringScheme scheme = s.scheme();
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t m = rng.bounded(45);
      const std::size_t n = rng.bounded(45);
      const Sequence a = random_sequence(*s.alphabet, m, rng);
      const Sequence b = random_sequence(*s.alphabet, n, rng);

      const Alignment fm = full_matrix_align(a, b, scheme);
      ASSERT_EQ(score_alignment(fm, scheme, *s.alphabet), fm.score);

      // Score-only engines.
      ASSERT_EQ(global_score_linear(KernelKind::kScalar, a.residues(),
                                    b.residues(), scheme),
                fm.score);

      // The 2-bit move fill over whole rows (banded_align with a band
      // as wide as the matrix, the paper's 2-bit FM): identical path.
      const Alignment packed =
          banded_align(a, b, scheme, std::max<std::size_t>(1, std::max(m, n)));
      ASSERT_EQ(packed.score, fm.score);
      ASSERT_EQ(packed.gapped_a, fm.gapped_a);
      ASSERT_EQ(packed.gapped_b, fm.gapped_b);

      // Hirschberg / FastLSA / the score-only dispatch layer, under both
      // sweep kernels: identical scores AND identical paths either way.
      HirschbergOptions hopts;
      hopts.base_case_cells = 2 + rng.bounded(64);
      FastLsaOptions fopts;
      fopts.k = 2 + static_cast<unsigned>(rng.bounded(9));
      fopts.base_case_cells = 16 + rng.bounded(200);
      for (const KernelKind kind :
           {KernelKind::kScalar, KernelKind::kSimd, KernelKind::kInt16}) {
        ASSERT_EQ(global_score_linear(kind, a.residues(), b.residues(),
                                      scheme),
                  fm.score)
            << to_string(kind);
        hopts.kernel = kind;
        // Hirschberg guarantees the optimal score (its split tie-breaking
        // may pick a different co-optimal path than FM).
        ASSERT_EQ(hirschberg_align(a, b, scheme, hopts).score, fm.score)
            << to_string(kind);
        fopts.kernel = kind;
        const Alignment fl = fastlsa_align(a, b, scheme, fopts);
        ASSERT_EQ(fl.score, fm.score)
            << "k=" << fopts.k << " bm=" << fopts.base_case_cells
            << " m=" << m << " n=" << n << " kernel=" << to_string(kind);
        ASSERT_EQ(fl.gapped_a, fm.gapped_a) << to_string(kind);
        ASSERT_EQ(fl.gapped_b, fm.gapped_b) << to_string(kind);
        // Score-bound pruning is admissible: same optimal score and the
        // same traceback as the exact sweep, on every kernel tier.
        FastLsaOptions popts_prune = fopts;
        popts_prune.prune = true;
        const Alignment pruned = fastlsa_align(a, b, scheme, popts_prune);
        ASSERT_EQ(pruned.score, fm.score) << "prune/" << to_string(kind);
        ASSERT_EQ(pruned.gapped_a, fm.gapped_a)
            << "prune/" << to_string(kind);
        ASSERT_EQ(pruned.gapped_b, fm.gapped_b)
            << "prune/" << to_string(kind);
        // Parallel FastLSA: same alignment, tile wavefront, every kernel
        // (first trial only; the tiny problems make threads pure
        // overhead).
        if (trial == 0) {
          ParallelOptions popts;
          popts.threads = 2;
          const Alignment par =
              parallel_fastlsa_align(a, b, scheme, fopts, popts);
          ASSERT_EQ(par.score, fm.score) << "parallel/" << to_string(kind);
          ASSERT_EQ(par.gapped_a, fm.gapped_a)
              << "parallel/" << to_string(kind);
        }
      }

      // Co-optimal analysis: same score, count >= 1.
      const CoOptimalAnalysis co = count_optimal_paths(a, b, scheme);
      ASSERT_EQ(co.score, fm.score);
      ASSERT_GE(co.path_count, 1u);
    }
  }
}

TEST_P(FuzzSweep, AffineAlgorithmsAgree) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 40503u + 5);
  for (int scenario = 0; scenario < 3; ++scenario) {
    const RandomScenario s = RandomScenario::make(rng);
    const Score open = -static_cast<Score>(rng.bounded(12));
    const Score extend = -static_cast<Score>(rng.bounded(5));
    const ScoringScheme scheme(*s.matrix, open, extend);
    for (int trial = 0; trial < 5; ++trial) {
      const std::size_t m = rng.bounded(35);
      const std::size_t n = rng.bounded(35);
      const Sequence a = random_sequence(*s.alphabet, m, rng);
      const Sequence b = random_sequence(*s.alphabet, n, rng);

      const Score expected =
          global_score_affine(a.residues(), b.residues(), scheme);
      const Alignment fm = full_matrix_align_affine(a, b, scheme);
      ASSERT_EQ(fm.score, expected);
      ASSERT_EQ(score_alignment(fm, scheme, *s.alphabet), expected);

      HirschbergOptions hopts;
      hopts.base_case_cells = 2 + rng.bounded(64);
      FastLsaOptions fopts;
      fopts.k = 2 + static_cast<unsigned>(rng.bounded(7));
      fopts.base_case_cells = 16 + rng.bounded(150);
      for (const KernelKind kind : {KernelKind::kScalar, KernelKind::kSimd}) {
        hopts.kernel = kind;
        ASSERT_EQ(hirschberg_align_affine(a, b, scheme, hopts).score,
                  expected)
            << "open=" << open << " extend=" << extend << " m=" << m
            << " n=" << n << " kernel=" << to_string(kind);
        fopts.kernel = kind;
        ASSERT_EQ(fastlsa_align_affine(a, b, scheme, fopts).score, expected)
            << "k=" << fopts.k << " bm=" << fopts.base_case_cells
            << " kernel=" << to_string(kind);
      }
    }
  }
}

TEST_P(FuzzSweep, LocalAndSemiGlobalAgree) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 69069u + 3);
  for (int scenario = 0; scenario < 3; ++scenario) {
    const RandomScenario s = RandomScenario::make(rng);
    if (s.gap == 0) continue;  // local/semiglobal need a real gap cost
    const ScoringScheme scheme = s.scheme();
    for (int trial = 0; trial < 5; ++trial) {
      const std::size_t m = 1 + rng.bounded(30);
      const std::size_t n = 1 + rng.bounded(30);
      const Sequence a = random_sequence(*s.alphabet, m, rng);
      const Sequence b = random_sequence(*s.alphabet, n, rng);

      ASSERT_EQ(local_align(a, b, scheme).score,
                local_align_full_matrix(a, b, scheme).score);
      ASSERT_EQ(fitting_align(a, b, scheme).score,
                fitting_align_full_matrix(a, b, scheme).score);
      ASSERT_EQ(overlap_align(a, b, scheme).score,
                overlap_align_full_matrix(a, b, scheme).score);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 12));

// The paper's Figure 1 worked example (MDM78, optimal score 82) as a golden
// case through every engine x kernel combination (every registered tier,
// including the saturating narrow kernels).
TEST(FuzzGolden, PaperExampleUnderEveryKernel) {
  const Sequence a(Alphabet::protein(), "TLDKLLKD");
  const Sequence b(Alphabet::protein(), "TDVLKAD");
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  ASSERT_EQ(full_matrix_align(a, b, scheme).score, 82);
  for (const KernelInfo& info : kernel_registry()) {
    const KernelKind kind = info.kind;
    ASSERT_EQ(global_score_linear(kind, a.residues(), b.residues(), scheme),
              82)
        << to_string(kind);
    HirschbergOptions hopts;
    hopts.base_case_cells = 2;
    hopts.kernel = kind;
    ASSERT_EQ(hirschberg_align(a, b, scheme, hopts).score, 82)
        << to_string(kind);
    FastLsaOptions fopts;
    fopts.k = 2;
    fopts.base_case_cells = 16;
    fopts.kernel = kind;
    FastLsaStats stats;
    ASSERT_EQ(fastlsa_align(a, b, scheme, fopts, &stats).score, 82)
        << to_string(kind);
    ASSERT_EQ(stats.kernel_used, resolve_kernel(kind));
    ParallelOptions popts;
    popts.threads = 2;
    ASSERT_EQ(parallel_fastlsa_align(a, b, scheme, fopts, popts).score, 82)
        << "parallel/" << to_string(kind);
  }
}

}  // namespace
}  // namespace flsa
