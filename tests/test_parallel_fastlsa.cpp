// Tests for Parallel FastLSA: bit-identical results to the sequential
// algorithm across thread counts and tilings.
#include <gtest/gtest.h>

#include "core/arena.hpp"
#include "core/fastlsa.hpp"
#include "dp/fullmatrix.hpp"
#include "dp/gotoh.hpp"
#include "parallel/parallel_fastlsa.hpp"
#include "scoring/builtin.hpp"
#include "sequence/generate.hpp"

namespace flsa {
namespace {

FastLsaOptions opts(unsigned k, std::size_t base_cells) {
  FastLsaOptions o;
  o.k = k;
  o.base_case_cells = base_cells;
  return o;
}

TEST(ParallelFastLsa, OptionResolutionDefaults) {
  ParallelOptions p;
  p.threads = 4;
  const ParallelOptions r = p.resolved(/*k=*/8);
  EXPECT_EQ(r.threads, 4u);
  EXPECT_EQ(r.tiles_per_block, 1u);  // 8 blocks already exceed 2*4 tiles
  EXPECT_EQ(r.base_case_tiles, 16u);
  ParallelOptions small_k;
  small_k.threads = 8;
  EXPECT_EQ(small_k.resolved(2).tiles_per_block, 8u);  // 2*8/2
}

TEST(ParallelFastLsa, MatchesSequentialAlignmentExactly) {
  Xoshiro256 rng(111);
  MutationModel model;
  const SequencePair pair =
      homologous_pair(Alphabet::protein(), 300, model, rng);
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  const Alignment seq = fastlsa_align(pair.a, pair.b, scheme, opts(4, 256));
  for (unsigned threads : {1u, 2u, 4u, 7u}) {
    ParallelOptions parallel;
    parallel.threads = threads;
    const Alignment par = parallel_fastlsa_align(pair.a, pair.b, scheme,
                                                 opts(4, 256), parallel);
    EXPECT_EQ(par.score, seq.score) << "threads=" << threads;
    EXPECT_EQ(par.gapped_a, seq.gapped_a);
    EXPECT_EQ(par.gapped_b, seq.gapped_b);
  }
}

TEST(ParallelFastLsa, MatchesFullMatrixScore) {
  Xoshiro256 rng(112);
  MutationModel model;
  const SequencePair pair =
      homologous_pair(Alphabet::protein(), 250, model, rng);
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  const Score expected = full_matrix_score(pair.a, pair.b, scheme);
  ParallelOptions parallel;
  parallel.threads = 4;
  EXPECT_EQ(
      parallel_fastlsa_align(pair.a, pair.b, scheme, opts(3, 200), parallel)
          .score,
      expected);
}

TEST(ParallelFastLsa, ProducesTheSequentialAlignment) {
  // Bit-identical alignments (not just scores) against the sequential
  // reference.
  Xoshiro256 rng(117);
  MutationModel model;
  const SequencePair pair =
      homologous_pair(Alphabet::protein(), 320, model, rng);
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  const Alignment seq = fastlsa_align(pair.a, pair.b, scheme, opts(4, 256));
  ParallelOptions parallel;
  parallel.threads = 4;
  const Alignment par = parallel_fastlsa_align(pair.a, pair.b, scheme,
                                               opts(4, 256), parallel);
  EXPECT_EQ(par.score, seq.score);
  EXPECT_EQ(par.gapped_a, seq.gapped_a);
  EXPECT_EQ(par.gapped_b, seq.gapped_b);
}

TEST(ParallelFastLsa, WorkspaceReuseAcrossRunsStaysCorrect) {
  // The same FastLsaWorkspace recycled across sequential and parallel
  // runs of different shapes must never change results — recycled
  // buffers carry stale data by design.
  Xoshiro256 rng(119);
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  FastLsaWorkspace workspace;
  FastLsaOptions o = opts(3, 200);
  o.workspace = &workspace;
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t m = 60 + rng.bounded(200);
    const std::size_t n = 60 + rng.bounded(200);
    const Sequence a = random_sequence(Alphabet::protein(), m, rng);
    const Sequence b = random_sequence(Alphabet::protein(), n, rng);
    const Score expected = full_matrix_score(a, b, scheme);
    EXPECT_EQ(fastlsa_align(a, b, scheme, o).score, expected);
    ParallelOptions parallel;
    parallel.threads = 3;
    EXPECT_EQ(parallel_fastlsa_align(a, b, scheme, o, parallel).score,
              expected);
  }
}

TEST(ParallelFastLsa, FineTilingStillCorrect) {
  Xoshiro256 rng(113);
  MutationModel model;
  const SequencePair pair =
      homologous_pair(Alphabet::dna(), 200, model, rng);
  const SubstitutionMatrix m = scoring::dna(5, -4);
  const ScoringScheme scheme(m, -6);
  const Score expected = full_matrix_score(pair.a, pair.b, scheme);
  for (std::size_t tiles : {1u, 2u, 5u, 9u}) {
    ParallelOptions parallel;
    parallel.threads = 4;
    parallel.tiles_per_block = tiles;
    parallel.base_case_tiles = tiles * 2;
    EXPECT_EQ(parallel_fastlsa_align(pair.a, pair.b, scheme, opts(2, 400),
                                     parallel)
                  .score,
              expected)
        << "tiles=" << tiles;
  }
}

TEST(ParallelFastLsa, AffineParallelMatchesGotoh) {
  Xoshiro256 rng(114);
  MutationModel model;
  model.extension_prob = 0.7;
  const SequencePair pair =
      homologous_pair(Alphabet::dna(), 220, model, rng);
  const SubstitutionMatrix m = scoring::dna(5, -4);
  const ScoringScheme scheme(m, -8, -2);
  const Score expected =
      global_score_affine(pair.a.residues(), pair.b.residues(), scheme);
  ParallelOptions parallel;
  parallel.threads = 4;
  const Alignment aln = parallel_fastlsa_align_affine(
      pair.a, pair.b, scheme, opts(3, 128), parallel);
  EXPECT_EQ(aln.score, expected);
  EXPECT_EQ(score_alignment(aln, scheme, Alphabet::dna()), aln.score);
}

TEST(ParallelFastLsa, CountersCoverAllWork) {
  // Parallel counters (merged across workers) must equal the sequential
  // run's counters for the same configuration.
  Xoshiro256 rng(115);
  const Sequence a = random_sequence(Alphabet::protein(), 300, rng);
  const Sequence b = random_sequence(Alphabet::protein(), 280, rng);
  const ScoringScheme& scheme = ScoringScheme::paper_default();

  FastLsaStats seq_stats;
  ParallelOptions seq_like;
  seq_like.threads = 1;
  seq_like.tiles_per_block = 3;
  seq_like.base_case_tiles = 4;
  parallel_fastlsa_align(a, b, scheme, opts(4, 512), seq_like, &seq_stats);

  FastLsaStats par_stats;
  ParallelOptions parallel = seq_like;
  parallel.threads = 4;
  parallel_fastlsa_align(a, b, scheme, opts(4, 512), parallel, &par_stats);

  EXPECT_EQ(par_stats.counters.cells_scored, seq_stats.counters.cells_scored);
  EXPECT_EQ(par_stats.counters.cells_stored, seq_stats.counters.cells_stored);
  EXPECT_EQ(par_stats.counters.traceback_steps,
            seq_stats.counters.traceback_steps);
}

TEST(ParallelFastLsa, StressManySmallRuns) {
  // Exercises pool reuse across many fill/base-case phases.
  Xoshiro256 rng(116);
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  ParallelOptions parallel;
  parallel.threads = 3;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t m = 1 + rng.bounded(50);
    const std::size_t n = 1 + rng.bounded(50);
    const Sequence a = random_sequence(Alphabet::protein(), m, rng);
    const Sequence b = random_sequence(Alphabet::protein(), n, rng);
    EXPECT_EQ(
        parallel_fastlsa_align(a, b, scheme, opts(2, 16), parallel).score,
        full_matrix_score(a, b, scheme));
  }
}

}  // namespace
}  // namespace flsa
