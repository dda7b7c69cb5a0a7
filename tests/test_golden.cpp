// Golden regression tests: exact scores, cell counts and shape statistics
// for fixed seeds. Any algorithmic drift — a changed tie-break, an
// off-by-one in grid geometry, a different recursion shape — trips these
// even when all the cross-checks still agree with each other.
#include <gtest/gtest.h>

#include "benchlib/workloads.hpp"
#include "flsa/flsa.hpp"

namespace flsa {
namespace {

TEST(Golden, Prot500WorkloadIsStable) {
  const SequencePair pair = bench::sized_workload(500).make();
  ASSERT_EQ(pair.a.size(), 500u);
  ASSERT_EQ(pair.b.size(), 493u);
  // First residues of the parent are frozen by the PRNG contract.
  EXPECT_EQ(pair.a.to_string().substr(0, 10), "PPFWVYIIIY");
  EXPECT_EQ(full_matrix_score(pair.a, pair.b,
                              ScoringScheme::paper_default()),
            7534);
}

TEST(Golden, FastLsaShapeStatsStable) {
  const SequencePair pair = bench::sized_workload(500).make();
  FastLsaOptions options;
  options.k = 4;
  options.base_case_cells = 1024;
  FastLsaStats stats;
  const Alignment aln = fastlsa_align(pair.a, pair.b,
                                      ScoringScheme::paper_default(),
                                      options, &stats);
  EXPECT_EQ(aln.score, 7534);
  // Exact work/shape fingerprint of the recursion for this input.
  EXPECT_EQ(stats.counters.cells_scored, 288566u);
  EXPECT_EQ(stats.counters.cells_stored, 15334u);
  EXPECT_EQ(stats.counters.total_cells(), 303900u);
  EXPECT_EQ(stats.base_case_invocations, 32u);
  EXPECT_EQ(stats.recursive_splits, 6u);
  EXPECT_EQ(stats.max_recursion_depth, 3u);
}

TEST(Golden, HirschbergCellCountStable) {
  const SequencePair pair = bench::sized_workload(500).make();
  DpCounters counters;
  HirschbergOptions options;
  options.base_case_cells = 256;
  hirschberg_align(pair.a, pair.b, ScoringScheme::paper_default(), options,
                   &counters);
  EXPECT_EQ(counters.total_cells(), 485741u);
}

TEST(Golden, AffineScoreStable) {
  const SequencePair pair = bench::sized_workload(500).make();
  const ScoringScheme scheme(scoring::mdm78(), -12, -2);
  EXPECT_EQ(global_score_affine(pair.a.residues(), pair.b.residues(),
                                scheme),
            7562);
}

// The paper's Figure 1 worked example (MDM78, optimal score 82) on EVERY
// registered kernel tier — including the saturating narrow tier — and
// every wavefront scheduler. The registry loop means a newly added tier
// is golden-tested automatically.
TEST(Golden, PaperWorkedExampleOnEveryKernelTierAndScheduler) {
  const Sequence a(Alphabet::protein(), "TLDKLLKD");
  const Sequence b(Alphabet::protein(), "TDVLKAD");
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  const Alignment fm = full_matrix_align(a, b, scheme);
  ASSERT_EQ(fm.score, 82);

  for (const KernelInfo& info : kernel_registry()) {
    const KernelKind kind = info.kind;
    EXPECT_EQ(global_score_linear(kind, a.residues(), b.residues(), scheme),
              82)
        << info.name;

    HirschbergOptions hopts;
    hopts.base_case_cells = 2;
    hopts.kernel = kind;
    EXPECT_EQ(hirschberg_align(a, b, scheme, hopts).score, 82) << info.name;

    FastLsaOptions fopts;
    fopts.k = 2;
    fopts.base_case_cells = 16;
    fopts.kernel = kind;
    const Alignment fl = fastlsa_align(a, b, scheme, fopts);
    EXPECT_EQ(fl.score, 82) << info.name;
    EXPECT_EQ(fl.gapped_a, fm.gapped_a) << info.name;
    EXPECT_EQ(fl.gapped_b, fm.gapped_b) << info.name;

    for (SchedulerKind sched : {SchedulerKind::kBarrierStaged,
                                SchedulerKind::kDependencyCounter}) {
      ParallelOptions popts;
      popts.threads = 2;
      popts.scheduler = sched;
      const Alignment par = parallel_fastlsa_align(a, b, scheme, fopts,
                                                   popts);
      EXPECT_EQ(par.score, 82) << info.name << "/" << to_string(sched);
      EXPECT_EQ(par.gapped_a, fm.gapped_a)
          << info.name << "/" << to_string(sched);
    }
  }
}

TEST(Golden, VirtualTimeFingerprintStable) {
  const SequencePair pair = bench::sized_workload(500).make();
  FastLsaOptions options;
  options.k = 8;
  options.base_case_cells = 1024;
  const SimulatedRun run =
      record_fastlsa(pair.a, pair.b, ScoringScheme::paper_default(),
                     options, 8, 1, 1, 1);
  EXPECT_EQ(run.trace.total_cells(), 276345u);
  EXPECT_EQ(run.trace.grids.size(), 130u);
}

}  // namespace
}  // namespace flsa
