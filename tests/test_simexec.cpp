// Tests for the tile-DAG recorder and the virtual-time executor.
#include <gtest/gtest.h>

#include "dp/fullmatrix.hpp"
#include "scoring/builtin.hpp"
#include "sequence/generate.hpp"
#include "simexec/model.hpp"
#include "simexec/simulate.hpp"
#include "simexec/virtual_time.hpp"

namespace flsa {
namespace {

TileGridRecord uniform_grid(std::size_t rows, std::size_t cols,
                            std::uint64_t cost) {
  TileGridRecord grid;
  grid.rows = rows;
  grid.cols = cols;
  grid.costs.assign(rows * cols, cost);
  return grid;
}

class Policies : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(Policies, OneProcessorMakespanIsTotalCost) {
  const TileGridRecord grid = uniform_grid(6, 7, 10);
  EXPECT_EQ(grid_makespan(grid, 1, GetParam()), 6u * 7u * 10u);
}

TEST_P(Policies, MakespanMonotoneInProcessors) {
  const TileGridRecord grid = uniform_grid(12, 12, 5);
  std::uint64_t previous = ~std::uint64_t{0};
  for (unsigned p : {1u, 2u, 4u, 8u, 16u, 64u}) {
    const std::uint64_t m = grid_makespan(grid, p, GetParam());
    EXPECT_LE(m, previous) << "P=" << p;
    previous = m;
  }
}

TEST_P(Policies, CriticalPathLowerBound) {
  // With unlimited processors the makespan is the critical path: the
  // (rows + cols - 1) diagonal chain.
  const TileGridRecord grid = uniform_grid(9, 4, 3);
  const std::uint64_t critical = (9 + 4 - 1) * 3;
  EXPECT_EQ(grid_makespan(grid, 1000, GetParam()), critical);
  EXPECT_GE(grid_makespan(grid, 4, GetParam()), critical);
}

TEST_P(Policies, SpeedupNeverExceedsP) {
  const TileGridRecord grid = uniform_grid(16, 16, 7);
  RunTrace trace;
  trace.grids.push_back(grid);
  for (unsigned p : {2u, 4u, 8u}) {
    const SpeedupPoint point = speedup_at(trace, p, GetParam());
    EXPECT_LE(point.speedup, static_cast<double>(p) + 1e-9);
    EXPECT_GT(point.speedup, 1.0);
    EXPECT_LE(point.efficiency, 1.0 + 1e-9);
  }
}

TEST_P(Policies, SkippedTilesContributeNothing) {
  TileGridRecord grid = uniform_grid(4, 4, 10);
  // Skip the bottom-right 2x2 (down-right closed).
  for (std::size_t ti = 2; ti < 4; ++ti) {
    for (std::size_t tj = 2; tj < 4; ++tj) {
      grid.costs[ti * 4 + tj] = TileGridRecord::kSkipped;
    }
  }
  EXPECT_EQ(grid.total_cost(), 120u);
  EXPECT_EQ(grid.tile_count(), 12u);
  EXPECT_EQ(grid_makespan(grid, 1, GetParam()), 120u);
}

INSTANTIATE_TEST_SUITE_P(Policies, Policies,
                         ::testing::Values(
                             SchedulerKind::kBarrierStaged,
                             SchedulerKind::kDependencyCounter),
                         [](const auto& param_info) {
                           return param_info.param ==
                                          SchedulerKind::kBarrierStaged
                                      ? "barrier"
                                      : "dependency";
                         });

TEST(VirtualTime, SchedulerNames) {
  EXPECT_STREQ(to_string(SchedulerKind::kBarrierStaged), "barrier-staged");
  EXPECT_STREQ(to_string(SchedulerKind::kDependencyCounter),
               "dependency-counter");
}

TEST(VirtualTime, DependencyDominatesBarrierOnRaggedCosts) {
  // Uneven tile costs leave barrier stages waiting for stragglers; the
  // dependency-counter policy overlaps across diagonals and can only be
  // faster or equal.
  Xoshiro256 rng(121);
  TileGridRecord grid;
  grid.rows = 10;
  grid.cols = 10;
  grid.costs.resize(100);
  for (auto& c : grid.costs) c = 1 + rng.bounded(50);
  for (unsigned p : {2u, 4u, 8u}) {
    EXPECT_LE(
        grid_makespan(grid, p, SchedulerKind::kDependencyCounter),
        grid_makespan(grid, p, SchedulerKind::kBarrierStaged))
        << "P=" << p;
  }
}

TEST(VirtualTime, BarrierMatchesPaperThreePhaseFormula) {
  // Uniform square grid, exact barrier makespan: sum over diagonals of
  // ceil(line_length / P) * T — the paper's three-phase accounting.
  const std::size_t n = 12;
  const std::uint64_t t = 4;
  const unsigned p = 5;
  const TileGridRecord grid = uniform_grid(n, n, t);
  std::uint64_t expected = 0;
  for (std::size_t d = 0; d + 1 < 2 * n; ++d) {
    const std::size_t len = d < n ? d + 1 : 2 * n - 1 - d;
    expected += (len + p - 1) / p * t;
  }
  EXPECT_EQ(grid_makespan(grid, p, SchedulerKind::kBarrierStaged), expected);
}

TEST(RecordingExecutor, CapturesGridShapeAndCosts) {
  RecordingExecutor recorder;
  recorder.run(
      2, 3, [](std::size_t ti, std::size_t tj) { return ti == 1 && tj == 2; },
      [](std::size_t ti, std::size_t tj, unsigned) {
        return static_cast<std::uint64_t>(ti * 10 + tj);
      },
      TilePhase::kFillCache);
  const RunTrace& trace = recorder.trace();
  ASSERT_EQ(trace.grids.size(), 1u);
  const TileGridRecord& grid = trace.grids[0];
  EXPECT_EQ(grid.rows, 2u);
  EXPECT_EQ(grid.cols, 3u);
  EXPECT_EQ(grid.costs[0 * 3 + 2], 2u);
  EXPECT_EQ(grid.costs[1 * 3 + 0], 10u);
  EXPECT_EQ(grid.costs[1 * 3 + 2], TileGridRecord::kSkipped);
  EXPECT_EQ(grid.phase, TilePhase::kFillCache);
}

TEST(RecordFastLsa, TraceCellsMatchCounters) {
  Xoshiro256 rng(122);
  MutationModel model;
  const SequencePair pair =
      homologous_pair(Alphabet::protein(), 200, model, rng);
  FastLsaOptions options;
  options.k = 4;
  options.base_case_cells = 256;
  const SimulatedRun run = record_fastlsa(pair.a, pair.b,
                                          pair.a.alphabet().size() == 20
                                              ? ScoringScheme::paper_default()
                                              : ScoringScheme::paper_default(),
                                          options, /*threads=*/8);
  // The alignment is still correct.
  EXPECT_EQ(run.alignment.score,
            full_matrix_score(pair.a, pair.b,
                              ScoringScheme::paper_default()));
  // Every scored/stored cell flowed through recorded tiles.
  EXPECT_EQ(run.trace.total_cells(), run.stats.counters.total_cells());
  EXPECT_GT(run.trace.grids.size(), 1u);
}

TEST(RecordFastLsa, SpeedupCurveShapesMatchThePaper) {
  Xoshiro256 rng(123);
  MutationModel model;
  const SequencePair pair =
      homologous_pair(Alphabet::protein(), 600, model, rng);
  FastLsaOptions options;
  options.k = 8;
  options.base_case_cells = 2048;
  const SimulatedRun run =
      record_fastlsa(pair.a, pair.b, ScoringScheme::paper_default(), options,
                     /*threads=*/8);
  const auto curve = speedup_curve(run.trace, {1, 2, 4, 8},
                                   SchedulerKind::kDependencyCounter);
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_NEAR(curve[0].speedup, 1.0, 1e-9);
  // Monotone increasing speedup...
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].speedup, curve[i - 1].speedup);
  }
  // ...and "almost linear for 8 processors or less" (the paper's claim):
  // comfortably more than half-efficient at P = 8 on this size.
  EXPECT_GT(curve[3].efficiency, 0.5);
}

TEST(RecordFastLsa, EfficiencyGrowsWithSequenceLength) {
  // The paper: "the efficiency of Parallel FastLSA increases with the size
  // of the sequences". With a fixed k the tile count is size-independent,
  // so the effect comes from fixed per-tile costs amortizing over bigger
  // tiles — modeled by the per_tile_overhead parameter.
  constexpr std::uint64_t kOverhead = 2000;
  FastLsaOptions options;
  options.k = 8;
  options.base_case_cells = 1024;
  double previous = 0.0;
  for (std::size_t len : {200u, 800u, 2000u}) {
    Xoshiro256 rng(len);
    MutationModel model;
    const SequencePair pair =
        homologous_pair(Alphabet::protein(), len, model, rng);
    const SimulatedRun run = record_fastlsa(
        pair.a, pair.b, ScoringScheme::paper_default(), options, 8);
    const SpeedupPoint point = speedup_at(
        run.trace, 8, SchedulerKind::kDependencyCounter, kOverhead);
    EXPECT_GT(point.efficiency, previous) << "len=" << len;
    previous = point.efficiency;
  }
}

TEST(RecordFastLsa, Theorem4BoundHoldsUnderUniformTiling) {
  // Eq. 36: WT(m,n,k,P) <= (mn/P)(1 + (P^2-P)/(RC))(k/(k-1))^2, premised
  // on every recursion level tiled R x C (min_tile_extent = 1).
  Xoshiro256 rng(124);
  MutationModel model;
  const SequencePair pair =
      homologous_pair(Alphabet::protein(), 700, model, rng);
  FastLsaOptions options;
  options.k = 4;
  options.base_case_cells = 256;
  const std::size_t tiles_per_block = 2;
  const SimulatedRun run = record_fastlsa(
      pair.a, pair.b, ScoringScheme::paper_default(), options, 8,
      tiles_per_block, /*base_case_tiles=*/8, /*min_tile_extent=*/1);
  const std::size_t top = options.k * tiles_per_block;
  for (unsigned p : {1u, 2u, 4u, 8u}) {
    const double measured = static_cast<double>(
        trace_makespan(run.trace, p, SchedulerKind::kBarrierStaged));
    const double bound = model::total_time_bound(
        pair.a.size(), pair.b.size(), options.k, p, top, top);
    EXPECT_LE(measured, bound) << "P=" << p;
  }
}

TEST(VirtualTime, PerTileOverheadSlowsEverything) {
  const TileGridRecord grid = uniform_grid(8, 8, 100);
  for (SchedulerKind policy : {SchedulerKind::kBarrierStaged,
                               SchedulerKind::kDependencyCounter}) {
    const std::uint64_t plain = grid_makespan(grid, 4, policy, 0);
    const std::uint64_t loaded = grid_makespan(grid, 4, policy, 50);
    EXPECT_GT(loaded, plain);
    // One processor: overhead adds exactly tiles * overhead.
    EXPECT_EQ(grid_makespan(grid, 1, policy, 50),
              grid_makespan(grid, 1, policy, 0) + 64 * 50);
  }
}

TEST(VirtualTime, OverheadLowersSpeedupAgainstSequentialBaseline) {
  RunTrace trace;
  trace.grids.push_back(uniform_grid(8, 8, 100));
  const SpeedupPoint plain =
      speedup_at(trace, 4, SchedulerKind::kDependencyCounter, 0);
  const SpeedupPoint loaded =
      speedup_at(trace, 4, SchedulerKind::kDependencyCounter, 50);
  EXPECT_LT(loaded.speedup, plain.speedup);
  // Even P = 1 dips below 1.0: the sequential algorithm pays no dispatch.
  const SpeedupPoint p1 =
      speedup_at(trace, 1, SchedulerKind::kDependencyCounter, 50);
  EXPECT_LT(p1.speedup, 1.0);
}

}  // namespace
}  // namespace flsa
