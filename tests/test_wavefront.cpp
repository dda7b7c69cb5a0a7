// Tests for the wavefront schedulers: dependency ordering, skip handling,
// completeness, and equivalence between policies.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/tile_executor.hpp"
#include "parallel/wavefront.hpp"

namespace flsa {
namespace {

// Defeats optimization of the busy-wait loop in UnevenTileCostsStillComplete.
std::atomic<long> benchmark_sink{0};

struct CompletionLog {
  explicit CompletionLog(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), done_(rows * cols) {
    for (auto& d : done_) d.store(false);
  }

  // Marks a tile complete, first asserting its dependencies completed.
  void complete(std::size_t ti, std::size_t tj) {
    if (ti > 0) {
      EXPECT_TRUE(done_[(ti - 1) * cols_ + tj].load());
    }
    if (tj > 0) {
      EXPECT_TRUE(done_[ti * cols_ + tj - 1].load());
    }
    done_[ti * cols_ + tj].store(true);
  }

  std::size_t count() const {
    std::size_t n = 0;
    for (const auto& d : done_) n += d.load();
    return n;
  }

  std::size_t rows_, cols_;
  std::vector<std::atomic<bool>> done_;
};

class WavefrontPolicies : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(WavefrontPolicies, RunsAllTilesRespectingDependencies) {
  ThreadPool pool(4);
  WavefrontExecutor exec(pool, GetParam());
  CompletionLog log(7, 5);
  exec.run(
      7, 5, nullptr,
      [&](std::size_t ti, std::size_t tj, unsigned worker) {
        EXPECT_LT(worker, 4u);
        log.complete(ti, tj);
        return std::uint64_t{1};
      },
      TilePhase::kFillCache);
  EXPECT_EQ(log.count(), 35u);
}

TEST_P(WavefrontPolicies, SkipsDownRightClosedRegion) {
  ThreadPool pool(3);
  WavefrontExecutor exec(pool, GetParam());
  CompletionLog log(6, 6);
  auto skip = [](std::size_t ti, std::size_t tj) {
    return ti >= 4 && tj >= 3;
  };
  exec.run(
      6, 6, skip,
      [&](std::size_t ti, std::size_t tj, unsigned) {
        EXPECT_FALSE(skip(ti, tj));
        log.complete(ti, tj);
        return std::uint64_t{1};
      },
      TilePhase::kFillCache);
  EXPECT_EQ(log.count(), 36u - 6u);
}

TEST_P(WavefrontPolicies, SingleRowAndColumnGrids) {
  ThreadPool pool(4);
  WavefrontExecutor exec(pool, GetParam());
  for (const auto& [r, c] : {std::pair<std::size_t, std::size_t>{1, 12},
                            {12, 1},
                            {1, 1}}) {
    std::atomic<std::size_t> count{0};
    exec.run(
        r, c, nullptr,
        [&](std::size_t, std::size_t, unsigned) {
          count.fetch_add(1);
          return std::uint64_t{1};
        },
        TilePhase::kBaseCase);
    EXPECT_EQ(count.load(), r * c);
  }
}

TEST_P(WavefrontPolicies, StaircaseSkipRegion) {
  // A non-rectangular (but still down-right-closed) staircase skip:
  // skip(ti, tj) <=> 2*ti + tj >= 9 on a 6x7 grid. The last row is
  // skipped entirely, so the dependency-counter scheduler's runnable
  // count must not include it.
  ThreadPool pool(4);
  WavefrontExecutor exec(pool, GetParam());
  auto skip = [](std::size_t ti, std::size_t tj) {
    return 2 * ti + tj >= 9;
  };
  std::size_t expected = 0;
  for (std::size_t ti = 0; ti < 6; ++ti) {
    for (std::size_t tj = 0; tj < 7; ++tj) {
      if (!skip(ti, tj)) ++expected;
    }
  }
  ASSERT_EQ(expected, 23u);
  CompletionLog log(6, 7);
  exec.run(
      6, 7, skip,
      [&](std::size_t ti, std::size_t tj, unsigned) {
        EXPECT_FALSE(skip(ti, tj));
        log.complete(ti, tj);
        return std::uint64_t{1};
      },
      TilePhase::kFillCache);
  EXPECT_EQ(log.count(), expected);
}

TEST_P(WavefrontPolicies, MoreWorkersThanTiles) {
  // 8 workers, 4 tiles: most workers never get a tile, and on the
  // dependency-counter policy they must still wake up and exit when the
  // last tile completes.
  ThreadPool pool(8);
  WavefrontExecutor exec(pool, GetParam());
  CompletionLog log(2, 2);
  exec.run(
      2, 2, nullptr,
      [&](std::size_t ti, std::size_t tj, unsigned worker) {
        EXPECT_LT(worker, 8u);
        log.complete(ti, tj);
        return std::uint64_t{1};
      },
      TilePhase::kBaseCase);
  EXPECT_EQ(log.count(), 4u);
}

TEST_P(WavefrontPolicies, MoreWorkersThanTilesWithSkips) {
  // Workers > runnable tiles where skips thin the grid further: only the
  // first column of a 3x4 grid runs (down-right-closed region).
  ThreadPool pool(8);
  WavefrontExecutor exec(pool, GetParam());
  auto skip = [](std::size_t, std::size_t tj) { return tj >= 1; };
  CompletionLog log(3, 4);
  exec.run(
      3, 4, skip,
      [&](std::size_t ti, std::size_t tj, unsigned) {
        EXPECT_FALSE(skip(ti, tj));
        log.complete(ti, tj);
        return std::uint64_t{1};
      },
      TilePhase::kFillCache);
  EXPECT_EQ(log.count(), 3u);
}

TEST_P(WavefrontPolicies, UnevenTileCostsStillComplete) {
  ThreadPool pool(4);
  WavefrontExecutor exec(pool, GetParam());
  CompletionLog log(5, 9);
  exec.run(
      5, 9, nullptr,
      [&](std::size_t ti, std::size_t tj, unsigned) {
        // Busy-wait proportional to a pseudo-random cost to shake the
        // schedule.
        int sink = 0;
        const int loops = static_cast<int>((ti * 31 + tj * 17) % 97) * 50;
        for (int i = 0; i < loops; ++i) sink += i;
        benchmark_sink.fetch_add(sink, std::memory_order_relaxed);
        log.complete(ti, tj);
        return std::uint64_t{1};
      },
      TilePhase::kFillCache);
  EXPECT_EQ(log.count(), 45u);
}

TEST_P(WavefrontPolicies, EmptyGridIsNoop) {
  ThreadPool pool(2);
  WavefrontExecutor exec(pool, GetParam());
  exec.run(
      0, 5, nullptr,
      [&](std::size_t, std::size_t, unsigned) -> std::uint64_t {
        ADD_FAILURE() << "no tiles expected";
        return 0;
      },
      TilePhase::kFillCache);
}

TEST_P(WavefrontPolicies, ManyMoreTilesThanWorkers) {
  // Tiles >> workers: 2 workers over a 24x24 grid exercises sustained
  // ready-queue churn.
  ThreadPool pool(2);
  WavefrontExecutor exec(pool, GetParam());
  CompletionLog log(24, 24);
  exec.run(
      24, 24, nullptr,
      [&](std::size_t ti, std::size_t tj, unsigned) {
        log.complete(ti, tj);
        return std::uint64_t{1};
      },
      TilePhase::kFillCache);
  EXPECT_EQ(log.count(), 24u * 24u);
}

TEST_P(WavefrontPolicies, RaggedTileCostsAcrossManyRuns) {
  // Heavily ragged costs (two orders of magnitude spread) across repeated
  // runs on one executor — the persistent counters must reset cleanly
  // between runs.
  ThreadPool pool(4);
  WavefrontExecutor exec(pool, GetParam());
  for (int round = 0; round < 5; ++round) {
    CompletionLog log(9, 5);
    exec.run(
        9, 5, nullptr,
        [&](std::size_t ti, std::size_t tj, unsigned) {
          long sink = 0;
          const long loops =
              ((ti * 13 + tj * 7 + static_cast<std::size_t>(round)) % 11 == 0)
                  ? 5000
                  : 50;
          for (long i = 0; i < loops; ++i) sink += i;
          benchmark_sink.fetch_add(sink, std::memory_order_relaxed);
          log.complete(ti, tj);
          return std::uint64_t{1};
        },
        TilePhase::kFillCache);
    EXPECT_EQ(log.count(), 45u);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, WavefrontPolicies,
                         ::testing::Values(
                             SchedulerKind::kBarrierStaged,
                             SchedulerKind::kDependencyCounter),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case SchedulerKind::kBarrierStaged:
                               return "barrier";
                             case SchedulerKind::kDependencyCounter:
                               return "dependency";
                           }
                           return "unknown";
                         });

TEST(Wavefront, AllPoliciesVisitTheSameTileSet) {
  // Differential check: for a staircase skip on a ragged-cost grid, every
  // policy must execute exactly the same tile set, each tile exactly once.
  auto skip = [](std::size_t ti, std::size_t tj) {
    return ti + 2 * tj >= 14;
  };
  auto visited_under = [&](SchedulerKind kind) {
    ThreadPool pool(4);
    WavefrontExecutor exec(pool, kind);
    std::vector<std::atomic<int>> visits(8 * 11);
    for (auto& v : visits) v.store(0);
    exec.run(
        8, 11, skip,
        [&](std::size_t ti, std::size_t tj, unsigned) {
          visits[ti * 11 + tj].fetch_add(1);
          long sink = 0;
          for (long i = 0; i < static_cast<long>((ti * 29 + tj) % 63) * 40;
               ++i) {
            sink += i;
          }
          benchmark_sink.fetch_add(sink, std::memory_order_relaxed);
          return std::uint64_t{1};
        },
        TilePhase::kFillCache);
    std::vector<int> counts(visits.size());
    for (std::size_t i = 0; i < visits.size(); ++i) counts[i] = visits[i];
    return counts;
  };
  const std::vector<int> barrier =
      visited_under(SchedulerKind::kBarrierStaged);
  const std::vector<int> dependency =
      visited_under(SchedulerKind::kDependencyCounter);
  for (std::size_t ti = 0; ti < 8; ++ti) {
    for (std::size_t tj = 0; tj < 11; ++tj) {
      const int expected = skip(ti, tj) ? 0 : 1;
      EXPECT_EQ(barrier[ti * 11 + tj], expected) << ti << "," << tj;
    }
  }
  EXPECT_EQ(dependency, barrier);
}

TEST_P(WavefrontPolicies, ThrowingTilePropagatesToTheCaller) {
  // A throwing tile must neither hang the other workers nor be lost: the
  // first error reaches the caller.
  ThreadPool pool(4);
  WavefrontExecutor exec(pool, GetParam());
  EXPECT_THROW(
      exec.run(
          6, 6, nullptr,
          [&](std::size_t ti, std::size_t tj, unsigned) -> std::uint64_t {
            if (ti == 3 && tj == 3) throw std::runtime_error("tile failed");
            return 1;
          },
          TilePhase::kFillCache),
      std::runtime_error);
}

TEST(Wavefront, SequentialExecutorRowMajorOrder) {
  SequentialExecutor exec;
  std::vector<std::pair<std::size_t, std::size_t>> order;
  exec.run(
      3, 3, [](std::size_t ti, std::size_t tj) { return ti == 2 && tj == 2; },
      [&](std::size_t ti, std::size_t tj, unsigned worker) {
        EXPECT_EQ(worker, 0u);
        order.emplace_back(ti, tj);
        return std::uint64_t{1};
      },
      TilePhase::kFillCache);
  ASSERT_EQ(order.size(), 8u);
  EXPECT_EQ(order.front(), (std::pair<std::size_t, std::size_t>{0, 0}));
  EXPECT_EQ(order.back(), (std::pair<std::size_t, std::size_t>{2, 1}));
}

#if !defined(FLSA_OBS_OFF)
TEST(Wavefront, BarrierSchedulerRecordsLineSpans) {
  // The barrier policy stamps one scheduler-lane span per non-empty
  // wavefront line; a 3x4 grid has 6 anti-diagonals.
  ThreadPool pool(2);
  WavefrontExecutor exec(pool, SchedulerKind::kBarrierStaged);
  obs::TraceRecorder trace;
  obs::set_active_trace(&trace);
  exec.run(
      3, 4, nullptr,
      [&](std::size_t, std::size_t, unsigned) { return std::uint64_t{1}; },
      TilePhase::kFillCache);
  obs::set_active_trace(nullptr);
  std::size_t lines = 0, tiles = 0;
  for (const obs::TraceSpan& span : trace.spans()) {
    if (std::string_view(span.name) == "wavefront-line") {
      EXPECT_EQ(span.tid, obs::kSchedulerLane);
      EXPECT_GE(span.tiles, 1);
      ++lines;
    } else if (std::string_view(span.name) == "tile") {
      ++tiles;
    }
  }
  EXPECT_EQ(lines, 6u);
  EXPECT_EQ(tiles, 12u);
}
#endif  // !defined(FLSA_OBS_OFF)

TEST(Wavefront, SchedulerNames) {
  EXPECT_STREQ(to_string(SchedulerKind::kBarrierStaged), "barrier-staged");
  EXPECT_STREQ(to_string(SchedulerKind::kDependencyCounter),
               "dependency-counter");
}

TEST(Wavefront, ParseSchedulerKind) {
  SchedulerKind kind = SchedulerKind::kBarrierStaged;
  EXPECT_TRUE(parse_scheduler_kind("dependency", &kind));
  EXPECT_EQ(kind, SchedulerKind::kDependencyCounter);
  EXPECT_TRUE(parse_scheduler_kind("dependency-counter", &kind));
  EXPECT_TRUE(parse_scheduler_kind("barrier", &kind));
  EXPECT_EQ(kind, SchedulerKind::kBarrierStaged);
  EXPECT_TRUE(parse_scheduler_kind("barrier-staged", &kind));
  kind = SchedulerKind::kDependencyCounter;
  EXPECT_FALSE(parse_scheduler_kind("fifo", &kind));
  EXPECT_EQ(kind, SchedulerKind::kDependencyCounter);  // untouched on failure
}

}  // namespace
}  // namespace flsa
