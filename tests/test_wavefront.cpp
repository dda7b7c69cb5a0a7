// Tests for the wavefront executor: dependency ordering, skip handling,
// completeness, and error propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
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

TEST(Wavefront, RunsAllTilesRespectingDependencies) {
  ThreadPool pool(4);
  WavefrontExecutor exec(pool);
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

TEST(Wavefront, SkipsDownRightClosedRegion) {
  ThreadPool pool(3);
  WavefrontExecutor exec(pool);
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

TEST(Wavefront, SingleRowAndColumnGrids) {
  ThreadPool pool(4);
  WavefrontExecutor exec(pool);
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

TEST(Wavefront, StaircaseSkipRegion) {
  // A non-rectangular (but still down-right-closed) staircase skip:
  // skip(ti, tj) <=> 2*ti + tj >= 9 on a 6x7 grid. The last row is
  // skipped entirely, so the executor's runnable count must not
  // include it.
  ThreadPool pool(4);
  WavefrontExecutor exec(pool);
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

TEST(Wavefront, MoreWorkersThanTiles) {
  // 8 workers, 4 tiles: most workers never get a tile, and they must
  // still wake up and exit when the last tile completes.
  ThreadPool pool(8);
  WavefrontExecutor exec(pool);
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

TEST(Wavefront, MoreWorkersThanTilesWithSkips) {
  // Workers > runnable tiles where skips thin the grid further: only the
  // first column of a 3x4 grid runs (down-right-closed region).
  ThreadPool pool(8);
  WavefrontExecutor exec(pool);
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

TEST(Wavefront, UnevenTileCostsStillComplete) {
  ThreadPool pool(4);
  WavefrontExecutor exec(pool);
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

TEST(Wavefront, EmptyGridIsNoop) {
  ThreadPool pool(2);
  WavefrontExecutor exec(pool);
  exec.run(
      0, 5, nullptr,
      [&](std::size_t, std::size_t, unsigned) -> std::uint64_t {
        ADD_FAILURE() << "no tiles expected";
        return 0;
      },
      TilePhase::kFillCache);
}

TEST(Wavefront, ManyMoreTilesThanWorkers) {
  // Tiles >> workers: 2 workers over a 24x24 grid exercises sustained
  // ready-queue churn.
  ThreadPool pool(2);
  WavefrontExecutor exec(pool);
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

TEST(Wavefront, RaggedTileCostsAcrossManyRuns) {
  // Heavily ragged costs (two orders of magnitude spread) across repeated
  // runs on one executor — the persistent counters must reset cleanly
  // between runs.
  ThreadPool pool(4);
  WavefrontExecutor exec(pool);
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

TEST(Wavefront, VisitsExactlyTheUnskippedTiles) {
  // For a staircase skip on a ragged-cost grid, the executor must run
  // every unskipped tile exactly once and no skipped tile, both on a
  // 4-worker pool and on the 1-worker inline loop.
  auto skip = [](std::size_t ti, std::size_t tj) {
    return ti + 2 * tj >= 14;
  };
  for (unsigned workers : {4u, 1u}) {
    ThreadPool pool(workers);
    WavefrontExecutor exec(pool);
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
    for (std::size_t ti = 0; ti < 8; ++ti) {
      for (std::size_t tj = 0; tj < 11; ++tj) {
        const int expected = skip(ti, tj) ? 0 : 1;
        EXPECT_EQ(visits[ti * 11 + tj].load(), expected)
            << workers << " workers, tile " << ti << "," << tj;
      }
    }
  }
}

TEST(Wavefront, ThrowingTilePropagatesToTheCaller) {
  // A throwing tile must neither hang the other workers nor be lost: the
  // first error reaches the caller.
  ThreadPool pool(4);
  WavefrontExecutor exec(pool);
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

}  // namespace
}  // namespace flsa
