#include "parallel/wavefront.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>

#include "support/assert.hpp"

namespace flsa {

std::atomic<int>* WavefrontExecutor::ensure_deps(std::size_t count) {
  if (deps_capacity_ < count) {
    deps_ = std::make_unique<std::atomic<int>[]>(count);
    deps_capacity_ = count;
  }
  return deps_.get();
}

void WavefrontExecutor::run(std::size_t tile_rows, std::size_t tile_cols,
                            TileSkipFn skip, TileWorkFn work,
                            TilePhase phase) {
  if (tile_rows == 0 || tile_cols == 0) return;
  // A single tile (or a single worker) needs no scheduling machinery.
  if (pool_.size() == 1 || tile_rows * tile_cols == 1) {
    SequentialExecutor().run(tile_rows, tile_cols, skip, work, phase);
    return;
  }

  const std::size_t total_slots = tile_rows * tile_cols;
  auto index_of = [tile_cols](std::size_t ti, std::size_t tj) {
    return ti * tile_cols + tj;
  };

  // Remaining-dependency counters; skipped tiles never run.
  std::atomic<int>* deps = ensure_deps(total_slots);
  std::size_t runnable_total = 0;
  for (std::size_t ti = 0; ti < tile_rows; ++ti) {
    for (std::size_t tj = 0; tj < tile_cols; ++tj) {
      if (skip && skip(ti, tj)) {
        deps[index_of(ti, tj)].store(-1, std::memory_order_relaxed);
        continue;
      }
      ++runnable_total;
      // Down-right-closed skip region => existing neighbours of a runnable
      // tile are themselves runnable.
      const int count = (ti > 0 ? 1 : 0) + (tj > 0 ? 1 : 0);
      deps[index_of(ti, tj)].store(count, std::memory_order_relaxed);
    }
  }
  if (runnable_total == 0) return;

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::size_t>> ready;
  std::size_t completed = 0;
  bool failed = false;  // a tile threw: its successors will never be ready
  ready.emplace_back(0, 0);
  FLSA_ASSERT(!(skip && skip(0, 0)));

  pool_.parallel_run([&](unsigned worker) {
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      cv.wait(lock, [&] {
        return failed || !ready.empty() || completed == runnable_total;
      });
      if (failed || ready.empty()) break;  // a tile threw, or all done
      const auto [ti, tj] = ready.front();
      ready.pop_front();
      lock.unlock();

      try {
        run_tile(work, ti, tj, worker, phase);
      } catch (...) {
        // Wake every waiting worker so none waits for a tile this one
        // would have released; the pool delivers the error to the caller.
        lock.lock();
        failed = true;
        cv.notify_all();
        throw;
      }

      std::size_t newly_ready = 0;
      auto release = [&](std::size_t ri, std::size_t rj) {
        std::atomic<int>& d = deps[index_of(ri, rj)];
        if (d.load(std::memory_order_relaxed) < 0) return;  // skipped
        if (d.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          ++newly_ready;
          std::lock_guard<std::mutex> g(mutex);
          ready.emplace_back(ri, rj);
        }
      };
      if (ti + 1 < tile_rows) release(ti + 1, tj);
      if (tj + 1 < tile_cols) release(ti, tj + 1);

      lock.lock();
      ++completed;
      if (completed == runnable_total) {
        cv.notify_all();
      } else if (newly_ready > 0) {
        if (newly_ready > 1) {
          cv.notify_all();
        } else {
          cv.notify_one();
        }
      }
    }
  });
  FLSA_ASSERT(completed == runnable_total);
}

}  // namespace flsa
