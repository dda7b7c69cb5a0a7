#include "parallel/wavefront.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace flsa {

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kBarrierStaged: return "barrier-staged";
    case SchedulerKind::kDependencyCounter: return "dependency-counter";
  }
  return "?";
}

bool parse_scheduler_kind(std::string_view name, SchedulerKind* out) {
  if (name == "barrier" || name == "barrier-staged") {
    *out = SchedulerKind::kBarrierStaged;
  } else if (name == "dependency" || name == "dependency-counter") {
    *out = SchedulerKind::kDependencyCounter;
  } else {
    return false;
  }
  return true;
}

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
    const char* tag = to_string(kind_);
    for (std::size_t ti = 0; ti < tile_rows; ++ti) {
      for (std::size_t tj = 0; tj < tile_cols; ++tj) {
        if (skip && skip(ti, tj)) continue;
        run_tile(work, ti, tj, 0, phase, tag);
      }
    }
    return;
  }
  switch (kind_) {
    case SchedulerKind::kBarrierStaged:
      run_barrier(tile_rows, tile_cols, skip, work, phase);
      break;
    case SchedulerKind::kDependencyCounter:
      run_dependency(tile_rows, tile_cols, skip, work, phase);
      break;
  }
}

void WavefrontExecutor::run_barrier(std::size_t tile_rows,
                                    std::size_t tile_cols, TileSkipFn skip,
                                    TileWorkFn work, TilePhase phase) {
  // One parallel stage per wavefront line (anti-diagonal), exactly the
  // paper's three-phase schedule: lines grow from 1 tile to full width and
  // shrink again. Each line also gets a trace span on the scheduler lane,
  // so ramp-up / saturation / ramp-down is visible at a glance.
  const char* tag = to_string(SchedulerKind::kBarrierStaged);
  obs::TraceRecorder* recorder = obs::active_trace();
  std::vector<std::pair<std::size_t, std::size_t>> line;
  for (std::size_t d = 0; d + 1 < tile_rows + tile_cols; ++d) {
    line.clear();
    const std::size_t ti_begin = d >= tile_cols ? d - tile_cols + 1 : 0;
    const std::size_t ti_end = std::min(d, tile_rows - 1);
    for (std::size_t ti = ti_begin; ti <= ti_end; ++ti) {
      const std::size_t tj = d - ti;
      if (skip && skip(ti, tj)) continue;
      line.emplace_back(ti, tj);
    }
    if (line.empty()) continue;
    const auto line_start = recorder != nullptr
                                ? obs::TraceRecorder::now()
                                : obs::TraceRecorder::Clock::time_point{};
    if (line.size() == 1) {
      run_tile(work, line[0].first, line[0].second, 0, phase, tag);
    } else {
      std::atomic<std::size_t> next{0};
      pool_.parallel_run([&](unsigned worker) {
        while (true) {
          const std::size_t index =
              next.fetch_add(1, std::memory_order_relaxed);
          if (index >= line.size()) break;
          run_tile(work, line[index].first, line[index].second, worker,
                   phase, tag);
        }
      });
    }
    if (recorder != nullptr) {
      obs::TraceSpan span;
      span.name = "wavefront-line";
      span.category = to_string(phase);
      span.tid = obs::kSchedulerLane;
      span.line = static_cast<std::int64_t>(d);
      span.tiles = static_cast<std::int64_t>(line.size());
      span.scheduler = tag;
      recorder->record(span, line_start, obs::TraceRecorder::now());
    }
  }
}

void WavefrontExecutor::run_dependency(std::size_t tile_rows,
                                       std::size_t tile_cols,
                                       TileSkipFn skip, TileWorkFn work,
                                       TilePhase phase) {
  const char* tag = to_string(SchedulerKind::kDependencyCounter);
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
        run_tile(work, ti, tj, worker, phase, tag);
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
