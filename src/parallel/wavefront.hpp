// Wavefront tile schedulers: the parallel execution policies behind
// Parallel FastLSA's Fill Grid Cache and Base Case phases.
//
// Tiles on the same anti-diagonal are independent (the paper's "wavefront
// lines"); two policies realize this:
//   kBarrierStaged      — the paper's formulation: process one wavefront
//                         line at a time, with a barrier between lines.
//   kDependencyCounter  — each tile becomes runnable as soon as its up and
//                         left neighbours finish; runnable tiles go through
//                         one mutex-protected shared queue. No barriers, so
//                         ragged diagonals and uneven tile costs overlap
//                         across lines, but every hand-off contends on the
//                         one lock.
//                         Ablation E11 compares the two.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>

#include "core/tile_executor.hpp"
#include "parallel/thread_pool.hpp"

namespace flsa {

enum class SchedulerKind : std::uint8_t {
  kBarrierStaged,
  kDependencyCounter,
};

const char* to_string(SchedulerKind kind);

/// Parses a CLI scheduler name. Accepts the full to_string() names plus
/// the short forms "barrier" and "dependency". Returns false
/// (leaving *out untouched) on anything else.
bool parse_scheduler_kind(std::string_view name, SchedulerKind* out);

/// TileExecutor running tiles on a shared ThreadPool.
///
/// Contract inherited from TileExecutor, plus: the skipped region must be
/// "down-right closed" (if (i, j) is skipped, so are (i+1, j) and
/// (i, j+1) within the grid) — true of FastLSA's bottom-right sub-problem
/// skip — so a runnable tile never waits on a skipped one.
///
/// The executor owns the dependency-counter array and reuses it across
/// run() calls (grow-only), so FastLSA's many fill and base-case phases do
/// not re-allocate scheduler state.
class WavefrontExecutor final : public TileExecutor {
 public:
  WavefrontExecutor(ThreadPool& pool, SchedulerKind kind)
      : pool_(pool), kind_(kind) {}

  unsigned worker_count() const override { return pool_.size(); }
  SchedulerKind kind() const { return kind_; }

  void run(std::size_t tile_rows, std::size_t tile_cols, TileSkipFn skip,
           TileWorkFn work, TilePhase phase) override;

 private:
  void run_barrier(std::size_t tile_rows, std::size_t tile_cols,
                   TileSkipFn skip, TileWorkFn work, TilePhase phase);
  void run_dependency(std::size_t tile_rows, std::size_t tile_cols,
                      TileSkipFn skip, TileWorkFn work, TilePhase phase);

  /// Grow-only dependency-counter array of the dependency policy;
  /// contents are re-initialized per run.
  std::atomic<int>* ensure_deps(std::size_t count);

  ThreadPool& pool_;
  SchedulerKind kind_;
  std::unique_ptr<std::atomic<int>[]> deps_;
  std::size_t deps_capacity_ = 0;
};

}  // namespace flsa
