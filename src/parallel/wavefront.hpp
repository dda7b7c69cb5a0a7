// Wavefront tile scheduler: the real-thread execution policy behind
// Parallel FastLSA's Fill Grid Cache and Base Case phases.
//
// Tiles on the same anti-diagonal are independent (the paper's "wavefront
// lines"). The paper runs each line as a barrier stage; this executor
// drops the barriers instead: each tile becomes runnable as soon as its up
// and left neighbours finish, and runnable tiles go through one
// mutex-protected shared queue, so ragged diagonals and uneven tile costs
// overlap across lines. The paper's barrier-staged policy survives only in
// virtual time (simexec/virtual_time.hpp), where the alpha model of
// Eq. 32 is checked against it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/tile_executor.hpp"
#include "parallel/thread_pool.hpp"

namespace flsa {

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
  explicit WavefrontExecutor(ThreadPool& pool) : pool_(pool) {}

  unsigned worker_count() const override { return pool_.size(); }

  void run(std::size_t tile_rows, std::size_t tile_cols, TileSkipFn skip,
           TileWorkFn work, TilePhase phase) override;

 private:
  /// Grow-only dependency-counter array; contents are re-initialized per
  /// run.
  std::atomic<int>* ensure_deps(std::size_t count);

  ThreadPool& pool_;
  std::unique_ptr<std::atomic<int>[]> deps_;
  std::size_t deps_capacity_ = 0;
};

}  // namespace flsa
