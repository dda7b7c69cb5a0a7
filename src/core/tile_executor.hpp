// Execution interface for FastLSA's two data-parallel inner phases.
//
// Both the Fill Grid Cache phase and the (tiled) Base Case phase reduce to
// the same pattern: a grid of tiles where tile (i, j) depends on tiles
// (i-1, j) and (i, j-1) — the paper's wavefront. The engine describes the
// grid and the per-tile work; an executor decides *how* the tiles run:
//   - SequentialExecutor (here): row-major loop on the calling thread;
//   - parallel/wavefront.hpp: P worker threads, dependency-counter
//     scheduling;
//   - simexec/recording.hpp: sequential execution that also records the
//     tile DAG and per-tile costs for virtual-time replay.
#pragma once

#include <cstdint>

#include "obs/trace.hpp"
#include "support/function_ref.hpp"

namespace flsa {

/// Which FastLSA phase a tile grid belongs to (recorders label phases).
enum class TilePhase : std::uint8_t { kFillCache, kBaseCase };

/// Trace-span category label of a tile phase.
inline const char* to_string(TilePhase phase) {
  return phase == TilePhase::kFillCache ? "fill-grid" : "base-case";
}

/// Decides whether a tile is skipped (the fill phase skips the tiles of the
/// bottom-right FastLSA sub-problem, the paper's u x v tiles).
///
/// Non-owning (support/function_ref.hpp): executors receive these per
/// phase on the engine's hot path, where the std::function conversion
/// used to heap-allocate a closure copy every call. The callables only
/// need to outlive the (synchronous) run() call that takes them.
using TileSkipFn = FunctionRef<bool(std::size_t ti, std::size_t tj)>;

/// Performs one tile on worker slot `worker` and returns its cost in DPM
/// cells (recorders use the cost; other executors ignore it).
using TileWorkFn =
    FunctionRef<std::uint64_t(std::size_t ti, std::size_t tj,
                              unsigned worker)>;

/// Invokes `work` for one tile, recording a per-worker trace span (tile
/// coordinates, cells, wall time on lane `worker`) when a trace is being
/// collected. Every executor funnels tile execution through here so the
/// trace sees all executors identically; without an active trace this is
/// a direct call.
inline std::uint64_t run_tile(TileWorkFn work, std::size_t ti,
                              std::size_t tj, unsigned worker,
                              TilePhase phase) {
  obs::TraceRecorder* recorder = obs::active_trace();
  if (recorder == nullptr) return work(ti, tj, worker);
  const auto start = obs::TraceRecorder::now();
  const std::uint64_t cells = work(ti, tj, worker);
  obs::TraceSpan span;
  span.name = "tile";
  span.category = to_string(phase);
  span.tid = worker;
  span.tile_row = static_cast<std::int64_t>(ti);
  span.tile_col = static_cast<std::int64_t>(tj);
  span.cells = static_cast<std::int64_t>(cells);
  recorder->record(span, start, obs::TraceRecorder::now());
  return cells;
}

/// Abstract tile-grid runner. Implementations must guarantee that `work`
/// for tile (i, j) happens-after `work` for (i-1, j) and (i, j-1) (when
/// those exist and are not skipped) and that all effects are visible to the
/// caller when run() returns.
class TileExecutor {
 public:
  virtual ~TileExecutor() = default;

  /// Number of worker slots; the engine allocates per-worker scratch
  /// accordingly, and `work` receives worker ids < worker_count().
  virtual unsigned worker_count() const = 0;

  /// Runs every non-skipped tile of a tile_rows x tile_cols grid.
  /// `skip` may be null (no skips).
  virtual void run(std::size_t tile_rows, std::size_t tile_cols,
                   TileSkipFn skip, TileWorkFn work, TilePhase phase) = 0;
};

/// Default executor: one worker, row-major order (exactly the sequential
/// FastLSA of the paper's Section 3).
class SequentialExecutor final : public TileExecutor {
 public:
  unsigned worker_count() const override { return 1; }

  void run(std::size_t tile_rows, std::size_t tile_cols, TileSkipFn skip,
           TileWorkFn work, TilePhase phase) override {
    for (std::size_t ti = 0; ti < tile_rows; ++ti) {
      for (std::size_t tj = 0; tj < tile_cols; ++tj) {
        if (skip && skip(ti, tj)) continue;
        run_tile(work, ti, tj, 0, phase);
      }
    }
  }
};

}  // namespace flsa
