// Virtual-time replay: makespan of a recorded tile DAG on P simulated
// processors, in cost units (DPM cells).
//
// Two replay policies:
//  - barrier-staged: the paper's Section 5 schedule. Wavefront lines run
//    as synchronized stages; a stage's duration is the greedy P-processor
//    makespan of its tiles (dynamic self-scheduling within a line). The
//    alpha model of Eq. 32 describes this policy, so it exists only here,
//    for checking the model; no real-thread executor runs it;
//  - dependency-counter: event-driven list scheduling where a tile starts
//    the moment a processor is free and its up/left tiles finished, as
//    the real-thread WavefrontExecutor does.
//
// `per_tile_overhead` models the fixed cost of dispatching/synchronizing
// one tile (scheduling, boundary copies, cache warm-up), expressed in cell
// units. It is what makes parallel efficiency *grow with sequence length*
// in the paper's measurements: at fixed k the tiles grow with n, so a
// constant per-tile cost shrinks relative to tile compute. Speedups are
// always computed against the overhead-free sequential cell count (the
// sequential algorithm pays no scheduling cost).
#pragma once

#include <cstdint>

#include "simexec/recording.hpp"

namespace flsa {

/// Replay policy of the virtual-time makespan functions.
enum class SchedulerKind : std::uint8_t {
  kBarrierStaged,
  kDependencyCounter,
};

const char* to_string(SchedulerKind kind);

/// Makespan of one tile grid on `processors` simulated processors; each
/// tile costs its recorded cells plus `per_tile_overhead`.
std::uint64_t grid_makespan(const TileGridRecord& grid, unsigned processors,
                            SchedulerKind policy,
                            std::uint64_t per_tile_overhead = 0);

/// Makespan of a whole run: grids execute one after another (the FastLSA
/// recursion between them is sequential).
std::uint64_t trace_makespan(const RunTrace& trace, unsigned processors,
                             SchedulerKind policy,
                             std::uint64_t per_tile_overhead = 0);

/// Derived parallel metrics of a trace.
struct SpeedupPoint {
  unsigned processors = 1;
  std::uint64_t makespan = 0;
  /// total cells (sequential-algorithm time) / makespan. With nonzero
  /// overhead this can be < P even at P = 1, as in real measurements.
  double speedup = 1.0;
  double efficiency = 1.0;  ///< speedup / P
};

SpeedupPoint speedup_at(const RunTrace& trace, unsigned processors,
                        SchedulerKind policy,
                        std::uint64_t per_tile_overhead = 0);

}  // namespace flsa
