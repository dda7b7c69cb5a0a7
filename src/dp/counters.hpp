// Operation counters.
//
// The paper's analytical results are stated in DPM-entry computations
// ("operations"); every kernel increments these counters so the benches can
// compare measured operation counts against the paper's formulas (e.g.
// FastLSA <= mn * (k/(k-1))^2, Hirschberg ~ 2mn, full matrix = mn).
#pragma once

#include <cstdint>

#include "support/checked.hpp"

namespace flsa {

/// Accumulated work counters. Not thread-safe: parallel code keeps one per
/// worker and merges with operator+=.
struct DpCounters {
  /// DPM entries computed by score-only sweeps (FindScore work).
  std::uint64_t cells_scored = 0;
  /// DPM entries computed inside stored full matrices (base cases / FM).
  std::uint64_t cells_stored = 0;
  /// Traceback steps taken (FindPath work).
  std::uint64_t traceback_steps = 0;
  /// Narrow-kernel overflow escalations: each time a saturating int16
  /// sweep hit a rail (or could not represent the scheme) and the work was
  /// transparently rescored in int32 (dp/kernel_narrow.hpp).
  std::uint64_t kernel_escalations = 0;
  /// Fill Grid Cache tiles skipped by score-bound pruning
  /// (FastLsaOptions::prune): their optimistic bound could not beat the
  /// greedy-diagonal incumbent, so sentinel lines were published instead.
  std::uint64_t tiles_pruned = 0;

  /// Saturating: at genome scale the two operands are each derived from
  /// (m+1)*(n+1)-flavoured products, and a wrapped total would read as a
  /// plausible small number instead of "off the scale".
  std::uint64_t total_cells() const {
    return add_sat_u64(cells_scored, cells_stored);
  }

  DpCounters& operator+=(const DpCounters& other) {
    cells_scored = add_sat_u64(cells_scored, other.cells_scored);
    cells_stored = add_sat_u64(cells_stored, other.cells_stored);
    traceback_steps = add_sat_u64(traceback_steps, other.traceback_steps);
    kernel_escalations =
        add_sat_u64(kernel_escalations, other.kernel_escalations);
    tiles_pruned = add_sat_u64(tiles_pruned, other.tiles_pruned);
    return *this;
  }
};

}  // namespace flsa
