// ASCII Gantt rendering of a simulated tile schedule.
//
// Makes the paper's Figure 13 visible in bench output: per-processor
// lanes over virtual time show the three wavefront phases — ramp-up
// (idle tails at the top-left), the saturated middle, and ramp-down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simexec/recording.hpp"

namespace flsa {

/// One scheduled tile occurrence.
struct ScheduledTile {
  std::size_t ti = 0, tj = 0;
  unsigned processor = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Full schedule of one grid under the dependency-counter policy.
struct GridSchedule {
  unsigned processors = 1;
  std::uint64_t makespan = 0;
  std::vector<ScheduledTile> tiles;
};

/// Computes the event-driven (dependency-counter) schedule of a grid,
/// including per-tile placement (grid_makespan only returns the makespan).
GridSchedule schedule_grid(const TileGridRecord& grid, unsigned processors,
                           std::uint64_t per_tile_overhead = 0);

/// Renders the schedule as one text lane per processor, `width` columns
/// wide; busy spans show the tile's anti-diagonal index (mod 10), idle
/// time shows '.'. The ramp phases appear as leading/trailing dots.
std::string render_gantt(const GridSchedule& schedule,
                         std::size_t width = 72);

}  // namespace flsa
