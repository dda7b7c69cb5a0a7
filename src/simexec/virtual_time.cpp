#include "simexec/virtual_time.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "support/assert.hpp"

namespace flsa {

namespace {

/// Greedy (list-order) makespan of independent tasks on P processors:
/// each task goes to the earliest-free processor, in the given order. This
/// models the atomic-counter work distribution inside one barrier stage.
std::uint64_t stage_makespan(const std::vector<std::uint64_t>& tasks,
                             unsigned processors) {
  // Min-heap of processor free times.
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      free_at;
  for (unsigned p = 0; p < processors; ++p) free_at.push(0);
  std::uint64_t makespan = 0;
  for (std::uint64_t cost : tasks) {
    const std::uint64_t start = free_at.top();
    free_at.pop();
    const std::uint64_t end = start + cost;
    makespan = std::max(makespan, end);
    free_at.push(end);
  }
  return makespan;
}

std::uint64_t barrier_makespan(const TileGridRecord& grid,
                               unsigned processors,
                               std::uint64_t overhead) {
  std::uint64_t total = 0;
  std::vector<std::uint64_t> line;
  for (std::size_t d = 0; d + 1 < grid.rows + grid.cols; ++d) {
    line.clear();
    const std::size_t ti_begin = d >= grid.cols ? d - grid.cols + 1 : 0;
    const std::size_t ti_end = std::min(d, grid.rows - 1);
    for (std::size_t ti = ti_begin; ti <= ti_end; ++ti) {
      const std::uint64_t cost = grid.costs[ti * grid.cols + (d - ti)];
      if (cost != TileGridRecord::kSkipped) line.push_back(cost + overhead);
    }
    total += stage_makespan(line, processors);
  }
  return total;
}

std::uint64_t dependency_makespan(const TileGridRecord& grid,
                                  unsigned processors,
                                  std::uint64_t overhead) {
  const std::size_t slots = grid.rows * grid.cols;
  std::vector<int> deps(slots, 0);
  std::vector<std::uint64_t> ready_time(slots, 0);
  auto skipped = [&](std::size_t idx) {
    return grid.costs[idx] == TileGridRecord::kSkipped;
  };
  std::size_t runnable = 0;
  for (std::size_t ti = 0; ti < grid.rows; ++ti) {
    for (std::size_t tj = 0; tj < grid.cols; ++tj) {
      const std::size_t idx = ti * grid.cols + tj;
      if (skipped(idx)) continue;
      ++runnable;
      deps[idx] = (ti > 0 ? 1 : 0) + (tj > 0 ? 1 : 0);
    }
  }
  if (runnable == 0) return 0;

  // Event-driven list scheduling. Ready tiles are ordered by
  // (ready_time, diagonal, row): earliest-available first, wavefront order
  // among simultaneously available ones.
  struct ReadyTile {
    std::uint64_t at;
    std::size_t diag;
    std::size_t ti, tj;
    bool operator>(const ReadyTile& o) const {
      if (at != o.at) return at > o.at;
      if (diag != o.diag) return diag > o.diag;
      return ti > o.ti;
    }
  };
  std::priority_queue<ReadyTile, std::vector<ReadyTile>, std::greater<>>
      ready;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      free_at;
  for (unsigned p = 0; p < processors; ++p) free_at.push(0);
  FLSA_ASSERT(!skipped(0));
  ready.push({0, 0, 0, 0});

  std::uint64_t makespan = 0;
  std::size_t done = 0;
  while (done < runnable) {
    FLSA_ASSERT(!ready.empty());
    const ReadyTile tile = ready.top();
    ready.pop();
    const std::uint64_t proc_free = free_at.top();
    free_at.pop();
    const std::size_t idx = tile.ti * grid.cols + tile.tj;
    const std::uint64_t start = std::max(tile.at, proc_free);
    const std::uint64_t end = start + grid.costs[idx] + overhead;
    free_at.push(end);
    makespan = std::max(makespan, end);
    ++done;

    auto release = [&](std::size_t ri, std::size_t rj) {
      const std::size_t ridx = ri * grid.cols + rj;
      if (skipped(ridx)) return;
      if (--deps[ridx] == 0) {
        ready.push({end, ri + rj, ri, rj});
      }
    };
    if (tile.ti + 1 < grid.rows) release(tile.ti + 1, tile.tj);
    if (tile.tj + 1 < grid.cols) release(tile.ti, tile.tj + 1);
  }
  return makespan;
}

}  // namespace

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kBarrierStaged: return "barrier-staged";
    case SchedulerKind::kDependencyCounter: return "dependency-counter";
  }
  return "?";
}

std::uint64_t grid_makespan(const TileGridRecord& grid, unsigned processors,
                            SchedulerKind policy,
                            std::uint64_t per_tile_overhead) {
  FLSA_REQUIRE(processors >= 1);
  if (grid.rows == 0 || grid.cols == 0) return 0;
  return policy == SchedulerKind::kBarrierStaged
             ? barrier_makespan(grid, processors, per_tile_overhead)
             : dependency_makespan(grid, processors, per_tile_overhead);
}

std::uint64_t trace_makespan(const RunTrace& trace, unsigned processors,
                             SchedulerKind policy,
                             std::uint64_t per_tile_overhead) {
  std::uint64_t total = 0;
  for (const TileGridRecord& grid : trace.grids) {
    total += grid_makespan(grid, processors, policy, per_tile_overhead);
  }
  return total;
}

SpeedupPoint speedup_at(const RunTrace& trace, unsigned processors,
                        SchedulerKind policy,
                        std::uint64_t per_tile_overhead) {
  SpeedupPoint point;
  point.processors = processors;
  point.makespan =
      trace_makespan(trace, processors, policy, per_tile_overhead);
  const std::uint64_t serial = trace.total_cells();
  point.speedup = point.makespan == 0
                      ? 1.0
                      : static_cast<double>(serial) /
                            static_cast<double>(point.makespan);
  point.efficiency = point.speedup / processors;
  return point;
}

}  // namespace flsa
