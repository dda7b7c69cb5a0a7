// FastLSA recursion engine (internal header).
//
// Implements the paper's pseudo-code (its Figure 2) generically over the
// gap model and the tile execution policy:
//
//   FastLSA(problem, cacheRow, cacheColumn, path):
//     if problem fits in the Base Case buffer: solveFullMatrix(...)
//     grid  = allocateGrid(problem)            -> GridLines
//     fillGridCache(problem, grid)             -> tiled wavefront sweep,
//                                                 skipping the bottom-right
//                                                 sub-problem's tiles
//     path += FastLSA(problem.bottomRight,...) -> first loop iteration
//     while path not fully extended:
//       sub = UpLeft(grid, path)               -> rectangle bounded by the
//                                                 nearest grid lines above
//                                                 and left of the path end
//       path += FastLSA(sub, CachedRow(sub), CachedColumn(sub), path)
//     deallocateGrid(grid)
//
// The template parameter selects the cell type: plain scores for linear
// gaps, (D, Ix, Iy) triples for affine gaps, in which case the traceback
// lane is carried across sub-problem boundaries.
//
// This header is internal to the library (the public entry points are in
// core/fastlsa.hpp and parallel/parallel_fastlsa.hpp) but is shared by the
// parallel driver and the virtual-time recorder, which plug in their own
// TileExecutor.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/arena.hpp"
#include "core/budget.hpp"
#include "core/fastlsa.hpp"
#include "core/tile_executor.hpp"
#include "dp/fullmatrix.hpp"
#include "dp/gotoh.hpp"
#include "dp/kernel.hpp"
#include "dp/matrix.hpp"
#include "dp/path.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace flsa {
namespace detail {

/// Interior cut positions dividing [0, extent) into min(parts, extent)
/// near-equal segments; empty when extent <= 1 or parts <= 1. The out
/// parameter is cleared and refilled, keeping its capacity — the recursion
/// hot path reuses one vector per level instead of reallocating.
inline void split_cuts_into(std::vector<std::size_t>& cuts,
                            std::size_t extent, std::size_t parts) {
  const std::size_t segments = std::max<std::size_t>(
      1, std::min<std::size_t>(parts, extent));
  cuts.clear();
  cuts.reserve(segments - 1);
  for (std::size_t i = 1; i < segments; ++i) {
    cuts.push_back(extent * i / segments);
  }
}

inline std::vector<std::size_t> split_cuts(std::size_t extent,
                                           std::size_t parts) {
  std::vector<std::size_t> cuts;
  split_cuts_into(cuts, extent, parts);
  return cuts;
}

/// Largest tile count for an extent that keeps every tile at least
/// `min_extent` long (always >= 1).
inline std::size_t clamp_tiles(std::size_t desired, std::size_t extent,
                               std::size_t min_extent) {
  const std::size_t cap =
      min_extent <= 1 ? extent : std::max<std::size_t>(1, extent / min_extent);
  return std::max<std::size_t>(1, std::min(desired, cap));
}

/// Refines block cuts by subdividing every block segment into up to
/// `tiles_per_block` tiles of at least `min_tile_extent` residues each.
/// Fills `tile_cuts` (cleared first, capacity kept) with interior tile
/// cuts (a superset of `block_cuts`).
inline void refine_cuts_into(std::vector<std::size_t>& tile_cuts,
                             std::size_t extent,
                             const std::vector<std::size_t>& block_cuts,
                             std::size_t tiles_per_block,
                             std::size_t min_tile_extent = 1) {
  tile_cuts.clear();
  tile_cuts.reserve((block_cuts.size() + 1) * tiles_per_block);
  std::size_t start = 0;
  auto refine_segment = [&](std::size_t end) {
    const std::size_t parts =
        clamp_tiles(tiles_per_block, end - start, min_tile_extent);
    for (std::size_t cut : split_cuts(end - start, parts)) {
      tile_cuts.push_back(start + cut);
    }
    if (end != extent) tile_cuts.push_back(end);
    start = end;
  };
  for (std::size_t cut : block_cuts) refine_segment(cut);
  refine_segment(extent);
}

inline std::vector<std::size_t> refine_cuts(
    std::size_t extent, const std::vector<std::size_t>& block_cuts,
    std::size_t tiles_per_block, std::size_t min_tile_extent = 1) {
  std::vector<std::size_t> tile_cuts;
  refine_cuts_into(tile_cuts, extent, block_cuts, tiles_per_block,
                   min_tile_extent);
  return tile_cuts;
}

/// Execution plan: which executor runs the tile grids and how finely each
/// phase is tiled. Sequential FastLSA uses one tile per block.
struct EnginePlan {
  TileExecutor* executor = nullptr;
  /// Fill Grid Cache tiles per block and dimension (the paper's finer
  /// R x C tiling; its u x v skipped tiles are one block's worth).
  std::size_t tiles_per_block = 1;
  /// Tile grid per dimension for the stored base-case matrix.
  std::size_t base_case_tiles = 1;
  /// Minimum tile extent (residues per dimension): sub-problems are never
  /// tiled finer than this, so fixed per-tile costs stay amortized.
  std::size_t min_tile_extent = 1;
};

template <bool Affine>
class FastLsaEngine {
 public:
  using CellT = std::conditional_t<Affine, AffineCell, Score>;

  FastLsaEngine(const Sequence& a, const Sequence& b,
                const ScoringScheme& scheme, const FastLsaOptions& options,
                const EnginePlan& plan, FastLsaStats* stats)
      : a_(a), b_(b), scheme_(scheme), options_(options), plan_(plan),
        stats_(stats ? *stats : local_stats_),
        kernel_(resolve_kernel(options.kernel, scheme)),
        owned_workspace_(options.workspace ? nullptr
                                           : new FastLsaWorkspace()),
        arena_((options.workspace ? *options.workspace : *owned_workspace_)
                   .template arena<CellT>()),
        path_(Cell{a.size(), b.size()}, std::move(arena_.path_storage)) {
    validate(options_);
    stats_.kernel_used = kernel_;
    FLSA_REQUIRE(plan_.executor != nullptr);
    FLSA_REQUIRE(plan_.tiles_per_block >= 1);
    FLSA_REQUIRE(plan_.base_case_tiles >= 1);
    if constexpr (Affine) {
      // Nothing extra; linear schemes also run correctly in affine mode.
    } else {
      FLSA_REQUIRE(scheme.is_linear());
    }
    workers_ = plan_.executor->worker_count();
    arena_.worker_counters.assign(workers_, DpCounters{});
    if (arena_.scratch_bottom.size() < workers_) {
      arena_.scratch_bottom.resize(workers_);
    }
    if (arena_.scratch_right.size() < workers_) {
      arena_.scratch_right.resize(workers_);
    }
  }

  FastLsaEngine(const FastLsaEngine&) = delete;
  FastLsaEngine& operator=(const FastLsaEngine&) = delete;

  Alignment run() {
    FLSA_OBS_PHASE(obs_align, obs::Phase::kAlign);
    FLSA_OBS_GAUGE("fastlsa.workers", static_cast<double>(workers_));
    const std::size_t m = a_.size();
    const std::size_t n = b_.size();
    const std::uint64_t pool_hits0 = arena_.cell_pool.hits();
    const std::uint64_t pool_misses0 = arena_.cell_pool.misses();

    // Reserve the Base Case buffer (the paper reserves BM units up front).
    arena_.base_buffer.reserve(options_.base_case_cells);
    MemoryCharge base_charge(&tracker_,
                             options_.base_case_cells * sizeof(CellT));

    // Per-worker scratch rows/columns used by fill tiles.
    const std::size_t scratch_len = std::max(m, n) + 1;
    for (unsigned w = 0; w < workers_; ++w) {
      arena_.scratch_bottom[w].resize(scratch_len);
      arena_.scratch_right[w].resize(scratch_len);
    }
    MemoryCharge scratch_charge(
        &tracker_, 2 * scratch_len * sizeof(CellT) * workers_);

    if (options_.prune && m > 0 && n > 0) {
      incumbent_ = greedy_incumbent();
      prune_slack_ = std::max<std::int64_t>(0, scheme_.matrix().max_score());
    }

    if (m > 0 && n > 0) {
      // Global DPM boundary (the initial cacheRow / cacheColumn).
      std::vector<CellT>& top = arena_.boundary_top;
      std::vector<CellT>& left = arena_.boundary_left;
      top.resize(n + 1);
      left.resize(m + 1);
      init_boundary(top, /*horizontal=*/true);
      init_boundary(left, /*horizontal=*/false);
      MemoryCharge boundary_charge(&tracker_, (m + n + 2) * sizeof(CellT));
      solve({0, 0, m, n}, top, left, 0);
    }
    extend_path_to_origin(path_);
    FLSA_ASSERT(path_.reaches_origin() && path_.is_consistent());

    for (unsigned w = 0; w < workers_; ++w) {
      stats_.counters += arena_.worker_counters[w];
    }
    stats_.peak_bytes = tracker_.peak_bytes();
    stats_.arena_pool_hits = arena_.cell_pool.hits() - pool_hits0;
    stats_.arena_pool_misses = arena_.cell_pool.misses() - pool_misses0;
    FLSA_OBS_COUNT("fastlsa.arena.pool_hits", stats_.arena_pool_hits);
    FLSA_OBS_COUNT("fastlsa.arena.pool_misses", stats_.arena_pool_misses);
    FLSA_OBS_COUNT("fastlsa.tiles.pruned", stats_.counters.tiles_pruned);
    FLSA_OBS_PHASE_CELLS(obs_align, stats_.counters.total_cells());
    Alignment result = alignment_from_path(a_, b_, path_, scheme_);
    // Hand the traceback storage back for the next run on this workspace.
    arena_.path_storage = std::move(path_).reclaim_storage();
    return result;
  }

 private:
  struct Rect {
    std::size_t row0, col0, rows, cols;
  };

  static CellT zero_cell() {
    if constexpr (Affine) {
      return AffineCell{0, kNegInf, kNegInf};
    } else {
      return 0;
    }
  }

  /// Score of the greedy main-diagonal alignment (pair residue i with
  /// residue i, then gap out the length difference): a real alignment,
  /// hence a lower bound of the optimum — the pruning incumbent.
  std::int64_t greedy_incumbent() const {
    const std::span<const Residue> a = a_.residues();
    const std::span<const Residue> b = b_.residues();
    const SubstitutionMatrix& sub = scheme_.matrix();
    const std::size_t diag = std::min(a.size(), b.size());
    std::int64_t score = 0;
    for (std::size_t i = 0; i < diag; ++i) score += sub.at(a[i], b[i]);
    const std::size_t excess = std::max(a.size(), b.size()) - diag;
    if (excess > 0) score += scheme_.gap_cost(excess);
    return score;
  }

  static Score cell_best(const CellT& cell) {
    if constexpr (Affine) {
      return std::max(cell.d, std::max(cell.ix, cell.iy));
    } else {
      return cell;
    }
  }

  static CellT sentinel_cell() {
    if constexpr (Affine) {
      return AffineCell{kNegInf, kNegInf, kNegInf};
    } else {
      return kNegInf;
    }
  }

  /// Admissible tile bound: no path through this tile's input boundary can
  /// beat the incumbent. From any boundary cell (r, c) with DP value v the
  /// final score is at most v + slack * min(m - r, n - c) (each remaining
  /// step scores at most slack >= 0, and the bound drops the gap cost);
  /// taking the tile's best boundary value and the tile's top-left corner
  /// (which maximizes the remaining-step term over the whole boundary)
  /// upper-bounds every path through the tile. Boundary entries that are
  /// themselves pruned sentinels only lower the bound, so pruning
  /// propagates but can never cut a cell of an optimal path: such a cell's
  /// boundary value is exact by induction and pushes the bound to at least
  /// the true optimum >= incumbent.
  bool can_prune(const Rect& rect, std::size_t rs, std::size_t cs,
                 std::span<const CellT> tile_top,
                 std::span<const CellT> tile_left) const {
    std::int64_t best = kNegInf;
    for (const CellT& cell : tile_top) {
      best = std::max<std::int64_t>(best, cell_best(cell));
    }
    for (const CellT& cell : tile_left) {
      best = std::max<std::int64_t>(best, cell_best(cell));
    }
    const std::size_t dr = a_.size() - (rect.row0 + rs);
    const std::size_t dc = b_.size() - (rect.col0 + cs);
    const std::int64_t bound =
        best + prune_slack_ * static_cast<std::int64_t>(std::min(dr, dc));
    return bound < incumbent_;
  }

  void init_boundary(std::span<CellT> boundary, bool horizontal) {
    if constexpr (Affine) {
      init_global_boundary_affine(scheme_, boundary, horizontal);
    } else {
      (void)horizontal;
      init_global_boundary_linear(scheme_, boundary);
    }
  }

  void solve(const Rect& rect, std::span<const CellT> top,
             std::span<const CellT> left, unsigned depth) {
    FLSA_ASSERT(rect.rows >= 1 && rect.cols >= 1);
    FLSA_ASSERT(top.size() == rect.cols + 1);
    FLSA_ASSERT(left.size() == rect.rows + 1);
    FLSA_ASSERT(path_.front() ==
                (Cell{rect.row0 + rect.rows, rect.col0 + rect.cols}));
    stats_.max_recursion_depth =
        std::max<std::uint64_t>(stats_.max_recursion_depth, depth);
    // Trace-only scope (metrics suppressed): solve() nests within itself,
    // so per-invocation seconds would double-count; the nested trace
    // spans, by contrast, render as the recursion's flame graph.
    FLSA_OBS_PHASE(obs_solve, obs::Phase::kRecursion,
                   static_cast<std::int64_t>(depth),
                   /*record_metrics=*/false);
    FLSA_OBS_OBSERVE("fastlsa.recursion.depth", depth);
    if ((rect.rows + 1) * (rect.cols + 1) <= options_.base_case_cells) {
      base_case(rect, top, left);
    } else {
      general_case(rect, top, left, depth);
    }
  }

  void base_case(const Rect& rect, std::span<const CellT> top,
                 std::span<const CellT> left) {
    ++stats_.base_case_invocations;
    const std::size_t rows = rect.rows;
    const std::size_t cols = rect.cols;
    FLSA_OBS_PHASE(obs_phase, obs::Phase::kBaseCase);
    FLSA_OBS_PHASE_CELLS(obs_phase,
                         static_cast<std::uint64_t>(rows) * cols);
    Matrix2D<CellT>& base_buffer = arena_.base_buffer;
    base_buffer.resize(rows + 1, cols + 1);
    std::copy(top.begin(), top.end(), base_buffer.row(0));
    for (std::size_t r = 0; r <= rows; ++r) base_buffer(r, 0) = left[r];

    const std::span<const Residue> a_sub =
        a_.residues().subspan(rect.row0, rows);
    const std::span<const Residue> b_sub =
        b_.residues().subspan(rect.col0, cols);

    // Tiled interior fill (one tile sequentially; a wavefront in parallel).
    // Base cases are recursion leaves, so one pair of cut vectors in the
    // arena serves every invocation.
    std::vector<std::size_t>& row_cuts = arena_.base_row_cuts;
    std::vector<std::size_t>& col_cuts = arena_.base_col_cuts;
    split_cuts_into(
        row_cuts, rows,
        clamp_tiles(plan_.base_case_tiles, rows, plan_.min_tile_extent));
    split_cuts_into(
        col_cuts, cols,
        clamp_tiles(plan_.base_case_tiles, cols, plan_.min_tile_extent));
    auto seg = [](const std::vector<std::size_t>& cuts, std::size_t extent,
                  std::size_t t) {
      const std::size_t s = t == 0 ? 0 : cuts[t - 1];
      const std::size_t e = t == cuts.size() ? extent : cuts[t];
      return std::pair<std::size_t, std::size_t>{s, e};
    };
    plan_.executor->run(
        row_cuts.size() + 1, col_cuts.size() + 1, nullptr,
        [&](std::size_t ti, std::size_t tj, unsigned /*worker*/) {
          const auto [rs, re] = seg(row_cuts, rows, ti);
          const auto [cs, ce] = seg(col_cuts, cols, tj);
          if constexpr (Affine) {
            fill_matrix_region_affine(a_sub, b_sub, scheme_, base_buffer,
                                      rs + 1, cs + 1, re - rs, ce - cs);
          } else {
            fill_matrix_region_linear(a_sub, b_sub, scheme_, base_buffer,
                                      rs + 1, cs + 1, re - rs, ce - cs);
          }
          return static_cast<std::uint64_t>(re - rs) * (ce - cs);
        },
        TilePhase::kBaseCase);
    arena_.worker_counters[0].cells_stored +=
        static_cast<std::uint64_t>(rows) * cols;

    if constexpr (Affine) {
      affine_state_ = traceback_rectangle_affine(
          a_sub, b_sub, scheme_, base_buffer, rows, cols, affine_state_,
          path_, &arena_.worker_counters[0]);
    } else {
      traceback_rectangle_linear(a_sub, b_sub, scheme_, base_buffer, rows,
                                 cols, path_, &arena_.worker_counters[0]);
    }
  }

  void general_case(const Rect& rect, std::span<const CellT> top,
                    std::span<const CellT> left, unsigned depth) {
    ++stats_.recursive_splits;
    const std::size_t rows = rect.rows;
    const std::size_t cols = rect.cols;

    // All per-level storage comes from the arena: the recursion is
    // sequential (one active sub-problem per depth), so every re-entry at
    // this depth reuses the same cut vectors and line handles, and the
    // pooled cell buffers recycle across depths and re-entries. The deque
    // behind level() keeps `lvl` valid while deeper levels are created.
    LevelScratch<CellT>& lvl = arena_.level(depth);

    // Block grid (the paper's k x k split) and its tile refinement.
    split_cuts_into(lvl.block_rows, rows, options_.k);
    split_cuts_into(lvl.block_cols, cols, options_.k);
    refine_cuts_into(lvl.tile_rows, rows, lvl.block_rows,
                     plan_.tiles_per_block, plan_.min_tile_extent);
    refine_cuts_into(lvl.tile_cols, cols, lvl.block_cols,
                     plan_.tiles_per_block, plan_.min_tile_extent);
    const std::vector<std::size_t>& block_rows = lvl.block_rows;
    const std::vector<std::size_t>& block_cols = lvl.block_cols;
    const std::vector<std::size_t>& tile_rows = lvl.tile_rows;
    const std::vector<std::size_t>& tile_cols = lvl.tile_cols;
    const std::size_t tr = tile_rows.size() + 1;
    const std::size_t tc = tile_cols.size() + 1;

    // Tile boundary line storage (grid lines are the subset of these that
    // fall on block cuts; the rest exist only during the fill). Recycled
    // buffers carry stale data, which is safe: the wavefront dependency
    // order guarantees every read slot was written by this fill first.
    LevelScratch<CellT>::ensure(lvl.line_rows, tr - 1);
    LevelScratch<CellT>::ensure(lvl.line_cols, tc - 1);
    for (std::size_t i = 0; i + 1 < tr; ++i) {
      lvl.line_rows[i] = PooledVector<CellT>(
          arena_.cell_pool.acquire(cols + 1), &arena_.cell_pool);
    }
    for (std::size_t j = 0; j + 1 < tc; ++j) {
      lvl.line_cols[j] = PooledVector<CellT>(
          arena_.cell_pool.acquire(rows + 1), &arena_.cell_pool);
    }
    ++stats_.grid_allocations;
    MemoryCharge grid_charge(
        &tracker_, ((tr - 1) * (cols + 1) + (tc - 1) * (rows + 1)) *
                       sizeof(CellT));

    fill_grid_cache(rect, top, left, block_rows, block_cols, tile_rows,
                    tile_cols, lvl.line_rows, lvl.line_cols);

    // Keep only the block grid lines for the recursion phase; the rest go
    // straight back to the pool.
    LevelScratch<CellT>::ensure(lvl.grid_rows, block_rows.size());
    LevelScratch<CellT>::ensure(lvl.grid_cols, block_cols.size());
    for (std::size_t i = 0; i < block_rows.size(); ++i) {
      const auto it = std::lower_bound(tile_rows.begin(), tile_rows.end(),
                                       block_rows[i]);
      FLSA_ASSERT(it != tile_rows.end() && *it == block_rows[i]);
      lvl.grid_rows[i] = std::move(
          lvl.line_rows[static_cast<std::size_t>(it - tile_rows.begin())]);
    }
    for (std::size_t j = 0; j < block_cols.size(); ++j) {
      const auto it = std::lower_bound(tile_cols.begin(), tile_cols.end(),
                                       block_cols[j]);
      FLSA_ASSERT(it != tile_cols.end() && *it == block_cols[j]);
      lvl.grid_cols[j] = std::move(
          lvl.line_cols[static_cast<std::size_t>(it - tile_cols.begin())]);
    }
    for (std::size_t i = 0; i + 1 < tr; ++i) lvl.line_rows[i].release();
    for (std::size_t j = 0; j + 1 < tc; ++j) lvl.line_cols[j].release();
    grid_charge.resize((block_rows.size() * (cols + 1) +
                        block_cols.size() * (rows + 1)) *
                       sizeof(CellT));

    // Successive up-left sub-problems along the optimal path (the first
    // iteration is the bottom-right block).
    while (true) {
      const Cell front = path_.front();
      FLSA_ASSERT(front.row >= rect.row0 && front.col >= rect.col0);
      const std::size_t fr = front.row - rect.row0;
      const std::size_t fc = front.col - rect.col0;
      if (fr == 0 || fc == 0) break;  // reached this problem's boundary

      // Nearest grid lines strictly above and left of the path end.
      const auto row_it =
          std::lower_bound(block_rows.begin(), block_rows.end(), fr);
      const std::size_t row_top =
          row_it == block_rows.begin() ? 0 : *(row_it - 1);
      const auto col_it =
          std::lower_bound(block_cols.begin(), block_cols.end(), fc);
      const std::size_t col_left =
          col_it == block_cols.begin() ? 0 : *(col_it - 1);

      const std::span<const CellT> sub_top =
          (row_top == 0
               ? top
               : std::span<const CellT>(
                     lvl.grid_rows[static_cast<std::size_t>(
                                       (row_it - 1) - block_rows.begin())]
                         .vec()))
              .subspan(col_left, fc - col_left + 1);
      const std::span<const CellT> sub_left =
          (col_left == 0
               ? left
               : std::span<const CellT>(
                     lvl.grid_cols[static_cast<std::size_t>(
                                       (col_it - 1) - block_cols.begin())]
                         .vec()))
              .subspan(row_top, fr - row_top + 1);

      solve({rect.row0 + row_top, rect.col0 + col_left, fr - row_top,
             fc - col_left},
            sub_top, sub_left, depth + 1);
    }

    // Grid lines go back to the pool for reuse by other depths/re-entries.
    for (std::size_t i = 0; i < block_rows.size(); ++i) {
      lvl.grid_rows[i].release();
    }
    for (std::size_t j = 0; j < block_cols.size(); ++j) {
      lvl.grid_cols[j].release();
    }
  }

  /// The Fill Grid Cache phase: wavefront-orderable sweep of every tile
  /// except those covering the bottom-right block.
  void fill_grid_cache(const Rect& rect, std::span<const CellT> top,
                       std::span<const CellT> left,
                       const std::vector<std::size_t>& block_rows,
                       const std::vector<std::size_t>& block_cols,
                       const std::vector<std::size_t>& tile_rows,
                       const std::vector<std::size_t>& tile_cols,
                       std::vector<PooledVector<CellT>>& line_rows,
                       std::vector<PooledVector<CellT>>& line_cols) {
    const std::size_t rows = rect.rows;
    const std::size_t cols = rect.cols;
    const std::size_t tr = tile_rows.size() + 1;
    const std::size_t tc = tile_cols.size() + 1;
    // The bottom-right block starts at the last block cut (or at 0 when the
    // dimension has a single block, i.e. the block spans everything).
    const std::size_t skip_row = block_rows.empty() ? 0 : block_rows.back();
    const std::size_t skip_col = block_cols.empty() ? 0 : block_cols.back();

    // Filled cells = whole rectangle minus the skipped bottom-right block.
    FLSA_OBS_PHASE(obs_phase, obs::Phase::kFillGrid);
    FLSA_OBS_PHASE_CELLS(
        obs_phase, static_cast<std::uint64_t>(rows) * cols -
                       static_cast<std::uint64_t>(rows - skip_row) *
                           (cols - skip_col));

    auto row_seg = [&](std::size_t ti) {
      return std::pair<std::size_t, std::size_t>{
          ti == 0 ? 0 : tile_rows[ti - 1],
          ti == tile_rows.size() ? rows : tile_rows[ti]};
    };
    auto col_seg = [&](std::size_t tj) {
      return std::pair<std::size_t, std::size_t>{
          tj == 0 ? 0 : tile_cols[tj - 1],
          tj == tile_cols.size() ? cols : tile_cols[tj]};
    };

    plan_.executor->run(
        tr, tc,
        [&](std::size_t ti, std::size_t tj) {
          return row_seg(ti).first >= skip_row &&
                 col_seg(tj).first >= skip_col;
        },
        [&](std::size_t ti, std::size_t tj, unsigned worker) {
          const auto [rs, re] = row_seg(ti);
          const auto [cs, ce] = col_seg(tj);
          const std::size_t trows = re - rs;
          const std::size_t tcols = ce - cs;

          const std::span<const CellT> tile_top =
              (ti == 0 ? top
                       : std::span<const CellT>(line_rows[ti - 1].vec()))
                  .subspan(cs, tcols + 1);
          const std::span<const CellT> tile_left =
              (tj == 0 ? left
                       : std::span<const CellT>(line_cols[tj - 1].vec()))
                  .subspan(rs, trows + 1);

          const bool need_right_line = tj + 1 < tc;
          if (options_.prune &&
              can_prune(rect, rs, cs, tile_top, tile_left)) {
            // Publish sentinel lines instead of sweeping: downstream tiles
            // see -inf and (by the bound's induction argument) either prune
            // too or compute values that never exceed the true ones. The
            // corner entries stay exact — same single-writer discipline as
            // the real lines below.
            ++arena_.worker_counters[worker].tiles_pruned;
            if (ti + 1 < tr) {
              CellT* dst = line_rows[ti].vec().data() + cs;
              std::fill(dst + 1, dst + 1 + tcols, sentinel_cell());
              if (tj == 0) dst[0] = tile_left[trows];
            }
            if (need_right_line) {
              CellT* dst = line_cols[tj].vec().data() + rs;
              std::fill(dst + 1, dst + 1 + trows, sentinel_cell());
              if (ti == 0) dst[0] = tile_top[tcols];
            }
            return std::uint64_t{0};
          }

          std::span<CellT> bottom(arena_.scratch_bottom[worker].data(),
                                  tcols + 1);
          const bool need_right = need_right_line;
          std::span<CellT> right =
              need_right ? std::span<CellT>(
                               arena_.scratch_right[worker].data(),
                               trows + 1)
                         : std::span<CellT>{};

          const std::span<const Residue> a_sub =
              a_.residues().subspan(rect.row0 + rs, trows);
          const std::span<const Residue> b_sub =
              b_.residues().subspan(rect.col0 + cs, tcols);
          if constexpr (Affine) {
            sweep_rectangle_affine(kernel_, a_sub, b_sub, scheme_, tile_top,
                                   tile_left, bottom, right,
                                   &arena_.worker_counters[worker]);
          } else {
            sweep_rectangle_linear(kernel_, a_sub, b_sub, scheme_, tile_top,
                                   tile_left, bottom, right,
                                   &arena_.worker_counters[worker]);
          }

          // Publish boundary lines. Each shared corner entry has exactly one
          // writer: a tile writes indices [1..len] of its own output lines
          // and index 0 only on the grid's outer edge, so concurrent tiles
          // never store to the same location.
          if (ti + 1 < tr) {
            CellT* dst = line_rows[ti].vec().data() + cs;
            std::copy(bottom.begin() + 1, bottom.end(), dst + 1);
            if (tj == 0) dst[0] = bottom[0];
          }
          if (need_right) {
            CellT* dst = line_cols[tj].vec().data() + rs;
            std::copy(right.begin() + 1, right.end(), dst + 1);
            if (ti == 0) dst[0] = right[0];
          }
          return static_cast<std::uint64_t>(trows) * tcols;
        },
        TilePhase::kFillCache);
  }

  const Sequence& a_;
  const Sequence& b_;
  const ScoringScheme& scheme_;
  FastLsaOptions options_;
  EnginePlan plan_;
  FastLsaStats local_stats_;
  FastLsaStats& stats_;
  KernelKind kernel_;  ///< resolved (never kAuto)
  MemoryTracker tracker_;
  // Declared before arena_/path_: arena_ binds to it when the caller did
  // not supply a workspace, and path_ adopts the arena's move storage.
  std::unique_ptr<FastLsaWorkspace> owned_workspace_;
  EngineArena<CellT>& arena_;
  Path path_;
  AffineState affine_state_ = AffineState::kD;
  unsigned workers_ = 1;
  std::int64_t incumbent_ = 0;    ///< pruning lower bound (options_.prune)
  std::int64_t prune_slack_ = 0;  ///< max(0, best substitution score)
};

}  // namespace detail
}  // namespace flsa
