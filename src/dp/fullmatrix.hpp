// Full-matrix (FM) dynamic-programming alignment: the Needleman-Wunsch
// baseline that stores the complete DPM, plus the boundary-aware stored
// fill and traceback reused by FastLSA's Base Case and, in local mode, by
// the Smith-Waterman solver (dp/local.hpp).
#pragma once

#include <span>

#include "dp/alignment.hpp"
#include "dp/counters.hpp"
#include "dp/kernel.hpp"
#include "dp/matrix.hpp"
#include "dp/path.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// Fills `dpm` (resized to (a.size()+1) x (b.size()+1)) with the linear-gap
/// DPM of the rectangle whose boundary caches are `top` and `left`
/// (layout as in sweep_rectangle_linear): a boundary copy plus
/// fill_matrix_region_linear<Mode> over the interior, which also takes
/// `best`.
template <DpMode Mode = DpMode::kGlobal>
void fill_full_matrix_linear(std::span<const Residue> a,
                             std::span<const Residue> b,
                             const ScoringScheme& scheme,
                             std::span<const Score> top,
                             std::span<const Score> left,
                             Matrix2D<Score>& dpm,
                             DpCounters* counters = nullptr,
                             BestCell* best = nullptr);

/// Traces an optimal path backwards through a filled rectangle DPM,
/// starting at (start_row, start_col), stopping when the path reaches the
/// rectangle's top row or left column (the paper's Base Case behaviour:
/// "an optimal path is found to extend from the bottom-right corner entry
/// to the top boundary entry") — or, in local mode, a cell whose value
/// is 0, where the local alignment starts.
///
/// Tie-breaking is deterministic: diagonal, then up, then left, so every
/// algorithm in the library reconstructs the same optimal path.
/// Moves are appended to `path`, whose front stands for the start cell —
/// in the coordinates of an enclosing DPM when the rectangle is one of
/// FastLSA's base cases.
template <DpMode Mode = DpMode::kGlobal>
void traceback_rectangle_linear(std::span<const Residue> a,
                                std::span<const Residue> b,
                                const ScoringScheme& scheme,
                                const Matrix2D<Score>& dpm,
                                std::size_t start_row, std::size_t start_col,
                                Path& path, DpCounters* counters = nullptr);

/// Fills one rectangular region of an already-boundary-initialized DPM:
/// entries (r, c) for r in [row0, row0+rows) x c in [col0, col0+cols),
/// reading the up/left/diagonal neighbours from `dpm` (which must already
/// hold them — row 0 / column 0 from boundary caches, interior regions from
/// previously filled tiles). row0, col0 >= 1. This is the unit of work of
/// the tiled (wavefront-parallel) base case. Local mode floors every cell
/// at 0 and, when `best` is non-null, raises *best — seeded by the caller
/// — to each filled cell that exceeds it, in row-major order; global mode
/// ignores `best`.
template <DpMode Mode = DpMode::kGlobal>
void fill_matrix_region_linear(std::span<const Residue> a,
                               std::span<const Residue> b,
                               const ScoringScheme& scheme,
                               Matrix2D<Score>& dpm, std::size_t row0,
                               std::size_t col0, std::size_t rows,
                               std::size_t cols, BestCell* best = nullptr);

/// Complete Needleman-Wunsch global alignment storing the whole DPM.
/// This is the paper's FM baseline. Works for linear schemes only; the
/// affine FM baseline lives in gotoh.hpp.
Alignment full_matrix_align(const Sequence& a, const Sequence& b,
                            const ScoringScheme& scheme,
                            DpCounters* counters = nullptr);

/// Score-only FM run (fills the matrix, returns the corner value).
Score full_matrix_score(const Sequence& a, const Sequence& b,
                        const ScoringScheme& scheme,
                        DpCounters* counters = nullptr);

/// Extends a path that has reached the DPM's top row or left column the
/// rest of the way to the origin (leading gaps), completing the alignment.
void extend_path_to_origin(Path& path);

}  // namespace flsa
