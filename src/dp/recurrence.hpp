// The DP recurrence itself, one cell at a time, for each gap model.
//
// The scalar sweep cores (dp/kernel.cpp) and the stored region fills
// (dp/fullmatrix.cpp, dp/gotoh.cpp) all compute their cells through these
// functions, so a score pass and the stored fill of the same rectangle
// cannot drift apart. Internal to dp/; the vector cores keep their own
// lane-wise forms of the same recurrence, and the 2-bit move fill
// (dp/packed_traceback.cpp) its own linear form, which also yields the
// winning move.
#pragma once

#include <algorithm>

#include "dp/gotoh.hpp"
#include "dp/kernel.hpp"

namespace flsa {

// Local mode takes the floor, diagonal, up and left terms in one
// std::max over a list, the Smith-Waterman solvers' long-standing form.
// GCC compiles it to the faster loop: flooring the global expression
// afterwards ran the local stored fills 1.4-1.7x slower on a 300-residue
// protein pair. Both forms give the same value.

/// One linear-gap cell from its diagonal, up and left neighbours and the
/// substitution score of its residue pair; local mode floors it at 0.
template <DpMode Mode>
inline Score linear_cell(Score diag, Score up, Score left, Score sub,
                         Score gap) {
  if constexpr (Mode == DpMode::kLocal) {
    return std::max({Score{0}, diag + sub, up + gap, left + gap});
  }
  return std::max(diag + sub, std::max(up, left) + gap);
}

/// One affine (Gotoh) cell; local mode floors its D lane at 0.
template <DpMode Mode>
inline AffineCell affine_cell(const AffineCell& diag, const AffineCell& up,
                              const AffineCell& left, Score sub, Score open,
                              Score ext) {
  AffineCell cell;
  cell.ix = std::max(up.d + open, up.ix) + ext;
  cell.iy = std::max(left.d + open, left.iy) + ext;
  if constexpr (Mode == DpMode::kLocal) {
    cell.d = std::max({Score{0}, diag.d + sub, cell.ix, cell.iy});
  } else {
    cell.d = std::max(diag.d + sub, std::max(cell.ix, cell.iy));
  }
  return cell;
}

}  // namespace flsa
