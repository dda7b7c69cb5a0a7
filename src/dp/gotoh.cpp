#include "dp/gotoh.hpp"

#include <algorithm>
#include <vector>

#include "dp/fullmatrix.hpp"
#include "dp/kernel_simd.hpp"
#include "support/assert.hpp"

namespace flsa {

void sweep_rectangle_affine(std::span<const Residue> a,
                            std::span<const Residue> b,
                            const ScoringScheme& scheme,
                            std::span<const AffineCell> top,
                            std::span<const AffineCell> left,
                            std::span<AffineCell> out_bottom,
                            std::span<AffineCell> out_right,
                            DpCounters* counters) {
  const std::size_t rows = a.size();
  const std::size_t cols = b.size();
  FLSA_REQUIRE(top.size() == cols + 1);
  FLSA_REQUIRE(left.size() == rows + 1);
  FLSA_REQUIRE(top[0] == left[0]);
  FLSA_REQUIRE(out_bottom.size() == cols + 1);
  FLSA_REQUIRE(out_right.empty() || out_right.size() == rows + 1);

  const Score open = scheme.gap_open();
  const Score ext = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();

  if (out_bottom.data() != top.data()) {
    std::copy(top.begin(), top.end(), out_bottom.begin());
  }
  AffineCell* row = out_bottom.data();
  if (!out_right.empty()) out_right[0] = row[cols];

  for (std::size_t r = 1; r <= rows; ++r) {
    AffineCell diag = row[0];
    row[0] = left[r];
    const Residue ar = a[r - 1];
    for (std::size_t c = 1; c <= cols; ++c) {
      const AffineCell up = row[c];
      const AffineCell& lf = row[c - 1];
      AffineCell cell;
      cell.ix = std::max(up.d + open, up.ix) + ext;
      cell.iy = std::max(lf.d + open, lf.iy) + ext;
      cell.d = std::max(diag.d + sub.at(ar, b[c - 1]),
                        std::max(cell.ix, cell.iy));
      diag = up;
      row[c] = cell;
    }
    if (!out_right.empty()) out_right[r] = row[cols];
  }

  if (counters) {
    counters->cells_scored += static_cast<std::uint64_t>(rows) * cols;
  }
}

void sweep_rectangle_affine(KernelKind kind, std::span<const Residue> a,
                            std::span<const Residue> b,
                            const ScoringScheme& scheme,
                            std::span<const AffineCell> top,
                            std::span<const AffineCell> left,
                            std::span<AffineCell> out_bottom,
                            std::span<AffineCell> out_right,
                            DpCounters* counters) {
  const KernelKind resolved = resolve_kernel(kind);
  // The narrow tiers have no affine core (three interdependent saturating
  // matrices triple the rail-tracking work for little win); affine sweeps
  // run the int32 SIMD kernel under any narrow request.
  if (resolved == KernelKind::kSimd || resolved == KernelKind::kInt16) {
    sweep_rectangle_affine_simd(a, b, scheme, top, left, out_bottom,
                                out_right, counters);
  } else {
    sweep_rectangle_affine(a, b, scheme, top, left, out_bottom, out_right,
                           counters);
  }
}

void init_global_boundary_affine(const ScoringScheme& scheme,
                                 std::span<AffineCell> boundary,
                                 bool horizontal) {
  if (boundary.empty()) return;
  boundary[0] = AffineCell{0, kNegInf, kNegInf};
  const Score open = scheme.gap_open();
  const Score ext = scheme.gap_extend();
  for (std::size_t i = 1; i < boundary.size(); ++i) {
    const Score run = open + static_cast<Score>(i) * ext;
    AffineCell cell;
    cell.d = run;
    // The boundary itself is one ongoing gap run: horizontal boundaries are
    // gap-in-a runs (Iy lane), vertical ones gap-in-b runs (Ix lane).
    cell.ix = horizontal ? kNegInf : run;
    cell.iy = horizontal ? run : kNegInf;
    boundary[i] = cell;
  }
}

void fill_full_matrix_affine(std::span<const Residue> a,
                             std::span<const Residue> b,
                             const ScoringScheme& scheme,
                             std::span<const AffineCell> top,
                             std::span<const AffineCell> left,
                             Matrix2D<AffineCell>& dpm, DpCounters* counters) {
  const std::size_t rows = a.size();
  const std::size_t cols = b.size();
  FLSA_REQUIRE(top.size() == cols + 1);
  FLSA_REQUIRE(left.size() == rows + 1);
  FLSA_REQUIRE(top[0] == left[0]);

  dpm.resize(rows + 1, cols + 1);
  std::copy(top.begin(), top.end(), dpm.row(0));
  const Score open = scheme.gap_open();
  const Score ext = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();
  for (std::size_t r = 1; r <= rows; ++r) {
    const AffineCell* prev = dpm.row(r - 1);
    AffineCell* curr = dpm.row(r);
    curr[0] = left[r];
    const Residue ar = a[r - 1];
    for (std::size_t c = 1; c <= cols; ++c) {
      AffineCell cell;
      cell.ix = std::max(prev[c].d + open, prev[c].ix) + ext;
      cell.iy = std::max(curr[c - 1].d + open, curr[c - 1].iy) + ext;
      cell.d = std::max(prev[c - 1].d + sub.at(ar, b[c - 1]),
                        std::max(cell.ix, cell.iy));
      curr[c] = cell;
    }
  }
  if (counters) {
    counters->cells_stored += static_cast<std::uint64_t>(rows) * cols;
  }
}

void fill_matrix_region_affine(std::span<const Residue> a,
                               std::span<const Residue> b,
                               const ScoringScheme& scheme,
                               Matrix2D<AffineCell>& dpm, std::size_t row0,
                               std::size_t col0, std::size_t rows,
                               std::size_t cols) {
  FLSA_REQUIRE(row0 >= 1 && col0 >= 1);
  FLSA_REQUIRE(row0 + rows <= dpm.rows() && col0 + cols <= dpm.cols());
  const Score open = scheme.gap_open();
  const Score ext = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();
  for (std::size_t r = row0; r < row0 + rows; ++r) {
    const AffineCell* prev = dpm.row(r - 1);
    AffineCell* curr = dpm.row(r);
    const Residue ar = a[r - 1];
    for (std::size_t c = col0; c < col0 + cols; ++c) {
      AffineCell cell;
      cell.ix = std::max(prev[c].d + open, prev[c].ix) + ext;
      cell.iy = std::max(curr[c - 1].d + open, curr[c - 1].iy) + ext;
      cell.d = std::max(prev[c - 1].d + sub.at(ar, b[c - 1]),
                        std::max(cell.ix, cell.iy));
      curr[c] = cell;
    }
  }
}

AffineState traceback_rectangle_affine(std::span<const Residue> a,
                                       std::span<const Residue> b,
                                       const ScoringScheme& scheme,
                                       const Matrix2D<AffineCell>& dpm,
                                       std::size_t start_row,
                                       std::size_t start_col,
                                       AffineState state, Path& path,
                                       DpCounters* counters) {
  FLSA_REQUIRE(start_row < dpm.rows() && start_col < dpm.cols());
  const Score open = scheme.gap_open();
  const Score ext = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();
  std::size_t r = start_row;
  std::size_t c = start_col;
  std::uint64_t steps = 0;
  while (r > 0 && c > 0) {
    const AffineCell& cell = dpm(r, c);
    switch (state) {
      case AffineState::kD: {
        const Score via_diag = dpm(r - 1, c - 1).d + sub.at(a[r - 1], b[c - 1]);
        if (cell.d == via_diag) {
          path.push_traceback(Move::kDiag);
          --r;
          --c;
          ++steps;
        } else if (cell.d == cell.ix) {
          state = AffineState::kIx;
        } else {
          FLSA_ASSERT(cell.d == cell.iy);
          state = AffineState::kIy;
        }
        break;
      }
      case AffineState::kIx: {
        path.push_traceback(Move::kUp);
        // Prefer closing the gap run over extending it.
        if (cell.ix == dpm(r - 1, c).d + open + ext) {
          state = AffineState::kD;
        } else {
          FLSA_ASSERT(cell.ix == dpm(r - 1, c).ix + ext);
        }
        --r;
        ++steps;
        break;
      }
      case AffineState::kIy: {
        path.push_traceback(Move::kLeft);
        if (cell.iy == dpm(r, c - 1).d + open + ext) {
          state = AffineState::kD;
        } else {
          FLSA_ASSERT(cell.iy == dpm(r, c - 1).iy + ext);
        }
        --c;
        ++steps;
        break;
      }
    }
  }
  if (counters) counters->traceback_steps += steps;
  return state;
}

Alignment full_matrix_align_affine(const Sequence& a, const Sequence& b,
                                   const ScoringScheme& scheme,
                                   DpCounters* counters) {
  std::vector<AffineCell> top(b.size() + 1);
  std::vector<AffineCell> left(a.size() + 1);
  init_global_boundary_affine(scheme, top, /*horizontal=*/true);
  init_global_boundary_affine(scheme, left, /*horizontal=*/false);
  Matrix2D<AffineCell> dpm;
  fill_full_matrix_affine(a.residues(), b.residues(), scheme, top, left, dpm,
                          counters);
  Path path(Cell{a.size(), b.size()});
  traceback_rectangle_affine(a.residues(), b.residues(), scheme, dpm,
                             a.size(), b.size(), AffineState::kD, path,
                             counters);
  extend_path_to_origin(path);
  Alignment out = alignment_from_path(a, b, path, scheme);
  FLSA_ASSERT(out.score == dpm(a.size(), b.size()).d);
  return out;
}

Score global_score_affine(std::span<const Residue> a,
                          std::span<const Residue> b,
                          const ScoringScheme& scheme, DpCounters* counters) {
  std::vector<AffineCell> row(b.size() + 1);
  std::vector<AffineCell> left(a.size() + 1);
  init_global_boundary_affine(scheme, row, /*horizontal=*/true);
  init_global_boundary_affine(scheme, left, /*horizontal=*/false);
  sweep_rectangle_affine(a, b, scheme, row, left, row, {}, counters);
  return row.back().d;
}

}  // namespace flsa
