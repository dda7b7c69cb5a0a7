#include "dp/gotoh.hpp"

#include <algorithm>
#include <vector>

#include "dp/fullmatrix.hpp"
#include "dp/recurrence.hpp"
#include "support/assert.hpp"

namespace flsa {

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

template <DpMode Mode>
void fill_full_matrix_affine(std::span<const Residue> a,
                             std::span<const Residue> b,
                             const ScoringScheme& scheme,
                             std::span<const AffineCell> top,
                             std::span<const AffineCell> left,
                             Matrix2D<AffineCell>& dpm, DpCounters* counters,
                             BestCell* best) {
  const std::size_t rows = a.size();
  const std::size_t cols = b.size();
  FLSA_REQUIRE(top.size() == cols + 1);
  FLSA_REQUIRE(left.size() == rows + 1);
  FLSA_REQUIRE(top[0] == left[0]);

  dpm.resize(rows + 1, cols + 1);
  std::copy(top.begin(), top.end(), dpm.row(0));
  for (std::size_t r = 1; r <= rows; ++r) dpm(r, 0) = left[r];
  fill_matrix_region_affine<Mode>(a, b, scheme, dpm, 1, 1, rows, cols, best);
  if (counters) {
    counters->cells_stored += static_cast<std::uint64_t>(rows) * cols;
  }
}

template <DpMode Mode>
void fill_matrix_region_affine(std::span<const Residue> a,
                               std::span<const Residue> b,
                               const ScoringScheme& scheme,
                               Matrix2D<AffineCell>& dpm, std::size_t row0,
                               std::size_t col0, std::size_t rows,
                               std::size_t cols, BestCell* best) {
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
      curr[c] = affine_cell<Mode>(prev[c - 1], prev[c], curr[c - 1],
                                  sub.at(ar, b[c - 1]), open, ext);
      if constexpr (Mode == DpMode::kLocal) {
        if (best && curr[c].d > best->score) {
          *best = BestCell{curr[c].d, r, c};
        }
      }
    }
  }
}

template <DpMode Mode>
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
    // A local alignment starts where its D lane was floored at 0.
    if constexpr (Mode == DpMode::kLocal) {
      if (state == AffineState::kD && cell.d == 0) break;
    }
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

#define FLSA_INSTANTIATE_AFFINE(Mode)                                      \
  template void fill_full_matrix_affine<Mode>(                             \
      std::span<const Residue>, std::span<const Residue>,                  \
      const ScoringScheme&, std::span<const AffineCell>,                   \
      std::span<const AffineCell>, Matrix2D<AffineCell>&, DpCounters*,     \
      BestCell*);                                                          \
  template void fill_matrix_region_affine<Mode>(                           \
      std::span<const Residue>, std::span<const Residue>,                  \
      const ScoringScheme&, Matrix2D<AffineCell>&, std::size_t,            \
      std::size_t, std::size_t, std::size_t, BestCell*);                   \
  template AffineState traceback_rectangle_affine<Mode>(                   \
      std::span<const Residue>, std::span<const Residue>,                  \
      const ScoringScheme&, const Matrix2D<AffineCell>&, std::size_t,      \
      std::size_t, AffineState, Path&, DpCounters*);
FLSA_INSTANTIATE_AFFINE(DpMode::kGlobal)
FLSA_INSTANTIATE_AFFINE(DpMode::kLocal)
#undef FLSA_INSTANTIATE_AFFINE

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
  sweep_rectangle_affine(KernelKind::kScalar, a, b, scheme, row, left, row,
                         {}, counters);
  return row.back().d;
}

}  // namespace flsa
