#include "dp/fullmatrix.hpp"

#include <algorithm>

#include "dp/recurrence.hpp"
#include "support/assert.hpp"

namespace flsa {

template <DpMode Mode>
void fill_full_matrix_linear(std::span<const Residue> a,
                             std::span<const Residue> b,
                             const ScoringScheme& scheme,
                             std::span<const Score> top,
                             std::span<const Score> left,
                             Matrix2D<Score>& dpm, DpCounters* counters,
                             BestCell* best) {
  const std::size_t rows = a.size();
  const std::size_t cols = b.size();
  FLSA_REQUIRE(scheme.is_linear());
  FLSA_REQUIRE(top.size() == cols + 1);
  FLSA_REQUIRE(left.size() == rows + 1);
  FLSA_REQUIRE(top[0] == left[0]);

  dpm.resize(rows + 1, cols + 1);
  std::copy(top.begin(), top.end(), dpm.row(0));
  for (std::size_t r = 1; r <= rows; ++r) dpm(r, 0) = left[r];
  fill_matrix_region_linear<Mode>(a, b, scheme, dpm, 1, 1, rows, cols, best);
  if (counters) {
    counters->cells_stored += static_cast<std::uint64_t>(rows) * cols;
  }
}

template <DpMode Mode>
void fill_matrix_region_linear(std::span<const Residue> a,
                               std::span<const Residue> b,
                               const ScoringScheme& scheme,
                               Matrix2D<Score>& dpm, std::size_t row0,
                               std::size_t col0, std::size_t rows,
                               std::size_t cols, BestCell* best) {
  FLSA_REQUIRE(row0 >= 1 && col0 >= 1);
  FLSA_REQUIRE(row0 + rows <= dpm.rows() && col0 + cols <= dpm.cols());
  const Score gap = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();
  for (std::size_t r = row0; r < row0 + rows; ++r) {
    const Score* prev = dpm.row(r - 1);
    Score* curr = dpm.row(r);
    const Residue ar = a[r - 1];
    for (std::size_t c = col0; c < col0 + cols; ++c) {
      curr[c] = linear_cell<Mode>(prev[c - 1], prev[c], curr[c - 1],
                                  sub.at(ar, b[c - 1]), gap);
      if constexpr (Mode == DpMode::kLocal) {
        if (best && curr[c] > best->score) *best = BestCell{curr[c], r, c};
      }
    }
  }
}

template <DpMode Mode>
void traceback_rectangle_linear(std::span<const Residue> a,
                                std::span<const Residue> b,
                                const ScoringScheme& scheme,
                                const Matrix2D<Score>& dpm,
                                std::size_t start_row, std::size_t start_col,
                                Path& path, DpCounters* counters) {
  FLSA_REQUIRE(start_row < dpm.rows() && start_col < dpm.cols());
  const Score gap = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();
  std::size_t r = start_row;
  std::size_t c = start_col;
  std::uint64_t steps = 0;
  while (r > 0 && c > 0) {
    const Score here = dpm(r, c);
    // A local alignment starts where its value was floored at 0.
    if constexpr (Mode == DpMode::kLocal) {
      if (here == 0) break;
    }
    const Score via_diag = dpm(r - 1, c - 1) + sub.at(a[r - 1], b[c - 1]);
    if (here == via_diag) {
      path.push_traceback(Move::kDiag);
      --r;
      --c;
    } else if (here == dpm(r - 1, c) + gap) {
      path.push_traceback(Move::kUp);
      --r;
    } else {
      FLSA_ASSERT(here == dpm(r, c - 1) + gap);
      path.push_traceback(Move::kLeft);
      --c;
    }
    ++steps;
  }
  if (counters) counters->traceback_steps += steps;
}

#define FLSA_INSTANTIATE_LINEAR(Mode)                                      \
  template void fill_full_matrix_linear<Mode>(                             \
      std::span<const Residue>, std::span<const Residue>,                  \
      const ScoringScheme&, std::span<const Score>,                        \
      std::span<const Score>, Matrix2D<Score>&, DpCounters*, BestCell*);   \
  template void fill_matrix_region_linear<Mode>(                           \
      std::span<const Residue>, std::span<const Residue>,                  \
      const ScoringScheme&, Matrix2D<Score>&, std::size_t, std::size_t,    \
      std::size_t, std::size_t, BestCell*);                                \
  template void traceback_rectangle_linear<Mode>(                          \
      std::span<const Residue>, std::span<const Residue>,                  \
      const ScoringScheme&, const Matrix2D<Score>&, std::size_t,           \
      std::size_t, Path&, DpCounters*);
FLSA_INSTANTIATE_LINEAR(DpMode::kGlobal)
FLSA_INSTANTIATE_LINEAR(DpMode::kLocal)
#undef FLSA_INSTANTIATE_LINEAR

Alignment full_matrix_align(const Sequence& a, const Sequence& b,
                            const ScoringScheme& scheme,
                            DpCounters* counters) {
  std::vector<Score> top(b.size() + 1);
  std::vector<Score> left(a.size() + 1);
  init_global_boundary_linear(scheme, top);
  init_global_boundary_linear(scheme, left);
  Matrix2D<Score> dpm;
  fill_full_matrix_linear(a.residues(), b.residues(), scheme, top, left, dpm,
                          counters);
  Path path(Cell{a.size(), b.size()});
  traceback_rectangle_linear(a.residues(), b.residues(), scheme, dpm,
                             a.size(), b.size(), path, counters);
  extend_path_to_origin(path);
  Alignment out = alignment_from_path(a, b, path, scheme);
  // The traceback-derived score must equal the DPM corner value.
  FLSA_ASSERT(out.score == dpm(a.size(), b.size()));
  return out;
}

Score full_matrix_score(const Sequence& a, const Sequence& b,
                        const ScoringScheme& scheme, DpCounters* counters) {
  std::vector<Score> top(b.size() + 1);
  std::vector<Score> left(a.size() + 1);
  init_global_boundary_linear(scheme, top);
  init_global_boundary_linear(scheme, left);
  Matrix2D<Score> dpm;
  fill_full_matrix_linear(a.residues(), b.residues(), scheme, top, left, dpm,
                          counters);
  return dpm(a.size(), b.size());
}

void extend_path_to_origin(Path& path) {
  while (path.front().row > 0) path.push_traceback(Move::kUp);
  while (path.front().col > 0) path.push_traceback(Move::kLeft);
}

}  // namespace flsa
