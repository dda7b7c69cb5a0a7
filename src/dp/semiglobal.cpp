#include "dp/semiglobal.hpp"

#include <vector>

#include "dp/fullmatrix.hpp"
#include "dp/kernel.hpp"
#include "dp/matrix.hpp"
#include "dp/path.hpp"
#include "support/assert.hpp"

namespace flsa {

namespace {

/// The DPM's top row and left column for a semi-global mode: a free
/// boundary is all zeros, a charged one the global gap ramp 0, g, 2g, ...
struct Boundaries {
  std::vector<Score> top;
  std::vector<Score> left;
};

Boundaries semiglobal_boundaries(std::size_t rows, std::size_t cols,
                                 const ScoringScheme& scheme, bool free_top,
                                 bool free_left) {
  Boundaries lines{std::vector<Score>(cols + 1, 0),
                   std::vector<Score>(rows + 1, 0)};
  if (!free_top) init_global_boundary_linear(scheme, lines.top);
  if (!free_left) init_global_boundary_linear(scheme, lines.left);
  return lines;
}

/// The optimal end on the last DPM row: its argmax, ties to the smallest
/// column.
BestCell best_on_last_row(std::span<const Score> last_row,
                          std::size_t rows) {
  BestCell end{last_row[0], rows, 0};
  for (std::size_t j = 1; j < last_row.size(); ++j) {
    if (last_row[j] > end.score) end = BestCell{last_row[j], rows, j};
  }
  return end;
}

/// Score-only sweep with semi-global boundaries; returns the argmax over
/// the last DPM row.
BestCell sweep_with_boundaries(std::span<const Residue> a,
                               std::span<const Residue> b,
                               const ScoringScheme& scheme, bool free_top,
                               bool free_left, DpCounters* counters) {
  Boundaries lines =
      semiglobal_boundaries(a.size(), b.size(), scheme, free_top, free_left);
  sweep_rectangle_linear(KernelKind::kScalar, a, b, scheme, lines.top,
                         lines.left, lines.top, {}, counters);
  return best_on_last_row(lines.top, a.size());
}

/// Full matrix with configurable boundaries; traceback from the best
/// last-row cell until the free boundary is reached.
Alignment semiglobal_full_matrix(const Sequence& a, const Sequence& b,
                                 const ScoringScheme& scheme, bool free_top,
                                 bool free_left, DpCounters* counters) {
  FLSA_REQUIRE(scheme.is_linear());
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const Boundaries lines =
      semiglobal_boundaries(m, n, scheme, free_top, free_left);
  Matrix2D<Score> dpm;
  fill_full_matrix_linear(a.residues(), b.residues(), scheme, lines.top,
                          lines.left, dpm, counters);
  const BestCell end =
      best_on_last_row(std::span<const Score>(dpm.row(m), n + 1), m);

  Path path(Cell{m, end.col});
  traceback_rectangle_linear(a.residues(), b.residues(), scheme, dpm, m,
                             end.col, path, counters);
  // The path stopped at row 0 or column 0. Moves along the charged
  // boundary are real gaps; the free boundary's residues stay outside the
  // matched region, which runs from the path's front.
  if (free_top) {
    while (path.front().row > 0) path.push_traceback(Move::kUp);
  } else {
    FLSA_ASSERT(free_left);
    while (path.front().col > 0) path.push_traceback(Move::kLeft);
  }
  Alignment out = alignment_from_path(a, b, path, scheme);
  FLSA_ASSERT(out.score == end.score);
  return out;
}

}  // namespace

BestCell fitting_score_linear(std::span<const Residue> a,
                              std::span<const Residue> b,
                              const ScoringScheme& scheme,
                              DpCounters* counters) {
  return sweep_with_boundaries(a, b, scheme, /*free_top=*/true,
                               /*free_left=*/false, counters);
}

BestCell overlap_score_linear(std::span<const Residue> a,
                              std::span<const Residue> b,
                              const ScoringScheme& scheme,
                              DpCounters* counters) {
  return sweep_with_boundaries(a, b, scheme, /*free_top=*/false,
                               /*free_left=*/true, counters);
}

Alignment fitting_align_full_matrix(const Sequence& a, const Sequence& b,
                                    const ScoringScheme& scheme,
                                    DpCounters* counters) {
  return semiglobal_full_matrix(a, b, scheme, /*free_top=*/true,
                                /*free_left=*/false, counters);
}

Alignment overlap_align_full_matrix(const Sequence& a, const Sequence& b,
                                    const ScoringScheme& scheme,
                                    DpCounters* counters) {
  return semiglobal_full_matrix(a, b, scheme, /*free_top=*/false,
                                /*free_left=*/true, counters);
}

}  // namespace flsa
