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
SemiGlobalEnd best_on_last_row(std::span<const Score> last_row,
                               std::size_t rows) {
  SemiGlobalEnd end;
  end.row = rows;
  end.score = last_row[0];
  end.col = 0;
  for (std::size_t j = 1; j < last_row.size(); ++j) {
    if (last_row[j] > end.score) {
      end.score = last_row[j];
      end.col = j;
    }
  }
  return end;
}

/// Score-only sweep with semi-global boundaries; returns the argmax over
/// the last DPM row.
SemiGlobalEnd sweep_with_boundaries(std::span<const Residue> a,
                                    std::span<const Residue> b,
                                    const ScoringScheme& scheme,
                                    bool free_top, bool free_left,
                                    DpCounters* counters) {
  Boundaries lines =
      semiglobal_boundaries(a.size(), b.size(), scheme, free_top, free_left);
  sweep_rectangle_linear(a, b, scheme, lines.top, lines.left, lines.top, {},
                         counters);
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
  const SemiGlobalEnd end =
      best_on_last_row(std::span<const Score>(dpm.row(m), n + 1), m);

  Path path(Cell{m, end.col});
  traceback_rectangle_linear(a.residues(), b.residues(), scheme, dpm, m,
                             end.col, path, counters);
  // The path stopped at row 0 or column 0; where it stopped defines the
  // matched region. On the free boundary the remaining moves are skipped
  // residues, not gaps; on the charged boundary they are real gaps.
  Alignment out;
  std::size_t a_begin = 0, b_begin = 0;
  if (free_top) {
    // fitting: stop must be on row 0 (free), column gives the window start.
    while (path.front().row > 0) path.push_traceback(Move::kUp);
    b_begin = path.front().col;
  } else {
    FLSA_ASSERT(free_left);
    // overlap: if the traceback stopped on row 0 with col > 0, those
    // leading b-residues are charged gaps (b prefix is not free).
    while (path.front().col > 0) path.push_traceback(Move::kLeft);
    a_begin = path.front().row;
  }

  // Materialize the gapped rows over the matched region only.
  std::string ga, gb;
  std::size_t i = a_begin, j = b_begin;
  for (auto it = path.traceback_moves().rbegin();
       it != path.traceback_moves().rend(); ++it) {
    switch (*it) {
      case Move::kDiag:
        ga.push_back(a.alphabet().letter(a[i++]));
        gb.push_back(b.alphabet().letter(b[j++]));
        break;
      case Move::kUp:
        ga.push_back(a.alphabet().letter(a[i++]));
        gb.push_back('-');
        break;
      case Move::kLeft:
        ga.push_back('-');
        gb.push_back(b.alphabet().letter(b[j++]));
        break;
    }
  }
  out.gapped_a = std::move(ga);
  out.gapped_b = std::move(gb);
  out.score = end.score;
  out.a_begin = a_begin;
  out.a_end = m;
  out.b_begin = b_begin;
  out.b_end = end.col;
  FLSA_ASSERT(i == m && j == end.col);
  return out;
}

}  // namespace

SemiGlobalEnd fitting_score_linear(std::span<const Residue> a,
                                   std::span<const Residue> b,
                                   const ScoringScheme& scheme,
                                   DpCounters* counters) {
  return sweep_with_boundaries(a, b, scheme, /*free_top=*/true,
                               /*free_left=*/false, counters);
}

SemiGlobalEnd overlap_score_linear(std::span<const Residue> a,
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
