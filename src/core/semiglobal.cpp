#include "core/semiglobal.hpp"

#include <algorithm>
#include <vector>

#include "dp/kernel.hpp"
#include "support/assert.hpp"

namespace flsa {

Alignment fitting_align(const Sequence& a, const Sequence& b,
                        const ScoringScheme& scheme,
                        const FastLsaOptions& options, FastLsaStats* stats) {
  FLSA_REQUIRE(scheme.is_linear());
  FastLsaStats local_stats;
  FastLsaStats& st = stats ? *stats : local_stats;

  // 1. Forward fitting pass: optimal window end in b.
  const BestCell end = fitting_score_linear(a.residues(), b.residues(),
                                            scheme, &st.counters);

  // 2. Reverse global pass over the reversed prefix rectangle: the first
  // column attaining the fitting score marks the window start.
  const Sequence a_rev = a.reversed();
  const Sequence b_rev = b.subsequence(0, end.col).reversed();
  const std::vector<Score> rev_row =
      last_row_linear(KernelKind::kAuto, a_rev.residues(), b_rev.residues(),
                      scheme, &st.counters);
  std::size_t rev_cols = 0;
  while (rev_row[rev_cols] != end.score) {
    ++rev_cols;
    FLSA_REQUIRE(rev_cols < rev_row.size());
  }
  const std::size_t b_begin = end.col - rev_cols;

  // 3. The window is a global problem; FastLSA solves it.
  return detail::solve_window(a, 0, a.size(), b, b_begin, end.col, end.score,
                              scheme, options, st);
}

Alignment overlap_align(const Sequence& a, const Sequence& b,
                        const ScoringScheme& scheme,
                        const FastLsaOptions& options, FastLsaStats* stats) {
  FLSA_REQUIRE(scheme.is_linear());
  FastLsaStats local_stats;
  FastLsaStats& st = stats ? *stats : local_stats;

  // 1. Forward overlap pass: end of the matched prefix of b.
  const BestCell end = overlap_score_linear(a.residues(), b.residues(),
                                            scheme, &st.counters);

  // 2. Reverse global pass; the right-column values score each suffix of a
  // against all of b[0..end.col). The first row attaining the overlap
  // score marks the suffix start.
  const Sequence a_rev = a.reversed();
  const Sequence b_rev = b.subsequence(0, end.col).reversed();
  std::vector<Score> top(b_rev.size() + 1), left(a_rev.size() + 1);
  init_global_boundary_linear(scheme, top);
  init_global_boundary_linear(scheme, left);
  std::vector<Score> bottom(b_rev.size() + 1), right(a_rev.size() + 1);
  sweep_rectangle_linear(KernelKind::kAuto, a_rev.residues(),
                         b_rev.residues(), scheme, top, left, bottom, right,
                         &st.counters);
  std::size_t rev_rows = 0;
  while (right[rev_rows] != end.score) {
    ++rev_rows;
    FLSA_REQUIRE(rev_rows < right.size());
  }
  const std::size_t a_begin = a.size() - rev_rows;

  return detail::solve_window(a, a_begin, a.size(), b, 0, end.col,
                              end.score, scheme, options, st);
}

}  // namespace flsa
