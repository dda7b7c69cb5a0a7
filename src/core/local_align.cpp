#include "core/local_align.hpp"

#include <vector>

#include "dp/kernel.hpp"
#include "dp/local.hpp"
#include "support/assert.hpp"

namespace flsa {

Alignment local_align(const Sequence& a, const Sequence& b,
                      const ScoringScheme& scheme,
                      const FastLsaOptions& options, FastLsaStats* stats) {
  FLSA_REQUIRE(scheme.is_linear());
  FastLsaStats local_stats;
  FastLsaStats& st = stats ? *stats : local_stats;

  // 1. Forward local pass: locate the end of the best local alignment.
  const BestCell fwd = local_score_linear(a.residues(), b.residues(), scheme,
                                          &st.counters);
  if (fwd.score == 0) return Alignment{};  // empty optimal local alignment

  // 2. Anchored reverse pass: a global sweep over the reversed prefixes.
  // Its best cell — the first in row-major order attaining the local
  // score — marks where the alignment pinned to end at the anchor starts.
  const Sequence a_rev = a.subsequence(0, fwd.row).reversed();
  const Sequence b_rev = b.subsequence(0, fwd.col).reversed();
  std::vector<Score> row(b_rev.size() + 1), left(a_rev.size() + 1);
  init_global_boundary_linear(scheme, row);
  init_global_boundary_linear(scheme, left);
  BestCell rev;
  sweep_rectangle_linear(KernelKind::kScalar, a_rev.residues(),
                         b_rev.residues(), scheme, row, left, row, {},
                         &st.counters, DpMode::kGlobal, &rev);
  FLSA_ASSERT(rev.score == fwd.score);

  // 3. The located rectangle is a global problem; FastLSA solves it.
  return detail::solve_window(a, fwd.row - rev.row, fwd.row, b,
                              fwd.col - rev.col, fwd.col, fwd.score, scheme,
                              options, st);
}

}  // namespace flsa
