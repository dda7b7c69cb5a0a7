#include "dp/query_profile.hpp"

#include <algorithm>

#include "dp/kernel.hpp"
#include "dp/kernel_narrow.hpp"
#include "dp/kernel_simd.hpp"
#include "support/assert.hpp"

namespace flsa {

QueryProfile::QueryProfile(std::span<const Residue> b,
                           const SubstitutionMatrix& matrix)
    : length_(b.size()) {
  const std::size_t alphabet = matrix.alphabet().size();
  rows_.resize(alphabet * length_);
  for (Residue x = 0; x < alphabet; ++x) {
    Score* row = rows_.data() + x * length_;
    for (std::size_t j = 0; j < length_; ++j) {
      row[j] = matrix.at(x, b[j]);
    }
  }
}

std::vector<Score> last_row_profiled(std::span<const Residue> a,
                                     const QueryProfile& profile,
                                     const ScoringScheme& scheme,
                                     DpCounters* counters) {
  FLSA_REQUIRE(scheme.is_linear());
  const std::size_t cols = profile.length();
  const Score gap = scheme.gap_extend();
  std::vector<Score> row(cols + 1);
  init_global_boundary_linear(scheme, row);
  for (std::size_t r = 1; r <= a.size(); ++r) {
    const Score* scores = profile.row(a[r - 1]);
    Score diag = row[0];
    row[0] = static_cast<Score>(r) * gap;
    Score left = row[0];
    for (std::size_t c = 1; c <= cols; ++c) {
      const Score up = row[c];
      const Score best =
          std::max(diag + scores[c - 1], std::max(up, left) + gap);
      diag = up;
      left = best;
      row[c] = best;
    }
  }
  if (counters) {
    counters->cells_scored += static_cast<std::uint64_t>(a.size()) * cols;
  }
  return row;
}

std::vector<Score> last_row_profiled(KernelKind kind,
                                     std::span<const Residue> a,
                                     const QueryProfile& profile,
                                     const ScoringScheme& scheme,
                                     DpCounters* counters) {
  const KernelKind resolved = resolve_kernel(kind);
  if (resolved == KernelKind::kSimd) {
    return last_row_profiled_simd(a, profile, scheme, counters);
  }
  if (resolved == KernelKind::kInt16) {
    return last_row_profiled_narrow(a, profile, scheme, counters);
  }
  return last_row_profiled(a, profile, scheme, counters);
}

Score global_score_profiled(std::span<const Residue> a,
                            std::span<const Residue> b,
                            const ScoringScheme& scheme,
                            DpCounters* counters) {
  const QueryProfile profile(b, scheme.matrix());
  return last_row_profiled(a, profile, scheme, counters).back();
}

Score global_score_profiled(KernelKind kind, std::span<const Residue> a,
                            std::span<const Residue> b,
                            const ScoringScheme& scheme,
                            DpCounters* counters) {
  const QueryProfile profile(b, scheme.matrix());
  return last_row_profiled(kind, a, profile, scheme, counters).back();
}

}  // namespace flsa
