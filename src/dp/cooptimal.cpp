#include "dp/cooptimal.hpp"

#include <algorithm>

#include "dp/kernel.hpp"
#include "dp/matrix.hpp"
#include "support/assert.hpp"

namespace flsa {

DirectionSetMatrix::DirectionSetMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), bits_((rows * cols + 1) / 2, 0) {}

void DirectionSetMatrix::set(std::size_t r, std::size_t c, bool diag_in,
                             bool up_in, bool left_in) {
  FLSA_ASSERT(r < rows_ && c < cols_);
  const std::size_t cell = r * cols_ + c;
  const unsigned shift = (cell & 1) * 4;
  const auto value = static_cast<std::uint8_t>(
      (diag_in ? 1u : 0u) | (up_in ? 2u : 0u) | (left_in ? 4u : 0u));
  std::uint8_t& byte = bits_[cell >> 1];
  byte = static_cast<std::uint8_t>((byte & ~(0x7u << shift)) |
                                   (value << shift));
}

std::uint8_t DirectionSetMatrix::get(std::size_t r, std::size_t c) const {
  FLSA_ASSERT(r < rows_ && c < cols_);
  const std::size_t cell = r * cols_ + c;
  // Explicit promotion: UBSan's shift instrumentation otherwise trips a
  // spurious -Wsign-conversion on the implicit uint8_t -> int promotion.
  const auto byte = static_cast<unsigned>(bits_[cell >> 1]);
  return static_cast<std::uint8_t>((byte >> ((cell & 1) * 4)) & 0x7u);
}

bool DirectionSetMatrix::diag(std::size_t r, std::size_t c) const {
  return get(r, c) & 1u;
}
bool DirectionSetMatrix::up(std::size_t r, std::size_t c) const {
  return get(r, c) & 2u;
}
bool DirectionSetMatrix::left(std::size_t r, std::size_t c) const {
  return get(r, c) & 4u;
}

namespace {

/// Fills the 3-bit direction sets and returns the optimal score.
Score fill_direction_sets(const Sequence& a, const Sequence& b,
                          const ScoringScheme& scheme,
                          DirectionSetMatrix& dirs, DpCounters* counters) {
  FLSA_REQUIRE(scheme.is_linear());
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const Score gap = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();

  for (std::size_t c = 1; c <= n; ++c) dirs.set(0, c, false, false, true);
  for (std::size_t r = 1; r <= m; ++r) dirs.set(r, 0, false, true, false);

  std::vector<Score> row(n + 1);
  init_global_boundary_linear(scheme, row);
  for (std::size_t r = 1; r <= m; ++r) {
    Score diag = row[0];
    row[0] = static_cast<Score>(r) * gap;
    const Residue ar = a[r - 1];
    for (std::size_t c = 1; c <= n; ++c) {
      const Score up = row[c];
      const Score via_diag = diag + sub.at(ar, b[c - 1]);
      const Score via_up = up + gap;
      const Score via_left = row[c - 1] + gap;
      const Score best = std::max(via_diag, std::max(via_up, via_left));
      dirs.set(r, c, via_diag == best, via_up == best, via_left == best);
      diag = up;
      row[c] = best;
    }
  }
  if (counters) {
    counters->cells_scored += static_cast<std::uint64_t>(m) * n;
  }
  return row[n];
}

std::uint64_t saturating_add(std::uint64_t x, std::uint64_t y) {
  constexpr std::uint64_t kMax = CoOptimalAnalysis::kSaturated;
  return (x > kMax - y) ? kMax : x + y;
}

}  // namespace

CoOptimalAnalysis count_optimal_paths(const Sequence& a, const Sequence& b,
                                      const ScoringScheme& scheme,
                                      DpCounters* counters) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  DirectionSetMatrix dirs(m + 1, n + 1);
  CoOptimalAnalysis analysis;
  analysis.score = fill_direction_sets(a, b, scheme, dirs, counters);

  // Forward counting DP over the recorded direction sets.
  Matrix2D<std::uint64_t> count(m + 1, n + 1);
  count(0, 0) = 1;
  for (std::size_t r = 0; r <= m; ++r) {
    for (std::size_t c = 0; c <= n; ++c) {
      if (r == 0 && c == 0) continue;
      std::uint64_t total = 0;
      if (r > 0 && c > 0 && dirs.diag(r, c)) {
        total = saturating_add(total, count(r - 1, c - 1));
      }
      if (r > 0 && dirs.up(r, c)) {
        total = saturating_add(total, count(r - 1, c));
      }
      if (c > 0 && dirs.left(r, c)) {
        total = saturating_add(total, count(r, c - 1));
      }
      count(r, c) = total;
    }
  }
  analysis.path_count = count(m, n);
  return analysis;
}

}  // namespace flsa
