#include "dp/banded.hpp"

#include <algorithm>
#include <vector>

#include "dp/matrix.hpp"
#include "dp/path.hpp"
#include "support/assert.hpp"

namespace flsa {

namespace {

// Band geometry: row i covers columns j in [i + lo, i + hi] clamped to
// [0, n], with lo = -w and hi = (n - m) + w. Band cell (i, t) maps to
// column j = i + lo + t; the up neighbour is (i-1, t+1), the diagonal
// (i-1, t), the left (i, t-1).
struct Band {
  std::ptrdiff_t lo;
  std::ptrdiff_t hi;
  std::size_t width;  // hi - lo + 1

  Band(std::size_t m, std::size_t n, std::size_t w) {
    lo = -static_cast<std::ptrdiff_t>(w);
    hi = static_cast<std::ptrdiff_t>(n) - static_cast<std::ptrdiff_t>(m) +
         static_cast<std::ptrdiff_t>(w);
    FLSA_REQUIRE(hi >= lo);
    width = static_cast<std::size_t>(hi - lo + 1);
  }

  std::ptrdiff_t col_of(std::size_t row, std::size_t t) const {
    return static_cast<std::ptrdiff_t>(row) + lo +
           static_cast<std::ptrdiff_t>(t);
  }
};

void fill_banded(std::span<const Residue> a, std::span<const Residue> b,
                 const ScoringScheme& scheme, const Band& band,
                 Matrix2D<Score>& dpm, DpCounters* counters) {
  const auto m = a.size();
  const auto n = b.size();
  const Score gap = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();
  dpm.resize(m + 1, band.width);
  std::uint64_t cells = 0;
  for (std::size_t i = 0; i <= m; ++i) {
    for (std::size_t t = 0; t < band.width; ++t) {
      const std::ptrdiff_t j = band.col_of(i, t);
      Score& slot = dpm(i, t);
      if (j < 0 || j > static_cast<std::ptrdiff_t>(n)) {
        slot = kNegInf;
        continue;
      }
      if (i == 0) {
        slot = static_cast<Score>(j) * gap;
        continue;
      }
      if (j == 0) {
        slot = static_cast<Score>(i) * gap;
        continue;
      }
      Score best = kNegInf;
      // diagonal: (i-1, j-1) is band cell (i-1, t)
      best = dpm(i - 1, t) + sub.at(a[i - 1], b[static_cast<std::size_t>(j) - 1]);
      // up: (i-1, j) is band cell (i-1, t+1)
      if (t + 1 < band.width) best = std::max(best, dpm(i - 1, t + 1) + gap);
      // left: (i, j-1) is band cell (i, t-1)
      if (t > 0) best = std::max(best, dpm(i, t - 1) + gap);
      slot = best;
      ++cells;
    }
  }
  if (counters) counters->cells_stored += cells;
}

}  // namespace

Alignment banded_align(const Sequence& a, const Sequence& b,
                       const ScoringScheme& scheme, std::size_t half_width,
                       DpCounters* counters) {
  FLSA_REQUIRE(scheme.is_linear());
  FLSA_REQUIRE(half_width >= 1);
  const auto m = a.size();
  const auto n = b.size();
  const Band band(m, n, half_width);
  Matrix2D<Score> dpm;
  fill_banded(a.residues(), b.residues(), scheme, band, dpm, counters);

  const Score gap = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();
  Path path(Cell{m, n});
  std::size_t i = m;
  auto t_of = [&](std::size_t row, std::ptrdiff_t col) {
    return static_cast<std::size_t>(col - static_cast<std::ptrdiff_t>(row) -
                                    band.lo);
  };
  std::ptrdiff_t j = static_cast<std::ptrdiff_t>(n);
  while (i > 0 && j > 0) {
    const std::size_t t = t_of(i, j);
    const Score here = dpm(i, t);
    const Score via_diag =
        dpm(i - 1, t) + sub.at(a[i - 1], b[static_cast<std::size_t>(j) - 1]);
    if (here == via_diag) {
      path.push_traceback(Move::kDiag);
      --i;
      --j;
    } else if (t + 1 < band.width && here == dpm(i - 1, t + 1) + gap) {
      path.push_traceback(Move::kUp);
      --i;
    } else {
      FLSA_ASSERT(t > 0 && here == dpm(i, t - 1) + gap);
      path.push_traceback(Move::kLeft);
      --j;
    }
    if (counters) ++counters->traceback_steps;
  }
  while (i > 0) {
    path.push_traceback(Move::kUp);
    --i;
  }
  while (j > 0) {
    path.push_traceback(Move::kLeft);
    --j;
  }
  Alignment out = alignment_from_path(a, b, path, scheme);
  out.score = dpm(m, t_of(m, static_cast<std::ptrdiff_t>(n)));
  return out;
}

}  // namespace flsa
