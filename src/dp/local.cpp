#include "dp/local.hpp"

#include <algorithm>
#include <vector>

#include "dp/gotoh.hpp"
#include "dp/matrix.hpp"
#include "support/assert.hpp"

namespace flsa {

LocalScoreResult local_score_linear(std::span<const Residue> a,
                                    std::span<const Residue> b,
                                    const ScoringScheme& scheme,
                                    DpCounters* counters) {
  FLSA_REQUIRE(scheme.is_linear());
  const Score gap = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();
  std::vector<Score> row(b.size() + 1, 0);
  LocalScoreResult best;
  for (std::size_t r = 1; r <= a.size(); ++r) {
    Score diag = row[0];
    row[0] = 0;
    const Residue ar = a[r - 1];
    for (std::size_t c = 1; c <= b.size(); ++c) {
      const Score up = row[c];
      const Score value =
          std::max({Score{0}, diag + sub.at(ar, b[c - 1]), up + gap,
                    row[c - 1] + gap});
      diag = up;
      row[c] = value;
      if (value > best.score) {
        best.score = value;
        best.row = r;
        best.col = c;
      }
    }
  }
  if (counters) {
    counters->cells_scored += static_cast<std::uint64_t>(a.size()) * b.size();
  }
  return best;
}

Alignment local_align_full_matrix(const Sequence& a, const Sequence& b,
                                  const ScoringScheme& scheme,
                                  DpCounters* counters) {
  FLSA_REQUIRE(scheme.is_linear());
  const Score gap = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();
  Matrix2D<Score> dpm(a.size() + 1, b.size() + 1);
  for (std::size_t c = 0; c <= b.size(); ++c) dpm(0, c) = 0;
  LocalScoreResult best;
  for (std::size_t r = 1; r <= a.size(); ++r) {
    dpm(r, 0) = 0;
    const Residue ar = a[r - 1];
    for (std::size_t c = 1; c <= b.size(); ++c) {
      const Score value =
          std::max({Score{0}, dpm(r - 1, c - 1) + sub.at(ar, b[c - 1]),
                    dpm(r - 1, c) + gap, dpm(r, c - 1) + gap});
      dpm(r, c) = value;
      if (value > best.score) {
        best.score = value;
        best.row = r;
        best.col = c;
      }
    }
  }
  if (counters) {
    counters->cells_stored += static_cast<std::uint64_t>(a.size()) * b.size();
  }

  Alignment out;
  out.score = best.score;
  if (best.score == 0) return out;  // empty local alignment

  // Traceback from the maximum until a zero entry; same deterministic
  // preference order as the global traceback (diag, up, left).
  std::size_t r = best.row;
  std::size_t c = best.col;
  std::string rev_a, rev_b;
  while (r > 0 && c > 0 && dpm(r, c) != 0) {
    const Score here = dpm(r, c);
    if (here == dpm(r - 1, c - 1) + sub.at(a[r - 1], b[c - 1])) {
      rev_a.push_back(a.alphabet().letter(a[r - 1]));
      rev_b.push_back(b.alphabet().letter(b[c - 1]));
      --r;
      --c;
    } else if (here == dpm(r - 1, c) + gap) {
      rev_a.push_back(a.alphabet().letter(a[r - 1]));
      rev_b.push_back('-');
      --r;
    } else {
      FLSA_ASSERT(here == dpm(r, c - 1) + gap);
      rev_a.push_back('-');
      rev_b.push_back(b.alphabet().letter(b[c - 1]));
      --c;
    }
    if (counters) ++counters->traceback_steps;
  }
  out.gapped_a.assign(rev_a.rbegin(), rev_a.rend());
  out.gapped_b.assign(rev_b.rbegin(), rev_b.rend());
  out.a_begin = r;
  out.a_end = best.row;
  out.b_begin = c;
  out.b_end = best.col;
  return out;
}

Alignment local_align_full_matrix_affine(const Sequence& a,
                                         const Sequence& b,
                                         const ScoringScheme& scheme,
                                         DpCounters* counters) {
  const Score open = scheme.gap_open();
  const Score ext = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();
  Matrix2D<AffineCell> dpm(a.size() + 1, b.size() + 1);
  for (std::size_t c = 0; c <= b.size(); ++c) {
    dpm(0, c) = AffineCell{0, kNegInf, kNegInf};
  }
  LocalScoreResult best;
  for (std::size_t r = 1; r <= a.size(); ++r) {
    dpm(r, 0) = AffineCell{0, kNegInf, kNegInf};
    const Residue ar = a[r - 1];
    for (std::size_t c = 1; c <= b.size(); ++c) {
      AffineCell cell;
      cell.ix = std::max(dpm(r - 1, c).d + open, dpm(r - 1, c).ix) + ext;
      cell.iy = std::max(dpm(r, c - 1).d + open, dpm(r, c - 1).iy) + ext;
      cell.d = std::max({Score{0},
                         dpm(r - 1, c - 1).d + sub.at(ar, b[c - 1]),
                         cell.ix, cell.iy});
      dpm(r, c) = cell;
      if (cell.d > best.score) {
        best.score = cell.d;
        best.row = r;
        best.col = c;
      }
    }
  }
  if (counters) {
    counters->cells_stored += static_cast<std::uint64_t>(a.size()) * b.size();
  }

  Alignment out;
  out.score = best.score;
  if (best.score == 0) return out;

  std::size_t r = best.row;
  std::size_t c = best.col;
  std::string rev_a, rev_b;
  AffineState state = AffineState::kD;
  while (r > 0 && c > 0) {
    const AffineCell& cell = dpm(r, c);
    if (state == AffineState::kD) {
      if (cell.d == 0) break;  // local start
      const Score via_diag =
          dpm(r - 1, c - 1).d + sub.at(a[r - 1], b[c - 1]);
      if (cell.d == via_diag) {
        rev_a.push_back(a.alphabet().letter(a[r - 1]));
        rev_b.push_back(b.alphabet().letter(b[c - 1]));
        --r;
        --c;
      } else if (cell.d == cell.ix) {
        state = AffineState::kIx;
      } else {
        FLSA_ASSERT(cell.d == cell.iy);
        state = AffineState::kIy;
      }
    } else if (state == AffineState::kIx) {
      rev_a.push_back(a.alphabet().letter(a[r - 1]));
      rev_b.push_back('-');
      if (cell.ix == dpm(r - 1, c).d + open + ext) {
        state = AffineState::kD;
      }
      --r;
    } else {
      rev_a.push_back('-');
      rev_b.push_back(b.alphabet().letter(b[c - 1]));
      if (cell.iy == dpm(r, c - 1).d + open + ext) {
        state = AffineState::kD;
      }
      --c;
    }
    if (counters) ++counters->traceback_steps;
  }
  out.gapped_a.assign(rev_a.rbegin(), rev_a.rend());
  out.gapped_b.assign(rev_b.rbegin(), rev_b.rend());
  out.a_begin = r;
  out.a_end = best.row;
  out.b_begin = c;
  out.b_end = best.col;
  return out;
}

}  // namespace flsa
