// Tests for the 2-bit traceback fill (paper Section 2.1's "two bits can be
// used to encode the three path choices"): the paper's 2-bit full matrix
// through it, and the fill itself against a textbook DPM over whole rows,
// clipped bands, the best cell and the X-drop row stop.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "dp/fullmatrix.hpp"
#include "dp/packed_traceback.hpp"
#include "scoring/builtin.hpp"
#include "sequence/generate.hpp"

namespace flsa {
namespace {

/// The paper's 2-bit full matrix: whole rows, traced from (m, n).
Alignment packed_full_matrix_align(const Sequence& a, const Sequence& b,
                                   const ScoringScheme& scheme,
                                   DpCounters* counters = nullptr,
                                   std::size_t* bytes = nullptr) {
  PackedMoveFill fill(a.residues(), b.residues(), scheme,
                      PackedMoveFill::kWholeRows, counters);
  fill.fill_rows();
  Path path(Cell{a.size(), b.size()});
  fill.traceback(path);
  if (bytes) *bytes = fill.byte_size();
  return alignment_from_path(a, b, path, scheme);
}

TEST(Packed, PaperExample) {
  const Sequence a(Alphabet::protein(), "TLDKLLKD");
  const Sequence b(Alphabet::protein(), "TDVLKAD");
  const Alignment aln =
      packed_full_matrix_align(a, b, ScoringScheme::paper_default());
  EXPECT_EQ(aln.score, 82);
}

TEST(Packed, IdenticalPathToUnpackedFullMatrix) {
  Xoshiro256 rng(151);
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t m = 1 + rng.bounded(60);
    const std::size_t n = 1 + rng.bounded(60);
    const Sequence a = random_sequence(Alphabet::protein(), m, rng);
    const Sequence b = random_sequence(Alphabet::protein(), n, rng);
    const Alignment unpacked = full_matrix_align(a, b, scheme);
    const Alignment packed = packed_full_matrix_align(a, b, scheme);
    EXPECT_EQ(packed.score, unpacked.score);
    EXPECT_EQ(packed.gapped_a, unpacked.gapped_a) << m << "x" << n;
    EXPECT_EQ(packed.gapped_b, unpacked.gapped_b);
  }
}

TEST(Packed, UsesAQuarterBytePerCell) {
  Xoshiro256 rng(153);
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  std::size_t bytes = 0;
  // 100 x 100 cells: 25 bytes a row.
  const Sequence a = random_sequence(Alphabet::protein(), 99, rng);
  packed_full_matrix_align(a, a, scheme, nullptr, &bytes);
  EXPECT_EQ(bytes, 2500u);
  // 3 x 3 cells: each row starts on a byte.
  const Sequence two = random_sequence(Alphabet::protein(), 2, rng);
  packed_full_matrix_align(two, two, scheme, nullptr, &bytes);
  EXPECT_EQ(bytes, 3u);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t m = rng.bounded(40);
    const std::size_t n = rng.bounded(40);
    packed_full_matrix_align(random_sequence(Alphabet::protein(), m, rng),
                             random_sequence(Alphabet::protein(), n, rng),
                             scheme, nullptr, &bytes);
    EXPECT_EQ(bytes, (m + 1) * ((n + 4) / 4)) << m << "x" << n;
  }
}

TEST(Packed, EmptyInputs) {
  const SubstitutionMatrix m = scoring::dna(1, -1);
  const ScoringScheme scheme(m, -2);
  const Sequence empty(Alphabet::dna(), "");
  const Sequence acg(Alphabet::dna(), "ACG");
  EXPECT_EQ(packed_full_matrix_align(empty, empty, scheme).score, 0);
  EXPECT_EQ(packed_full_matrix_align(acg, empty, scheme).score, -6);
  EXPECT_EQ(packed_full_matrix_align(empty, acg, scheme).score, -6);
}

TEST(Packed, CountsStoredCellsAndTracebackSteps) {
  Xoshiro256 rng(152);
  const Sequence a = random_sequence(Alphabet::dna(), 10, rng);
  const Sequence b = random_sequence(Alphabet::dna(), 12, rng);
  const SubstitutionMatrix m = scoring::dna();
  const ScoringScheme scheme(m, -3);
  DpCounters counters;
  packed_full_matrix_align(a, b, scheme, &counters);
  EXPECT_EQ(counters.cells_stored, 120u);
  EXPECT_EQ(counters.cells_scored, 0u);
  // The traceback walks from (m, n) to the origin: between max(m, n) and
  // m + n steps.
  EXPECT_GE(counters.traceback_steps, 12u);
  EXPECT_LE(counters.traceback_steps, 22u);
}

TEST(Packed, RejectsAffine) {
  const SubstitutionMatrix m = scoring::dna();
  const ScoringScheme affine(m, -5, -1);
  const Sequence a(Alphabet::dna(), "ACG");
  EXPECT_THROW(packed_full_matrix_align(a, a, affine),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The fill against a textbook DPM.

/// The band-restricted DPM written out cell by cell: (i, j) exists when
/// -w <= j - i <= (n - m) + w; each cell takes the best of its existing
/// diagonal, up and left neighbours, preferring Diag, then Up, then Left.
struct TextbookDpm {
  std::size_t m = 0, n = 0;
  std::ptrdiff_t lo = 0, hi = 0;
  std::vector<std::vector<std::optional<Score>>> value;
  std::vector<std::vector<Move>> move;
  std::size_t ties = 0;  ///< interior cells with two or more best moves

  bool exists(std::size_t i, std::size_t j) const {
    const std::ptrdiff_t d =
        static_cast<std::ptrdiff_t>(j) - static_cast<std::ptrdiff_t>(i);
    return i <= m && j <= n && d >= lo && d <= hi;
  }

  TextbookDpm(const Sequence& a, const Sequence& b,
              const ScoringScheme& scheme, std::size_t w)
      : m(a.size()), n(b.size()) {
    lo = -static_cast<std::ptrdiff_t>(w);
    hi = static_cast<std::ptrdiff_t>(n) - static_cast<std::ptrdiff_t>(m) +
         static_cast<std::ptrdiff_t>(w);
    const Score g = scheme.gap_extend();
    value.assign(m + 1, std::vector<std::optional<Score>>(n + 1));
    move.assign(m + 1, std::vector<Move>(n + 1, Move::kDiag));
    for (std::size_t i = 0; i <= m; ++i) {
      for (std::size_t j = 0; j <= n; ++j) {
        if (!exists(i, j)) continue;
        if (i == 0) {
          value[i][j] = static_cast<Score>(j) * g;
          move[i][j] = Move::kLeft;
          continue;
        }
        if (j == 0) {
          value[i][j] = static_cast<Score>(i) * g;
          move[i][j] = Move::kUp;
          continue;
        }
        std::vector<std::pair<Score, Move>> options;
        if (exists(i - 1, j - 1)) {
          options.emplace_back(
              *value[i - 1][j - 1] + scheme.substitution(a[i - 1], b[j - 1]),
              Move::kDiag);
        }
        if (exists(i - 1, j)) {
          options.emplace_back(*value[i - 1][j] + g, Move::kUp);
        }
        if (exists(i, j - 1)) {
          options.emplace_back(*value[i][j - 1] + g, Move::kLeft);
        }
        Score best = options.front().first;
        for (const auto& option : options) best = std::max(best, option.first);
        std::size_t winners = 0;
        for (const auto& option : options) {
          if (option.first != best) continue;
          if (winners++ == 0) move[i][j] = option.second;
        }
        if (winners > 1) ++ties;
        value[i][j] = best;
      }
    }
  }

  std::vector<Move> traceback(std::size_t i, std::size_t j) const {
    std::vector<Move> moves;
    while (i > 0 || j > 0) {
      const Move step = move[i][j];
      moves.push_back(step);
      if (step != Move::kLeft) --i;
      if (step != Move::kUp) --j;
    }
    return moves;
  }

  Score row_max(std::size_t i) const {
    Score best = kNegInf;
    for (std::size_t j = 0; j <= n; ++j) {
      if (value[i][j]) best = std::max(best, *value[i][j]);
    }
    return best;
  }
};

/// Fills `fill` row by row against `dpm`: every row's maximum, the best
/// cell so far, and the traceback from every existing cell of every filled
/// row. Returns the rows filled; stops early like the X-drop flank when
/// `x_drop` is set.
std::size_t check_fill(PackedMoveFill& fill, const TextbookDpm& dpm,
                       std::optional<Score> x_drop = std::nullopt) {
  BestCell best;  // the origin, which row 0 never beats
  const auto check_row = [&](std::size_t i) {
    for (std::size_t j = 0; j <= dpm.n; ++j) {
      if (!dpm.exists(i, j)) continue;
      if (*dpm.value[i][j] > best.score) {
        best = BestCell{*dpm.value[i][j], i, j};
      }
      Path path(Cell{i, j});
      fill.traceback(path);
      EXPECT_EQ(path.traceback_moves(), dpm.traceback(i, j))
          << "from (" << i << ", " << j << ")";
    }
    EXPECT_EQ(fill.best().score, best.score) << "after row " << i;
    EXPECT_EQ(fill.best().row, best.row) << "after row " << i;
    EXPECT_EQ(fill.best().col, best.col) << "after row " << i;
  };
  check_row(0);
  while (fill.rows_filled() < dpm.m) {
    const Score row_max = fill.fill_row();
    const std::size_t i = fill.rows_filled();
    EXPECT_EQ(row_max, dpm.row_max(i)) << "row " << i;
    check_row(i);
    if (x_drop && row_max < best.score - *x_drop) break;
  }
  return fill.rows_filled();
}

std::uint64_t interior_cells(const TextbookDpm& dpm) {
  std::uint64_t cells = 0;
  for (std::size_t i = 1; i <= dpm.m; ++i) {
    for (std::size_t j = 1; j <= dpm.n; ++j) cells += dpm.exists(i, j);
  }
  return cells;
}

void check_against_textbook(const Sequence& a, const Sequence& b,
                            const ScoringScheme& scheme, std::size_t w) {
  SCOPED_TRACE(std::to_string(a.size()) + "x" + std::to_string(b.size()) +
               " w=" + std::to_string(w));
  DpCounters counters;
  PackedMoveFill fill(a.residues(), b.residues(), scheme, w, &counters);
  const TextbookDpm dpm(a, b, scheme,
                        std::min(w, std::max(a.size(), b.size())));
  EXPECT_EQ(check_fill(fill, dpm), a.size());
  EXPECT_EQ(counters.cells_stored, interior_cells(dpm));
  const std::size_t width = std::min<std::size_t>(
      b.size() + 1, static_cast<std::size_t>(dpm.hi - dpm.lo + 1));
  EXPECT_EQ(fill.byte_size(), (a.size() + 1) * ((width + 3) / 4));
}

ScoringScheme dna_scheme() {
  static const SubstitutionMatrix m = scoring::dna(5, -4);
  return ScoringScheme(m, -6);
}

TEST(PackedMoveFill, WholeRowsMatchTextbook) {
  Xoshiro256 rng(154);
  for (int trial = 0; trial < 12; ++trial) {
    const Sequence a = random_sequence(Alphabet::dna(), rng.bounded(30), rng);
    const Sequence b = random_sequence(Alphabet::dna(), rng.bounded(30), rng);
    check_against_textbook(a, b, dna_scheme(), PackedMoveFill::kWholeRows);
  }
}

TEST(PackedMoveFill, BandsClippedAtEitherEdgeMatchTextbook) {
  Xoshiro256 rng(155);
  // (m, n, w): the band clipped at the left edge, the right edge, both,
  // the corner on the band's lower boundary (m - n == w), and w = 1.
  const std::size_t shapes[][3] = {
      {20, 30, 3}, {30, 20, 10}, {25, 25, 4}, {12, 40, 2}, {40, 33, 7},
      {18, 18, 1}, {19, 18, 1}, {18, 19, 1}, {9, 30, 1},  {30, 29, 1},
      {1, 1, 1},   {0, 5, 1},   {5, 0, 5},   {6, 2, 40}};
  for (const auto& [m, n, w] : shapes) {
    const Sequence a = random_sequence(Alphabet::dna(), m, rng);
    const Sequence b = random_sequence(Alphabet::dna(), n, rng);
    check_against_textbook(a, b, dna_scheme(), w);
  }
}

TEST(PackedMoveFill, TiedMovesPreferDiagThenUpThenLeft) {
  // Every substitution and every gap costs the same, so most cells tie
  // between two or three moves.
  static const SubstitutionMatrix flat = scoring::dna(-2, -2);
  const ScoringScheme scheme(flat, -1);
  Xoshiro256 rng(156);
  for (const std::size_t w : {PackedMoveFill::kWholeRows, std::size_t{2}}) {
    const Sequence a = random_sequence(Alphabet::dna(), 14, rng);
    const Sequence b = random_sequence(Alphabet::dna(), 17, rng);
    check_against_textbook(a, b, scheme, w);
    EXPECT_GT(TextbookDpm(a, b, scheme, std::min<std::size_t>(w, 17)).ties,
              20u);
  }
  // Crafted: a gap of 0 against an all-zero matrix ties every move; the
  // path is then all diagonal steps, then the leftover gaps.
  static const SubstitutionMatrix zero = scoring::dna(0, 0);
  const ScoringScheme free_scheme(zero, 0);
  const Sequence a(Alphabet::dna(), "ACG");
  const Sequence b(Alphabet::dna(), "TTTTT");
  PackedMoveFill fill(a.residues(), b.residues(), free_scheme);
  fill.fill_rows();
  Path path(Cell{3, 5});
  fill.traceback(path);
  EXPECT_EQ(path.to_string(), "LLDDD");
  check_against_textbook(a, b, free_scheme, PackedMoveFill::kWholeRows);
}

TEST(PackedMoveFill, BestCellTieGoesToFirstCellInRowMajorOrder) {
  // With free gaps, "AC" x "ACAC" reaches its maximum 10 at (2, 2) and
  // keeps it along the rest of row 2; "ACAC" x "AC" keeps it down the
  // rest of column 2.
  static const SubstitutionMatrix m = scoring::dna(5, -4);
  const ScoringScheme scheme(m, 0);
  const Sequence ac(Alphabet::dna(), "AC");
  const Sequence acac(Alphabet::dna(), "ACAC");
  PackedMoveFill wide(ac.residues(), acac.residues(), scheme);
  wide.fill_rows();
  EXPECT_EQ(wide.best().score, 10);
  EXPECT_EQ(wide.best().row, 2u);
  EXPECT_EQ(wide.best().col, 2u);
  PackedMoveFill tall(acac.residues(), ac.residues(), scheme);
  tall.fill_rows();
  EXPECT_EQ(tall.best().score, 10);
  EXPECT_EQ(tall.best().row, 2u);
  EXPECT_EQ(tall.best().col, 2u);
  check_against_textbook(ac, acac, scheme, PackedMoveFill::kWholeRows);
  check_against_textbook(acac, ac, scheme, PackedMoveFill::kWholeRows);

  // Random pairs over a tiny score range tie their maxima often.
  static const SubstitutionMatrix unit = scoring::dna(1, -1);
  const ScoringScheme unit_scheme(unit, -1);
  Xoshiro256 rng(157);
  std::size_t tied_maxima = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Sequence a =
        random_sequence(Alphabet::dna(), 3 + rng.bounded(12), rng);
    const Sequence b =
        random_sequence(Alphabet::dna(), 3 + rng.bounded(12), rng);
    check_against_textbook(a, b, unit_scheme, PackedMoveFill::kWholeRows);
    const TextbookDpm dpm(a, b, unit_scheme, std::max(a.size(), b.size()));
    Score top = kNegInf;
    std::size_t count = 0;
    for (std::size_t i = 0; i <= dpm.m; ++i) {
      top = std::max(top, dpm.row_max(i));
    }
    for (const auto& row : dpm.value) {
      count += static_cast<std::size_t>(
          std::count(row.begin(), row.end(), std::optional<Score>(top)));
    }
    tied_maxima += count > 1;
  }
  EXPECT_GT(tied_maxima, 5u);
}

TEST(PackedMoveFill, XDropStopsOnTheFirstRowBelowTheBest) {
  // A shared 20-residue prefix, then unrelated sequence: the rows fall
  // away from the best cell soon after the prefix ends.
  Xoshiro256 rng(158);
  const std::string prefix =
      random_sequence(Alphabet::dna(), 20, rng).to_string();
  const Sequence a(Alphabet::dna(),
                   prefix +
                       random_sequence(Alphabet::dna(), 60, rng).to_string());
  const Sequence b(Alphabet::dna(),
                   prefix +
                       random_sequence(Alphabet::dna(), 70, rng).to_string());
  const TextbookDpm dpm(a, b, dna_scheme(), std::max(a.size(), b.size()));
  for (const Score x_drop : {0, 6, 20}) {
    SCOPED_TRACE("x_drop " + std::to_string(x_drop));
    // The textbook stop: the first row whose maximum falls more than
    // x_drop below the best cell of the rows so far, that row included.
    Score best = 0;
    std::size_t stop = a.size();
    for (std::size_t i = 1; i <= a.size(); ++i) {
      best = std::max(best, dpm.row_max(i));
      if (dpm.row_max(i) < best - x_drop) {
        stop = i;
        break;
      }
    }
    ASSERT_LT(stop, a.size());
    ASSERT_GT(stop, 20u);
    PackedMoveFill fill(a.residues(), b.residues(), dna_scheme());
    EXPECT_EQ(check_fill(fill, dpm, x_drop), stop);
    EXPECT_GE(fill.best().score, 100);  // at least the prefix, 20 matches
  }
}

TEST(PackedMoveFill, RejectsABandThatMissesTheCorner) {
  const Sequence a(Alphabet::dna(), "ACGTACGTAC");
  const Sequence b(Alphabet::dna(), "ACGTAC");
  EXPECT_THROW(PackedMoveFill(a.residues(), b.residues(), dna_scheme(), 3),
               std::invalid_argument);
  EXPECT_NO_THROW(PackedMoveFill(a.residues(), b.residues(), dna_scheme(), 4));
  // A band of any width fits when |a| <= |b|.
  EXPECT_NO_THROW(PackedMoveFill(b.residues(), a.residues(), dna_scheme(), 0));
}

}  // namespace
}  // namespace flsa
