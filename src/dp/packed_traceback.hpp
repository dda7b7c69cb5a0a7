// The 2-bit traceback fill: the one linear-gap stored fill that keeps a
// move per cell instead of a score.
//
// The paper (Section 2.1): "An alternative approach is to store three bits
// in each DPM entry to record the backward path. ... If only a single
// optimal path is required, two bits can be used to encode the three path
// choices at each DPM entry." PackedMoveFill keeps two rolling score rows
// and a 2-bit move per cell, a quarter byte where the stored fill of
// dp/fullmatrix.hpp keeps four, and its traceback walks the moves back to
// the origin. It serves banded_align (dp/banded.hpp), the gapped X-drop
// flank extension of chained search (search/chain.cpp), and the paper's
// 2-bit full matrix (whole rows, traced from (m, n)). Only this module
// knows the move encoding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dp/counters.hpp"
#include "dp/kernel.hpp"
#include "dp/path.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// Global linear-gap fill of `a` (rows) x `b` (columns) over a per-row
/// column window, one row at a time, storing the move of every window
/// cell. Row i covers the columns j of the exact band
/// j - i in [-w, (n - m) + w] clipped to [0, n]; a half-width of at least
/// max(m, n) (kWholeRows) covers every row whole. Cells outside the window
/// do not exist: the band-constrained optimum is computed, not the
/// unconstrained one.
///
/// Moves break ties Diag, then Up, then Left — the order of every
/// traceback in the library. Row 0 stores Left and column 0 Up, so a
/// traceback from any cell ends at the origin.
class PackedMoveFill {
 public:
  /// A half-width that makes every row whole.
  static constexpr std::size_t kWholeRows =
      std::numeric_limits<std::size_t>::max();

  /// Fills row 0 (the leading-gap boundary). Linear schemes only. The band
  /// contains both DPM corners only when m - n <= half_width: otherwise
  /// throws std::invalid_argument. `a`, `b`, the scheme's matrix and
  /// `counters` (which may be null) must outlive the fill.
  PackedMoveFill(std::span<const Residue> a, std::span<const Residue> b,
                 const ScoringScheme& scheme,
                 std::size_t half_width = kWholeRows,
                 DpCounters* counters = nullptr);

  /// The DPM row filled last (0 before the first fill_row()).
  std::size_t rows_filled() const { return row_; }

  /// Fills the next row (requires rows_filled() < m) and returns its
  /// maximum over the window. Adds the row's cells outside column 0 to
  /// counters->cells_stored.
  Score fill_row();

  /// Fills every remaining row.
  void fill_rows();

  /// The maximum cell of the rows filled so far, row 0 and column 0
  /// included; ties go to the first cell in row-major order.
  const BestCell& best() const { return best_; }

  /// Bytes holding the moves: each filled row starts on a byte and takes
  /// a quarter byte per cell of the widest window row.
  std::size_t byte_size() const { return moves_.size(); }

  /// Appends to `path` the stored moves from path.front() — a window cell
  /// of a filled row — back to the origin. Adds the steps to
  /// counters->traceback_steps.
  void traceback(Path& path) const;

 private:
  std::size_t first_col(std::size_t row) const;
  std::size_t last_col(std::size_t row) const;

  std::span<const Residue> a_, b_;
  const Score* sub_;  ///< row-major substitution table
  std::size_t alphabet_size_;
  Score gap_;
  std::ptrdiff_t lo_, hi_;  ///< the band: lo_ <= j - i <= hi_
  std::size_t stride_;      ///< move bytes per row
  DpCounters* counters_;
  std::size_t row_ = 0;
  BestCell best_;
  std::vector<Score> prev_, cur_;  ///< rows row_ - 1 and row_, by column
  std::vector<std::uint8_t> moves_;
};

}  // namespace flsa
