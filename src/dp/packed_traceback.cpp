#include "dp/packed_traceback.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/assert.hpp"

namespace flsa {

namespace {

constexpr auto kUp = static_cast<unsigned>(Move::kUp);
constexpr auto kLeft = static_cast<unsigned>(Move::kLeft);
// The row loop builds a move code from two flags: Diag must be 0.
static_assert(static_cast<unsigned>(Move::kDiag) == 0 && kUp == 1 &&
              kLeft == 2);

}  // namespace

PackedMoveFill::PackedMoveFill(std::span<const Residue> a,
                               std::span<const Residue> b,
                               const ScoringScheme& scheme,
                               std::size_t half_width, DpCounters* counters)
    : a_(a),
      b_(b),
      sub_(scheme.matrix().data()),
      alphabet_size_(scheme.alphabet().size()),
      gap_(scheme.gap_extend()),
      counters_(counters) {
  FLSA_REQUIRE(scheme.is_linear());
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  if (m > n && m - n > half_width) {
    throw std::invalid_argument(
        "band half-width " + std::to_string(half_width) +
        " cannot cover a length difference |a| - |b| of " +
        std::to_string(m - n));
  }
  // A band at least max(m, n) wide already spans every row whole.
  const auto w =
      static_cast<std::ptrdiff_t>(std::min(half_width, std::max(m, n)));
  lo_ = -w;
  hi_ = static_cast<std::ptrdiff_t>(n) - static_cast<std::ptrdiff_t>(m) + w;
  const std::size_t width =
      std::min(n + 1, static_cast<std::size_t>(hi_ - lo_ + 1));
  stride_ = (width + 3) / 4;
  moves_.reserve((m + 1) * stride_);
  moves_.resize(stride_);
  prev_.resize(n + 1);
  cur_.resize(n + 1);
  // Row 0: leading gaps, reached by Left moves. Gaps cost <= 0, so the
  // row never rises above the origin, which is its best cell.
  for (std::size_t j = 1; j <= last_col(0); ++j) {
    cur_[j] = static_cast<Score>(j) * gap_;
    moves_[j / 4] =
        static_cast<std::uint8_t>(moves_[j / 4] | kLeft << (j % 4 * 2));
  }
}

std::size_t PackedMoveFill::first_col(std::size_t row) const {
  return static_cast<std::size_t>(
      std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(row) + lo_));
}

std::size_t PackedMoveFill::last_col(std::size_t row) const {
  return static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(b_.size()),
                               static_cast<std::ptrdiff_t>(row) + hi_));
}

Score PackedMoveFill::fill_row() {
  FLSA_REQUIRE(row_ < a_.size());
  const std::size_t above_last = last_col(row_);
  const std::size_t i = ++row_;
  const std::size_t first = first_col(i);
  const std::size_t last = last_col(i);
  std::swap(prev_, cur_);
  // A cell's neighbours outside the window read as -inf: the up one of a
  // last cell that the band shifted right (a sentinel written into the
  // row above), the left one of a first cell that is not in column 0.
  if (last > above_last) prev_[last] = kNegInf;

  moves_.resize(moves_.size() + stride_);
  std::uint8_t* out = moves_.data() + (moves_.size() - stride_);
  // Locals, so that the stores below cannot alias them. The left
  // neighbour stays in a register, off the store-to-load path.
  const Score* prev = prev_.data();
  Score* cur = cur_.data();
  const Residue* b = b_.data();
  const Score gap = gap_;
  const Score* sub_row = sub_ + std::size_t{a_[i - 1]} * alphabet_size_;
  Score row_max = kNegInf;
  Score left = kNegInf;
  unsigned packed = 0;  // moves of the cells since the last full byte
  unsigned shift = 0;
  std::size_t j = first;
  if (j == 0) {
    cur[0] = static_cast<Score>(i) * gap;
    row_max = cur[0];
    left = cur[0] + gap;
    packed = kUp;
    shift = 2;
    j = 1;
  }
  if (counters_) counters_->cells_stored += last + 1 - j;
  for (; j <= last; ++j) {
    const Score diag = prev[j - 1] + sub_row[b[j - 1]];
    const Score up = prev[j] + gap;
    const Score diag_up = std::max(diag, up);
    const Score value = std::max(diag_up, left);
    // Diag, then Up, then Left on ties; in flags rather than branches,
    // which random residues would mispredict.
    const unsigned up_wins = up > diag;
    const unsigned left_wins = left > diag_up;
    packed |= (left_wins << 1 | (up_wins & ~left_wins)) << shift;
    cur[j] = value;
    left = value + gap;
    row_max = std::max(row_max, value);
    shift += 2;
    if (shift == 8) {
      *out++ = static_cast<std::uint8_t>(packed);
      packed = 0;
      shift = 0;
    }
  }
  if (shift != 0) *out = static_cast<std::uint8_t>(packed);

  // The row's first maximal cell is the first to beat the earlier rows.
  if (row_max > best_.score) {
    const Score* at = std::find(cur + first, cur + last + 1, row_max);
    best_ = BestCell{row_max, i, static_cast<std::size_t>(at - cur)};
  }
  return row_max;
}

void PackedMoveFill::fill_rows() {
  while (row_ < a_.size()) fill_row();
}

void PackedMoveFill::traceback(Path& path) const {
  Cell at = path.front();
  FLSA_REQUIRE(at.row <= row_ && at.col >= first_col(at.row) &&
               at.col <= last_col(at.row));
  std::uint64_t steps = 0;
  while (at.row > 0 || at.col > 0) {
    const std::size_t t = at.col - first_col(at.row);
    // Explicit promotion: UBSan's shift instrumentation otherwise trips a
    // spurious -Wsign-conversion on the implicit uint8_t -> int promotion.
    const auto byte = static_cast<unsigned>(moves_[at.row * stride_ + t / 4]);
    path.push_traceback(static_cast<Move>(byte >> (t % 4 * 2) & 3u));
    at = path.front();
    ++steps;
  }
  if (counters_) counters_->traceback_steps += steps;
}

}  // namespace flsa
