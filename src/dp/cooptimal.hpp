// Co-optimal path analysis (paper Section 2.1).
//
// "An alternative approach is to store three bits in each DPM entry to
// record the backward path. Each bit corresponds to one of the
// directions, diagonal, up or left. This will record multiple optimal
// paths." — this module implements that 3-bit encoding and uses it to
// count *all* co-optimal alignments. Under MDM78 the paper's own
// example (TLDKLLKD x TDVLKAD) has a single one.
#pragma once

#include <cstdint>
#include <vector>

#include "dp/counters.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// Dense 3-bit-per-cell direction-set matrix (paper Section 2.1's
/// "three bits in each DPM entry"). Bit 0 = diagonal, 1 = up, 2 = left.
class DirectionSetMatrix {
 public:
  DirectionSetMatrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  void set(std::size_t r, std::size_t c, bool diag, bool up, bool left);
  bool diag(std::size_t r, std::size_t c) const;
  bool up(std::size_t r, std::size_t c) const;
  bool left(std::size_t r, std::size_t c) const;

 private:
  std::uint8_t get(std::size_t r, std::size_t c) const;

  std::size_t rows_, cols_;
  std::vector<std::uint8_t> bits_;  // 2 cells per byte (3 bits each)
};

/// Fills the direction-set matrix for the global alignment of a x b
/// (linear gaps) and returns it together with the optimal score.
struct CoOptimalAnalysis {
  Score score = 0;
  /// Number of distinct optimal paths, saturated at kSaturated.
  std::uint64_t path_count = 0;
  static constexpr std::uint64_t kSaturated = ~std::uint64_t{0};
  bool saturated() const { return path_count == kSaturated; }
};

/// Counts all co-optimal global alignments (saturating at 2^64 - 1).
CoOptimalAnalysis count_optimal_paths(const Sequence& a, const Sequence& b,
                                      const ScoringScheme& scheme,
                                      DpCounters* counters = nullptr);

}  // namespace flsa
