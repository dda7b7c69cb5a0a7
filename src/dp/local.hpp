// Smith-Waterman local alignment (full-matrix).
//
// Extension beyond the paper's global-alignment scope: the paper's DP
// framework applies directly to local alignment by clamping at zero. The
// linear-space local aligner (score pass + reverse pass + FastLSA on the
// located sub-rectangle) builds on this and lives in core/local_align.hpp.
#pragma once

#include "dp/alignment.hpp"
#include "dp/counters.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// Result of a score-only local pass: the best cell and its score.
struct LocalScoreResult {
  Score score = 0;
  /// DPM coordinates of the maximum entry (end of the optimal local
  /// alignment): a[0..row) x b[0..col).
  std::size_t row = 0;
  std::size_t col = 0;
};

/// Linear-space Smith-Waterman score pass (linear gaps). Ties resolve to the
/// smallest (row, col) in row-major order, making the result deterministic.
LocalScoreResult local_score_linear(std::span<const Residue> a,
                                    std::span<const Residue> b,
                                    const ScoringScheme& scheme,
                                    DpCounters* counters = nullptr);

/// Full-matrix Smith-Waterman local alignment (linear gaps). The returned
/// Alignment's a_begin/a_end, b_begin/b_end give the aligned region.
/// An all-negative scoring landscape yields an empty alignment, score 0.
Alignment local_align_full_matrix(const Sequence& a, const Sequence& b,
                                  const ScoringScheme& scheme,
                                  DpCounters* counters = nullptr);

/// Full-matrix affine-gap Smith-Waterman local alignment.
Alignment local_align_full_matrix_affine(const Sequence& a,
                                         const Sequence& b,
                                         const ScoringScheme& scheme,
                                         DpCounters* counters = nullptr);

}  // namespace flsa
