// Smith-Waterman local alignment (full-matrix) and its score pass.
//
// Extension beyond the paper's global-alignment scope: the paper's DP
// framework applies directly to local alignment by clamping at zero, so
// both solvers here are the shared calls in local mode (DpMode::kLocal):
// the score pass is one sweep_rectangle_linear call with a best-cell
// output, and each full-matrix solver is one stored fill, one argmax and
// one traceback, materialised by alignment_from_path. The linear-space
// local aligner (score pass + reverse pass + FastLSA on the located
// sub-rectangle) builds on this and lives in core/local_align.hpp.
#pragma once

#include "dp/alignment.hpp"
#include "dp/counters.hpp"
#include "dp/kernel.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// Linear-space Smith-Waterman score pass (linear gaps): the best cell of
/// the local DPM, i.e. the end of the optimal local alignment
/// a[0..row) x b[0..col) and its score. Ties resolve to the smallest
/// (row, col) in row-major order; an all-negative landscape gives (0, 0)
/// with score 0.
BestCell local_score_linear(std::span<const Residue> a,
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
