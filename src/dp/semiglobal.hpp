// Semi-global alignment modes (free end gaps).
//
// Two practically important relaxations of global alignment, both direct
// boundary variations of the same DP:
//  - fitting: align ALL of `a` against some window of `b` (free gaps at
//    both ends of `b`) — locating a gene in a chromosome;
//  - overlap (dovetail): align a suffix of `a` against a prefix of `b`
//    (free prefix of `a`, free suffix of `b`) — read-overlap detection in
//    assembly.
// Both are global mode of the shared DP calls over a free (all-zero) top
// row or left column: the score passes are one sweep_rectangle_linear
// call each, and the full-matrix solvers — the reference — are one stored
// fill and one traceback, materialised by alignment_from_path over the
// matched region. The linear-space versions built on FastLSA live in
// core/semiglobal.hpp.
#pragma once

#include "dp/alignment.hpp"
#include "dp/counters.hpp"
#include "dp/kernel.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// Linear-space fitting score pass: top row free (zeros), left column a
/// gap ramp. Returns the optimal score and the DPM cell where the optimal
/// path ends: the last row's maximum, ties to the smallest column, so
/// row == a.size().
BestCell fitting_score_linear(std::span<const Residue> a,
                              std::span<const Residue> b,
                              const ScoringScheme& scheme,
                              DpCounters* counters = nullptr);

/// Linear-space overlap score pass: left column free (zeros), top row a
/// gap ramp; the optimal end is taken as in fitting_score_linear.
BestCell overlap_score_linear(std::span<const Residue> a,
                              std::span<const Residue> b,
                              const ScoringScheme& scheme,
                              DpCounters* counters = nullptr);

/// Full-matrix fitting alignment. The Alignment's b_begin/b_end give the
/// matched window of `b`; a_begin/a_end always cover all of `a`.
Alignment fitting_align_full_matrix(const Sequence& a, const Sequence& b,
                                    const ScoringScheme& scheme,
                                    DpCounters* counters = nullptr);

/// Full-matrix overlap alignment. a_begin..a_end is the matched suffix of
/// `a`; b_begin..b_end the matched prefix of `b`.
Alignment overlap_align_full_matrix(const Sequence& a, const Sequence& b,
                                    const ScoringScheme& scheme,
                                    DpCounters* counters = nullptr);

}  // namespace flsa
