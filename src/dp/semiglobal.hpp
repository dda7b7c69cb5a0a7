// Semi-global alignment modes (free end gaps).
//
// Two practically important relaxations of global alignment, both direct
// boundary variations of the same DP:
//  - fitting: align ALL of `a` against some window of `b` (free gaps at
//    both ends of `b`) — locating a gene in a chromosome;
//  - overlap (dovetail): align a suffix of `a` against a prefix of `b`
//    (free prefix of `a`, free suffix of `b`) — read-overlap detection in
//    assembly.
// Full-matrix solvers live here as the reference; the linear-space
// versions built on FastLSA live in core/semiglobal.hpp.
#pragma once

#include "dp/alignment.hpp"
#include "dp/counters.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// Result of a score-only semi-global pass: the optimal score and the DPM
/// cell where the optimal path ends. Ties resolve to the smallest
/// coordinate (deterministic).
struct SemiGlobalEnd {
  Score score = 0;
  std::size_t row = 0;
  std::size_t col = 0;
};

/// Linear-space fitting score pass: top row free (zeros), left column a
/// gap ramp; optimum over the last row. end.row == a.size().
SemiGlobalEnd fitting_score_linear(std::span<const Residue> a,
                                   std::span<const Residue> b,
                                   const ScoringScheme& scheme,
                                   DpCounters* counters = nullptr);

/// Linear-space overlap score pass: left column free (zeros), top row a
/// gap ramp; optimum over the last row. end.row == a.size().
SemiGlobalEnd overlap_score_linear(std::span<const Residue> a,
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
