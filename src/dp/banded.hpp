// Banded global alignment.
//
// Extension module: for high-identity pairs (the common homology-search
// case) the optimal path stays near the main diagonal, so restricting the
// DP to a band of half-width w around it reduces work from m*n to
// ~(m+n)*w cells. The result is the band-constrained optimum; it equals the
// unconstrained optimum whenever the true optimal path fits in the band
// (always true for w >= max(m,n)).
#pragma once

#include "dp/alignment.hpp"
#include "dp/counters.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// Band-constrained global alignment with linear gaps. Row i of the DPM
/// covers the columns j of the static band j - i in [-w, (n - m) + w]
/// clipped to [0, n] (w = half_width); the band contains the origin and
/// the corner (m, n) only when |a| - |b| <= w. The fill stores a 2-bit
/// move per band cell (dp/packed_traceback.hpp) and the path is traced
/// from (m, n). Adds the band cells outside row 0 and column 0 to
/// counters->cells_stored and the traceback steps to
/// counters->traceback_steps.
///
/// Throws std::invalid_argument when half_width is 0, when
/// |a| - |b| > half_width, or for an affine scheme.
Alignment banded_align(const Sequence& a, const Sequence& b,
                       const ScoringScheme& scheme, std::size_t half_width,
                       DpCounters* counters = nullptr);

}  // namespace flsa
