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

/// Band-constrained global alignment with linear gaps. The band contains
/// cells (i, j) with |(j - i) - (n - m)*i/m ... | simplified to the standard
/// static band: j in [i + lo, i + hi] where lo = -w and hi = (n - m) + w,
/// which always contains both DPM corners.
///
/// half_width must be >= 1. Throws std::invalid_argument if the band is so
/// narrow that no monotone path connects the corners (cannot happen for
/// half_width >= 1).
Alignment banded_align(const Sequence& a, const Sequence& b,
                       const ScoringScheme& scheme, std::size_t half_width,
                       DpCounters* counters = nullptr);

}  // namespace flsa
