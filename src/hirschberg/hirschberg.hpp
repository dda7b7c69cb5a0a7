// Hirschberg's linear-space alignment algorithm (Myers-Miller formulation
// for sequence alignment): the paper's linear-space baseline.
//
// Divide and conquer: split `a` at its midpoint, run a forward LastRow pass
// of the top half against all of `b` and a backward pass of the (reversed)
// bottom half, pick the split column maximizing the sum, recurse on the two
// sub-problems. Uses O(min over the recursion of rows+cols) working memory
// and roughly doubles the FindScore operations of the full-matrix
// algorithm, exactly as discussed in the paper's Section 2.2.
#pragma once

#include "dp/alignment.hpp"
#include "dp/counters.hpp"
#include "dp/kernel.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// Tuning knobs for the Hirschberg baseline.
struct HirschbergOptions {
  /// Sub-problems with at most this many DPM cells are finished with the
  /// full-matrix algorithm instead of recursing to size one (the paper
  /// notes the recursion "could be terminated sooner by using a FM
  /// algorithm when the problem size is small enough"). Minimum 2.
  std::size_t base_case_cells = 4096;

  /// Sweep kernel for the forward/backward LastRow passes. kAuto picks
  /// the int16 tier when the scheme fits it, the int32 SIMD tier
  /// otherwise (scalar off a vector ISA); the alignment is identical.
  KernelKind kernel = KernelKind::kAuto;
};

/// Optimal global alignment with linear gaps in linear space.
Alignment hirschberg_align(const Sequence& a, const Sequence& b,
                           const ScoringScheme& scheme,
                           const HirschbergOptions& options = {},
                           DpCounters* counters = nullptr);

}  // namespace flsa
