// Sequential FastLSA (the paper's core contribution).
//
// FastLSA generalizes Hirschberg's linear-space alignment: instead of
// halving one sequence, it divides *both* sequences into k parts, caching
// the k-1 interior grid rows and k-1 interior grid columns of the logical
// DPM (the Grid Cache). It then recurses on the sub-matrix at the current
// end of the optimal path — bottom-right first, then the successive
// "up-left" sub-matrices the path enters — re-deriving interior values only
// for blocks the optimal path actually visits. Sub-problems whose DPM fits
// in the reserved Base Case buffer (BM cells) are solved with the stored
// full-matrix algorithm.
//
// Space: O(k * (m + n)) for grid lines along the recursion, plus BM.
// Operations: between 1.0x and ~(k/(k-1))^2 x the full-matrix algorithm's
// m*n, per the paper's theorems; k and BM tune the space/time trade-off.
#pragma once

#include <cstdint>

#include "core/budget.hpp"
#include "dp/alignment.hpp"
#include "dp/counters.hpp"
#include "dp/kernel.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

class FastLsaWorkspace;  // core/arena.hpp

/// Tuning parameters of FastLSA (the paper's k and BM).
struct FastLsaOptions {
  /// Number of segments each dimension of a sub-problem is divided into
  /// (k >= 2). Larger k stores more grid lines and recomputes less.
  unsigned k = 8;

  /// Base Case buffer size in DPM *cells* (a cell is one Score for linear
  /// schemes, one (D, Ix, Iy) triple for affine ones). A sub-problem with
  /// (rows+1)*(cols+1) <= base_case_cells is solved with a full matrix.
  /// Minimum 16.
  std::size_t base_case_cells = 1u << 20;

  /// DP sweep implementation for the Fill Grid Cache tiles (and every
  /// other boundary sweep). kAuto picks the int16 tier for a linear scheme
  /// whose scores and gap fit it, the int32 SIMD tier otherwise (scalar
  /// off a vector ISA); all kernels produce identical scores and
  /// alignments.
  KernelKind kernel = KernelKind::kAuto;

  /// Score-bound band pruning of the Fill Grid Cache phase. When enabled,
  /// the engine seeds an incumbent from a greedy main-diagonal alignment
  /// (a real alignment, hence a lower bound of the optimum) and skips any
  /// grid tile whose admissible upper bound — best boundary value plus
  /// max(0, best substitution score) per remaining diagonal step — cannot
  /// reach it, publishing -inf sentinel boundary lines instead. The
  /// optimal score and alignment are unchanged (cells on any optimal path
  /// always pass the bound test); only off-band work is dropped, counted
  /// in FastLsaStats as tiles_pruned. Default off: the exact sweep of
  /// every tile stays the reference behaviour, and counter-based golden
  /// fingerprints (cells_scored) only hold with pruning off.
  bool prune = false;

  /// Optional reusable scratch (core/arena.hpp). When set, the engine
  /// draws every internal buffer — grid/line caches, base-case matrix,
  /// per-worker scratch, path storage — from this workspace instead of the
  /// heap, so repeated align calls with the same workspace stop allocating
  /// once warm. Not thread-safe: one workspace per aligning thread. When
  /// null the engine creates a private (single-use) workspace.
  FastLsaWorkspace* workspace = nullptr;
};

/// Per-run observability: operation counters plus FastLSA-specific shape
/// and memory statistics.
struct FastLsaStats {
  DpCounters counters;
  /// Peak bytes of DPM state (grid caches + base-case buffer + boundaries).
  std::size_t peak_bytes = 0;
  std::uint64_t grid_allocations = 0;
  std::uint64_t base_case_invocations = 0;
  std::uint64_t recursive_splits = 0;
  std::uint64_t max_recursion_depth = 0;
  /// Arena buffer recycling during this run: misses are fresh heap
  /// growths, hits are recycled buffers. With a reused workspace, misses
  /// drops to 0 once warm (the allocation-free steady state).
  std::uint64_t arena_pool_hits = 0;
  std::uint64_t arena_pool_misses = 0;
  /// The sweep kernel the run actually executed with (kAuto resolved).
  KernelKind kernel_used = KernelKind::kScalar;
};

/// Validates options (throws std::invalid_argument on nonsense).
void validate(const FastLsaOptions& options);

/// Optimal global alignment with linear gaps via sequential FastLSA.
/// Produces exactly the same optimal score as the FM and Hirschberg
/// algorithms (and, with the shared deterministic tie-breaking, the same
/// path).
Alignment fastlsa_align(const Sequence& a, const Sequence& b,
                        const ScoringScheme& scheme,
                        const FastLsaOptions& options = {},
                        FastLsaStats* stats = nullptr);

/// Affine-gap FastLSA: grid lines cache (D, Ix, Iy) triples and the
/// traceback carries its gap lane across block boundaries.
Alignment fastlsa_align_affine(const Sequence& a, const Sequence& b,
                               const ScoringScheme& scheme,
                               const FastLsaOptions& options = {},
                               FastLsaStats* stats = nullptr);

namespace detail {

/// Solves the window a[a_begin..a_end) x b[b_begin..b_end) that a locate
/// pass found — a global problem once located — with fastlsa_align, and
/// returns it with the window as its region. `score` is the locate pass's
/// optimum, which the window's alignment must reproduce. Shared by
/// local_align, fitting_align and overlap_align.
Alignment solve_window(const Sequence& a, std::size_t a_begin,
                       std::size_t a_end, const Sequence& b,
                       std::size_t b_begin, std::size_t b_end, Score score,
                       const ScoringScheme& scheme,
                       const FastLsaOptions& options, FastLsaStats& stats);

}  // namespace detail

/// Optimal score only (linear scheme), using FastLSA's FindScore phase —
/// one row sweep, no grid caches. Provided for completeness/benchmarks.
Score fastlsa_score(const Sequence& a, const Sequence& b,
                    const ScoringScheme& scheme,
                    FastLsaStats* stats = nullptr);

}  // namespace flsa
