// Parallel FastLSA: the paper's Section 5.
//
// The recursion of FastLSA is inherently sequential (each sub-problem is
// chosen by the path found so far), so parallelism lives inside the two
// dominant phases — Fill Grid Cache and Base Case — both of which are tile
// grids executed as wavefronts on P threads. The fill rectangle is
// partitioned into R x C tiles (R = C = k * tiles_per_block), of which the
// u x v = tiles_per_block^2 tiles of the bottom-right sub-problem are
// skipped, matching the paper's Figure 13.
#pragma once

#include <cstdint>
#include <thread>

#include "core/fastlsa.hpp"
#include "parallel/wavefront.hpp"

namespace flsa {

/// Parallel execution parameters.
struct ParallelOptions {
  /// Worker threads (P). 0 = hardware concurrency.
  unsigned threads = 0;

  /// Tiles per block and dimension in the fill phase; 0 = auto
  /// (enough tiles that a full wavefront line exceeds 2 * threads).
  std::size_t tiles_per_block = 0;

  /// Tile grid per dimension for the base case; 0 = auto (4 * threads).
  std::size_t base_case_tiles = 0;

  /// Minimum tile extent; sub-problems are never tiled finer. 0 = auto
  /// (64 residues — tiles stay large enough to amortize dispatch costs).
  std::size_t min_tile_extent = 0;

  /// Resolves the auto (zero) values against `k`.
  ParallelOptions resolved(unsigned k) const;
};

/// Optimal global alignment via Parallel FastLSA (linear gaps). Produces
/// exactly the same alignment as the sequential algorithm.
Alignment parallel_fastlsa_align(const Sequence& a, const Sequence& b,
                                 const ScoringScheme& scheme,
                                 const FastLsaOptions& options = {},
                                 const ParallelOptions& parallel = {},
                                 FastLsaStats* stats = nullptr);

/// Affine-gap Parallel FastLSA.
Alignment parallel_fastlsa_align_affine(const Sequence& a, const Sequence& b,
                                        const ScoringScheme& scheme,
                                        const FastLsaOptions& options = {},
                                        const ParallelOptions& parallel = {},
                                        FastLsaStats* stats = nullptr);

}  // namespace flsa
