#include "parallel/parallel_fastlsa.hpp"

#include <algorithm>

#include "core/engine.hpp"
#include "obs/obs.hpp"

namespace flsa {

ParallelOptions ParallelOptions::resolved(unsigned k) const {
  ParallelOptions r = *this;
  if (r.threads == 0) {
    r.threads = default_thread_count();
  }
  if (r.tiles_per_block == 0) {
    // Aim for wavefront lines of at least 2P tiles at full width so the
    // saturated middle phase dominates (the paper's second phase).
    r.tiles_per_block =
        std::max<std::size_t>(1, (2 * r.threads + k - 1) / k);
  }
  if (r.base_case_tiles == 0) {
    r.base_case_tiles = std::max<std::size_t>(1, 4 * r.threads);
  }
  if (r.min_tile_extent == 0) {
    r.min_tile_extent = 64;
  }
  return r;
}

namespace {

template <bool Affine>
Alignment run_parallel(const Sequence& a, const Sequence& b,
                       const ScoringScheme& scheme,
                       const FastLsaOptions& options,
                       const ParallelOptions& parallel, FastLsaStats* stats) {
  validate(options);
  const ParallelOptions resolved = parallel.resolved(options.k);
  FLSA_OBS_GAUGE("parallel.threads", resolved.threads);
  FLSA_OBS_GAUGE("parallel.tiles_per_block",
                 static_cast<double>(resolved.tiles_per_block));
  ThreadPool pool(resolved.threads);
  WavefrontExecutor executor(pool);
  detail::EnginePlan plan;
  plan.executor = &executor;
  plan.tiles_per_block = resolved.tiles_per_block;
  plan.base_case_tiles = resolved.base_case_tiles;
  plan.min_tile_extent = resolved.min_tile_extent;
  detail::FastLsaEngine<Affine> engine(a, b, scheme, options, plan, stats);
  return engine.run();
}

}  // namespace

Alignment parallel_fastlsa_align(const Sequence& a, const Sequence& b,
                                 const ScoringScheme& scheme,
                                 const FastLsaOptions& options,
                                 const ParallelOptions& parallel,
                                 FastLsaStats* stats) {
  return run_parallel<false>(a, b, scheme, options, parallel, stats);
}

Alignment parallel_fastlsa_align_affine(const Sequence& a, const Sequence& b,
                                        const ScoringScheme& scheme,
                                        const FastLsaOptions& options,
                                        const ParallelOptions& parallel,
                                        FastLsaStats* stats) {
  return run_parallel<true>(a, b, scheme, options, parallel, stats);
}

}  // namespace flsa
