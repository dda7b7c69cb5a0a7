#include "core/fastlsa.hpp"

#include <stdexcept>

#include "core/engine.hpp"
#include "dp/kernel.hpp"
#include "support/assert.hpp"

namespace flsa {

void validate(const FastLsaOptions& options) {
  if (options.k < 2) {
    throw std::invalid_argument("FastLSA requires k >= 2");
  }
  if (options.base_case_cells < 16) {
    throw std::invalid_argument(
        "FastLSA requires a base-case buffer of at least 16 cells");
  }
}

Alignment fastlsa_align(const Sequence& a, const Sequence& b,
                        const ScoringScheme& scheme,
                        const FastLsaOptions& options, FastLsaStats* stats) {
  SequentialExecutor executor;
  detail::EnginePlan plan;
  plan.executor = &executor;
  detail::FastLsaEngine<false> engine(a, b, scheme, options, plan, stats);
  return engine.run();
}

Alignment fastlsa_align_affine(const Sequence& a, const Sequence& b,
                               const ScoringScheme& scheme,
                               const FastLsaOptions& options,
                               FastLsaStats* stats) {
  SequentialExecutor executor;
  detail::EnginePlan plan;
  plan.executor = &executor;
  detail::FastLsaEngine<true> engine(a, b, scheme, options, plan, stats);
  return engine.run();
}

Alignment detail::solve_window(const Sequence& a, std::size_t a_begin,
                               std::size_t a_end, const Sequence& b,
                               std::size_t b_begin, std::size_t b_end,
                               [[maybe_unused]] Score score,
                               const ScoringScheme& scheme,
                               const FastLsaOptions& options,
                               FastLsaStats& stats) {
  Alignment out = fastlsa_align(a.subsequence(a_begin, a_end - a_begin),
                                b.subsequence(b_begin, b_end - b_begin),
                                scheme, options, &stats);
  FLSA_ASSERT(out.score == score);
  out.a_begin = a_begin;
  out.a_end = a_end;
  out.b_begin = b_begin;
  out.b_end = b_end;
  return out;
}

Score fastlsa_score(const Sequence& a, const Sequence& b,
                    const ScoringScheme& scheme, FastLsaStats* stats) {
  DpCounters counters;
  const Score score = global_score_linear(
      KernelKind::kAuto, a.residues(), b.residues(), scheme, &counters);
  if (stats) {
    stats->counters += counters;
    stats->kernel_used = resolve_kernel(KernelKind::kAuto);
    stats->peak_bytes =
        std::max(stats->peak_bytes,
                 (a.size() + b.size() + 2) * sizeof(Score));
  }
  return score;
}

// Explicit instantiations shared with the parallel driver and recorders.
template class detail::FastLsaEngine<false>;
template class detail::FastLsaEngine<true>;

}  // namespace flsa
