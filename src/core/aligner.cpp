#include "core/aligner.hpp"

#include <algorithm>

#include "core/arena.hpp"
#include "dp/fullmatrix.hpp"
#include "dp/gotoh.hpp"
#include "hirschberg/hirschberg_affine.hpp"
#include "support/assert.hpp"

namespace flsa {

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kAuto: return "auto";
    case Strategy::kFullMatrix: return "full-matrix";
    case Strategy::kHirschberg: return "hirschberg";
    case Strategy::kFastLsa: return "fastlsa";
  }
  return "?";
}

Strategy choose_strategy(std::size_t m, std::size_t n, bool affine,
                         std::size_t memory_limit_bytes) {
  if (memory_limit_bytes == 0) return Strategy::kFullMatrix;
  const std::size_t cell = affine ? sizeof(AffineCell) : sizeof(Score);
  // Full matrix needs (m+1)*(n+1) stored cells.
  const std::size_t fm_bytes = (m + 1) * (n + 1) * cell;
  return fm_bytes <= memory_limit_bytes ? Strategy::kFullMatrix
                                        : Strategy::kFastLsa;
}

FastLsaOptions fit_fastlsa_options(std::size_t m, std::size_t n, bool affine,
                                   std::size_t memory_limit_bytes,
                                   unsigned k) {
  FastLsaOptions options;
  options.k = std::max(2u, k);
  if (memory_limit_bytes == 0) return options;

  const std::size_t cell = affine ? sizeof(AffineCell) : sizeof(Score);
  // Grid lines across the recursion: each level stores (k-1) rows of
  // (cols+1) cells and (k-1) columns of (rows+1); levels shrink by k, so
  // the total is bounded by (k-1)(m+n+2) * k/(k-1) = k*(m+n+2). Scratch and
  // boundaries add ~3*(m+n+2).
  const std::size_t overhead_cells =
      (static_cast<std::size_t>(options.k) + 3) * (m + n + 2);
  const std::size_t overhead_bytes = overhead_cells * cell;
  std::size_t budget_cells = 16;
  if (memory_limit_bytes > overhead_bytes) {
    budget_cells =
        std::max<std::size_t>(16, (memory_limit_bytes - overhead_bytes) / cell);
  }
  // Round down to a power of two for stable, reportable configurations.
  std::size_t buffer = 16;
  while (buffer * 2 <= budget_cells) buffer *= 2;
  options.base_case_cells = buffer;
  return options;
}

Alignment align(const Sequence& a, const Sequence& b,
                const ScoringScheme& scheme, const AlignOptions& options,
                AlignReport* report) {
  FLSA_REQUIRE(&a.alphabet() == &b.alphabet());
  FLSA_REQUIRE(&scheme.alphabet() == &a.alphabet());
  const bool affine = !scheme.is_linear();

  Strategy chosen = options.strategy;
  if (chosen == Strategy::kAuto) {
    chosen = choose_strategy(a.size(), b.size(), affine,
                             options.memory_limit_bytes);
  }

  FastLsaStats stats;
  Alignment result;
  switch (chosen) {
    case Strategy::kFullMatrix:
      result = affine
                   ? full_matrix_align_affine(a, b, scheme, &stats.counters)
                   : full_matrix_align(a, b, scheme, &stats.counters);
      stats.peak_bytes = (a.size() + 1) * (b.size() + 1) *
                         (affine ? sizeof(AffineCell) : sizeof(Score));
      break;
    case Strategy::kHirschberg:
      result = affine ? hirschberg_align_affine(a, b, scheme,
                                                options.hirschberg,
                                                &stats.counters)
                      : hirschberg_align(a, b, scheme, options.hirschberg,
                                         &stats.counters);
      stats.kernel_used = resolve_kernel(options.hirschberg.kernel, scheme);
      break;
    case Strategy::kFastLsa: {
      FastLsaOptions fl = options.fastlsa;
      if (options.memory_limit_bytes != 0) {
        const FastLsaOptions fitted = fit_fastlsa_options(
            a.size(), b.size(), affine, options.memory_limit_bytes, fl.k);
        fl.base_case_cells =
            std::min(fl.base_case_cells, fitted.base_case_cells);
      }
      result = affine ? fastlsa_align_affine(a, b, scheme, fl, &stats)
                      : fastlsa_align(a, b, scheme, fl, &stats);
      break;
    }
    case Strategy::kAuto:
      FLSA_ASSERT(false);
      break;
  }

  if (report) {
    report->chosen = chosen;
    report->stats = stats;
  }
  return result;
}

Aligner::Aligner(AlignOptions options)
    : options_(std::move(options)),
      workspace_(std::make_unique<FastLsaWorkspace>()) {}

Aligner::~Aligner() = default;
Aligner::Aligner(Aligner&&) noexcept = default;
Aligner& Aligner::operator=(Aligner&&) noexcept = default;

Alignment Aligner::align(const Sequence& a, const Sequence& b,
                         const ScoringScheme& scheme, AlignReport* report) {
  AlignOptions options = options_;
  options.fastlsa.workspace = workspace_.get();
  return flsa::align(a, b, scheme, options, report);
}

}  // namespace flsa
