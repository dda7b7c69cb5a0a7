// Top-level alignment API with the paper's memory-adaptive strategy
// selection: "If RM > m x n, then a full matrix algorithm can be used ...
// [otherwise] FastLSA adapts to the amount of space available."
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/fastlsa.hpp"
#include "dp/alignment.hpp"
#include "hirschberg/hirschberg.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// Which algorithm aligns the pair.
enum class Strategy : std::uint8_t {
  kAuto,        ///< pick by memory_limit_bytes (FM if the DPM fits, else FastLSA)
  kFullMatrix,  ///< Needleman-Wunsch / Gotoh storing the whole DPM
  kHirschberg,  ///< linear-space divide and conquer
  kFastLsa,     ///< the paper's algorithm
};

const char* to_string(Strategy s);

/// Options of the top-level align() call.
struct AlignOptions {
  Strategy strategy = Strategy::kAuto;

  /// The paper's RM: memory the aligner may use for DPM state, in bytes.
  /// 0 means "unbounded" (kAuto then always picks the full matrix).
  std::size_t memory_limit_bytes = 0;

  /// FastLSA tuning; base_case_cells is treated as a maximum — kAuto
  /// shrinks it to fit memory_limit_bytes when one is set.
  FastLsaOptions fastlsa;

  /// Hirschberg tuning (only used when strategy == kHirschberg).
  HirschbergOptions hirschberg;
};

/// Outcome metadata accompanying an alignment.
struct AlignReport {
  Strategy chosen = Strategy::kAuto;
  FastLsaStats stats;  ///< counters filled for every strategy
};

/// Aligns `a` and `b` globally under `scheme`. Linear schemes run the
/// linear-gap kernels; affine schemes the Gotoh/affine-FastLSA ones
/// (Hirschberg uses the Myers-Miller affine variant).
/// The two sequences must share an alphabet.
Alignment align(const Sequence& a, const Sequence& b,
                const ScoringScheme& scheme, const AlignOptions& options = {},
                AlignReport* report = nullptr);

/// Reusable aligner: identical results to the free align(), but owns a
/// FastLsaWorkspace (core/arena.hpp) that persists across calls, so every
/// FastLSA buffer — grid/line caches, base-case matrix, per-worker
/// scratch, path storage — is recycled instead of re-allocated. After the
/// first (warm-up) call, steady-state align() calls perform no engine
/// heap allocations (only the returned Alignment allocates).
///
/// Not thread-safe: use one Aligner per aligning thread (each service
/// worker does exactly that). Movable, not copyable.
class Aligner {
 public:
  explicit Aligner(AlignOptions options = {});
  ~Aligner();
  Aligner(Aligner&&) noexcept;
  Aligner& operator=(Aligner&&) noexcept;

  /// Same contract as the free align(), drawing scratch from workspace().
  Alignment align(const Sequence& a, const Sequence& b,
                  const ScoringScheme& scheme,
                  AlignReport* report = nullptr);

  const AlignOptions& options() const { return options_; }
  FastLsaWorkspace& workspace() { return *workspace_; }

 private:
  AlignOptions options_;
  std::unique_ptr<FastLsaWorkspace> workspace_;
};

/// The strategy kAuto would choose for this problem size and limit.
Strategy choose_strategy(std::size_t m, std::size_t n, bool affine,
                         std::size_t memory_limit_bytes);

/// FastLSA options fitted to a memory limit: picks the largest base-case
/// buffer (power of two, >= 16 cells) such that buffer + grid lines fit in
/// memory_limit_bytes for an m x n problem with the given k.
FastLsaOptions fit_fastlsa_options(std::size_t m, std::size_t n, bool affine,
                                   std::size_t memory_limit_bytes,
                                   unsigned k = 8);

}  // namespace flsa
