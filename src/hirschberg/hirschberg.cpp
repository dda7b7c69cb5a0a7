#include "hirschberg/hirschberg.hpp"

#include <algorithm>
#include <vector>

#include "dp/fullmatrix.hpp"
#include "dp/kernel.hpp"
#include "dp/matrix.hpp"
#include "dp/path.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace flsa {

namespace {

std::vector<Residue> reversed_copy(std::span<const Residue> s) {
  return std::vector<Residue>(s.rbegin(), s.rend());
}

/// Appends the forward moves of the optimal alignment of `a` x `b`
/// (a self-contained global sub-problem) to `out`.
void recurse(std::span<const Residue> a, std::span<const Residue> b,
             const ScoringScheme& scheme, const HirschbergOptions& options,
             std::vector<Move>& out, DpCounters* counters) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  if (m == 0) {
    out.insert(out.end(), n, Move::kLeft);
    return;
  }
  if (n == 0) {
    out.insert(out.end(), m, Move::kUp);
    return;
  }
  if (m <= 2 || n <= 2 || m * n <= std::max<std::size_t>(options.base_case_cells, 2)) {
    // Full-matrix base case, as the paper suggests for small sub-problems.
    std::vector<Score> top(n + 1);
    std::vector<Score> left(m + 1);
    init_global_boundary_linear(scheme, top);
    init_global_boundary_linear(scheme, left);
    Matrix2D<Score> dpm;
    fill_full_matrix_linear(a, b, scheme, top, left, dpm, counters);
    Path path(Cell{m, n});
    traceback_rectangle_linear(a, b, scheme, dpm, m, n, path, counters);
    extend_path_to_origin(path);
    const std::vector<Move> forward = path.forward_moves();
    out.insert(out.end(), forward.begin(), forward.end());
    return;
  }

  // Split `a` at its midpoint; align the top half forwards and the bottom
  // half backwards against `b`, then find the column where the two meet
  // with maximal total score.
  const std::size_t mid = m / 2;
  const std::vector<Score> fwd =
      last_row_linear(options.kernel, a.subspan(0, mid), b, scheme, counters);
  const std::vector<Residue> bottom_rev = reversed_copy(a.subspan(mid));
  const std::vector<Residue> b_rev = reversed_copy(b);
  const std::vector<Score> bwd =
      last_row_linear(options.kernel, bottom_rev, b_rev, scheme, counters);

  std::size_t best_j = 0;
  Score best = kNegInf;
  for (std::size_t j = 0; j <= n; ++j) {
    const Score total = fwd[j] + bwd[n - j];
    if (total > best) {
      best = total;
      best_j = j;
    }
  }

  recurse(a.subspan(0, mid), b.subspan(0, best_j), scheme, options, out,
          counters);
  recurse(a.subspan(mid), b.subspan(best_j), scheme, options, out, counters);
}

}  // namespace

Alignment hirschberg_align(const Sequence& a, const Sequence& b,
                           const ScoringScheme& scheme,
                           const HirschbergOptions& options,
                           DpCounters* counters) {
  FLSA_REQUIRE(scheme.is_linear());
  // Count into a local when the caller does not ask for counters, so the
  // phase timer can still report cells and throughput.
  DpCounters local_counters;
  if (counters == nullptr) counters = &local_counters;
  FLSA_OBS_PHASE(obs_phase, obs::Phase::kHirschberg);
  [[maybe_unused]] const std::uint64_t cells_before =
      counters->total_cells();
  // Resolve kAuto once, not on every LastRow pass of the recursion.
  HirschbergOptions resolved = options;
  resolved.kernel = resolve_kernel(options.kernel, scheme);
  std::vector<Move> forward;
  forward.reserve(a.size() + b.size());
  recurse(a.residues(), b.residues(), scheme, resolved, forward, counters);
  FLSA_OBS_PHASE_CELLS(obs_phase, counters->total_cells() - cells_before);

  // Re-anchor the forward moves as a Path to reuse the shared validation
  // and alignment construction.
  Path path(Cell{a.size(), b.size()});
  for (auto it = forward.rbegin(); it != forward.rend(); ++it) {
    path.push_traceback(*it);
  }
  FLSA_REQUIRE(path.reaches_origin());
  return alignment_from_path(a, b, path, scheme);
}

}  // namespace flsa
