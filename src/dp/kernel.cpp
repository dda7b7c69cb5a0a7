#include "dp/kernel.hpp"

#include <algorithm>
#include <vector>

#include "dp/kernel_narrow.hpp"
#include "dp/kernel_simd.hpp"
#include "dp/recurrence.hpp"
#include "support/assert.hpp"

namespace flsa {

namespace {

// The single source of truth for kernel names: to_string,
// parse_kernel_kind and the CLI enumeration all walk this table.
constexpr KernelInfo kKernelRegistry[] = {
    {KernelKind::kAuto, "auto",
     "int16 for a linear scheme that fits its lanes, else simd (default)"},
    {KernelKind::kScalar, "scalar", "reference row sweep"},
    {KernelKind::kSimd, "simd",
     "int32 anti-diagonal vector sweep (scalar fallback off-x86)"},
    {KernelKind::kInt16, "int16",
     "saturating 16-bit lanes, escalates int16->int32 per tile; auto's pick "
     "for linear schemes"},
};

/// Scalar reference core of sweep_rectangle_linear: a row sweep whose
/// cells come from linear_cell<Mode>. With kTrackBest it writes the
/// rectangle's BestCell to *best, visiting the cells in row-major order.
template <DpMode Mode, bool kTrackBest>
void scalar_sweep_linear(std::span<const Residue> a,
                         std::span<const Residue> b,
                         const ScoringScheme& scheme,
                         std::span<const Score> top,
                         std::span<const Score> left,
                         std::span<Score> out_bottom,
                         std::span<Score> out_right, BestCell* best) {
  const std::size_t rows = a.size();
  const std::size_t cols = b.size();
  FLSA_REQUIRE(scheme.is_linear());
  FLSA_REQUIRE(top.size() == cols + 1);
  FLSA_REQUIRE(left.size() == rows + 1);
  FLSA_REQUIRE(top[0] == left[0]);
  FLSA_REQUIRE(out_bottom.size() == cols + 1);
  FLSA_REQUIRE(out_right.empty() || out_right.size() == rows + 1);

  const Score gap = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();

  // Row buffer; starts as the top boundary and is propagated downward.
  // out_bottom may alias top, so copy through it directly.
  if (out_bottom.data() != top.data()) {
    std::copy(top.begin(), top.end(), out_bottom.begin());
  }
  Score* row = out_bottom.data();
  if (!out_right.empty()) out_right[0] = row[cols];
  BestCell found{row[0], 0, 0};
  auto note = [&](Score value, std::size_t r, std::size_t c) {
    if constexpr (kTrackBest) {
      if (value > found.score) found = BestCell{value, r, c};
    }
  };
  for (std::size_t c = 1; c <= cols; ++c) note(row[c], 0, c);

  for (std::size_t r = 1; r <= rows; ++r) {
    Score diag = row[0];  // DPM value up-left of the first interior cell
    row[0] = left[r];
    note(row[0], r, 0);
    const Residue ar = a[r - 1];
    for (std::size_t c = 1; c <= cols; ++c) {
      const Score up = row[c];
      const Score value =
          linear_cell<Mode>(diag, up, row[c - 1], sub.at(ar, b[c - 1]), gap);
      diag = up;
      row[c] = value;
      note(value, r, c);
    }
    if (!out_right.empty()) out_right[r] = row[cols];
  }
  if constexpr (kTrackBest) *best = found;
}

/// Scalar reference core of sweep_rectangle_affine.
void scalar_sweep_affine(std::span<const Residue> a,
                         std::span<const Residue> b,
                         const ScoringScheme& scheme,
                         std::span<const AffineCell> top,
                         std::span<const AffineCell> left,
                         std::span<AffineCell> out_bottom,
                         std::span<AffineCell> out_right) {
  const std::size_t rows = a.size();
  const std::size_t cols = b.size();
  FLSA_REQUIRE(top.size() == cols + 1);
  FLSA_REQUIRE(left.size() == rows + 1);
  FLSA_REQUIRE(top[0] == left[0]);
  FLSA_REQUIRE(out_bottom.size() == cols + 1);
  FLSA_REQUIRE(out_right.empty() || out_right.size() == rows + 1);

  const Score open = scheme.gap_open();
  const Score ext = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();

  if (out_bottom.data() != top.data()) {
    std::copy(top.begin(), top.end(), out_bottom.begin());
  }
  AffineCell* row = out_bottom.data();
  if (!out_right.empty()) out_right[0] = row[cols];

  for (std::size_t r = 1; r <= rows; ++r) {
    AffineCell diag = row[0];
    row[0] = left[r];
    const Residue ar = a[r - 1];
    for (std::size_t c = 1; c <= cols; ++c) {
      const AffineCell up = row[c];
      const AffineCell cell = affine_cell<DpMode::kGlobal>(
          diag, up, row[c - 1], sub.at(ar, b[c - 1]), open, ext);
      diag = up;
      row[c] = cell;
    }
    if (!out_right.empty()) out_right[r] = row[cols];
  }
}

void count_cells(DpCounters* counters, std::size_t rows, std::size_t cols) {
  if (counters) {
    counters->cells_scored += static_cast<std::uint64_t>(rows) * cols;
  }
}

}  // namespace

std::span<const KernelInfo> kernel_registry() { return kKernelRegistry; }

KernelKind resolve_kernel(KernelKind requested, const ScoringScheme& scheme) {
  if (requested != KernelKind::kAuto) return requested;
  if (!simd_kernel_available()) return KernelKind::kScalar;
  return narrow_tier_admits(scheme) ? KernelKind::kInt16 : KernelKind::kSimd;
}

const char* to_string(KernelKind kind) {
  for (const KernelInfo& info : kernel_registry()) {
    if (info.kind == kind) return info.name;
  }
  return "?";
}

bool parse_kernel_kind(std::string_view text, KernelKind* out) {
  FLSA_REQUIRE(out != nullptr);
  for (const KernelInfo& info : kernel_registry()) {
    if (text == info.name) {
      *out = info.kind;
      return true;
    }
  }
  return false;
}

void sweep_rectangle_linear(KernelKind kind, std::span<const Residue> a,
                            std::span<const Residue> b,
                            const ScoringScheme& scheme,
                            std::span<const Score> top,
                            std::span<const Score> left,
                            std::span<Score> out_bottom,
                            std::span<Score> out_right,
                            DpCounters* counters, DpMode mode,
                            BestCell* best) {
  // The vector tiers run the global recurrence and publish only the
  // boundary lines; everything else is the scalar core's.
  if (mode == DpMode::kGlobal && best == nullptr) {
    switch (resolve_kernel(kind, scheme)) {
      case KernelKind::kSimd:
        sweep_rectangle_linear_simd(a, b, scheme, top, left, out_bottom,
                                    out_right, counters);
        return;
      case KernelKind::kInt16:
        sweep_rectangle_linear_narrow(a, b, scheme, top, left, out_bottom,
                                      out_right, counters);
        return;
      default:
        break;
    }
  }
  // One scalar core per mode and per best-cell request, so the plain
  // global sweep carries no tracking.
  using ScalarCore = decltype(&scalar_sweep_linear<DpMode::kGlobal, false>);
  constexpr ScalarCore kCores[2][2] = {
      {scalar_sweep_linear<DpMode::kGlobal, false>,
       scalar_sweep_linear<DpMode::kGlobal, true>},
      {scalar_sweep_linear<DpMode::kLocal, false>,
       scalar_sweep_linear<DpMode::kLocal, true>}};
  kCores[mode == DpMode::kLocal][best != nullptr](
      a, b, scheme, top, left, out_bottom, out_right, best);
  count_cells(counters, a.size(), b.size());
}

void sweep_rectangle_affine(KernelKind kind, std::span<const Residue> a,
                            std::span<const Residue> b,
                            const ScoringScheme& scheme,
                            std::span<const AffineCell> top,
                            std::span<const AffineCell> left,
                            std::span<AffineCell> out_bottom,
                            std::span<AffineCell> out_right,
                            DpCounters* counters) {
  // The narrow tier has no affine core (three interdependent saturating
  // matrices triple the rail-tracking work for little win); affine sweeps
  // run the int32 SIMD kernel under any narrow request.
  switch (resolve_kernel(kind, scheme)) {
    case KernelKind::kSimd:
    case KernelKind::kInt16:
      sweep_rectangle_affine_simd(a, b, scheme, top, left, out_bottom,
                                  out_right, counters);
      return;
    default:
      scalar_sweep_affine(a, b, scheme, top, left, out_bottom, out_right);
      count_cells(counters, a.size(), b.size());
      return;
  }
}

void init_global_boundary_linear(const ScoringScheme& scheme,
                                 std::span<Score> boundary) {
  FLSA_REQUIRE(scheme.is_linear());
  const Score gap = scheme.gap_extend();
  Score value = 0;
  for (Score& slot : boundary) {
    slot = value;
    value += gap;
  }
}

std::vector<Score> last_row_linear(KernelKind kind,
                                   std::span<const Residue> a,
                                   std::span<const Residue> b,
                                   const ScoringScheme& scheme,
                                   DpCounters* counters) {
  std::vector<Score> row(b.size() + 1);
  std::vector<Score> left(a.size() + 1);
  init_global_boundary_linear(scheme, row);
  init_global_boundary_linear(scheme, left);
  sweep_rectangle_linear(kind, a, b, scheme, row, left, row, {}, counters);
  return row;
}

Score global_score_linear(KernelKind kind, std::span<const Residue> a,
                          std::span<const Residue> b,
                          const ScoringScheme& scheme,
                          DpCounters* counters) {
  return last_row_linear(kind, a, b, scheme, counters).back();
}

}  // namespace flsa
