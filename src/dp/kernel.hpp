// Score-only DP sweeps over a rectangle with explicit boundary caches.
//
// This is the workhorse of every score pass in the library: Hirschberg's
// LastRow, FastLSA's FindScore and Fill Grid Cache (each tile is one
// call), and the local, fitting and overlap score passes. Given the DPM
// values on a rectangle's top row and left column, one call computes the
// values on its bottom row and right column in O(cols) space without
// storing the interior. There is one call per gap model —
// sweep_rectangle_linear here, sweep_rectangle_affine in dp/gotoh.hpp —
// and it takes the KernelKind. kernel.cpp holds the one dispatcher for
// both and their scalar reference cores.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "dp/counters.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// Which sweep implementation a score-only rectangle is computed with.
/// The scalar row sweep is the reference; the SIMD kernel walks the DPM by
/// anti-diagonals (dp/kernel_simd.hpp); the narrow tier sweeps saturating
/// int16 lanes and transparently rescores any tile that saturates in int32
/// (dp/kernel_narrow.hpp). Every kernel produces bit-identical boundary
/// rows/columns and scores.
enum class KernelKind : std::uint8_t {
  kAuto,    ///< pick the fastest kernel for this CPU and scheme
  kScalar,  ///< the reference row sweep
  kSimd,    ///< vectorized int32 anti-diagonal sweep (scalar off-x86)
  kInt16,   ///< saturating 16-bit lanes, escalating int16 -> int32
};

/// One row of the kernel dispatch table.
struct KernelInfo {
  KernelKind kind;
  const char* name;     ///< the CLI spelling ("auto", "scalar", ...)
  const char* summary;  ///< one-line description for --list-kernels/help
};

/// The kernel dispatch table: every registered KernelKind with its name
/// and summary, in declaration order. to_string/parse_kernel_kind and the
/// CLI's --kernel help are all generated from this single table, so a new
/// kernel registered here is automatically parseable and listed.
std::span<const KernelInfo> kernel_registry();

/// Resolves kAuto for `scheme` against the runtime CPU: off a vector ISA,
/// kScalar; otherwise kInt16 when the narrow tier's whole-call gate admits
/// the scheme (narrow_tier_admits in dp/kernel_narrow.hpp: linear gaps,
/// every score and the gap inside int16), else kSimd. Everything else
/// passes through unchanged (every kind is safe everywhere: kSimd degrades
/// to a scalar anti-diagonal sweep off-x86, and the narrow tier escalates
/// through it). The result is the tier the sweeps run, so FastLsaStats's
/// kernel_used reports it.
KernelKind resolve_kernel(KernelKind requested, const ScoringScheme& scheme);

/// The registry name: "auto" | "scalar" | "simd" | "int16".
const char* to_string(KernelKind kind);

/// Parses any name in kernel_registry() (returns false on anything else).
bool parse_kernel_kind(std::string_view text, KernelKind* out);

/// How a sweep, stored fill or traceback treats the recurrence.
enum class DpMode : std::uint8_t {
  kGlobal,  ///< the plain recurrence (global, fitting and overlap modes)
  kLocal,   ///< Smith-Waterman: every interior cell is floored at 0
};

/// The maximum entry of a rectangle's DPM, top row and left column
/// included. Ties go to the smallest cell in row-major order, so the
/// result is deterministic.
struct BestCell {
  Score score = 0;
  std::size_t row = 0;  ///< DPM row: the cell ends a[0..row)
  std::size_t col = 0;  ///< DPM column: the cell ends b[0..col)
};

/// The one linear-gap score sweep: computes the rectangle spanned by
/// residues `a` (rows) x `b` (columns) in O(cols) space.
///
/// Boundary layout: `top` has b.size()+1 entries (the DPM row above the
/// rectangle, including the shared corner), `left` has a.size()+1 entries
/// (the DPM column left of the rectangle, including the same corner);
/// top[0] must equal left[0].
///
/// Outputs: `out_bottom` (b.size()+1 entries, the rectangle's last row
/// including its left boundary value left[a.size()]) and `out_right`
/// (a.size()+1 entries, the last column including top[b.size()]).
/// `out_right` may be empty when only the bottom row is needed (Hirschberg).
/// `out_bottom` may alias `top` (in-place row propagation). When `best` is
/// non-null it receives the rectangle's BestCell.
///
/// `kind` picks the tier (kAuto resolves per scheme and CPU, see
/// resolve_kernel); all tiers agree bit-for-bit. The vector tiers run the
/// global recurrence only: a local `mode` or a `best` request runs the
/// scalar core whatever `kind` says.
/// Adds a.size()*b.size() to counters->cells_scored when counters != null.
void sweep_rectangle_linear(KernelKind kind, std::span<const Residue> a,
                            std::span<const Residue> b,
                            const ScoringScheme& scheme,
                            std::span<const Score> top,
                            std::span<const Score> left,
                            std::span<Score> out_bottom,
                            std::span<Score> out_right,
                            DpCounters* counters = nullptr,
                            DpMode mode = DpMode::kGlobal,
                            BestCell* best = nullptr);

/// Fills `boundary` (size len+1) with the global-alignment initial boundary
/// 0, g, 2g, ... for a linear scheme (the leading-gap row/column of the DPM).
void init_global_boundary_linear(const ScoringScheme& scheme,
                                 std::span<Score> boundary);

/// Last row of the global-alignment DPM of `a` x `b` (Hirschberg's
/// LastRow), swept with `kind`. Returns b.size()+1 scores.
std::vector<Score> last_row_linear(KernelKind kind,
                                   std::span<const Residue> a,
                                   std::span<const Residue> b,
                                   const ScoringScheme& scheme,
                                   DpCounters* counters = nullptr);

/// Optimal global alignment *score* of `a` x `b` in linear space, swept
/// with `kind`.
Score global_score_linear(KernelKind kind, std::span<const Residue> a,
                          std::span<const Residue> b,
                          const ScoringScheme& scheme,
                          DpCounters* counters = nullptr);

}  // namespace flsa
