// Affine-gap (Gotoh) dynamic programming.
//
// The paper evaluates linear gap penalties; affine gaps (open + extend) are
// the standard bioinformatics extension and FastLSA generalizes to them by
// caching (D, Ix, Iy) triples on grid lines instead of single scores. This
// module provides the affine counterparts of kernel.hpp / fullmatrix.hpp:
// one score sweep (dispatched in kernel.cpp with the linear one), one
// stored region fill and one traceback, the last two in global or local
// mode. The three lanes are:
//   D  — best score overall,
//   Ix — best score with a[i] at the end of a gap-in-b run (vertical),
//   Iy — best score with b[j] at the end of a gap-in-a run (horizontal).
#pragma once

#include <span>

#include "dp/alignment.hpp"
#include "dp/counters.hpp"
#include "dp/kernel.hpp"
#include "dp/matrix.hpp"
#include "dp/path.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// One DPM entry of the affine recurrence.
struct AffineCell {
  Score d = kNegInf;
  Score ix = kNegInf;
  Score iy = kNegInf;
  bool operator==(const AffineCell&) const = default;
};

/// Which affine lane a traceback currently follows. A path crossing a
/// FastLSA block boundary mid-gap must resume in the same lane.
enum class AffineState : std::uint8_t { kD, kIx, kIy };

/// The one affine score sweep: the affine analogue of
/// sweep_rectangle_linear (dp/kernel.hpp), with AffineCell boundary caches
/// and outputs; `out_bottom` may alias `top`. It runs the global
/// recurrence. `kind` picks the tier (kAuto resolves to the int32 SIMD
/// tier for an affine scheme; the narrow tier has no affine core and runs
/// the int32 SIMD one); all tiers agree bit-for-bit. Adds
/// a.size()*b.size() to counters->cells_scored.
void sweep_rectangle_affine(KernelKind kind, std::span<const Residue> a,
                            std::span<const Residue> b,
                            const ScoringScheme& scheme,
                            std::span<const AffineCell> top,
                            std::span<const AffineCell> left,
                            std::span<AffineCell> out_bottom,
                            std::span<AffineCell> out_right,
                            DpCounters* counters = nullptr);

/// Global-alignment initial boundary for the affine recurrence along a row
/// (horizontal gap run: d = iy = open + i*extend) or a column (vertical).
void init_global_boundary_affine(const ScoringScheme& scheme,
                                 std::span<AffineCell> boundary,
                                 bool horizontal);

/// Affine analogue of fill_full_matrix_linear: copies the boundary caches
/// into `dpm` (resized to (a.size()+1) x (b.size()+1)) and fills the
/// interior with fill_matrix_region_affine<Mode>, which also takes `best`.
template <DpMode Mode = DpMode::kGlobal>
void fill_full_matrix_affine(std::span<const Residue> a,
                             std::span<const Residue> b,
                             const ScoringScheme& scheme,
                             std::span<const AffineCell> top,
                             std::span<const AffineCell> left,
                             Matrix2D<AffineCell>& dpm,
                             DpCounters* counters = nullptr,
                             BestCell* best = nullptr);

/// Affine analogue of fill_matrix_region_linear: fills one region of an
/// already-boundary-initialized affine DPM (tiled base-case unit of work).
/// Local mode floors the D lane at 0 and tracks `best` over the D lane.
template <DpMode Mode = DpMode::kGlobal>
void fill_matrix_region_affine(std::span<const Residue> a,
                               std::span<const Residue> b,
                               const ScoringScheme& scheme,
                               Matrix2D<AffineCell>& dpm, std::size_t row0,
                               std::size_t col0, std::size_t rows,
                               std::size_t cols, BestCell* best = nullptr);

/// Affine traceback through a filled rectangle starting at
/// (start_row, start_col) in lane `state`; stops at the top row or left
/// column — or, in local mode, in lane D at a cell whose D value is 0 —
/// and returns the lane the path was in when it stopped (so FastLSA can
/// resume a gap run in the next block). Deterministic tie-breaking:
/// lane D prefers diagonal, then Ix, then Iy; gap lanes prefer closing the
/// gap (returning to D) over extending it.
template <DpMode Mode = DpMode::kGlobal>
AffineState traceback_rectangle_affine(std::span<const Residue> a,
                                       std::span<const Residue> b,
                                       const ScoringScheme& scheme,
                                       const Matrix2D<AffineCell>& dpm,
                                       std::size_t start_row,
                                       std::size_t start_col,
                                       AffineState state, Path& path,
                                       DpCounters* counters = nullptr);

/// Full-matrix global alignment with affine gaps (the affine FM baseline).
Alignment full_matrix_align_affine(const Sequence& a, const Sequence& b,
                                   const ScoringScheme& scheme,
                                   DpCounters* counters = nullptr);

/// Optimal affine global score in linear space.
Score global_score_affine(std::span<const Residue> a,
                          std::span<const Residue> b,
                          const ScoringScheme& scheme,
                          DpCounters* counters = nullptr);

}  // namespace flsa
