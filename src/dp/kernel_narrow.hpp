// Narrow-integer (int16) saturating sweep kernel with overflow
// escalation.
//
// The int32 SIMD kernel (dp/kernel_simd.hpp) moves 8 lanes per AVX2
// vector; 16-bit lanes double that — *if* the DP values fit. They usually
// do not fit globally (a global DPM's values span the whole alignment's
// score range), so the narrow kernel works on bounded tiles in a
// *relative* domain:
//
//   1. A rectangle larger than the tile extent (1024) is internally cut
//      into tiles of at most that many cells per dimension, with exact
//      int32 boundary lines carried between them.
//   2. Each tile subtracts the maximum of its boundary values (the offset)
//      and sweeps entirely in the narrow type with saturating arithmetic.
//   3. Every input is pre-checked to be exactly representable; then every
//      stored narrow value equals clamp(true value), and a stored value
//      that equals a saturation rail is a sound and complete overflow
//      signal (the clamp-algebra argument is in kernel_narrow_lanes.inc).
//      A railed tile is aborted and transparently rescored in int32, so
//      the final boundary lines are always bit-identical to the scalar
//      int32 reference.
//
// Escalations are counted in DpCounters::kernel_escalations (and the
// "kernel.escalations" obs metric): one per int16 -> int32 step, whether
// the step was a per-tile saturation abort or a whole-call
// representability rejection (scheme magnitude or gap out of range).
//
// The escalation decision is deterministic across hosts: the scalar core
// (the off-x86 fallback) stores the same clamped values and aborts on the
// same rows as the SIMD cores, and the representability checks use fixed
// constants rather than the active ISA's lane count.
#pragma once

#include <span>

#include "dp/counters.hpp"
#include "dp/kernel.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// The narrow tier's whole-call gate as one predicate: true when the
/// scheme is linear, its gap and every scan/carry addend the cores form
/// (16 * |gap|, a fixed lane count so the answer is the same on every
/// host) are exactly representable in int16, and every substitution score
/// lies strictly inside the int16 rails. A scheme it admits never takes a
/// whole-call escalation; kAuto picks the narrow tier exactly for these
/// schemes (resolve_kernel in dp/kernel.hpp).
bool narrow_tier_admits(const ScoringScheme& scheme);

/// Drop-in replacement for sweep_rectangle_linear (same boundary layout,
/// same aliasing guarantee for out_bottom/top, same cells_scored
/// accounting) running the int16 tier with escalation. Never fails: tiles
/// that saturate are rescored in int32.
void sweep_rectangle_linear_narrow(std::span<const Residue> a,
                                   std::span<const Residue> b,
                                   const ScoringScheme& scheme,
                                   std::span<const Score> top,
                                   std::span<const Score> left,
                                   std::span<Score> out_bottom,
                                   std::span<Score> out_right,
                                   DpCounters* counters = nullptr);

}  // namespace flsa
