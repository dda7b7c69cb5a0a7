// Vectorized anti-diagonal DP sweep kernels.
//
// The scalar row sweep (dp/kernel.cpp) is latency-bound: every cell waits
// on its left neighbour through the `row[c-1]` dependence. Walking the DPM
// by anti-diagonals removes all intra-step dependences — every cell of a
// diagonal depends only on the two previous diagonals — so one SIMD lane
// can own one cell of the diagonal and the whole diagonal advances per
// instruction group. Substitution scores enter
// the lanes through a gathered lookup into the substitution matrix.
//
// Implementations: AVX2 (8 lanes) and SSE4.1 (4 lanes) on x86, selected at
// *runtime* via CPU feature detection; everywhere else (and on pre-SSE4.1
// CPUs) the functions degrade to a scalar anti-diagonal sweep. All paths
// produce bit-identical boundary rows/columns, counters and (therefore)
// scores and alignments to the scalar kernels — DP values over max/add on
// exact integers do not depend on evaluation order.
//
// Callers normally go through the KernelKind dispatch layer in
// dp/kernel.hpp / dp/gotoh.hpp rather than calling these directly.
#pragma once

#include <span>

#include "dp/counters.hpp"
#include "dp/gotoh.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// True when the running CPU has a vector ISA the SIMD kernels use
/// (SSE4.1 or better on x86). When false, the *_simd entry points still
/// work — they run the scalar anti-diagonal fallback.
bool simd_kernel_available();

/// The instruction set the vector kernels (int32 anti-diagonal here, the
/// narrow saturating tiers in dp/kernel_narrow.hpp) dispatch on at runtime.
enum class SimdIsa : std::uint8_t { kScalar, kSse41, kAvx2 };

/// Detected once per process; kScalar off-x86 or on pre-SSE4.1 CPUs.
SimdIsa active_simd_isa();

/// Name of the instruction set the SIMD kernels will run with:
/// "avx2", "sse4.1", or "scalar" (fallback).
const char* simd_kernel_isa();

/// Drop-in replacement for sweep_rectangle_linear (same boundary layout,
/// same aliasing guarantee for out_bottom/top, same counter accounting).
void sweep_rectangle_linear_simd(std::span<const Residue> a,
                                 std::span<const Residue> b,
                                 const ScoringScheme& scheme,
                                 std::span<const Score> top,
                                 std::span<const Score> left,
                                 std::span<Score> out_bottom,
                                 std::span<Score> out_right,
                                 DpCounters* counters = nullptr);

/// Drop-in replacement for sweep_rectangle_affine.
void sweep_rectangle_affine_simd(std::span<const Residue> a,
                                 std::span<const Residue> b,
                                 const ScoringScheme& scheme,
                                 std::span<const AffineCell> top,
                                 std::span<const AffineCell> left,
                                 std::span<AffineCell> out_bottom,
                                 std::span<AffineCell> out_right,
                                 DpCounters* counters = nullptr);

}  // namespace flsa
