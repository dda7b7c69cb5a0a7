#include "dp/kernel_narrow.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "dp/kernel_simd.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define FLSA_NARROW_X86 1
#include <immintrin.h>
#else
#define FLSA_NARROW_X86 0
#endif

namespace flsa {
namespace {

/// Row buffers and profile rows are padded by this much so vector loops
/// may overshoot: the AVX2 band core's skewed 16-wide block loads reach
/// up to 2 * 16 - 2 elements past a row's last column.
constexpr std::size_t kNarrowPad = 32;

using Lane = std::int16_t;
constexpr int kLaneLo = std::numeric_limits<Lane>::min();
constexpr int kLaneHi = std::numeric_limits<Lane>::max();
/// Fixed constant for the scan-addend representability check (the AVX2
/// lane count — the widest the scan may multiply gap by). Deliberately
/// *not* the active ISA's width: the escalation decision must be
/// identical on every host.
constexpr int kScanLanes = 16;
/// Internal tile extent (per dimension) large rectangles are cut into.
/// Sized so realistic schemes keep a tile's relative score span inside
/// the int16 range (docs/tuning.md).
constexpr std::size_t kTileExtent = 1024;

// ---- Scalar reference core (and off-x86 fallback). -----------------------
//
// Stores exactly the values the SIMD cores store (the clamp algebra in
// kernel_narrow_lanes.inc makes the per-cell recurrence below equal to the
// scan form) and aborts on the same rows, so escalation counts do not
// depend on the host's vector ISA.

bool narrow_core_scalar(std::size_t rows, std::size_t cols, Lane gap,
                        const Lane* prof, std::size_t stride,
                        const Residue* arow, const Lane* left_rel,
                        Lane* row0, Lane* /*row1*/, Lane* right_col) {
  auto sat = [](int v) {
    return v < kLaneLo ? kLaneLo : (v > kLaneHi ? kLaneHi : v);
  };
  Lane* row = row0;  // in-place row propagation
  right_col[0] = row[cols];
  for (std::size_t r = 1; r <= rows; ++r) {
    const Lane* pr = prof + static_cast<std::size_t>(arow[r - 1]) * stride;
    int diag = row[0];
    row[0] = left_rel[r];
    int left = row[0];
    bool railed = false;
    for (std::size_t c = 1; c <= cols; ++c) {
      const int up = row[c];
      const int best = std::max(sat(diag + pr[c - 1]),
                                std::max(sat(up + gap), sat(left + gap)));
      railed = railed || best == kLaneLo || best == kLaneHi;
      diag = up;
      left = best;
      row[c] = static_cast<Lane>(best);
    }
    if (railed) return false;
    right_col[r] = row[cols];
  }
  return true;
}

// ---- SIMD cores, stamped per ISA. ----------------------------------------

#if FLSA_NARROW_X86

template <int kBytes>
__attribute__((target("avx2"))) inline __m256i avx2_shiftin_bytes(
    __m256i v, __m256i fill) {
  // Whole-register left-shift by kBytes (<= 16), vacated bytes taken from
  // `fill`: _mm256_slli_si256 shifts the two 128-bit halves independently,
  // so the cross-half bytes are routed through [fill.low | v.low].
  const __m256i lo = _mm256_permute2x128_si256(v, fill, 0x02);
  if constexpr (kBytes == 16) {
    return lo;
  } else {
    return _mm256_alignr_epi8(v, lo, 16 - kBytes);
  }
}

template <int kBytes>
__attribute__((target("sse4.1"))) inline __m128i sse41_shiftin_bytes(
    __m128i v, __m128i fill) {
  return _mm_alignr_epi8(v, fill, 16 - kBytes);
}

// Broadcast of the highest lane to every lane, staying in the vector
// domain (the alternative — extract to a scalar register and set1 back —
// roughly doubles the loop-carried latency of the row's carry chain).
__attribute__((target("avx2"))) inline __m256i avx2_bcast_last_epi16(
    __m256i v) {
  // Every qword := qword 3 (holding lanes 12..15), then every 16-bit
  // element := bytes 6..7 of its 128-bit half = original lane 15.
  const __m256i q = _mm256_permute4x64_epi64(v, 0xFF);
  return _mm256_shuffle_epi8(q, _mm256_set1_epi16(0x0706));
}

__attribute__((target("sse4.1"))) inline __m128i sse41_bcast_last_epi16(
    __m128i v) {
  return _mm_shuffle_epi8(v, _mm_set1_epi16(0x0F0E));
}

// AVX2, 16 lanes of int16.
#define FLSA_NNS avx2_i16
#define FLSA_NFN __attribute__((target("avx2")))
#define FLSA_NELEM std::int16_t
#define FLSA_NW 16
#define FLSA_NVEC __m256i
#define FLSA_NLOADU(p) \
  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))
#define FLSA_NSTOREU(p, v) \
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), (v))
#define FLSA_NSET1(x) _mm256_set1_epi16((x))
#define FLSA_NADDS(a, b) _mm256_adds_epi16((a), (b))
#define FLSA_NMAX(a, b) _mm256_max_epi16((a), (b))
#define FLSA_NMIN(a, b) _mm256_min_epi16((a), (b))
#define FLSA_NOR(a, b) _mm256_or_si256((a), (b))
#define FLSA_NAND(a, b) _mm256_and_si256((a), (b))
#define FLSA_NCMPEQ(a, b) _mm256_cmpeq_epi16((a), (b))
#define FLSA_NCMPGT(a, b) _mm256_cmpgt_epi16((a), (b))
#define FLSA_NMOVEMASK(v) _mm256_movemask_epi8((v))
#define FLSA_NZERO() _mm256_setzero_si256()
#define FLSA_NSHIFTIN(v, m) avx2_shiftin_bytes<(m) * 2>((v), vlo)
#define FLSA_NBCAST(v) avx2_bcast_last_epi16((v))
#include "dp/kernel_narrow_lanes.inc"
#undef FLSA_NNS
#undef FLSA_NFN
#undef FLSA_NELEM
#undef FLSA_NW
#undef FLSA_NVEC
#undef FLSA_NLOADU
#undef FLSA_NSTOREU
#undef FLSA_NSET1
#undef FLSA_NADDS
#undef FLSA_NMAX
#undef FLSA_NMIN
#undef FLSA_NOR
#undef FLSA_NAND
#undef FLSA_NCMPEQ
#undef FLSA_NCMPGT
#undef FLSA_NMOVEMASK
#undef FLSA_NZERO
#undef FLSA_NSHIFTIN
#undef FLSA_NBCAST

// SSE4.1, 8 lanes of int16.
#define FLSA_NNS sse41_i16
#define FLSA_NFN __attribute__((target("sse4.1")))
#define FLSA_NELEM std::int16_t
#define FLSA_NW 8
#define FLSA_NVEC __m128i
#define FLSA_NLOADU(p) _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))
#define FLSA_NSTOREU(p, v) \
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), (v))
#define FLSA_NSET1(x) _mm_set1_epi16((x))
#define FLSA_NADDS(a, b) _mm_adds_epi16((a), (b))
#define FLSA_NMAX(a, b) _mm_max_epi16((a), (b))
#define FLSA_NMIN(a, b) _mm_min_epi16((a), (b))
#define FLSA_NOR(a, b) _mm_or_si128((a), (b))
#define FLSA_NAND(a, b) _mm_and_si128((a), (b))
#define FLSA_NCMPEQ(a, b) _mm_cmpeq_epi16((a), (b))
#define FLSA_NCMPGT(a, b) _mm_cmpgt_epi16((a), (b))
#define FLSA_NMOVEMASK(v) _mm_movemask_epi8((v))
#define FLSA_NZERO() _mm_setzero_si128()
#define FLSA_NSHIFTIN(v, m) sse41_shiftin_bytes<(m) * 2>((v), vlo)
#define FLSA_NBCAST(v) sse41_bcast_last_epi16((v))
#include "dp/kernel_narrow_lanes.inc"
#undef FLSA_NNS
#undef FLSA_NFN
#undef FLSA_NELEM
#undef FLSA_NW
#undef FLSA_NVEC
#undef FLSA_NLOADU
#undef FLSA_NSTOREU
#undef FLSA_NSET1
#undef FLSA_NADDS
#undef FLSA_NMAX
#undef FLSA_NMIN
#undef FLSA_NOR
#undef FLSA_NAND
#undef FLSA_NCMPEQ
#undef FLSA_NCMPGT
#undef FLSA_NMOVEMASK
#undef FLSA_NZERO
#undef FLSA_NSHIFTIN
#undef FLSA_NBCAST

// ---- AVX2 int16 band-diagonal core. --------------------------------------
//
// The row-sweep core above resolves the in-row left-gap chain with a lazy
// test + prefix-max scan. On real global-alignment data that test fires
// constantly — away from the main diagonal the DP surface declines at
// exactly the gap rate, so near-tie left chains are the common case, and
// the mispredicts plus fired-path scans cap the row sweep well below the
// arithmetic's potential. The band core removes the left-chain scan and
// the carry broadcast from the loop entirely by changing the geometry:
//
//   * A band of kW = 16 consecutive rows is processed with ONE moving
//     vector `vd` holding an anti-diagonal of the band: at step s, lane L
//     is cell (band row L+1, column s-L) — top-left to bottom-right.
//   * The left neighbour of lane L at step s+1 is lane L's own value at
//     step s (same vector, no shuffle); the up neighbour is lane L-1's
//     value at step s (one lane shift); the diagonal is lane L-1's value
//     at step s-1 (the previous step's shifted vector, kept in `saved`).
//     Per step that is: shift-in, two saturating adds, two maxes — a
//     ~6-cycle critical chain per 16 cells, no scan, no branch.
//   * Boundaries need no special cases: the value shifted into lane 0 is
//     the band's top row (prev[s]), and lanes that have not started their
//     row yet (ramp-in) or have finished it (ramp-out) simply RETAIN
//     their value via a blend — a not-yet-started lane L holds
//     left_rel[r0+1+L], which is exactly the left/diagonal boundary its
//     successor lane needs; a finished lane holds its row's last value,
//     which is the band's right-column output.
//
// Substitution scores must arrive skewed to match: step s needs
// SP[s][L] = profile_row(L)[s-1-L]. Those are built 16 steps at a time by
// a 16x16 in-register transpose (three in-lane unpack stages on each
// 128-bit half, then two vperm2i128 assemblies per output pair) into a
// 512-byte stack buffer consumed immediately — fusing the transpose with
// the DP keeps the skewed scores out of L2. The transpose loads start at
// column s-1-L, i.e. up to kW-1 elements LEFT of the tile's first column:
// build_profile pads every profile row with kNarrowPad rail entries on
// both sides so the loads stay in-buffer (pad values only ever reach
// lanes outside their row's valid column range, which the blend discards).
//
// Rail detection follows the .inc core's scheme, per band instead of per
// row: steady-state steps (all 16 lanes valid) feed running min/max
// accumulators; ramp steps OR the per-lane rail compare under the
// valid-lane mask. Saturating arithmetic cannot wrap, so a railed cell is
// itself latched in the accumulators and the band aborts exactly when the
// scalar core would have aborted on one of its rows; on success every
// stored value is exact, so the outputs stay bit-identical to the scalar
// core (the same clamp-algebra argument as the row sweep — all addends
// are prep-checked representable).
//
// Leftover rows (rows % kW) fall back to one row-sweep call on the same
// buffers.

__attribute__((target("avx2"))) inline __m256i avx2_blendv_epi16(
    __m256i a, __m256i b, __m256i mask) {
  // Lanewise select (mask all-ones -> b): the masks here are whole-lane,
  // so the byte-granular blend is safe.
  return _mm256_blendv_epi8(a, b, mask);
}

/// Transposes 8 rows of 16 int16 (two 8x8 blocks side by side): on
/// return, w[t] = [block0 column t | block1 column t] (128-bit halves).
__attribute__((target("avx2"))) inline void avx2_tr8x16_epi16(
    const __m256i* x, __m256i* w) {
  const __m256i u0 = _mm256_unpacklo_epi16(x[0], x[1]);
  const __m256i u1 = _mm256_unpackhi_epi16(x[0], x[1]);
  const __m256i u2 = _mm256_unpacklo_epi16(x[2], x[3]);
  const __m256i u3 = _mm256_unpackhi_epi16(x[2], x[3]);
  const __m256i u4 = _mm256_unpacklo_epi16(x[4], x[5]);
  const __m256i u5 = _mm256_unpackhi_epi16(x[4], x[5]);
  const __m256i u6 = _mm256_unpacklo_epi16(x[6], x[7]);
  const __m256i u7 = _mm256_unpackhi_epi16(x[6], x[7]);
  const __m256i v0 = _mm256_unpacklo_epi32(u0, u2);
  const __m256i v1 = _mm256_unpackhi_epi32(u0, u2);
  const __m256i v2 = _mm256_unpacklo_epi32(u1, u3);
  const __m256i v3 = _mm256_unpackhi_epi32(u1, u3);
  const __m256i v4 = _mm256_unpacklo_epi32(u4, u6);
  const __m256i v5 = _mm256_unpackhi_epi32(u4, u6);
  const __m256i v6 = _mm256_unpacklo_epi32(u5, u7);
  const __m256i v7 = _mm256_unpackhi_epi32(u5, u7);
  w[0] = _mm256_unpacklo_epi64(v0, v4);
  w[1] = _mm256_unpackhi_epi64(v0, v4);
  w[2] = _mm256_unpacklo_epi64(v1, v5);
  w[3] = _mm256_unpackhi_epi64(v1, v5);
  w[4] = _mm256_unpacklo_epi64(v2, v6);
  w[5] = _mm256_unpackhi_epi64(v2, v6);
  w[6] = _mm256_unpacklo_epi64(v3, v7);
  w[7] = _mm256_unpackhi_epi64(v3, v7);
}

/// Same contract as the stamped narrow_core functions (see
/// kernel_narrow_lanes.inc), plus: profile rows must be readable kW - 1
/// elements left of `prof` (build_profile's left pad).
__attribute__((target("avx2"))) bool avx2_band_core_i16(
    std::size_t rows, std::size_t cols, std::int16_t gap,
    const std::int16_t* prof, std::size_t stride, const Residue* arow,
    const std::int16_t* left_rel, std::int16_t* row0, std::int16_t* row1,
    std::int16_t* right_col) {
  constexpr int kW = 16;
  constexpr std::int16_t kLo = std::numeric_limits<std::int16_t>::min();
  constexpr std::int16_t kHi = std::numeric_limits<std::int16_t>::max();
  const __m256i vlo = _mm256_set1_epi16(kLo);
  const __m256i vhi = _mm256_set1_epi16(kHi);
  const __m256i vgap = _mm256_set1_epi16(gap);
  const __m256i lane_idx =
      _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                        15);
  // Step s = 1 .. steps computes the band's anti-diagonal where lane L
  // (if valid, i.e. 0 <= s-1-L < cols) is cell (row r0+1+L, col s-L).
  const std::size_t steps = cols + kW - 1;

  std::int16_t* prev = row0;
  std::int16_t* nxt = row1;
  right_col[0] = prev[cols];
  std::size_t r0 = 0;
  for (; r0 + kW <= rows; r0 += kW) {
    const std::int16_t* prL[kW];
    for (int L = 0; L < kW; ++L) {
      prL[L] = prof +
               static_cast<std::size_t>(arow[r0 + static_cast<std::size_t>(
                                                      L)]) *
                   stride;
    }
    // Idle lanes hold their row's left boundary until their first step.
    __m256i vd =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(left_rel + r0 +
                                                            1));
    // `saved` is the previous step's shifted vector: lane L = lane L-1 of
    // the previous anti-diagonal = this step's diagonal neighbour.
    __m256i saved = avx2_shiftin_bytes<2>(vd, _mm256_set1_epi16(prev[0]));
    __m256i rmin = _mm256_setzero_si256();
    __m256i rmax = _mm256_setzero_si256();
    __m256i railacc = _mm256_setzero_si256();
    alignas(32) std::int16_t spbuf[kW * kW];
    std::size_t s = 1;
    while (s <= steps) {
      const std::size_t ge = s + 15 < steps ? s + 15 : steps;
      {
        // Skewed-score block for steps s .. s+15: spbuf[t*16 + L] =
        // prL[L][s+t-1-L], via two 8x16 transposes and a half assembly.
        __m256i x[8];
        __m256i y[8];
        __m256i wx[8];
        __m256i wy[8];
        for (int L = 0; L < 8; ++L) {
          x[L] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
              prL[L] + (static_cast<std::ptrdiff_t>(s) - 1 - L)));
        }
        for (int L = 0; L < 8; ++L) {
          y[L] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
              prL[8 + L] + (static_cast<std::ptrdiff_t>(s) - 9 - L)));
        }
        avx2_tr8x16_epi16(x, wx);
        avx2_tr8x16_epi16(y, wy);
        for (int t = 0; t < 8; ++t) {
          _mm256_store_si256(
              reinterpret_cast<__m256i*>(spbuf +
                                         static_cast<std::size_t>(t) * 16),
              _mm256_permute2x128_si256(wx[t], wy[t], 0x20));
          _mm256_store_si256(
              reinterpret_cast<__m256i*>(
                  spbuf + (static_cast<std::size_t>(t) + 8) * 16),
              _mm256_permute2x128_si256(wx[t], wy[t], 0x31));
        }
      }
      if (s >= static_cast<std::size_t>(kW) && ge <= cols) {
        // Steady state: every lane valid, rails folded through min/max,
        // lane kW-1 is the band's bottom row.
        for (std::size_t t = 0; t < 16; ++t) {
          const std::size_t ss = s + t;
          const __m256i bfill = _mm256_set1_epi16(prev[ss]);
          const __m256i shifted = avx2_shiftin_bytes<2>(vd, bfill);
          const __m256i diag = _mm256_adds_epi16(
              saved, _mm256_load_si256(
                         reinterpret_cast<const __m256i*>(spbuf + t * 16)));
          const __m256i vn = _mm256_max_epi16(
              _mm256_adds_epi16(shifted, vgap),
              _mm256_max_epi16(_mm256_adds_epi16(vd, vgap), diag));
          rmin = _mm256_min_epi16(rmin, vn);
          rmax = _mm256_max_epi16(rmax, vn);
          nxt[ss - (kW - 1)] =
              static_cast<std::int16_t>(_mm256_extract_epi16(vn, 15));
          vd = vn;
          saved = shifted;
        }
      } else {
        // Ramp-in / ramp-out: lanes outside their row's column range keep
        // their value (blend) and stay out of the rail check.
        for (std::size_t t = 0; s + t <= ge; ++t) {
          const std::size_t ss = s + t;
          const __m256i bfill =
              _mm256_set1_epi16(prev[ss <= cols ? ss : cols]);
          const __m256i shifted = avx2_shiftin_bytes<2>(vd, bfill);
          const __m256i diag = _mm256_adds_epi16(
              saved, _mm256_load_si256(
                         reinterpret_cast<const __m256i*>(spbuf + t * 16)));
          const __m256i vn = _mm256_max_epi16(
              _mm256_adds_epi16(shifted, vgap),
              _mm256_max_epi16(_mm256_adds_epi16(vd, vgap), diag));
          // Valid lanes at step ss: max(0, ss-cols) <= L <= min(kW-1,
          // ss-1).
          __m256i valid = _mm256_cmpgt_epi16(
              _mm256_set1_epi16(static_cast<std::int16_t>(ss)), lane_idx);
          if (ss > cols) {
            valid = _mm256_and_si256(
                valid, _mm256_cmpgt_epi16(
                           lane_idx, _mm256_set1_epi16(
                                         static_cast<std::int16_t>(
                                             ss - cols - 1))));
          }
          const __m256i hit =
              _mm256_or_si256(_mm256_cmpeq_epi16(vn, vlo),
                              _mm256_cmpeq_epi16(vn, vhi));
          railacc = _mm256_or_si256(railacc,
                                    _mm256_and_si256(hit, valid));
          const __m256i vkeep = avx2_blendv_epi16(vd, vn, valid);
          if (ss >= static_cast<std::size_t>(kW)) {
            alignas(32) std::int16_t tmp[kW];
            _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), vkeep);
            nxt[ss - (kW - 1)] = tmp[kW - 1];
          }
          vd = vkeep;
          saved = shifted;
        }
      }
      s = ge + 1;
    }
    railacc = _mm256_or_si256(
        railacc, _mm256_or_si256(_mm256_cmpeq_epi16(rmin, vlo),
                                 _mm256_cmpeq_epi16(rmax, vhi)));
    if (_mm256_movemask_epi8(railacc) != 0) return false;
    // Finished lanes retained their row's last value: the right column.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(right_col + r0 + 1),
                        vd);
    nxt[0] = left_rel[r0 + kW];
    // Restore the low-rail pad the next consumer of this buffer expects
    // (the row-sweep tail below, or the next band's bfill clamp).
    for (std::size_t j = cols + 1; j < cols + 1 + kW; ++j) nxt[j] = kLo;
    std::int16_t* t = prev;
    prev = nxt;
    nxt = t;
  }
  if (r0 < rows) {
    // Leftover rows: one row-sweep call on the same buffers; its rail
    // test and outputs match the band's by the shared clamp algebra.
    if (!avx2_i16::narrow_core(rows - r0, cols, gap, prof, stride,
                               arow + r0, left_rel + r0, prev, nxt,
                               right_col + r0)) {
      return false;
    }
  }
  if (prev != row0) {
    for (std::size_t j = 0; j <= cols; ++j) row0[j] = prev[j];
  }
  return true;
}

#endif  // FLSA_NARROW_X86

// ---- Per-thread scratch. -------------------------------------------------

struct NarrowScratch {
  std::vector<Lane> prof;      ///< full-width int16 profile, row stride padded
  std::vector<Lane> left_rel;  ///< relative left boundary of the current tile
  std::vector<Lane> row0;      ///< relative row buffers, kNarrowPad-padded
  std::vector<Lane> row1;
  std::vector<Lane> right;     ///< relative right column of the current tile
  std::vector<Score> row_line;    ///< int32 bottom boundary carried between
                                  ///< internal row strips
  std::vector<Score> col_line;    ///< int32 right boundary within a strip
  std::vector<Score> right_line;  ///< int32 per-tile right output
};

NarrowScratch& nscratch() {
  thread_local NarrowScratch s;
  return s;
}

/// Whole-call gate on the gap penalty: it must be exactly representable,
/// and so must every scan/carry addend the cores form (kScanLanes *
/// |gap|). With that, saturation can only happen on a stored cell value —
/// where it is detected.
bool gap_fits(Score gap) {
  if (gap > 0 || gap <= kLaneLo) return false;
  return static_cast<std::int64_t>(kScanLanes) *
             -static_cast<std::int64_t>(gap) <=
         static_cast<std::int64_t>(kLaneHi);
}

/// Builds the full-width int16 profile of `b` under `sub`, each row padded
/// with kNarrowPad low-rail entries on BOTH sides: row x's scores live at
/// prof[x * stride + kNarrowPad + j] with stride = 2 * kNarrowPad + cols.
/// The right pad absorbs the row-sweep cores' load overshoot; the left
/// pad absorbs the band core's skewed transpose loads, which start up to
/// kW - 1 elements left of a tile's first column (pad values only ever
/// reach lanes outside their row's valid range). Rejects (returns false)
/// if any score is not strictly inside the rails.
bool build_profile(std::span<const Residue> b, const SubstitutionMatrix& sub,
                   std::vector<Lane>& prof) {
  const std::size_t cols = b.size();
  const std::size_t alphabet = sub.alphabet().size();
  const std::size_t stride = kNarrowPad + cols + kNarrowPad;
  prof.resize(alphabet * stride);
  for (std::size_t x = 0; x < alphabet; ++x) {
    Lane* row = prof.data() + x * stride;
    std::fill(row, row + kNarrowPad, static_cast<Lane>(kLaneLo));
    std::fill(row + kNarrowPad + cols, row + stride,
              static_cast<Lane>(kLaneLo));
    Lane* dst = row + kNarrowPad;
    for (std::size_t j = 0; j < cols; ++j) {
      const Score s = sub.at(static_cast<Residue>(x), b[j]);
      if (s <= kLaneLo || s >= kLaneHi) return false;
      dst[j] = static_cast<Lane>(s);
    }
  }
  return true;
}

/// Runs the int16 core matching the active ISA (scalar off-x86).
bool run_core(std::size_t rows, std::size_t cols, Lane gap, const Lane* prof,
              std::size_t stride, const Residue* arow, NarrowScratch& sb) {
#if FLSA_NARROW_X86
  const SimdIsa isa = active_simd_isa();
  if (isa == SimdIsa::kAvx2) {
    return avx2_band_core_i16(rows, cols, gap, prof, stride, arow,
                              sb.left_rel.data(), sb.row0.data(),
                              sb.row1.data(), sb.right.data());
  }
  if (isa == SimdIsa::kSse41) {
    return sse41_i16::narrow_core(rows, cols, gap, prof, stride, arow,
                                  sb.left_rel.data(), sb.row0.data(),
                                  sb.row1.data(), sb.right.data());
  }
#endif
  return narrow_core_scalar(rows, cols, gap, prof, stride, arow,
                            sb.left_rel.data(), sb.row0.data(),
                            sb.row1.data(), sb.right.data());
}

/// Attempts one internal tile in int16. The boundary values are shifted
/// by the tile's offset into the relative domain; outputs are converted
/// back on success. The offset is the MIDPOINT of the boundary's value
/// range, not its maximum: the tile interior extends below the boundary
/// minimum by up to |gap| * (rows + cols) and above the boundary maximum
/// by the scheme's best climb rate, so centering the boundary halves the
/// headroom a tile needs on each side — off-diagonal tiles with a wide
/// boundary spread fit where a max-anchored domain rails. Returns false
/// when a boundary value does not fit the relative range or the core
/// railed — outputs are untouched in that case. out_bottom may alias top
/// (inputs are consumed into the relative buffers first).
bool try_tile(std::size_t rows, std::size_t cols, Score gap,
              const Lane* prof, std::size_t stride, const Residue* arow,
              const Score* top, const Score* left, Score* out_bottom,
              Score* out_right) {
  NarrowScratch& sb = nscratch();

  Score bmax = top[0];
  Score bmin = top[0];
  for (std::size_t j = 1; j <= cols; ++j) {
    bmax = std::max(bmax, top[j]);
    bmin = std::min(bmin, top[j]);
  }
  for (std::size_t r = 1; r <= rows; ++r) {
    bmax = std::max(bmax, left[r]);
    bmin = std::min(bmin, left[r]);
  }
  const Score off = bmin + (bmax - bmin) / 2;

  sb.row0.resize(cols + 1 + kNarrowPad);
  sb.row1.resize(cols + 1 + kNarrowPad);
  sb.left_rel.resize(rows + 1);
  sb.right.resize(rows + 1);
  for (std::size_t j = 0; j <= cols; ++j) {
    const Score rel = top[j] - off;
    if (rel <= kLaneLo || rel >= kLaneHi) return false;
    sb.row0[j] = static_cast<Lane>(rel);
  }
  for (std::size_t i = 0; i < kNarrowPad; ++i) {
    sb.row0[cols + 1 + i] = static_cast<Lane>(kLaneLo);
  }
  for (std::size_t r = 0; r <= rows; ++r) {
    const Score rel = left[r] - off;
    if (rel <= kLaneLo || rel >= kLaneHi) return false;
    sb.left_rel[r] = static_cast<Lane>(rel);
  }

  if (!run_core(rows, cols, static_cast<Lane>(gap), prof, stride, arow,
                sb)) {
    return false;
  }

  for (std::size_t j = 0; j <= cols; ++j) {
    out_bottom[j] = static_cast<Score>(sb.row0[j]) + off;
  }
  for (std::size_t r = 0; r <= rows; ++r) {
    out_right[r] = static_cast<Score>(sb.right[r]) + off;
  }
  return true;
}

void note_escalations(DpCounters* counters, std::uint64_t n) {
  if (n == 0) return;
  if (counters) counters->kernel_escalations += n;
  FLSA_OBS_COUNT("kernel.escalations", n);
}

}  // namespace

void sweep_rectangle_linear_narrow(std::span<const Residue> a,
                                   std::span<const Residue> b,
                                   const ScoringScheme& scheme,
                                   std::span<const Score> top,
                                   std::span<const Score> left,
                                   std::span<Score> out_bottom,
                                   std::span<Score> out_right,
                                   DpCounters* counters) {
  const std::size_t rows = a.size();
  const std::size_t cols = b.size();
  FLSA_REQUIRE(scheme.is_linear());
  FLSA_REQUIRE(top.size() == cols + 1);
  FLSA_REQUIRE(left.size() == rows + 1);
  FLSA_REQUIRE(top[0] == left[0]);
  FLSA_REQUIRE(out_bottom.size() == cols + 1);
  FLSA_REQUIRE(out_right.empty() || out_right.size() == rows + 1);
  if (rows == 0 || cols == 0) {
    sweep_rectangle_linear(KernelKind::kScalar, a, b, scheme, top, left,
                           out_bottom, out_right, counters);
    return;
  }

  // Whole-call gate: the scheme must fit int16 at all; otherwise the
  // entire call escalates to int32 in a single step.
  const Score gap = scheme.gap_extend();
  NarrowScratch& ns = nscratch();
  if (!gap_fits(gap) || !build_profile(b, scheme.matrix(), ns.prof)) {
    note_escalations(counters, 1);
    sweep_rectangle_linear_simd(a, b, scheme, top, left, out_bottom,
                                out_right, counters);
    return;
  }

  // Cut the rectangle into internal tiles of kTileExtent, carry exact int32
  // boundary lines between them, and escalate per tile (int16 -> int32).
  const std::size_t stride = kNarrowPad + cols + kNarrowPad;
  std::uint64_t escal = 0;

  // row_line starts as the rectangle's top boundary; each strip replaces
  // the columns it finished with its bottom row, so at any moment the
  // entries left of the cursor hold the strip's bottom and those right of
  // it still hold its top. col_line does the same along a strip.
  ns.row_line.assign(top.begin(), top.end());
  for (std::size_t rs = 0; rs < rows; rs += kTileExtent) {
    const std::size_t re = std::min(rows, rs + kTileExtent);
    const std::size_t trows = re - rs;
    ns.col_line.resize(trows + 1);
    for (std::size_t i = 0; i <= trows; ++i) {
      ns.col_line[i] = left[rs + i];
    }
    for (std::size_t cs = 0; cs < cols; cs += kTileExtent) {
      const std::size_t ce = std::min(cols, cs + kTileExtent);
      const std::size_t tcols = ce - cs;
      Score* ttop = ns.row_line.data() + cs;
      // The previous tile of this strip overwrote row_line[cs] (the shared
      // corner) with its *bottom* value; this tile's top corner is the
      // previous tile's top-right value, which col_line[0] still holds.
      ttop[0] = ns.col_line[0];
      ns.right_line.resize(trows + 1);
      if (try_tile(trows, tcols, gap, ns.prof.data() + kNarrowPad + cs,
                   stride, a.data() + rs, ttop, ns.col_line.data(), ttop,
                   ns.right_line.data())) {
        if (counters) {
          counters->cells_scored +=
              static_cast<std::uint64_t>(trows) * tcols;
        }
      } else {
        // Rescore the tile in int32; its bottom row overwrites its top
        // slice in place, and its right column never aliases.
        ++escal;
        sweep_rectangle_linear_simd(
            a.subspan(rs, trows), b.subspan(cs, tcols), scheme,
            std::span<const Score>(ttop, tcols + 1),
            std::span<const Score>(ns.col_line.data(), trows + 1),
            std::span<Score>(ttop, tcols + 1),
            std::span<Score>(ns.right_line.data(), trows + 1), counters);
      }
      std::copy(ns.right_line.begin(), ns.right_line.end(),
                ns.col_line.begin());
    }
    if (!out_right.empty()) {
      for (std::size_t i = 0; i <= trows; ++i) {
        out_right[rs + i] = ns.col_line[i];
      }
    }
  }
  std::copy(ns.row_line.begin(), ns.row_line.end(), out_bottom.begin());
  note_escalations(counters, escal);
}

}  // namespace flsa
