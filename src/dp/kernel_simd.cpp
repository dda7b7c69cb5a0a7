#include "dp/kernel_simd.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dp/kernel.hpp"
#include "support/assert.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define FLSA_SIMD_X86 1
#include <immintrin.h>
#else
#define FLSA_SIMD_X86 0
#endif

namespace flsa {
namespace {

/// Widest lane count of any instantiation; index arrays and diagonal
/// buffers are padded by this much so vector loops may overshoot.
constexpr std::size_t kMaxLanes = 8;

/// The seven diagonal buffers of the affine core (D needs two previous
/// diagonals, Ix/Iy one each, plus the three being written).
struct AffineBufs {
  Score* d_prev2;
  Score* d_prev1;
  Score* d_curr;
  Score* x_prev1;
  Score* x_curr;
  Score* y_prev1;
  Score* y_curr;
};

enum class Isa { kScalar, kSse41, kAvx2 };

Isa detect_isa() {
#if FLSA_SIMD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
  if (__builtin_cpu_supports("sse4.1")) return Isa::kSse41;
#endif
  return Isa::kScalar;
}

Isa active_isa() {
  static const Isa isa = detect_isa();
  return isa;
}

#if FLSA_SIMD_X86

// ---- AVX2: 8 int32 lanes, hardware gather. -------------------------------
#define FLSA_SIMD_NS avx2
#define FLSA_SIMD_FN __attribute__((target("avx2")))
#define FLSA_SIMD_WIDTH 8
#define FLSA_VEC __m256i
#define FLSA_LOAD(p) \
  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))
#define FLSA_STORE(p, v) \
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), (v))
#define FLSA_ADD(a, b) _mm256_add_epi32((a), (b))
#define FLSA_MAX(a, b) _mm256_max_epi32((a), (b))
#define FLSA_SET1(x) _mm256_set1_epi32((x))
#define FLSA_GATHER(t, i) _mm256_i32gather_epi32((t), (i), 4)
#include "dp/kernel_simd_lanes.inc"
#undef FLSA_SIMD_NS
#undef FLSA_SIMD_FN
#undef FLSA_SIMD_WIDTH
#undef FLSA_VEC
#undef FLSA_LOAD
#undef FLSA_STORE
#undef FLSA_ADD
#undef FLSA_MAX
#undef FLSA_SET1
#undef FLSA_GATHER

// ---- SSE4.1: 4 int32 lanes, gather emulated with scalar loads. -----------
__attribute__((target("sse4.1"))) inline __m128i sse41_gather(
    const Score* table, __m128i idx) {
  alignas(16) std::int32_t lane[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lane), idx);
  return _mm_setr_epi32(table[lane[0]], table[lane[1]], table[lane[2]],
                        table[lane[3]]);
}

#define FLSA_SIMD_NS sse41
#define FLSA_SIMD_FN __attribute__((target("sse4.1")))
#define FLSA_SIMD_WIDTH 4
#define FLSA_VEC __m128i
#define FLSA_LOAD(p) _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))
#define FLSA_STORE(p, v) \
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), (v))
#define FLSA_ADD(a, b) _mm_add_epi32((a), (b))
#define FLSA_MAX(a, b) _mm_max_epi32((a), (b))
#define FLSA_SET1(x) _mm_set1_epi32((x))
#define FLSA_GATHER(t, i) sse41_gather((t), (i))
#include "dp/kernel_simd_lanes.inc"
#undef FLSA_SIMD_NS
#undef FLSA_SIMD_FN
#undef FLSA_SIMD_WIDTH
#undef FLSA_VEC
#undef FLSA_LOAD
#undef FLSA_STORE
#undef FLSA_ADD
#undef FLSA_MAX
#undef FLSA_SET1
#undef FLSA_GATHER

/// Per-thread scratch: gather-index arrays plus the diagonal buffers,
/// reused across calls so the wavefront executors do not allocate per
/// tile. Thread-local, hence race-free under the parallel drivers.
struct Scratch {
  std::vector<std::int32_t> aoff;  ///< row residue * table stride, 0-padded
  std::vector<std::int32_t> brev;  ///< reversed column indices, 0-padded
  std::vector<Score> lane[7];      ///< diagonal buffers (3 linear, 7 affine)
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Fills aoff/brev for a sweep: lane r of a diagonal gathers
/// table[aoff[r - 1] + brev[cols - d + r]], where table is `sub`'s
/// row-major score array.
void prepare_indices(std::span<const Residue> a, std::span<const Residue> b,
                     const SubstitutionMatrix& sub, Scratch& s) {
  const auto stride = static_cast<std::int32_t>(sub.alphabet().size());
  s.aoff.assign(a.size() + kMaxLanes, 0);
  for (std::size_t r = 0; r < a.size(); ++r) {
    s.aoff[r] = static_cast<std::int32_t>(a[r]) * stride;
  }
  const std::size_t cols = b.size();
  s.brev.assign(cols + kMaxLanes, 0);
  for (std::size_t j = 0; j < cols; ++j) {
    s.brev[j] = static_cast<std::int32_t>(b[cols - 1 - j]);
  }
}

void run_linear(std::size_t rows, std::size_t cols, Score gap,
                const Score* table, std::span<const Score> top,
                std::span<const Score> left, std::span<Score> out_bottom,
                std::span<Score> out_right, Scratch& s) {
  for (int i = 0; i < 3; ++i) {
    s.lane[i].assign(rows + 1 + kMaxLanes, kNegInf);
  }
  Score* right = out_right.empty() ? nullptr : out_right.data();
  if (active_isa() == Isa::kAvx2) {
    avx2::linear_core(rows, cols, gap, table, s.aoff.data(), s.brev.data(),
                      top.data(), left.data(), out_bottom.data(), right,
                      s.lane[0].data(), s.lane[1].data(), s.lane[2].data());
  } else {
    sse41::linear_core(rows, cols, gap, table, s.aoff.data(), s.brev.data(),
                       top.data(), left.data(), out_bottom.data(), right,
                       s.lane[0].data(), s.lane[1].data(), s.lane[2].data());
  }
}

void run_affine(std::size_t rows, std::size_t cols, Score open, Score ext,
                const Score* table, std::span<const AffineCell> top,
                std::span<const AffineCell> left,
                std::span<AffineCell> out_bottom,
                std::span<AffineCell> out_right, Scratch& s) {
  for (int i = 0; i < 7; ++i) {
    s.lane[i].assign(rows + 1 + kMaxLanes, kNegInf);
  }
  const AffineBufs bufs{s.lane[0].data(), s.lane[1].data(), s.lane[2].data(),
                        s.lane[3].data(), s.lane[4].data(),
                        s.lane[5].data(), s.lane[6].data()};
  AffineCell* right = out_right.empty() ? nullptr : out_right.data();
  if (active_isa() == Isa::kAvx2) {
    avx2::affine_core(rows, cols, open, ext, table, s.aoff.data(),
                      s.brev.data(), top.data(), left.data(),
                      out_bottom.data(), right, bufs);
  } else {
    sse41::affine_core(rows, cols, open, ext, table, s.aoff.data(),
                       s.brev.data(), top.data(), left.data(),
                       out_bottom.data(), right, bufs);
  }
}

#endif  // FLSA_SIMD_X86

}  // namespace

bool simd_kernel_available() { return active_isa() != Isa::kScalar; }

SimdIsa active_simd_isa() {
  switch (active_isa()) {
    case Isa::kAvx2: return SimdIsa::kAvx2;
    case Isa::kSse41: return SimdIsa::kSse41;
    case Isa::kScalar: return SimdIsa::kScalar;
  }
  return SimdIsa::kScalar;
}

const char* simd_kernel_isa() {
  switch (active_isa()) {
    case Isa::kAvx2: return "avx2";
    case Isa::kSse41: return "sse4.1";
    case Isa::kScalar: return "scalar";
  }
  return "?";
}

void sweep_rectangle_linear_simd(std::span<const Residue> a,
                                 std::span<const Residue> b,
                                 const ScoringScheme& scheme,
                                 std::span<const Score> top,
                                 std::span<const Score> left,
                                 std::span<Score> out_bottom,
                                 std::span<Score> out_right,
                                 DpCounters* counters) {
#if FLSA_SIMD_X86
  const std::size_t rows = a.size();
  const std::size_t cols = b.size();
  if (simd_kernel_available() && rows > 0 && cols > 0) {
    FLSA_REQUIRE(scheme.is_linear());
    FLSA_REQUIRE(top.size() == cols + 1);
    FLSA_REQUIRE(left.size() == rows + 1);
    FLSA_REQUIRE(top[0] == left[0]);
    FLSA_REQUIRE(out_bottom.size() == cols + 1);
    FLSA_REQUIRE(out_right.empty() || out_right.size() == rows + 1);

    const SubstitutionMatrix& sub = scheme.matrix();
    Scratch& s = scratch();
    prepare_indices(a, b, sub, s);
    run_linear(rows, cols, scheme.gap_extend(), sub.data(), top, left,
               out_bottom, out_right, s);
    if (counters) {
      counters->cells_scored += static_cast<std::uint64_t>(rows) * cols;
    }
    return;
  }
#endif
  // No vector ISA (or a degenerate rectangle): the scalar kernel is the
  // fallback and already produces the reference results.
  sweep_rectangle_linear(KernelKind::kScalar, a, b, scheme, top, left,
                         out_bottom, out_right, counters);
}

void sweep_rectangle_affine_simd(std::span<const Residue> a,
                                 std::span<const Residue> b,
                                 const ScoringScheme& scheme,
                                 std::span<const AffineCell> top,
                                 std::span<const AffineCell> left,
                                 std::span<AffineCell> out_bottom,
                                 std::span<AffineCell> out_right,
                                 DpCounters* counters) {
#if FLSA_SIMD_X86
  const std::size_t rows = a.size();
  const std::size_t cols = b.size();
  if (simd_kernel_available() && rows > 0 && cols > 0) {
    FLSA_REQUIRE(top.size() == cols + 1);
    FLSA_REQUIRE(left.size() == rows + 1);
    FLSA_REQUIRE(top[0] == left[0]);
    FLSA_REQUIRE(out_bottom.size() == cols + 1);
    FLSA_REQUIRE(out_right.empty() || out_right.size() == rows + 1);

    const SubstitutionMatrix& sub = scheme.matrix();
    Scratch& s = scratch();
    prepare_indices(a, b, sub, s);
    run_affine(rows, cols, scheme.gap_open(), scheme.gap_extend(), sub.data(),
               top, left, out_bottom, out_right, s);
    if (counters) {
      counters->cells_scored += static_cast<std::uint64_t>(rows) * cols;
    }
    return;
  }
#endif
  sweep_rectangle_affine(KernelKind::kScalar, a, b, scheme, top, left,
                         out_bottom, out_right, counters);
}

}  // namespace flsa
