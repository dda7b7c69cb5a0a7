// Kernel conformance suite: the hard correctness contract behind the
// narrow saturating tier (dp/kernel_narrow.*), which kAuto runs for every
// linear scheme that fits it.
//
// One parameterized differential harness runs EVERY registered KernelKind
// over a grid of scoring schemes — including adversarial near-saturation
// match/gap magnitudes chosen to force overflow escalation — and asserts:
//
//   * bit-identical boundary rows, scores AND edit scripts against the
//     scalar oracle (not just equal optima: the narrow tier promises the
//     same tie-breaking, so FastLSA's traceback must come out identical),
//   * the escalation counters fire exactly when the clamp algebra
//     predicts (whole-call gate vs per-tile rail, int16 -> int32),
//   * kAuto resolves per scheme: int16 exactly when the narrow tier's
//     whole-call gate (narrow_tier_admits) admits the scheme, int32 SIMD
//     otherwise, so kernel_used names the tier that ran and a rejected
//     scheme never counts an escalation,
//   * fixed-seed fuzzing over random alphabets/matrices/shapes across all
//     tiers at several score magnitudes, so every tier sees inputs it can
//     handle natively, inputs that rail mid-tile, and inputs its
//     whole-call gates must reject,
//   * the one sweep call's local mode, fitting and overlap boundaries and
//     best-cell output (ties to the first cell in row-major order) agree
//     with the scalar oracle on every tier, and the oracle with a textbook
//     DPM.
//
// This suite runs under ASan/UBSan and TSan in CI (see ci.yml): the
// saturating cores read through padded buffers, and the pads are part of
// the contract being checked here.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/workloads.hpp"
#include "dp/kernel_narrow.hpp"
#include "flsa/flsa.hpp"
#include "obs/obs.hpp"

namespace flsa {
namespace {

/// Every registered kernel, straight from the dispatch table — a tier
/// added to the registry is automatically covered by this suite.
std::vector<KernelKind> all_kernels() {
  std::vector<KernelKind> kinds;
  for (const KernelInfo& info : kernel_registry()) {
    kinds.push_back(info.kind);
  }
  return kinds;
}

/// One scheme of the conformance grid. Owns its alphabet/matrix (the
/// ScoringScheme only references them).
struct SchemeCase {
  std::string name;
  const Alphabet* alpha = nullptr;
  ScoringScheme scheme;
  std::shared_ptr<const Alphabet> own_alpha;        // keepalive
  std::shared_ptr<const SubstitutionMatrix> own_mx;  // keepalive
};

/// match/mismatch identity scheme over a custom alphabet.
SchemeCase identity_case(const std::string& name, const char* letters,
                         Score match, Score mismatch, Score gap) {
  auto alpha = std::make_shared<Alphabet>(letters, name);
  auto mx = std::make_shared<SubstitutionMatrix>(*alpha, name);
  for (Residue x = 0; x < alpha->size(); ++x) {
    for (Residue y = x; y < alpha->size(); ++y) {
      mx->set_symmetric(x, y, x == y ? match : mismatch);
    }
  }
  SchemeCase c{name, alpha.get(), ScoringScheme(*mx, gap), alpha, mx};
  return c;
}

/// The scheme grid: realistic tables plus adversarial magnitudes.
///  - "mdm78" / "blosum62" / "dna": the shapes real users run.
///  - "tiny": small magnitudes with room to spare (no escalation expected).
///  - "rail8": small magnitudes whose DP range would overflow 8-bit lanes
///    on runs of matches; int16 holds it.
///  - "rail16": int16-representable scheme whose DP range overflows int16
///    (per-tile rail -> int32 rescore).
///  - "reject16": scores outside even int16 (whole-call int32 fallback).
std::vector<SchemeCase> scheme_grid() {
  std::vector<SchemeCase> grid;
  grid.push_back({"mdm78", &Alphabet::protein(),
                  ScoringScheme::paper_default(), nullptr, nullptr});
  {
    const SubstitutionMatrix& blosum = scoring::blosum62();
    grid.push_back({"blosum62", &blosum.alphabet(),
                    ScoringScheme(blosum, -10), nullptr, nullptr});
  }
  {
    auto mx = std::make_shared<SubstitutionMatrix>(scoring::dna(5, -4));
    grid.push_back({"dna", &mx->alphabet(), ScoringScheme(*mx, -6), nullptr,
                    mx});
  }
  grid.push_back(identity_case("tiny", "AB", 3, -1, -2));
  grid.push_back(identity_case("rail8", "AC", 3, -1, -3));
  grid.push_back(identity_case("rail16", "AC", 70, -4, -70));
  grid.push_back(identity_case("reject16", "AC", 33000, -5, -8));
  return grid;
}

Sequence uniform_seq(const Alphabet& alpha, std::size_t n) {
  return Sequence(alpha, std::string(n, alpha.letter(0)));
}

/// Differential check of one (scheme, pair) input across every kernel:
/// full boundary row, score, and (on non-degenerate shapes) the FastLSA
/// edit script, all bit-identical to the scalar oracle.
void expect_conformant(const SchemeCase& c, const Sequence& a,
                       const Sequence& b, bool check_scripts) {
  const ScoringScheme& scheme = c.scheme;
  const std::vector<Score> ref_row =
      last_row_linear(KernelKind::kScalar, a.residues(), b.residues(), scheme);
  const Score ref_score = ref_row.empty() ? 0 : ref_row.back();

  FastLsaOptions fopts;
  fopts.k = 4;
  fopts.base_case_cells = 64;
  HirschbergOptions hopts;
  hopts.base_case_cells = 32;
  Alignment fm;
  if (check_scripts) {
    fm = full_matrix_align(a, b, scheme);
    ASSERT_EQ(fm.score, ref_score) << c.name;
  }

  for (const KernelKind kind : all_kernels()) {
    const std::string tag =
        c.name + "/" + to_string(kind) + " m=" + std::to_string(a.size()) +
        " n=" + std::to_string(b.size());
    ASSERT_EQ(last_row_linear(kind, a.residues(), b.residues(), scheme),
              ref_row)
        << tag;
    ASSERT_EQ(global_score_linear(kind, a.residues(), b.residues(), scheme),
              ref_score)
        << tag;
    if (check_scripts) {
      fopts.kernel = kind;
      const Alignment fl = fastlsa_align(a, b, scheme, fopts);
      ASSERT_EQ(fl.score, fm.score) << tag;
      ASSERT_EQ(fl.gapped_a, fm.gapped_a) << tag;
      ASSERT_EQ(fl.gapped_b, fm.gapped_b) << tag;
      hopts.kernel = kind;
      ASSERT_EQ(hirschberg_align(a, b, scheme, hopts).score, fm.score)
          << tag;
    }
  }
}

/// Differential check of raw rectangle sweeps with explicit (possibly
/// hostile) boundary caches — the exact call FastLSA's fill-grid phase
/// makes. `spread` scales the random boundary values; a large spread
/// forces the narrow tier's boundary conversion itself to escalate.
void expect_sweep_conformant(const SchemeCase& c, std::size_t m,
                             std::size_t n, Score spread, Xoshiro256& rng) {
  const Sequence a = random_sequence(*c.alpha, m, rng);
  const Sequence b = random_sequence(*c.alpha, n, rng);
  std::vector<Score> top(n + 1);
  std::vector<Score> left(m + 1);
  for (Score& v : top) {
    v = static_cast<Score>(rng.bounded(static_cast<std::uint64_t>(
            2 * spread + 1))) -
        spread;
  }
  for (Score& v : left) {
    v = static_cast<Score>(rng.bounded(static_cast<std::uint64_t>(
            2 * spread + 1))) -
        spread;
  }
  left[0] = top[0];

  std::vector<Score> ref_bottom(n + 1);
  std::vector<Score> ref_right(m + 1);
  sweep_rectangle_linear(KernelKind::kScalar, a.residues(), b.residues(),
                         c.scheme, top, left, ref_bottom, ref_right);
  for (const KernelKind kind : all_kernels()) {
    std::vector<Score> bottom(n + 1);
    std::vector<Score> right(m + 1);
    sweep_rectangle_linear(kind, a.residues(), b.residues(), c.scheme, top,
                           left, bottom, right);
    const std::string tag = c.name + "/" + to_string(kind) +
                            " spread=" + std::to_string(spread);
    ASSERT_EQ(bottom, ref_bottom) << tag;
    ASSERT_EQ(right, ref_right) << tag;
  }
}

/// The whole DPM of a rectangle by the textbook recurrence, written out
/// here independently of the library's kernels: the oracle for the scalar
/// core's local mode and best cell.
std::vector<std::vector<Score>> textbook_dpm(const Sequence& a,
                                             const Sequence& b,
                                             const ScoringScheme& scheme,
                                             const std::vector<Score>& top,
                                             const std::vector<Score>& left,
                                             DpMode mode) {
  std::vector<std::vector<Score>> dpm(a.size() + 1, top);
  for (std::size_t r = 1; r <= a.size(); ++r) {
    dpm[r][0] = left[r];
    for (std::size_t c = 1; c <= b.size(); ++c) {
      Score v = dpm[r - 1][c - 1] + scheme.substitution(a[r - 1], b[c - 1]);
      v = std::max(v, dpm[r - 1][c] + scheme.gap_extend());
      v = std::max(v, dpm[r][c - 1] + scheme.gap_extend());
      dpm[r][c] = mode == DpMode::kLocal ? std::max(v, Score{0}) : v;
    }
  }
  return dpm;
}

/// First maximum of a DPM in row-major order.
BestCell textbook_best(const std::vector<std::vector<Score>>& dpm) {
  BestCell best{dpm[0][0], 0, 0};
  for (std::size_t r = 0; r < dpm.size(); ++r) {
    for (std::size_t c = 0; c < dpm[r].size(); ++c) {
      if (dpm[r][c] > best.score) best = BestCell{dpm[r][c], r, c};
    }
  }
  return best;
}

/// The boundary lines of one alignment mode: local (zeros, floored
/// recurrence), fitting (free top row, charged left column) and overlap
/// (charged top row, free left column).
struct ModeCase {
  const char* name;
  DpMode mode;
  bool free_top;
  bool free_left;
};

constexpr ModeCase kModeCases[] = {
    {"local", DpMode::kLocal, true, true},
    {"fitting", DpMode::kGlobal, true, false},
    {"overlap", DpMode::kGlobal, false, true},
};

/// One sweep call per tier in one mode, with and without the best-cell
/// output, against the scalar oracle's bottom row, right column and best
/// cell; the oracle itself is checked against the textbook DPM.
void expect_mode_conformant(const SchemeCase& c, const ModeCase& mc,
                            const Sequence& a, const Sequence& b) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  std::vector<Score> top(n + 1, 0);
  std::vector<Score> left(m + 1, 0);
  if (!mc.free_top) init_global_boundary_linear(c.scheme, top);
  if (!mc.free_left) init_global_boundary_linear(c.scheme, left);

  std::vector<Score> ref_bottom(n + 1);
  std::vector<Score> ref_right(m + 1);
  BestCell ref_best;
  sweep_rectangle_linear(KernelKind::kScalar, a.residues(), b.residues(),
                         c.scheme, top, left, ref_bottom, ref_right, nullptr,
                         mc.mode, &ref_best);
  const std::string shape = c.name + "/" + mc.name +
                            " m=" + std::to_string(m) +
                            " n=" + std::to_string(n);
  const auto dpm = textbook_dpm(a, b, c.scheme, top, left, mc.mode);
  ASSERT_EQ(ref_bottom, dpm[m]) << shape;
  for (std::size_t r = 0; r <= m; ++r) {
    ASSERT_EQ(ref_right[r], dpm[r][n]) << shape << " r=" << r;
  }
  const BestCell want = textbook_best(dpm);
  ASSERT_EQ(ref_best.score, want.score) << shape;
  ASSERT_EQ(ref_best.row, want.row) << shape;
  ASSERT_EQ(ref_best.col, want.col) << shape;

  for (const KernelKind kind : all_kernels()) {
    const std::string tag = shape + " kernel=" + to_string(kind);
    std::vector<Score> bottom(n + 1);
    std::vector<Score> right(m + 1);
    BestCell best{-1, m + 1, n + 1};
    sweep_rectangle_linear(kind, a.residues(), b.residues(), c.scheme, top,
                           left, bottom, right, nullptr, mc.mode, &best);
    ASSERT_EQ(bottom, ref_bottom) << tag;
    ASSERT_EQ(right, ref_right) << tag;
    ASSERT_EQ(best.score, ref_best.score) << tag;
    ASSERT_EQ(best.row, ref_best.row) << tag;
    ASSERT_EQ(best.col, ref_best.col) << tag;

    // Without the best-cell output (fitting and overlap then run on the
    // vector tiers).
    std::vector<Score> bottom_only(n + 1);
    std::vector<Score> right_only(m + 1);
    sweep_rectangle_linear(kind, a.residues(), b.residues(), c.scheme, top,
                           left, bottom_only, right_only, nullptr, mc.mode);
    ASSERT_EQ(bottom_only, ref_bottom) << tag;
    ASSERT_EQ(right_only, ref_right) << tag;
  }
}

// ---------------------------------------------------------------------
// The registry itself: spellings round-trip, and kAuto resolves per
// scheme to the tier the sweeps actually run.

TEST(KernelRegistry, NamesRoundTripThroughParser) {
  ASSERT_GE(kernel_registry().size(), 4u);
  for (const KernelInfo& info : kernel_registry()) {
    EXPECT_STREQ(to_string(info.kind), info.name);
    KernelKind parsed = KernelKind::kAuto;
    EXPECT_TRUE(parse_kernel_kind(info.name, &parsed)) << info.name;
    EXPECT_EQ(parsed, info.kind) << info.name;
    EXPECT_NE(info.summary, nullptr);
    EXPECT_NE(std::string_view(info.summary), "");
  }
  KernelKind parsed = KernelKind::kAuto;
  EXPECT_FALSE(parse_kernel_kind("int13", &parsed));
}

/// kAuto picks int16 exactly for the linear schemes the narrow tier's
/// whole-call gate admits, int32 SIMD for the rest, scalar off a vector
/// ISA; explicit requests pass through unchanged.
TEST(KernelRegistry, AutoResolvesPerScheme) {
  const SubstitutionMatrix dna = scoring::dna();
  const SchemeCase score_edge = identity_case("edge16", "AC", 32766, -1, -3);
  const SchemeCase score_over = identity_case("over16", "AC", 32767, -1, -3);
  struct Expectation {
    const char* name;
    ScoringScheme scheme;
    KernelKind on_simd;
  };
  const Expectation cases[] = {
      {"paper", ScoringScheme::paper_default(), KernelKind::kInt16},
      {"dna/-10", ScoringScheme(dna, -10), KernelKind::kInt16},
      {"affine", ScoringScheme(dna, -11, -1), KernelKind::kSimd},
      // 16 * |gap| is the widest scan addend: -2047 fits, -2048 does not.
      {"gap -2047", ScoringScheme(dna, -2047), KernelKind::kInt16},
      {"gap -2048", ScoringScheme(dna, -2048), KernelKind::kSimd},
      // Substitution scores must lie strictly inside the int16 rails.
      {"score 32766", score_edge.scheme, KernelKind::kInt16},
      {"score 32767", score_over.scheme, KernelKind::kSimd},
  };
  for (const Expectation& c : cases) {
    EXPECT_EQ(narrow_tier_admits(c.scheme), c.on_simd == KernelKind::kInt16)
        << c.name;
    EXPECT_EQ(resolve_kernel(KernelKind::kAuto, c.scheme),
              simd_kernel_available() ? c.on_simd : KernelKind::kScalar)
        << c.name;
    for (const KernelKind kind :
         {KernelKind::kScalar, KernelKind::kSimd, KernelKind::kInt16}) {
      EXPECT_EQ(resolve_kernel(kind, c.scheme), kind) << c.name;
    }
  }
}

/// A linear scheme the gate rejects runs int32 from the start under
/// kAuto: FastLSA reports the tier that ran, counts no escalation (it
/// never built an int16 profile) and stays exact.
TEST(KernelRegistry, AutoSendsGateRejectedSchemeStraightToInt32) {
  if (!simd_kernel_available()) GTEST_SKIP() << "no vector ISA";
  const SchemeCase c = identity_case("reject16", "AC", 32767, -5, -8);
  ASSERT_FALSE(narrow_tier_admits(c.scheme));
  Xoshiro256 rng(29);
  const Sequence a = random_sequence(*c.alpha, 180, rng);
  const Sequence b = random_sequence(*c.alpha, 150, rng);
  const Alignment fm = full_matrix_align(a, b, c.scheme);

  FastLsaOptions opts;
  opts.k = 4;
  opts.base_case_cells = 256;
  FastLsaStats stats;
  const Alignment fl = fastlsa_align(a, b, c.scheme, opts, &stats);
  EXPECT_EQ(stats.kernel_used, KernelKind::kSimd);
  EXPECT_GT(stats.counters.cells_scored, 0u);
  EXPECT_EQ(stats.counters.kernel_escalations, 0u);
  EXPECT_EQ(fl.score, fm.score);
  EXPECT_EQ(fl.gapped_a, fm.gapped_a);
  EXPECT_EQ(fl.gapped_b, fm.gapped_b);
}

// ---------------------------------------------------------------------
// The differential grid: every scheme x a ladder of shapes (empty edges,
// sub-vector, band-tail remainders, multi-tile) x every kernel.

class SchemeConformance : public ::testing::TestWithParam<int> {};

TEST_P(SchemeConformance, AllKernelsMatchScalarOracle) {
  const SchemeCase c = scheme_grid()[static_cast<std::size_t>(GetParam())];
  Xoshiro256 rng(0xC0FFEEu + static_cast<std::uint64_t>(GetParam()));

  struct Shape {
    std::size_t m, n;
    bool scripts;
  };
  // 65/96 span several vectors per row; 17/33/41 leave band-core tail
  // rows (rows % 16 != 0); 1 and 0 hit the degenerate paths.
  const Shape shapes[] = {{0, 0, false}, {0, 9, false},  {9, 0, false},
                          {1, 1, true},  {5, 33, true},  {33, 5, true},
                          {17, 17, true}, {48, 31, true}, {64, 64, true},
                          {65, 70, true}, {96, 41, true}};
  for (const Shape& s : shapes) {
    const Sequence a = random_sequence(*c.alpha, s.m, rng);
    const Sequence b = random_sequence(*c.alpha, s.n, rng);
    expect_conformant(c, a, b, s.scripts);
  }
  // Runs of matches climb the DP at the full match rate — the adversarial
  // input for a saturating tier (rail8/rail16 overflow here by design).
  expect_conformant(c, uniform_seq(*c.alpha, 70), uniform_seq(*c.alpha, 60),
                    true);
  // Raw sweeps with boundary caches: benign spread, then one hostile
  // enough that no int16 relative domain can hold it.
  expect_sweep_conformant(c, 40, 90, 1000, rng);
  expect_sweep_conformant(c, 90, 40, 50000, rng);
}

// Local, fitting and overlap boundaries and the best-cell output of the
// one sweep call, on every tier, over the same scheme grid and shapes.
TEST_P(SchemeConformance, ModesAndBestCellMatchScalarOracle) {
  const SchemeCase c = scheme_grid()[static_cast<std::size_t>(GetParam())];
  Xoshiro256 rng(0xBE57u + static_cast<std::uint64_t>(GetParam()));
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {0, 0}, {0, 9}, {9, 0}, {1, 1}, {5, 33}, {33, 5}, {17, 17}, {65, 70}};
  for (const auto& [m, n] : shapes) {
    const Sequence a = random_sequence(*c.alpha, m, rng);
    const Sequence b = random_sequence(*c.alpha, n, rng);
    for (const ModeCase& mc : kModeCases) expect_mode_conformant(c, mc, a, b);
  }
  for (const ModeCase& mc : kModeCases) {
    expect_mode_conformant(c, mc, uniform_seq(*c.alpha, 40),
                           uniform_seq(*c.alpha, 30));
  }
}

// Two equal maxima: GGGG/GGGG ends at (4, 16) and TTTT/TTTT at (16, 4),
// both scoring 8, and mismatches cost too much to join them. The best
// cell is the first in row-major order, (4, 16), on every tier, in local
// mode and in global mode over free (zero) boundaries.
TEST(SchemeConformance, BestCellTieGoesToFirstCellInRowMajorOrder) {
  const SchemeCase c = identity_case("tie", "ACGT", 2, -3, -4);
  const Sequence a(*c.alpha, "GGGGAAAAAAAATTTT");
  const Sequence b(*c.alpha, "TTTTCCCCCCCCGGGG");
  const std::vector<Score> top(b.size() + 1, 0);
  const std::vector<Score> left(a.size() + 1, 0);
  for (const DpMode mode : {DpMode::kLocal, DpMode::kGlobal}) {
    const auto dpm = textbook_dpm(a, b, c.scheme, top, left, mode);
    ASSERT_EQ(dpm[4][16], 8);
    ASSERT_EQ(dpm[16][4], 8);
    for (const KernelKind kind : all_kernels()) {
      std::vector<Score> bottom(b.size() + 1);
      BestCell best;
      sweep_rectangle_linear(kind, a.residues(), b.residues(), c.scheme, top,
                             left, bottom, {}, nullptr, mode, &best);
      EXPECT_EQ(best.score, 8) << to_string(kind);
      EXPECT_EQ(best.row, 4u) << to_string(kind);
      EXPECT_EQ(best.col, 16u) << to_string(kind);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SchemeConformance,
                         ::testing::Range(0, 7));  // == scheme_grid().size()

TEST(SchemeConformance, GridSizeMatchesInstantiation) {
  EXPECT_EQ(scheme_grid().size(), 7u);
}

// A rectangle taller than the int16 tile extent (1024): exercises the
// int16 strip tiling and inter-tile boundary carry.
TEST(SchemeConformance, TallRectangleCrossesInt16TileExtent) {
  const SchemeCase c = identity_case("tall", "ACGT", 4, -2, -2);
  Xoshiro256 rng(99);
  const Sequence a = random_sequence(*c.alpha, 1100, rng);
  const Sequence b = random_sequence(*c.alpha, 70, rng);
  expect_conformant(c, a, b, /*check_scripts=*/false);
}

// ---------------------------------------------------------------------
// Escalation accounting: the counters must fire exactly when the clamp
// algebra predicts, and never change the answer. These doubles as the
// deterministic regression corpus: fixed sequences, fixed schemes, exact
// expected counts.

/// 60x60 all-'A' under +3/-3: the relative DP domain climbs 3 cells/step
/// to 180, far inside int16 -> no escalation.
TEST(KernelEscalation, SmallSchemeMatchRunInt16Clean) {
  const SchemeCase c = identity_case("corpus8", "AC", 3, -1, -3);
  const Sequence a = uniform_seq(*c.alpha, 60);
  const Score want = global_score_linear(KernelKind::kScalar, a.residues(),
                                         a.residues(), c.scheme);
  EXPECT_EQ(want, 180);  // 60 matches at +3

  DpCounters c16;
  EXPECT_EQ(global_score_linear(KernelKind::kInt16, a.residues(),
                                a.residues(), c.scheme, &c16),
            want);
  EXPECT_EQ(c16.kernel_escalations, 0u);
}

/// 600x600 all-'A' under +70/-70: the DP range (42000) overflows int16 in
/// its single 600 <= 1024 tile -> exactly one int16->int32 escalation.
TEST(KernelEscalation, Int16RailsOnce) {
  const SchemeCase c = identity_case("corpus16", "AC", 70, -4, -70);
  const Sequence a = uniform_seq(*c.alpha, 600);
  const Score want = global_score_linear(KernelKind::kScalar, a.residues(),
                                         a.residues(), c.scheme);
  EXPECT_EQ(want, 42000);

  DpCounters c16;
  EXPECT_EQ(global_score_linear(KernelKind::kInt16, a.residues(),
                                a.residues(), c.scheme, &c16),
            want);
  EXPECT_EQ(c16.kernel_escalations, 1u);
}

/// Scores outside int16 entirely: the profile build rejects the scheme
/// and the whole call falls through to the int32 reference in one step
/// (no per-tile attempts at all).
TEST(KernelEscalation, SchemeOutsideInt16EscalatesWholeCall) {
  const SchemeCase c = identity_case("corpus32", "AC", 33000, -5, -8);
  const Sequence a = uniform_seq(*c.alpha, 20);
  const Score want = 20 * 33000;
  EXPECT_EQ(global_score_linear(KernelKind::kScalar, a.residues(), a.residues(),
                                c.scheme),
            want);

  DpCounters c16;
  EXPECT_EQ(global_score_linear(KernelKind::kInt16, a.residues(),
                                a.residues(), c.scheme, &c16),
            want);
  EXPECT_EQ(c16.kernel_escalations, 1u);
}

/// Benign scheme/shape combinations escalate nowhere: int16 holds a
/// DNA-magnitude scheme over hundreds of cells.
TEST(KernelEscalation, BenignSchemeNeverEscalates) {
  Xoshiro256 rng(7);
  const SchemeCase c = identity_case("benign16", "ACGT", 5, -4, -2);
  const Sequence a = random_sequence(*c.alpha, 120, rng);
  const Sequence b = random_sequence(*c.alpha, 90, rng);
  const Score want = global_score_linear(KernelKind::kScalar, a.residues(),
                                         b.residues(), c.scheme);
  DpCounters counters;
  EXPECT_EQ(global_score_linear(KernelKind::kInt16, a.residues(),
                                b.residues(), c.scheme, &counters),
            want);
  EXPECT_EQ(counters.kernel_escalations, 0u);
}

/// Escalations surface through FastLsaStats and leave the traceback
/// bit-identical: an int16 run where every match-run tile rails (each
/// diagonal cell climbs 2000, so a tile's span leaves int16 within 17).
TEST(KernelEscalation, FastLsaCountsEscalationsAndStaysExact) {
  const SchemeCase c = identity_case("fastlsa16", "AC", 2000, -1, -3);
  const Sequence a = uniform_seq(*c.alpha, 200);
  const Alignment fm = full_matrix_align(a, a, c.scheme);
  EXPECT_EQ(fm.score, 200 * 2000);

  FastLsaOptions opts;
  opts.k = 4;
  opts.base_case_cells = 256;
  opts.kernel = KernelKind::kInt16;
  FastLsaStats stats;
  const Alignment fl = fastlsa_align(a, a, c.scheme, opts, &stats);
  EXPECT_EQ(fl.score, fm.score);
  EXPECT_EQ(fl.gapped_a, fm.gapped_a);
  EXPECT_EQ(fl.gapped_b, fm.gapped_b);
  EXPECT_EQ(stats.kernel_used, KernelKind::kInt16);
  EXPECT_GT(stats.counters.kernel_escalations, 0u);
}

/// The obs registry mirrors the counter under the kernel.escalations
/// metric (compiled out under -DFLSA_OBS=OFF; the conformance CI matrix
/// builds both ways).
TEST(KernelEscalation, ObsMetricMirrorsCounter) {
#if defined(FLSA_OBS_OFF)
  GTEST_SKIP() << "observability compiled out (-DFLSA_OBS=OFF)";
#else
  const SchemeCase c = identity_case("obs16", "AC", 70, -4, -70);
  const Sequence a = uniform_seq(*c.alpha, 600);
  obs::set_enabled(true);
  obs::metrics().reset();
  DpCounters counters;
  global_score_linear(KernelKind::kInt16, a.residues(), a.residues(),
                      c.scheme, &counters);
  obs::set_enabled(false);
  EXPECT_EQ(counters.kernel_escalations, 1u);
  EXPECT_EQ(obs::metrics().counter("kernel.escalations").value(), 1u);
#endif
}

// ---------------------------------------------------------------------
// Score-bound band pruning (FastLsaOptions::prune) must never change the
// optimal score or the traceback — the bound is admissible.

TEST(PruneConformance, PruningKeepsScoreAndScriptOnEveryTier) {
  const SequencePair pair = bench::sized_workload(400, true).make();
  const ScoringScheme& scheme = ScoringScheme::paper_default();
  const Alignment fm = full_matrix_align(pair.a, pair.b, scheme);
  for (const KernelKind kind : all_kernels()) {
    FastLsaOptions opts;
    opts.k = 4;
    opts.base_case_cells = 512;
    opts.kernel = kind;
    opts.prune = true;
    FastLsaStats stats;
    const Alignment fl = fastlsa_align(pair.a, pair.b, scheme, opts,
                                       &stats);
    EXPECT_EQ(fl.score, fm.score) << to_string(kind);
    EXPECT_EQ(fl.gapped_a, fm.gapped_a) << to_string(kind);
    EXPECT_EQ(fl.gapped_b, fm.gapped_b) << to_string(kind);
  }
}

// ---------------------------------------------------------------------
// Fixed-seed fuzzing across all tiers: random alphabets, matrices and
// shapes at several magnitudes, so the same run covers native narrow
// arithmetic, mid-tile rails, and whole-call gate rejections.

class NarrowFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NarrowFuzz, AllTiersBitIdenticalAtEveryMagnitude) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 2862933555u + 29);
  // x1 and x7: int16 holds everything. x300: int16 rails sometimes.
  // x5000: int16 rails routinely.
  const Score scales[] = {1, 7, 300, 5000};
  for (const Score scale : scales) {
    static const char* kLetterSets[] = {"AB", "ACGT", "ABCDEFGH"};
    const char* letters = kLetterSets[rng.bounded(3)];
    const auto alpha = std::make_shared<Alphabet>(letters, "nfuzz");
    SubstitutionMatrix mx(*alpha, "nfuzz");
    for (Residue x = 0; x < alpha->size(); ++x) {
      for (Residue y = x; y < alpha->size(); ++y) {
        const Score base = x == y
                               ? static_cast<Score>(rng.bounded(14) + 1)
                               : static_cast<Score>(rng.bounded(13)) - 9;
        mx.set_symmetric(x, y, base * scale);
      }
    }
    const Score gap =
        -static_cast<Score>(rng.bounded(11) + 1) * (scale > 7 ? 7 : scale);
    const ScoringScheme scheme(mx, gap);
    SchemeCase c{"scale" + std::to_string(scale), alpha.get(), scheme,
                 alpha, nullptr};

    for (int trial = 0; trial < 4; ++trial) {
      const std::size_t m = rng.bounded(90);
      const std::size_t n = rng.bounded(90);
      const Sequence a = random_sequence(*alpha, m, rng);
      const Sequence b = random_sequence(*alpha, n, rng);
      expect_conformant(c, a, b, /*check_scripts=*/trial == 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NarrowFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace flsa
