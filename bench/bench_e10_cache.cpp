// E10 — memory-hierarchy effects (google-benchmark microbenchmarks).
//
// The paper's explanation for FastLSA beating FM in practice is cache
// behaviour: FM sweeps a quadratic matrix once; FastLSA re-derives blocks
// inside a buffer sized to cache. These benchmarks expose that directly:
//   - kernel throughput vs working-set width (row kernel),
//   - full-matrix vs FastLSA wall time at equal problem size,
//   - FastLSA throughput vs Base Case buffer size.
#include <benchmark/benchmark.h>

#include "benchlib/workloads.hpp"
#include "flsa/flsa.hpp"

namespace {

const flsa::SequencePair& pair4k() {
  static const flsa::SequencePair pair =
      flsa::bench::sized_workload(4000).make();
  return pair;
}

void BM_RowKernelWidth(benchmark::State& state) {
  // Fixed 2M-cell sweeps with varying row width: when the row falls out of
  // L1/L2 the throughput drops — the effect FastLSA's blocking exploits.
  const auto width = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = (1u << 21) / width;
  flsa::Xoshiro256 rng(1);
  const flsa::Sequence a =
      flsa::random_sequence(flsa::Alphabet::protein(), rows, rng);
  const flsa::Sequence b =
      flsa::random_sequence(flsa::Alphabet::protein(), width, rng);
  const flsa::ScoringScheme& scheme = flsa::ScoringScheme::paper_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flsa::global_score_linear(flsa::KernelKind::kScalar, a.residues(),
                                  b.residues(), scheme));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * width));
}
BENCHMARK(BM_RowKernelWidth)->RangeMultiplier(4)->Range(256, 1 << 18);

void BM_FullMatrixAlign(benchmark::State& state) {
  const flsa::SequencePair& pair = pair4k();
  const flsa::ScoringScheme& scheme = flsa::ScoringScheme::paper_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flsa::full_matrix_align(pair.a, pair.b, scheme));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(pair.a.size() * pair.b.size()));
}
BENCHMARK(BM_FullMatrixAlign)->Unit(benchmark::kMillisecond);

void BM_FastLsaBufferSize(benchmark::State& state) {
  // FastLSA wall time vs BM: small cache-resident buffers win over big
  // memory-resident ones despite doing (slightly) more operations.
  const flsa::SequencePair& pair = pair4k();
  const flsa::ScoringScheme& scheme = flsa::ScoringScheme::paper_default();
  flsa::FastLsaOptions options;
  options.k = 8;
  options.base_case_cells = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flsa::fastlsa_align(pair.a, pair.b, scheme, options));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(pair.a.size() * pair.b.size()));
}
BENCHMARK(BM_FastLsaBufferSize)
    ->RangeMultiplier(8)
    ->Range(1 << 12, 1 << 24)
    ->Unit(benchmark::kMillisecond);

void BM_RowKernelPlain(benchmark::State& state) {
  const flsa::SequencePair& pair = pair4k();
  const flsa::ScoringScheme& scheme = flsa::ScoringScheme::paper_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(flsa::global_score_linear(
        flsa::KernelKind::kScalar, pair.a.residues(), pair.b.residues(),
        scheme));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(pair.a.size() * pair.b.size()));
}
BENCHMARK(BM_RowKernelPlain)->Unit(benchmark::kMillisecond);

void BM_Hirschberg(benchmark::State& state) {
  const flsa::SequencePair& pair = pair4k();
  const flsa::ScoringScheme& scheme = flsa::ScoringScheme::paper_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flsa::hirschberg_align(pair.a, pair.b, scheme));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(pair.a.size() * pair.b.size()));
}
BENCHMARK(BM_Hirschberg)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
