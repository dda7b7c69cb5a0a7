// E11 — ablation (our addition, called out in DESIGN.md): wavefront
// scheduling policy and fill-tile granularity.
//
// The paper schedules wavefront lines as synchronized stages; the
// dependency-counter scheduler removes the barrier. Two views:
//   * virtual time: compares the two schedules themselves (the barrier
//     policy exists only here, where the alpha model is checked);
//   * real threads: wall-clock cells/s of the one real-thread executor on
//     a uniform square grid and on a ragged rectangular grid at large P,
//     plus allocation counters. This section feeds BENCH_sched.json so CI
//     tracks the perf trajectory.
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/runner.hpp"
#include "benchlib/workloads.hpp"
#include "flsa/flsa.hpp"
#include "obs/metrics.hpp"
#include "support/table.hpp"

namespace {

struct RealRow {
  std::string config;
  unsigned threads = 0;
  double median_ms = 0.0;
  double cells_per_s = 0.0;
  std::uint64_t pool_misses_steady = 0;
  std::uint64_t pool_hits_steady = 0;
  bool score_ok = false;
};

/// One real-thread config, timed. A reused workspace makes the timed runs
/// steady-state (warm-up absorbs the pool growth), so
/// pool_misses_steady == 0 is itself an assertion of the allocation-free
/// hot path.
RealRow run_real_config(const std::string& config, const flsa::Sequence& a,
                        const flsa::Sequence& b,
                        const flsa::ScoringScheme& scheme,
                        const flsa::FastLsaOptions& base_options,
                        unsigned threads, std::size_t tiles_per_block) {
  const flsa::Score expected =
      flsa::fastlsa_align(a, b, scheme, base_options).score;
  const double cells =
      static_cast<double>(a.size()) * static_cast<double>(b.size());
  flsa::FastLsaWorkspace workspace;
  flsa::FastLsaOptions options = base_options;
  options.workspace = &workspace;
  flsa::ParallelOptions parallel;
  parallel.threads = threads;
  parallel.tiles_per_block = tiles_per_block;

  flsa::FastLsaStats stats;
  flsa::Score score = 0;
  const flsa::Summary timing = flsa::bench::time_runs(
      [&] {
        score =
            flsa::parallel_fastlsa_align(a, b, scheme, options, parallel,
                                         &stats)
                .score;
      },
      /*reps=*/5, /*warmup=*/1);

  RealRow row;
  row.config = config;
  row.threads = threads;
  row.median_ms = timing.median * 1e3;
  row.cells_per_s = flsa::bench::cells_per_second(cells, timing.median);
  // stats come from the last (fully warm) rep.
  row.pool_misses_steady = stats.arena_pool_misses;
  row.pool_hits_steady = stats.arena_pool_hits;
  row.score_ok = score == expected;
  return row;
}

void write_json(const std::string& path,
                const std::vector<std::vector<std::string>>& virtual_rows,
                const std::vector<RealRow>& real_rows) {
  std::ofstream out(path);
  if (!out) return;
  out << "{\n  \"host_threads\": " << std::thread::hardware_concurrency()
      << ",\n  \"virtual\": [\n";
  for (std::size_t i = 0; i < virtual_rows.size(); ++i) {
    const auto& r = virtual_rows[i];
    out << "    {\"tiles_per_block\": " << r[0] << ", \"top_tiles\": " << r[1]
        << ", \"scheduler\": \"" << r[2] << "\", \"speedup_at_8\": " << r[3]
        << ", \"efficiency_at_8\": " << r[4] << ", \"model_bound_at_8\": "
        << r[5] << "}" << (i + 1 < virtual_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"real\": [\n";
  for (std::size_t i = 0; i < real_rows.size(); ++i) {
    const RealRow& r = real_rows[i];
    out << "    {\"config\": \"" << r.config
        << "\", \"threads\": " << r.threads
        << ", \"median_ms\": " << r.median_ms
        << ", \"cells_per_s\": " << r.cells_per_s
        << ", \"pool_misses_steady\": " << r.pool_misses_steady
        << ", \"pool_hits_steady\": " << r.pool_hits_steady
        << ", \"score_ok\": " << (r.score_ok ? "true" : "false") << "}"
        << (i + 1 < real_rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main() {
  std::cout << "=== E11: scheduler + tiling ablation ===\n\n";
  const flsa::SequencePair pair = flsa::bench::sized_workload(4000).make();
  flsa::FastLsaOptions options;
  options.k = 8;
  options.base_case_cells = 1u << 14;

  // ---- Virtual time: the schedule itself, no hardware noise. ----
  std::vector<std::vector<std::string>> virtual_rows;
  flsa::Table table({"tiles/block", "R=C (top)", "policy", "speedup@8",
                     "eff@8", "model eff bound@8"});
  for (std::size_t tiles : {1u, 2u, 4u, 8u}) {
    const flsa::SimulatedRun run = flsa::record_fastlsa(
        pair.a, pair.b, flsa::ScoringScheme::paper_default(), options,
        /*simulated_threads=*/8, tiles, /*base_case_tiles=*/4 * tiles);
    const std::size_t top = options.k * tiles;
    for (flsa::SchedulerKind policy :
         {flsa::SchedulerKind::kBarrierStaged,
          flsa::SchedulerKind::kDependencyCounter}) {
      const flsa::SpeedupPoint p8 = flsa::speedup_at(run.trace, 8, policy);
      const std::vector<std::string> row = {
          std::to_string(tiles), std::to_string(top), flsa::to_string(policy),
          flsa::Table::num(p8.speedup), flsa::Table::num(p8.efficiency),
          flsa::Table::num(flsa::model::efficiency_bound(8, top, top))};
      table.add_row(row);
      virtual_rows.push_back(row);
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: dependency-counter beats barrier-staged at"
               " every tiling;\nfiner tiles raise both (alpha falls with"
               " R*C), with diminishing returns\npast ~4.\n";

  // ---- Real threads: wall-clock cells/s of the wavefront executor. ----
  std::cout << "\n=== real-thread wavefront executor (host threads: "
            << std::thread::hardware_concurrency() << ") ===\n\n";
  flsa::obs::set_enabled(true);  // arena counters are gated on this
  std::vector<RealRow> real_rows;
  // Uniform: square problem, coarse tiles, moderate P — every wavefront
  // line is evenly loaded.
  real_rows.push_back(run_real_config(
      "uniform", pair.a, pair.b, flsa::ScoringScheme::paper_default(),
      options, /*threads=*/4, /*tiles_per_block=*/2));
  // Ragged/large-P: rectangular unrelated pair, fine tiles, P = 8. The
  // min-tile-extent floor and the 4:1 aspect ratio make tile costs ragged.
  {
    flsa::Xoshiro256 rng(7);
    const flsa::Sequence ra =
        flsa::random_sequence(flsa::Alphabet::protein(), 6000, rng);
    const flsa::Sequence rb =
        flsa::random_sequence(flsa::Alphabet::protein(), 1500, rng);
    real_rows.push_back(run_real_config(
        "ragged", ra, rb, flsa::ScoringScheme::paper_default(), options,
        /*threads=*/8, /*tiles_per_block=*/3));
  }
  flsa::Table real({"config", "P", "time ms", "Mcell/s", "pool miss",
                    "score ok"});
  for (const RealRow& r : real_rows) {
    real.add_row({r.config, std::to_string(r.threads),
                  flsa::Table::num(r.median_ms),
                  flsa::Table::num(r.cells_per_s / 1e6),
                  std::to_string(r.pool_misses_steady),
                  r.score_ok ? "yes" : "NO"});
  }
  real.print(std::cout);
  std::cout << "\nSteady-state pool misses must be 0 (the arena absorbs all"
               " per-run allocation\nafter warm-up). The virtual table above"
               " carries the schedule comparison.\n";

  write_json("BENCH_sched.json", virtual_rows, real_rows);
  std::cout << "\nwrote BENCH_sched.json\n";

  // Visualize the paper's three wavefront phases (its Figure 13) on the
  // largest fill grid: ramp-up dots at the left, a saturated middle, and
  // ramp-down at the right. Digits are the tile's anti-diagonal mod 10.
  const flsa::SimulatedRun viz = flsa::record_fastlsa(
      pair.a, pair.b, flsa::ScoringScheme::paper_default(), options,
      /*simulated_threads=*/8, /*tiles_per_block=*/2,
      /*base_case_tiles=*/8);
  const flsa::TileGridRecord* biggest = nullptr;
  for (const flsa::TileGridRecord& g : viz.trace.grids) {
    if (g.phase == flsa::TilePhase::kFillCache &&
        (!biggest || g.total_cost() > biggest->total_cost())) {
      biggest = &g;
    }
  }
  if (biggest) {
    std::cout << "\ntop-level fill schedule on P = 8 (paper Figure 13's"
                 " three phases):\n";
    std::cout << flsa::render_gantt(
        flsa::schedule_grid(*biggest, 8));
  }
  return 0;
}
