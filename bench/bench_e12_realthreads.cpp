// E12 — real std::thread Parallel FastLSA (sanity harness).
//
// This measures actual wall time with the real thread pool and the
// wavefront executor, one row per thread count. On the paper's
// multiprocessor this is the headline experiment; on a low-core host (the
// host reports its count below) speedups are bounded by the hardware and
// the virtual-time benches E6-E8 carry the shape analysis. Correctness is
// asserted regardless.
#include <iostream>
#include <thread>

#include "benchlib/runner.hpp"
#include "benchlib/workloads.hpp"
#include "flsa/flsa.hpp"
#include "support/table.hpp"

int main() {
  std::cout << "=== E12: real-thread Parallel FastLSA ===\n\n";
  std::cout << "hardware_concurrency reported by this host: "
            << std::thread::hardware_concurrency() << "\n\n";
  const flsa::SequencePair pair = flsa::bench::sized_workload(4000).make();
  const flsa::ScoringScheme& scheme = flsa::ScoringScheme::paper_default();
  flsa::FastLsaOptions options;
  options.k = 8;
  options.base_case_cells = 1u << 16;

  const flsa::Score expected =
      flsa::fastlsa_align(pair.a, pair.b, scheme, options).score;

  flsa::Table table({"threads", "time ms", "speedup vs 1", "score ok"});
  double base_ms = 0.0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    flsa::ParallelOptions parallel;
    parallel.threads = threads;
    flsa::Score score = 0;
    const flsa::Summary timing = flsa::bench::time_runs(
        [&] {
          score = flsa::parallel_fastlsa_align(pair.a, pair.b, scheme,
                                               options, parallel)
                      .score;
        },
        /*reps=*/3, /*warmup=*/1);
    const double ms = timing.median * 1e3;
    if (threads == 1) base_ms = ms;
    table.add_row({std::to_string(threads), flsa::Table::num(ms),
                   flsa::Table::num(base_ms / ms),
                   score == expected ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\nOn a single-core host expect flat times (threading"
               " overhead only); on a real\nmultiprocessor this table"
               " reproduces the paper's near-linear speedups.\n";
  return 0;
}
