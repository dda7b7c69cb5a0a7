// Parallel FastLSA demonstration: real threads (wall time) plus the
// virtual-time processor model that reproduces the paper's speedup curves
// independent of the host's core count.
//
//   ./examples/parallel_scaling --length 3000 --max-threads 4
#include <iostream>

#include "flsa/flsa.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  flsa::CliParser cli("Parallel FastLSA scaling demonstration");
  cli.add_int("length", 3000, "sequence length");
  cli.add_int("max-threads", 4,
              "largest real thread count to run (1 to 1024)");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto length = static_cast<std::size_t>(cli.get_int("length"));
    // Each doubling step starts a real pool, so the cap keeps a typo (or a
    // negative value wrapping to ~4e9) from asking for billions of threads.
    if (!cli.int_in_range("max-threads", 1, 1024)) return 2;
    const auto max_threads = static_cast<unsigned>(cli.get_int("max-threads"));

    flsa::Xoshiro256 rng(11);
    flsa::MutationModel model;
    const flsa::SequencePair pair =
        flsa::homologous_pair(flsa::Alphabet::protein(), length, model, rng);
    const flsa::ScoringScheme& scheme = flsa::ScoringScheme::paper_default();
    flsa::FastLsaOptions options;
    options.k = 8;
    options.base_case_cells = 1u << 16;

    std::cout << "pair: " << pair.a.size() << " x " << pair.b.size()
              << ", k=" << options.k << "\n\n";

    std::cout << "real threads (wall time; speedups depend on this host's "
                 "core count):\n";
    flsa::Table real({"threads", "time ms", "score"});
    for (unsigned threads = 1; threads <= max_threads; threads *= 2) {
      flsa::ParallelOptions parallel;
      parallel.threads = threads;
      flsa::Timer timer;
      const flsa::Alignment aln = flsa::parallel_fastlsa_align(
          pair.a, pair.b, scheme, options, parallel);
      real.add_row({std::to_string(threads),
                    flsa::Table::num(timer.millis()),
                    std::to_string(aln.score)});
    }
    real.print(std::cout);

    std::cout << "\nvirtual-time model (tile-DAG replay; the paper's "
                 "speedup-shape experiment):\n";
    const flsa::SimulatedRun run = flsa::record_fastlsa(
        pair.a, pair.b, scheme, options, /*simulated_threads=*/8);
    flsa::Table virt({"P", "speedup", "efficiency"});
    for (unsigned p : {1u, 2u, 4u, 8u, 16u}) {
      const flsa::SpeedupPoint point = flsa::speedup_at(
          run.trace, p, flsa::SchedulerKind::kDependencyCounter);
      virt.add_row({std::to_string(p), flsa::Table::num(point.speedup),
                    flsa::Table::num(point.efficiency)});
    }
    virt.print(std::cout);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
