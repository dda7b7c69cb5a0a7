// flsa_align — command-line pairwise aligner.
//
// Reads two sequences from FASTA (one file with two records, or two files
// with one record each) and aligns them with the requested mode and
// algorithm.
//
//   flsa_align pair.fasta
//   flsa_align --mode local --matrix blosum62 --gap -6 query.fa target.fa
//   flsa_align --algorithm fastlsa --k 8 --memory-mb 64 --stats big.fa
//   flsa_align --algorithm parallel --threads 8 --metrics
//       --trace-out trace.json big.fa
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "core/advisor.hpp"
#include "dp/kernel.hpp"
#include "core/local_align.hpp"
#include "core/semiglobal.hpp"
#include "flsa/flsa.hpp"
#include "scoring/matrix_io.hpp"
#include "support/cli.hpp"
#include "support/timer.hpp"

namespace {

// Upper bound on --threads. The thread pool starts every worker eagerly,
// so an out-of-range count (a negative one would wrap to ~4 billion as
// unsigned) is a usage error, not a request.
constexpr std::int64_t kMaxThreads = 1024;

struct LoadedInputs {
  flsa::Sequence a;
  flsa::Sequence b;
};

const flsa::Alphabet& alphabet_for(const std::string& matrix_name) {
  if (matrix_name == "dna") return flsa::Alphabet::dna();
  if (matrix_name == "dna-n") return flsa::Alphabet::dna_n();
  return flsa::Alphabet::protein();
}

LoadedInputs load_inputs(const std::vector<std::string>& paths,
                         const flsa::Alphabet& alphabet) {
  std::vector<flsa::Sequence> records;
  for (const std::string& path : paths) {
    for (flsa::Sequence& seq : flsa::read_fasta_file(path, alphabet)) {
      records.push_back(std::move(seq));
    }
  }
  if (records.size() < 2) {
    throw std::invalid_argument(
        "need two FASTA records (got " + std::to_string(records.size()) +
        ")");
  }
  return LoadedInputs{std::move(records[0]), std::move(records[1])};
}

}  // namespace

int main(int argc, char** argv) {
  flsa::CliParser cli(
      "flsa_align: optimal pairwise sequence alignment (FastLSA library)");
  cli.add_string("mode", "global",
                 "alignment mode: global | local | fitting | overlap");
  cli.add_string("matrix", "mdm78",
                 "mdm78 | pam250 | blosum62 | dna | dna-n | path to an "
                 "NCBI-format matrix file");
  cli.add_int("gap", flsa::kDefaultGapExtend,
              "linear gap penalty per residue (<= 0)");
  cli.add_int("gap-open", flsa::kDefaultGapOpen,
              "affine gap-open penalty (<= 0; 0 selects linear gaps; "
              "global and local modes only)");
  cli.add_string("algorithm", "auto",
                 "auto | full-matrix | hirschberg | fastlsa | parallel");
  cli.add_int("k", 8, "FastLSA division factor");
  cli.add_int("bm", 1 << 20, "FastLSA base-case buffer, in DPM cells");
  cli.add_int("threads", 1,
              "threads for --algorithm parallel (0 counts as 1, at most " +
                  std::to_string(kMaxThreads) + ")");
  // The accepted --kernel names come from the dispatch table itself, so
  // the help text can never drift from what parse_kernel_kind accepts.
  std::string kernel_help = "DP sweep kernel: ";
  for (const flsa::KernelInfo& info : flsa::kernel_registry()) {
    if (info.kind != flsa::kernel_registry().front().kind) {
      kernel_help += " | ";
    }
    kernel_help += info.name;
  }
  kernel_help +=
      " (see --list-kernels; every kernel produces identical results)";
  cli.add_string("kernel", "auto", kernel_help);
  cli.add_flag("list-kernels", false,
               "list the available DP kernels and exit");
  cli.add_int("memory-mb", 0,
              "memory budget in MiB for --algorithm auto (0 = unbounded)");
  cli.add_flag("prune", false,
               "score-bound tile pruning of the FastLSA fill phase "
               "(identical score and alignment, fewer cells swept)");
  cli.add_flag("stats", false, "print operation/memory statistics");
  cli.add_flag("metrics", false,
               "record and print per-phase metrics (timings, cells/s)");
  cli.add_string("trace-out", "",
                 "write a Chrome-trace JSON (chrome://tracing / Perfetto) "
                 "of per-worker tile execution to this file");
  cli.add_flag("advise", false,
               "print the advisor's recommended configuration and exit");
  cli.add_int("width", 60, "pretty-print width");
  cli.add_string("format", "pretty", "output format: pretty | blast | tsv");

  try {
    if (!cli.parse(argc, argv)) return 0;
    if (cli.get_flag("list-kernels")) {
      for (const flsa::KernelInfo& info : flsa::kernel_registry()) {
        std::cout << info.name << " : " << info.summary << "\n";
      }
      return 0;
    }
    // Range checks before anything is built: the minimums are
    // FastLsaOptions::validate()'s, the maximums what the fields hold.
    static_assert(sizeof(std::size_t) >= sizeof(std::int64_t));
    if (!cli.int_in_range("threads", 0, kMaxThreads) ||
        !cli.int_in_range("k", 2, std::numeric_limits<unsigned>::max()) ||
        !cli.int_in_range("bm", 16,
                          std::numeric_limits<std::int64_t>::max())) {
      return 2;
    }
    const unsigned threads =
        std::max(1u, static_cast<unsigned>(cli.get_int("threads")));
    if (cli.positional().empty()) {
      std::cerr << "error: no FASTA input given (see --help)\n";
      return 2;
    }

    // Scoring.
    const std::string matrix_name = cli.get_string("matrix");
    flsa::scoring::LoadedMatrix loaded;
    const flsa::SubstitutionMatrix* matrix = nullptr;
    static const flsa::SubstitutionMatrix dna_matrix = flsa::scoring::dna();
    static const flsa::SubstitutionMatrix dna_n_matrix =
        flsa::scoring::dna_n();
    if (matrix_name == "mdm78") {
      matrix = &flsa::scoring::mdm78();
    } else if (matrix_name == "pam250") {
      matrix = &flsa::scoring::pam250();
    } else if (matrix_name == "blosum62") {
      matrix = &flsa::scoring::blosum62();
    } else if (matrix_name == "dna") {
      matrix = &dna_matrix;
    } else if (matrix_name == "dna-n") {
      matrix = &dna_n_matrix;
    } else {
      loaded = flsa::scoring::read_matrix_file(matrix_name);
      matrix = loaded.matrix.get();
    }
    const flsa::Alphabet& alphabet =
        loaded.alphabet ? *loaded.alphabet : alphabet_for(matrix_name);

    const auto gap = static_cast<flsa::Score>(cli.get_int("gap"));
    const auto gap_open = static_cast<flsa::Score>(cli.get_int("gap-open"));
    const flsa::ScoringScheme scheme =
        gap_open == 0 ? flsa::ScoringScheme(*matrix, gap)
                      : flsa::ScoringScheme(*matrix, gap_open, gap);
    const std::string mode = cli.get_string("mode");
    if (!scheme.is_linear() && (mode == "fitting" || mode == "overlap")) {
      std::cerr << "error: --gap-open applies to --mode global and local "
                   "only; --mode "
                << mode << " aligns with linear gaps (drop --gap-open)\n";
      return 2;
    }

    const LoadedInputs inputs = load_inputs(cli.positional(), alphabet);
    const flsa::Sequence& a = inputs.a;
    const flsa::Sequence& b = inputs.b;

    if (cli.get_flag("advise")) {
      flsa::MachineProfile machine;
      machine.processors = threads;
      if (cli.get_int("memory-mb") > 0) {
        machine.memory_bytes =
            static_cast<std::size_t>(cli.get_int("memory-mb")) << 20;
      }
      const flsa::Recommendation rec = flsa::recommend(
          a.size(), b.size(), !scheme.is_linear(), machine);
      std::cout << "strategy : " << flsa::to_string(rec.strategy) << "\n"
                << "k        : " << rec.fastlsa.k << "\n"
                << "BM cells : " << rec.fastlsa.base_case_cells << "\n"
                << "rationale: " << rec.rationale << "\n";
      return 0;
    }

    flsa::FastLsaOptions fl;
    fl.k = static_cast<unsigned>(cli.get_int("k"));
    fl.base_case_cells = static_cast<std::size_t>(cli.get_int("bm"));
    flsa::KernelKind kernel = flsa::KernelKind::kAuto;
    if (!flsa::parse_kernel_kind(cli.get_string("kernel"), &kernel)) {
      std::string choices;
      for (const flsa::KernelInfo& info : flsa::kernel_registry()) {
        if (!choices.empty()) choices += " | ";
        choices += info.name;
      }
      throw std::invalid_argument("unknown --kernel " +
                                  cli.get_string("kernel") + " (choices: " +
                                  choices + ")");
    }
    fl.kernel = kernel;
    fl.prune = cli.get_flag("prune");

    // Observability: arm the metrics registry and/or a trace recorder
    // before the alignment runs. Both are process-global switches; this
    // tool runs one alignment, so scoping is trivial.
    const bool metrics_on = cli.get_flag("metrics");
    const std::string trace_path = cli.get_string("trace-out");
    flsa::obs::TraceRecorder trace;
    if (metrics_on) flsa::obs::set_enabled(true);
    if (!trace_path.empty()) flsa::obs::set_active_trace(&trace);

    flsa::Timer timer;
    flsa::Alignment aln;
    flsa::FastLsaStats stats;
    flsa::AlignReport report;
    std::string algorithm_used;

    if (mode == "local") {
      if (scheme.is_linear()) {
        aln = flsa::local_align(a, b, scheme, fl, &stats);
        algorithm_used = "linear-space local (FastLSA)";
      } else {
        aln = flsa::local_align_full_matrix_affine(a, b, scheme,
                                                   &stats.counters);
        algorithm_used = "affine local (full matrix)";
      }
    } else if (mode == "fitting") {
      aln = flsa::fitting_align(a, b, scheme, fl, &stats);
      algorithm_used = "linear-space fitting (FastLSA)";
    } else if (mode == "overlap") {
      aln = flsa::overlap_align(a, b, scheme, fl, &stats);
      algorithm_used = "linear-space overlap (FastLSA)";
    } else if (mode == "global") {
      const std::string algorithm = cli.get_string("algorithm");
      if (algorithm == "parallel") {
        flsa::ParallelOptions parallel;
        parallel.threads = threads;
        aln = scheme.is_linear()
                  ? flsa::parallel_fastlsa_align(a, b, scheme, fl, parallel,
                                                 &stats)
                  : flsa::parallel_fastlsa_align_affine(a, b, scheme, fl,
                                                        parallel, &stats);
        algorithm_used = "parallel fastlsa";
      } else {
        flsa::AlignOptions options;
        options.fastlsa = fl;
        options.hirschberg.kernel = kernel;
        if (algorithm == "full-matrix") {
          options.strategy = flsa::Strategy::kFullMatrix;
        } else if (algorithm == "hirschberg") {
          options.strategy = flsa::Strategy::kHirschberg;
        } else if (algorithm == "fastlsa") {
          options.strategy = flsa::Strategy::kFastLsa;
        } else if (algorithm == "auto") {
          options.strategy = flsa::Strategy::kAuto;
          if (cli.get_int("memory-mb") > 0) {
            options.memory_limit_bytes =
                static_cast<std::size_t>(cli.get_int("memory-mb")) << 20;
          }
        } else {
          throw std::invalid_argument("unknown --algorithm " + algorithm);
        }
        aln = flsa::align(a, b, scheme, options, &report);
        stats = report.stats;
        algorithm_used = flsa::to_string(report.chosen);
      }
    } else {
      throw std::invalid_argument("unknown --mode " + mode);
    }
    const double seconds = timer.seconds();

    const std::string format = cli.get_string("format");
    const auto width = static_cast<std::size_t>(cli.get_int("width"));
    if (format == "tsv") {
      std::cout << flsa::tsv_header() << "\n"
                << flsa::format_tsv(aln, a.id(), b.id()) << "\n";
    } else if (format == "blast") {
      std::cout << flsa::format_blast(aln, a.id(), b.id(), width) << "\n";
    } else if (format == "pretty") {
      std::cout << "# " << a.id() << " (" << a.size() << ") x " << b.id()
                << " (" << b.size() << "), mode=" << mode << ", "
                << algorithm_used << "\n"
                << "score    : " << aln.score << "\n"
                << "identity : " << 100.0 * aln.identity() << "%\n"
                << "region   : a[" << aln.a_begin << "," << aln.a_end
                << ") x b[" << aln.b_begin << "," << aln.b_end << ")\n"
                << "cigar    : " << aln.cigar() << "\n\n"
                << aln.pretty(width) << "\n";
    } else {
      throw std::invalid_argument("unknown --format " + format);
    }
    if (cli.get_flag("stats")) {
      std::cout << "time            : " << seconds * 1e3 << " ms\n"
                << "kernel          : " << flsa::to_string(stats.kernel_used)
                << " (requested " << flsa::to_string(kernel) << ", simd ISA "
                << flsa::simd_kernel_isa() << ")\n"
                << "cells scored    : " << stats.counters.cells_scored
                << "\ncells stored    : " << stats.counters.cells_stored
                << "\ntraceback steps : " << stats.counters.traceback_steps
                << "\nkernel escalations : "
                << stats.counters.kernel_escalations
                << "\ntiles pruned    : " << stats.counters.tiles_pruned
                << "\npeak DPM bytes  : " << stats.peak_bytes << "\n";
    }
    if (!trace_path.empty()) {
      flsa::obs::set_active_trace(nullptr);
      std::ofstream out(trace_path);
      if (!out) {
        throw std::invalid_argument("cannot open --trace-out file " +
                                    trace_path);
      }
      trace.write_chrome_trace(out);
      if (!out.flush()) {
        throw std::runtime_error("failed writing --trace-out file " +
                                 trace_path);
      }
      std::cout << "trace    : " << trace.size() << " spans -> "
                << trace_path << "\n";
    }
    if (metrics_on) {
      std::cout << "\n";
      flsa::obs::metrics().report(std::cout);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
