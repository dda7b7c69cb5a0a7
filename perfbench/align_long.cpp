// align-long: the paper's headline job, as a library user runs it. A
// fixed set of seeded long homologous pairs (DNA at ~15% and ~30%
// divergence, protein under MDM78) is aligned by Aligner::align with
// Strategy::kFastLsa and then by parallel_fastlsa_align on 4 threads,
// pass after pass, until the window closes.
#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "flsa/flsa.hpp"

namespace perfbench {
namespace {

constexpr unsigned kParallelThreads = 4;
constexpr flsa::Score kGap = -10;

struct LongPair {
  std::string label;
  flsa::Sequence a;
  flsa::Sequence b;
  const flsa::ScoringScheme* scheme = nullptr;
  double cells = 0.0;          ///< m * n
  flsa::Score expected = 0;    ///< oracle: fastlsa_score
};

const flsa::ScoringScheme& dna_scheme() {
  static const flsa::SubstitutionMatrix matrix = flsa::scoring::dna();
  static const flsa::ScoringScheme scheme(matrix, kGap);
  return scheme;
}

const flsa::ScoringScheme& protein_scheme() {
  static const flsa::ScoringScheme scheme(flsa::scoring::mdm78(), kGap);
  return scheme;
}

flsa::MutationModel divergence(double substitution, double indel) {
  flsa::MutationModel model;
  model.substitution_rate = substitution;
  model.insertion_rate = indel;
  model.deletion_rate = indel;
  model.extension_prob = 0.5;  // mean indel length 2
  return model;
}

std::vector<LongPair> make_pairs(const Args& args) {
  flsa::Xoshiro256 rng(args.seed);
  const std::size_t dna_len = args.tiny ? 1500 : 24000;
  const std::size_t protein_len = args.tiny ? 1000 : 16000;
  struct Spec {
    const char* label;
    const flsa::Alphabet* alphabet;
    std::size_t length;
    flsa::MutationModel model;
    const flsa::ScoringScheme* scheme;
  };
  // Substitutions plus indel residues (2 * rate * mean length 2).
  const Spec specs[] = {
      {"dna-15", &flsa::Alphabet::dna(), dna_len, divergence(0.10, 0.0125),
       &dna_scheme()},
      {"dna-30", &flsa::Alphabet::dna(), dna_len, divergence(0.20, 0.025),
       &dna_scheme()},
      {"protein", &flsa::Alphabet::protein(), protein_len,
       divergence(0.20, 0.01), &protein_scheme()},
  };
  std::vector<LongPair> pairs;
  for (const Spec& spec : specs) {
    flsa::SequencePair pair =
        flsa::homologous_pair(*spec.alphabet, spec.length, spec.model, rng);
    LongPair p{spec.label, std::move(pair.a), std::move(pair.b), spec.scheme};
    p.cells = static_cast<double>(p.a.size()) * static_cast<double>(p.b.size());
    pairs.push_back(std::move(p));
  }
  return pairs;
}

flsa::AlignOptions sequential_options() {
  flsa::AlignOptions options;
  options.strategy = flsa::Strategy::kFastLsa;
  return options;
}

flsa::ParallelOptions parallel_options() {
  flsa::ParallelOptions options;
  options.threads = kParallelThreads;
  return options;
}

/// Call times of every pair over whole passes. Rates divide the cells of
/// one pass by the sum of each pair's fastest call time. Outside load on
/// a shared host only ever slows a call, by up to a third from one second
/// to the next on a 4-vCPU VM, and a median over a run's dozen or so
/// passes still follows it; the fastest pass is the call with the least
/// of it.
struct Tally {
  std::vector<Samples> seq_seconds, par_seconds;  ///< per pair, per pass
  double pass_cells = 0.0;
  std::size_t passes = 0;

  static double fastest_sum(const std::vector<Samples>& per_pair) {
    double total = 0.0;
    for (const Samples& s : per_pair) total += s.quantile(0.0);
    return total;
  }
  double seq_rate() const { return pass_cells / fastest_sum(seq_seconds); }
  double par_rate() const { return pass_cells / fastest_sum(par_seconds); }
  /// Fastest call time of each pair: latency p50 is the middle pair's,
  /// p99 the slowest pair's.
  Samples pair_fastest() const {
    Samples out;
    for (const Samples& s : seq_seconds) out.add(s.quantile(0.0));
    return out;
  }
};

/// Runs whole passes over `pairs` until `seconds` have elapsed (at least
/// one), checking every answer against the oracle.
Tally measure(const std::vector<LongPair>& pairs, flsa::Aligner& aligner,
              double seconds, Tracer& tracer, Errors& errors,
              std::uint64_t& attempted) {
  Tally tally;
  tally.seq_seconds.resize(pairs.size());
  tally.par_seconds.resize(pairs.size());
  for (const LongPair& p : pairs) tally.pass_cells += p.cells;
  const auto window_start = Clock::now();
  std::uint64_t request = 0;
  do {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const LongPair& p = pairs[i];
      ++request;
      const auto t0 = Clock::now();
      const flsa::Alignment seq = aligner.align(p.a, p.b, *p.scheme);
      const auto t1 = Clock::now();
      const flsa::Alignment par = flsa::parallel_fastlsa_align(
          p.a, p.b, *p.scheme, flsa::FastLsaOptions{}, parallel_options());
      const auto t2 = Clock::now();
      tracer.record("core.align", 0, 0, request, t0, t1);
      tracer.record("parallel.align", 0, 0, request, t1, t2);

      attempted += 2;
      tally.seq_seconds[i].add(seconds_between(t0, t1));
      tally.par_seconds[i].add(seconds_between(t1, t2));

      if (seq.score != p.expected) {
        errors.fail(p.label + ": sequential score " + std::to_string(seq.score) +
                    " != oracle " + std::to_string(p.expected));
      } else if (flsa::score_alignment(seq, *p.scheme, p.a.alphabet()) !=
                 seq.score) {
        errors.fail(p.label + ": path re-scores to a different value");
      }
      if (par.score != seq.score || par.gapped_a != seq.gapped_a ||
          par.gapped_b != seq.gapped_b) {
        errors.fail(p.label + ": parallel alignment differs from sequential");
      }
    }
    ++tally.passes;
  } while (seconds_between(window_start, Clock::now()) < seconds);
  return tally;
}

double registry_seconds(const char* name) {
  return flsa::obs::metrics().histogram(name).snapshot().sum;
}

double registry_count(const char* name) {
  return static_cast<double>(flsa::obs::metrics().counter(name).value());
}

}  // namespace

Result run_align_long(const Args& args, Tracer& tracer) {
  Result result;
  Errors errors;
  std::vector<LongPair> pairs = make_pairs(args);

  // Oracle: FindScore of every pair, computed before any timing.
  for (LongPair& p : pairs) {
    p.expected = flsa::fastlsa_score(p.a, p.b, *p.scheme);
  }
  if (args.corrupt_oracle) pairs.front().expected += 1;

  // Set-up: a fresh Aligner plus one warm-up call of each API on the
  // first pair, which also grows the workspace. The last one is kept.
  std::optional<flsa::Aligner> aligner;
  const double setup_s = median_setup_seconds(5, [&](int) {
    const auto t0 = Clock::now();
    aligner.emplace(sequential_options());
    const LongPair& p = pairs.front();
    aligner->align(p.a, p.b, *p.scheme);
    flsa::parallel_fastlsa_align(p.a, p.b, *p.scheme, flsa::FastLsaOptions{},
                                 parallel_options());
    return seconds_between(t0, Clock::now());
  });

  const double window = args.trace ? args.seconds / 2 : args.seconds;
  const Tally plain =
      measure(pairs, *aligner, window, tracer, errors, result.attempted);

  const Samples pair_fastest = plain.pair_fastest();
  result.set("setup_s", setup_s, "s");
  result.set("throughput", plain.seq_rate(), "1/s");
  result.set("throughput_aux", plain.par_rate(), "1/s");
  result.set("latency_p50_ms", pair_fastest.median() * 1e3, "ms");
  result.set("latency_p99_ms", pair_fastest.quantile(0.99) * 1e3, "ms");
  std::ostringstream note;
  note << "align-long: " << plain.passes << " passes over " << pairs.size()
       << " pairs; sequential " << plain.seq_rate() * 1e-9
       << " Gcell/s, parallel(4) " << plain.par_rate() * 1e-9
       << " Gcell/s (fastest call times); latency samples "
       << plain.passes * pairs.size();
  result.note(note.str());

  if (args.trace) {
    tracer.set_enabled(true);
    flsa::obs::set_enabled(true);
    const Tally traced =
        measure(pairs, *aligner, window, tracer, errors, result.attempted);
    result.set("trace.overhead_ratio",
               plain.seq_rate() / traced.seq_rate() - 1.0,
               "ratio");
    result.set("latency_samples",
               static_cast<double>(traced.passes * pairs.size()), "count");
    result.set("parallel.speedup_p4",
               traced.par_rate() / traced.seq_rate(), "ratio");

    // dp: the FindScore kernel alone on every pair.
    double findscore_cells = 0.0, findscore_time = 0.0;
    for (const LongPair& p : pairs) {
      const auto t0 = Clock::now();
      const flsa::Score score = flsa::global_score_linear(
          flsa::KernelKind::kAuto, p.a.residues(), p.b.residues(), *p.scheme);
      const auto t1 = Clock::now();
      tracer.record("dp.findscore", 0, 0, 0, t0, t1);
      ++result.attempted;
      if (score != p.expected) errors.fail(p.label + ": findscore differs");
      findscore_cells += p.cells;
      findscore_time += seconds_between(t0, t1);
    }
    result.set("dp.findscore_gcups", findscore_cells / findscore_time * 1e-9,
               "Gcell/s");

    // core: one warm pass with a clean registry, so the phase sums and
    // engine counters describe exactly one alignment of each pair.
    flsa::obs::metrics().reset();
    double total_cells = 0.0, mn = 0.0, escalations = 0.0, misses = 0.0;
    std::size_t peak_bytes = 0;
    for (const LongPair& p : pairs) {
      flsa::AlignReport report;
      const auto t0 = Clock::now();
      const flsa::Alignment seq = aligner->align(p.a, p.b, *p.scheme, &report);
      tracer.record("core.align", 0, 0, 0, t0, Clock::now());
      ++result.attempted;
      if (seq.score != p.expected) errors.fail(p.label + ": probe score");
      total_cells += static_cast<double>(report.stats.counters.total_cells());
      mn += p.cells;
      escalations +=
          static_cast<double>(report.stats.counters.kernel_escalations);
      misses += static_cast<double>(report.stats.arena_pool_misses);
      peak_bytes = std::max(peak_bytes, report.stats.peak_bytes);
    }
    const double fill_s = registry_seconds("phase.fill-grid.seconds");
    const double base_s = registry_seconds("phase.base-case.seconds");
    result.set("dp.kernel_escalations", escalations, "count");
    result.set("core.cells_ratio", total_cells / mn, "ratio");
    result.set("core.fill_grid_s", fill_s, "s");
    result.set("core.base_case_s", base_s, "s");
    result.set("core.base_case_share",
               fill_s + base_s > 0.0 ? base_s / (fill_s + base_s) : 0.0,
               "ratio");
    result.set("core.fill_grid_cells", registry_count("phase.fill-grid.cells"),
               "count");
    result.set("core.base_case_cells", registry_count("phase.base-case.cells"),
               "count");
    result.set("core.peak_kib", static_cast<double>(peak_bytes) / 1024.0,
               "KiB");
    result.set("core.arena_misses_warm", misses, "count");
    flsa::obs::set_enabled(false);
  }

  result.set("peak_rss_mb", peak_rss_mib(), "MiB");
  result.failed = errors.count();
  for (const std::string& m : errors.messages()) result.note("error: " + m);
  return result;
}

}  // namespace perfbench
