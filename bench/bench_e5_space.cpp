// E5 — space usage: the quadratic/linear spectrum.
//
// FM stores (m+1)(n+1) cells; Hirschberg O(m+n); FastLSA adapts between
// them through BM (Base Case buffer) and k; banded alignment is
// O(m * band) and is what makes multi-megabase global alignment
// practical at all. Peak bytes are *measured* by the library's memory
// tracker for FastLSA and computed exactly for FM/banded; Hirschberg's
// O(m+n) rows are reported analytically. All cell arithmetic goes
// through the saturating estimated_cells helpers — at the multi-megabase
// row the naive (m+1)*(n+1) product is within an order of magnitude of
// wrapping 64 bits, and a wrapped byte count would chart as a tiny bar.
//
// Emits BENCH_space.json for CI trend tracking (same shape as the other
// BENCH_*.json artifacts).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "benchlib/workloads.hpp"
#include "dp/banded.hpp"
#include "flsa/flsa.hpp"
#include "service/protocol.hpp"
#include "support/checked.hpp"
#include "support/table.hpp"

namespace {

struct SpaceRow {
  std::string pair;
  std::string algorithm;
  std::uint64_t peak_bytes = 0;
  double vs_fm_percent = 0;
  double cell_factor = 0;  ///< cells computed / (m * n)
};

void write_space_json(const std::string& path,
                      const std::vector<SpaceRow>& rows) {
  std::ofstream out(path);
  if (!out) return;
  out << "{\n  \"space\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SpaceRow& r = rows[i];
    out << "    {\"pair\": \"" << r.pair << "\", \"algorithm\": \""
        << r.algorithm << "\", \"peak_bytes\": " << r.peak_bytes
        << ", \"vs_fm_percent\": " << r.vs_fm_percent
        << ", \"cell_factor\": " << r.cell_factor << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main() {
  std::cout << "=== E5: space usage across the algorithm spectrum ===\n\n";
  std::vector<SpaceRow> rows;
  flsa::Table table({"pair", "algorithm", "peak KiB", "vs FM %",
                     "cells (x m*n)"});
  auto emit = [&](const SpaceRow& row) {
    rows.push_back(row);
    table.add_row({row.pair, row.algorithm,
                   std::to_string(row.peak_bytes / 1024),
                   flsa::Table::num(row.vs_fm_percent),
                   flsa::Table::num(row.cell_factor)});
  };

  for (const flsa::bench::Workload& w : flsa::bench::standard_suite(8000)) {
    const flsa::SequencePair pair = w.make();
    const flsa::ScoringScheme& scheme = w.scheme();
    const double mn = static_cast<double>(pair.a.size()) *
                      static_cast<double>(pair.b.size());
    // Saturating: the same admission-budget currency the service uses,
    // so a pair too big for 64-bit cell counts pins at the ceiling
    // instead of wrapping to a small lie.
    const std::uint64_t fm_bytes = flsa::mul_sat_u64(
        flsa::service::estimated_cells(pair.a.size(), pair.b.size()),
        sizeof(flsa::Score));
    emit({w.name, "full-matrix", fm_bytes, 100.0, 1.0});
    const std::uint64_t hirschberg_bytes =
        // two score rows + recursion bookkeeping
        3 * (pair.a.size() + pair.b.size() + 2) * sizeof(flsa::Score);
    emit({w.name, "hirschberg (analytical)", hirschberg_bytes,
          100.0 * static_cast<double>(hirschberg_bytes) /
              static_cast<double>(fm_bytes),
          2.0});
    for (const auto& [label, bm] :
         {std::pair<const char*, std::size_t>{"fastlsa BM=64Ki", 1u << 16},
          {"fastlsa BM=1Mi", 1u << 20}}) {
      flsa::FastLsaOptions options;
      options.k = 8;
      options.base_case_cells = bm;
      flsa::FastLsaStats stats;
      flsa::fastlsa_align(pair.a, pair.b, scheme, options, &stats);
      emit({w.name, label, stats.peak_bytes,
            100.0 * static_cast<double>(stats.peak_bytes) /
                static_cast<double>(fm_bytes),
            static_cast<double>(stats.counters.total_cells()) / mn});
    }
  }

  // The genome-scale row: a 2 Mbp substitution-only DNA pair under a
  // banded global alignment (half-width 32), the streaming service's
  // ALIGN_REF mode. FM would need ~16 TB here; the band needs ~500 MiB.
  {
    constexpr std::size_t kGenomeBp = 2'000'000;
    constexpr std::size_t kBand = 32;
    flsa::Xoshiro256 rng(55);
    flsa::MutationModel model;
    model.substitution_rate = 0.02;
    model.insertion_rate = 0;
    model.deletion_rate = 0;
    const flsa::SequencePair pair =
        flsa::homologous_pair(flsa::Alphabet::dna(), kGenomeBp, model, rng);
    static const flsa::SubstitutionMatrix matrix = flsa::scoring::dna();
    const flsa::ScoringScheme scheme(matrix, -4);
    flsa::DpCounters counters;
    const flsa::Score score =
        flsa::banded_align(pair.a, pair.b, scheme, kBand, &counters).score;
    const std::uint64_t fm_bytes = flsa::mul_sat_u64(
        flsa::service::estimated_cells(pair.a.size(), pair.b.size()),
        sizeof(flsa::Score));
    const std::uint64_t banded_bytes = flsa::mul_sat_u64(
        flsa::service::estimated_banded_cells(pair.a.size(), pair.b.size(),
                                              kBand),
        sizeof(flsa::Score));
    const double mn = static_cast<double>(pair.a.size()) *
                      static_cast<double>(pair.b.size());
    emit({"dna-2Mbp", "full-matrix (analytical)", fm_bytes, 100.0, 1.0});
    emit({"dna-2Mbp", "banded w=32", banded_bytes,
          100.0 * static_cast<double>(banded_bytes) /
              static_cast<double>(fm_bytes),
          static_cast<double>(counters.total_cells()) / mn});
    std::cout << "2 Mbp banded score (sanity, not charted): " << score
              << "\n\n";
  }

  table.print(std::cout);
  std::cout << "\nExpected shape: FastLSA's peak sits orders of magnitude"
               " below FM for large pairs\nand shrinks with BM, at the cost"
               " of a slightly higher cell factor; the banded row is\nwhat"
               " lets the streaming service touch multi-megabase pairs at"
               " all.\n";
  write_space_json("BENCH_space.json", rows);
  std::cout << "\nwrote BENCH_space.json\n";
  return 0;
}
