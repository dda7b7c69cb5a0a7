// Reference-indexed search demo: find a (mutated) gene inside a large
// synthetic chromosome without ever computing the full m x n matrix.
// The chained pipeline: k-mer anchors -> colinear chaining -> banded gap
// fill. Reports hits BLAST-style with E-values.
//
//   ./examples/genome_search --chromosome 200000 --gene 300
#include <iostream>

#include "flsa/flsa.hpp"
#include "support/cli.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  flsa::CliParser cli("Reference-indexed gene search demo");
  cli.add_int("chromosome", 200000, "chromosome length (bp)");
  cli.add_int("gene", 300, "gene length (bp)");
  cli.add_int("copies", 2, "planted (mutated) copies");
  cli.add_int("seed-k", 12, "seed k-mer length");
  cli.add_int("seed", 5, "PRNG seed");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto chr_len = static_cast<std::size_t>(cli.get_int("chromosome"));
    const auto gene_len = static_cast<std::size_t>(cli.get_int("gene"));
    const auto copies = static_cast<std::size_t>(cli.get_int("copies"));
    const auto seed_k = static_cast<std::size_t>(cli.get_int("seed-k"));

    flsa::Xoshiro256 rng(static_cast<std::uint64_t>(cli.get_int("seed")));
    const flsa::Alphabet& dna = flsa::Alphabet::dna();
    const flsa::Sequence gene = flsa::random_sequence(dna, gene_len, rng,
                                                      "gene");
    flsa::MutationModel drift;
    drift.substitution_rate = 0.06;
    drift.insertion_rate = 0.01;
    drift.deletion_rate = 0.01;

    std::string chromosome =
        flsa::random_sequence(dna, chr_len, rng, "chr").to_string();
    std::vector<std::size_t> planted_at;
    for (std::size_t c = 0; c < copies; ++c) {
      const flsa::Sequence copy = flsa::mutate(gene, drift, rng);
      const std::size_t at =
          (c + 1) * chr_len / (copies + 1) - copy.size() / 2;
      chromosome.replace(at, copy.size(), copy.to_string());
      planted_at.push_back(at);
    }
    const flsa::Sequence subject(dna, chromosome, "chr1");

    const flsa::SubstitutionMatrix matrix = flsa::scoring::dna();
    const flsa::ScoringScheme scheme(matrix, -10);

    flsa::Timer timer;
    const flsa::search::ReferenceIndex index(subject, seed_k);
    const double index_s = timer.seconds();
    timer.reset();
    flsa::search::ChainedSearchStats stats;
    const std::vector<flsa::search::SearchHit> hits =
        flsa::search::chained_search(gene, index, scheme, {}, &stats);
    const double search_s = timer.seconds();

    const auto stats_params = flsa::scoring::karlin_params(
        matrix, flsa::scoring::uniform_frequencies(dna.size()));

    std::cout << "indexed " << index.size() << " bp ("
              << index.kmers().distinct_kmers() << " distinct " << seed_k
              << "-mers) in " << index_s * 1e3 << " ms\n"
              << "search took " << search_s * 1e3 << " ms ("
              << stats.anchors << " anchors, " << stats.chains
              << " chains); planted copies at:";
    for (std::size_t at : planted_at) std::cout << ' ' << at;
    std::cout << "\n\n";
    for (std::size_t i = 0; i < hits.size(); ++i) {
      const flsa::Alignment& aln = hits[i].alignment;
      std::cout << "--- hit " << i + 1 << ": subject " << aln.b_begin
                << ".." << aln.b_end << ", bit score "
                << flsa::scoring::bit_score(aln.score, stats_params)
                << ", E = "
                << flsa::scoring::e_value(aln.score, gene.size(),
                                          subject.size(), stats_params)
                << "\n"
                << flsa::format_blast(aln, gene.id(), subject.id()) << "\n";
    }
    std::cout << (hits.size() >= copies
                      ? "all planted copies recovered\n"
                      : "warning: some copies missed\n");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
