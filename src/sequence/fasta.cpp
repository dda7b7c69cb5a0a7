#include "sequence/fasta.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace flsa {

std::vector<Sequence> read_fasta(std::istream& is, const Alphabet& alphabet,
                                 const ParseLimits& limits) {
  std::vector<Sequence> records;
  std::string id;
  std::string description;
  std::string letters;
  bool in_record = false;
  // A record whose header is the very last line of the stream is a
  // truncated upload, not an empty sequence; an intentional empty record
  // is written as a header followed by a blank line (see write_fasta).
  bool saw_body = false;

  auto flush = [&] {
    if (!in_record) return;
    try {
      records.emplace_back(alphabet, letters, id, description);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("FASTA record '" + id + "': " + e.what());
    }
    letters.clear();
  };

  std::string line;
  while (detail::read_bounded_line(is, &line, limits.max_line_bytes)) {
    if (line.empty()) {
      if (in_record) saw_body = true;
      continue;
    }
    if (line[0] == '>') {
      flush();
      in_record = true;
      saw_body = false;
      const std::string header = line.substr(1);
      const auto space = header.find_first_of(" \t");
      if (space == std::string::npos) {
        id = header;
        description.clear();
      } else {
        id = header.substr(0, space);
        const auto rest = header.find_first_not_of(" \t", space);
        description = rest == std::string::npos ? "" : header.substr(rest);
      }
    } else {
      if (!in_record) {
        throw std::invalid_argument(
            "FASTA stream: sequence data before any '>' header");
      }
      saw_body = true;
      for (char c : line) {
        if (!std::isspace(static_cast<unsigned char>(c))) letters.push_back(c);
      }
      if (letters.size() > limits.max_record_residues) {
        throw std::invalid_argument(
            "FASTA record '" + id + "': exceeds the limit of " +
            std::to_string(limits.max_record_residues) + " residues");
      }
    }
  }
  if (is.bad()) {
    throw std::runtime_error("FASTA stream: I/O error while reading");
  }
  if (in_record && !saw_body) {
    throw std::invalid_argument(
        "FASTA record '" + id +
        "': truncated final record (header at end of input)");
  }
  flush();
  return records;
}

std::vector<Sequence> read_fasta_file(const std::string& path,
                                      const Alphabet& alphabet,
                                      const ParseLimits& limits) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open FASTA file: " + path);
  return read_fasta(in, alphabet, limits);
}

void write_fasta(std::ostream& os, const std::vector<Sequence>& records,
                 std::size_t width) {
  for (const Sequence& seq : records) {
    os << '>' << (seq.id().empty() ? "unnamed" : seq.id());
    if (!seq.description().empty()) os << ' ' << seq.description();
    os << '\n';
    const std::string letters = seq.to_string();
    for (std::size_t pos = 0; pos < letters.size(); pos += width) {
      os << letters.substr(pos, width) << '\n';
    }
    if (letters.empty()) os << '\n';
  }
}

void write_fasta_file(const std::string& path,
                      const std::vector<Sequence>& records,
                      std::size_t width) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write FASTA file: " + path);
  write_fasta(out, records, width);
}

}  // namespace flsa
