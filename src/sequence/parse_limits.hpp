// Input limits for the FASTA parser.
//
// The alignment service put this parser in front of untrusted bytes:
// a hostile or corrupt stream must produce a clean typed error, never an
// unbounded allocation or a crash. Lines are read through a bounded
// reader that stops growing at max_line_bytes (a getline-then-check
// would already have swallowed the attack), and records stop accumulating
// at max_record_residues. The defaults are far above any legitimate
// record; tests and services with tighter trust models pass smaller ones.
#pragma once

#include <cstddef>
#include <istream>
#include <stdexcept>
#include <string>

namespace flsa {

struct ParseLimits {
  /// Longest single line accepted, in bytes (64 MiB default).
  std::size_t max_line_bytes = std::size_t{64} << 20;
  /// Most residues accepted per record (256 Mi default).
  std::size_t max_record_residues = std::size_t{256} << 20;
};

namespace detail {

/// getline with a byte ceiling: reads up to and including '\n', strips a
/// trailing '\r' (CRLF input), and throws std::invalid_argument once a
/// line exceeds `max_bytes` (a "FASTA: ..." message) — before buffering
/// the rest of it. Returns
/// false at EOF with nothing read (a final line without '\n' is still
/// returned once).
inline bool read_bounded_line(std::istream& is, std::string* line,
                              std::size_t max_bytes) {
  line->clear();
  std::streambuf* buffer = is.rdbuf();
  if (buffer == nullptr) {
    is.setstate(std::ios::badbit);
    return false;
  }
  while (true) {
    const int c = buffer->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      is.setstate(std::ios::eofbit);
      break;
    }
    if (c == '\n') break;
    line->push_back(static_cast<char>(c));
    if (line->size() > max_bytes) {
      throw std::invalid_argument("FASTA: line exceeds the limit of " +
                                  std::to_string(max_bytes) + " bytes");
    }
  }
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return !line->empty() || !is.eof();
}

}  // namespace detail
}  // namespace flsa
