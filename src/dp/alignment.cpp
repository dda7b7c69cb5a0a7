#include "dp/alignment.hpp"

#include <sstream>

#include "support/assert.hpp"

namespace flsa {

std::size_t Alignment::matches() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < gapped_a.size(); ++i) {
    if (gapped_a[i] != '-' && gapped_a[i] == gapped_b[i]) ++count;
  }
  return count;
}

double Alignment::identity() const {
  if (gapped_a.empty()) return 0.0;
  return static_cast<double>(matches()) /
         static_cast<double>(gapped_a.size());
}

std::size_t Alignment::gap_count() const {
  std::size_t count = 0;
  for (char c : gapped_a) count += (c == '-');
  for (char c : gapped_b) count += (c == '-');
  return count;
}

std::string Alignment::cigar() const {
  std::ostringstream os;
  std::size_t run = 0;
  char run_op = 0;
  auto flush = [&] {
    if (run) os << run << run_op;
    run = 0;
  };
  for (std::size_t i = 0; i < gapped_a.size(); ++i) {
    char op;
    if (gapped_a[i] == '-') {
      op = 'I';
    } else if (gapped_b[i] == '-') {
      op = 'D';
    } else {
      op = gapped_a[i] == gapped_b[i] ? '=' : 'X';
    }
    if (op != run_op) {
      flush();
      run_op = op;
    }
    ++run;
  }
  flush();
  return os.str();
}

std::string Alignment::pretty(std::size_t width) const {
  FLSA_REQUIRE(width > 0);
  std::ostringstream os;
  for (std::size_t pos = 0; pos < gapped_a.size(); pos += width) {
    const std::size_t len = std::min(width, gapped_a.size() - pos);
    os << gapped_a.substr(pos, len) << '\n';
    for (std::size_t i = 0; i < len; ++i) {
      const char x = gapped_a[pos + i];
      const char y = gapped_b[pos + i];
      os << (x != '-' && x == y ? '|' : (x == '-' || y == '-' ? ' ' : '.'));
    }
    os << '\n' << gapped_b.substr(pos, len) << '\n';
    if (pos + width < gapped_a.size()) os << '\n';
  }
  return os.str();
}

Alignment alignment_from_path(const Sequence& a, const Sequence& b,
                              const Path& path, const ScoringScheme& scheme) {
  const Cell front = path.front();
  const Cell end = path.end();
  FLSA_REQUIRE(end.row <= a.size() && end.col <= b.size());
  Alignment out;
  out.a_begin = front.row;
  out.a_end = end.row;
  out.b_begin = front.col;
  out.b_end = end.col;
  out.gapped_a.reserve(path.size());
  out.gapped_b.reserve(path.size());
  std::size_t i = front.row, j = front.col;
  for (Move m : path.forward_moves()) {
    switch (m) {
      case Move::kDiag:
        out.gapped_a.push_back(a.alphabet().letter(a[i]));
        out.gapped_b.push_back(b.alphabet().letter(b[j]));
        ++i;
        ++j;
        break;
      case Move::kUp:
        out.gapped_a.push_back(a.alphabet().letter(a[i]));
        out.gapped_b.push_back('-');
        ++i;
        break;
      case Move::kLeft:
        out.gapped_a.push_back('-');
        out.gapped_b.push_back(b.alphabet().letter(b[j]));
        ++j;
        break;
    }
  }
  FLSA_ASSERT(i == end.row && j == end.col);
  out.score = score_alignment(out, scheme, a.alphabet());
  return out;
}

Score score_alignment(const Alignment& alignment, const ScoringScheme& scheme,
                      const Alphabet& alphabet) {
  FLSA_REQUIRE(alignment.gapped_a.size() == alignment.gapped_b.size());
  Score total = 0;
  bool in_gap_a = false;  // current run of '-' in gapped_a
  bool in_gap_b = false;
  for (std::size_t i = 0; i < alignment.gapped_a.size(); ++i) {
    const char x = alignment.gapped_a[i];
    const char y = alignment.gapped_b[i];
    FLSA_REQUIRE(x != '-' || y != '-');
    if (x == '-') {
      total += scheme.gap_extend();
      if (!in_gap_a) total += scheme.gap_open();
      in_gap_a = true;
      in_gap_b = false;
    } else if (y == '-') {
      total += scheme.gap_extend();
      if (!in_gap_b) total += scheme.gap_open();
      in_gap_b = true;
      in_gap_a = false;
    } else {
      total += scheme.substitution(alphabet.code(x), alphabet.code(y));
      in_gap_a = in_gap_b = false;
    }
  }
  return total;
}

std::size_t similar_columns(const Alignment& alignment,
                            const SubstitutionMatrix& matrix,
                            const Alphabet& alphabet) {
  FLSA_REQUIRE(alignment.gapped_a.size() == alignment.gapped_b.size());
  std::size_t count = 0;
  for (std::size_t i = 0; i < alignment.gapped_a.size(); ++i) {
    const char x = alignment.gapped_a[i];
    const char y = alignment.gapped_b[i];
    if (x == '-' || y == '-') continue;
    if (matrix.at(alphabet.code(x), alphabet.code(y)) > 0) ++count;
  }
  return count;
}

}  // namespace flsa
