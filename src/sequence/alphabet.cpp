#include "sequence/alphabet.hpp"

#include <cctype>
#include <stdexcept>

#include "support/assert.hpp"

namespace flsa {

Alphabet::Alphabet(std::string_view letters, std::string name)
    : name_(std::move(name)) {
  FLSA_REQUIRE(!letters.empty());
  FLSA_REQUIRE(letters.size() <= 64);
  codes_.fill(-1);
  for (char raw : letters) {
    const auto code = static_cast<std::int16_t>(letters_.size());
    const char upper =
        static_cast<char>(std::toupper(static_cast<unsigned char>(raw)));
    const char lower =
        static_cast<char>(std::tolower(static_cast<unsigned char>(raw)));
    FLSA_REQUIRE(codes_[static_cast<unsigned char>(upper)] == -1);
    codes_[static_cast<unsigned char>(upper)] = code;
    codes_[static_cast<unsigned char>(lower)] = code;
    letters_.push_back(upper);
  }
}

const Alphabet& Alphabet::dna() {
  static const Alphabet instance("ACGT", "dna");
  return instance;
}

const Alphabet& Alphabet::dna_n() {
  static const Alphabet instance("ACGTN", "dna-n");
  return instance;
}

const Alphabet& Alphabet::protein() {
  static const Alphabet instance("ARNDCQEGHILKMFPSTWYV", "protein");
  return instance;
}

char Alphabet::letter(Residue code) const {
  FLSA_REQUIRE(code < letters_.size());
  return letters_[code];
}

bool Alphabet::contains(char c) const {
  return codes_[static_cast<unsigned char>(c)] >= 0;
}

Residue Alphabet::code(char c) const {
  const std::int16_t code = codes_[static_cast<unsigned char>(c)];
  if (code < 0) {
    throw std::invalid_argument(std::string("character '") + c +
                                "' is not in alphabet " + name_);
  }
  return static_cast<Residue>(code);
}

}  // namespace flsa
