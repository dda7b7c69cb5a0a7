// Residue alphabets: the mapping between letters (external representation)
// and small integer codes (internal representation used by every DP kernel
// and scoring matrix).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace flsa {

/// Integer code of one residue. Codes are dense: 0..size()-1.
using Residue = std::uint8_t;

/// An alphabet maps characters to dense residue codes. Lookup is case
/// insensitive (biological convention). Characters outside the alphabet
/// are rejected by code().
class Alphabet {
 public:
  /// Builds an alphabet from its ordered letter set, e.g. "ACGT".
  /// Letters must be unique (case-insensitively) and non-empty; at most
  /// 64 letters.
  explicit Alphabet(std::string_view letters, std::string name);

  /// The four-letter DNA alphabet ACGT.
  static const Alphabet& dna();

  /// DNA with the ambiguity code N (ACGTN); pair N with
  /// scoring::dna_n() so unknown bases score neutrally.
  static const Alphabet& dna_n();

  /// The 20 standard amino acids, ordered ARNDCQEGHILKMFPSTWYV (the
  /// conventional Dayhoff/PAM ordering used by the scoring tables).
  static const Alphabet& protein();

  const std::string& name() const { return name_; }
  std::size_t size() const { return letters_.size(); }

  /// Letter for a code; code must be < size().
  char letter(Residue code) const;

  /// True if the character belongs to the alphabet (case-insensitive).
  bool contains(char c) const;

  /// Code for a letter; throws std::invalid_argument for foreign characters.
  Residue code(char c) const;

 private:
  std::string name_;
  std::string letters_;                  // canonical (upper-case) letters
  std::array<std::int16_t, 256> codes_;  // -1 = not in alphabet
};

}  // namespace flsa
