// Alignment results: the pair of gapped strings produced by an optimal
// path, plus derived statistics (score, identity, CIGAR).
#pragma once

#include <string>
#include <vector>

#include "dp/path.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// A pairwise (global or local) alignment.
struct Alignment {
  /// Gapped rows; equal lengths; '-' denotes a gap.
  std::string gapped_a;
  std::string gapped_b;
  /// Optimal score reported by the aligner.
  Score score = 0;
  /// For local alignments: the aligned region is a[a_begin..a_end) x
  /// b[b_begin..b_end). Global alignments cover the full sequences.
  std::size_t a_begin = 0, a_end = 0;
  std::size_t b_begin = 0, b_end = 0;

  std::size_t length() const { return gapped_a.size(); }

  /// Count of positions where both rows hold the same residue.
  std::size_t matches() const;

  /// matches() / length(), 0 for empty alignments.
  double identity() const;

  /// Number of gap characters across both rows.
  std::size_t gap_count() const;

  /// CIGAR string with '=' (match), 'X' (mismatch), 'I' (insertion in b /
  /// gap in a), 'D' (deletion / gap in b), e.g. "5=1X2D3=".
  std::string cigar() const;

  /// Pretty three-line rendering (a row, match bars, b row), wrapped at
  /// `width` columns.
  std::string pretty(std::size_t width = 60) const;
};

/// Builds the alignment of the region a[front.row..end.row) x
/// b[front.col..end.col) that `path` crosses: a global alignment when the
/// path runs from (0,0) to (m, n), a local or semi-global one otherwise.
/// This is the one place that writes gapped strings. Recomputes and stores
/// the region's score under `scheme` (for linear schemes the sum of
/// per-move contributions; affine schemes charge gap_open once per maximal
/// gap run). Throws std::invalid_argument when the path's end lies outside
/// `a` x `b`.
Alignment alignment_from_path(const Sequence& a, const Sequence& b,
                              const Path& path, const ScoringScheme& scheme);

/// Independent score of an alignment's two gapped rows under `scheme`.
/// Used by tests to cross-check aligner outputs.
Score score_alignment(const Alignment& alignment, const ScoringScheme& scheme,
                      const Alphabet& alphabet);

/// Number of aligned (gap-free) columns whose substitution score is
/// positive — "similar" residues in the biological sense the paper uses
/// when motivating similarity tables (its V/L example). A superset of
/// matches() for matrices with a positive diagonal.
std::size_t similar_columns(const Alignment& alignment,
                            const SubstitutionMatrix& matrix,
                            const Alphabet& alphabet);

}  // namespace flsa
