// Exact k-mer index over a subject sequence.
//
// The anchor stage of chained search (search/chain): every length-k
// word of the subject is hashed to its positions, so query words find
// their exact matches in O(1). Works for any alphabet with |A|^k
// packable into 64 bits.
//
// The subject is held as a SequenceView, so the index reads equally from
// an owned Sequence (shared ownership keeps it alive) or an mmap'd
// packed-store record — the service keeps one index per registered
// reference and hands it to many workers concurrently without ever
// inflating the packed bytes. Subject positions are stored as uint32_t;
// subjects with 2^32 or more residues are rejected with SubjectTooLarge
// instead of silently truncating.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "sequence/sequence.hpp"
#include "sequence/sequence_view.hpp"

namespace flsa {
namespace search {

/// Thrown when a subject has too many residues for the uint32_t position
/// encoding (>= 2^32). A typed subclass so callers (the service's REF_PUT
/// path) can map it to a wire error instead of a generic bad-request.
class SubjectTooLarge : public std::length_error {
 public:
  explicit SubjectTooLarge(std::size_t residues);
  std::size_t residues() const { return residues_; }

 private:
  std::size_t residues_;
};

class KmerIndex {
 public:
  /// Largest indexable subject: positions must fit in uint32_t.
  static constexpr std::size_t kMaxSubjectResidues =
      (std::uint64_t{1} << 32) - 1;

  /// Throws SubjectTooLarge when `residues` exceeds kMaxSubjectResidues.
  /// Exposed so the limit is testable without materializing 4 GiB.
  static void require_indexable(std::size_t residues);

  /// Indexes every k-mer of the viewed subject. The view's shared owner
  /// (a Sequence or an mmap'd store) keeps the residues alive. Requires
  /// 1 <= k, |A|^k < 2^62, and subject size <= kMaxSubjectResidues.
  KmerIndex(SequenceView subject, std::size_t k);

  /// Indexes `subject`, sharing ownership (the index never dangles).
  KmerIndex(std::shared_ptr<const Sequence> subject, std::size_t k);

  /// Convenience: copies `subject` into shared ownership. Safe with
  /// temporaries.
  KmerIndex(const Sequence& subject, std::size_t k);

  std::size_t k() const { return k_; }
  const SequenceView& subject() const { return subject_; }

  /// Number of distinct k-mers present.
  std::size_t distinct_kmers() const { return positions_.size(); }

  /// Positions (0-based) where the k-mer starting at query[pos] occurs in
  /// the subject; empty when absent.
  const std::vector<std::uint32_t>& lookup(
      std::span<const Residue> kmer) const;

  /// Packs a k-mer into its integer key (exposed for tests).
  std::uint64_t pack(std::span<const Residue> kmer) const;

 private:
  SequenceView subject_;
  std::size_t k_;
  std::uint64_t radix_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> positions_;
  static const std::vector<std::uint32_t> kEmpty;
};

}  // namespace search
}  // namespace flsa
