// Colinear anchor chaining and chained (seed-chain-extend) search.
//
// The per-query pipeline against a prepared ReferenceIndex:
//
//   1. collect_anchors — every exact k-mer match of the query in the
//      index, merged per diagonal into maximal exact runs ("anchors").
//      High-frequency k-mers (repeats) are masked by
//      max_positions_per_kmer.
//   2. chain_anchors — best colinear subsets of anchors under a
//      gap-cost-aware score. The gap cost between consecutive anchors is
//      the L1 ("sum of gaps") cost g(prev, next) =
//      gap_weight * ((next.q_begin - prev.q_end) + (next.s_begin -
//      prev.s_end)), which decomposes into a per-anchor term plus a
//      prefix maximum — so one sweep by subject coordinate over a
//      monotone frontier keyed by query coordinate finds every anchor's
//      best predecessor in O(A log A) total (the sweep-line formulation
//      of Allali/Chauve, "Chaining fragments in sequences: to sweep or
//      not"). Anchors may overlap by up to max_overlap residues; the
//      overlap is trimmed away at fill time.
//   3. chained_search — for each chain, a gapped alignment is composed
//      from exact anchor columns, banded global DP (dp/banded, which
//      stores a 2-bit move per band cell) restricted to the inter-anchor
//      gaps, and gapped X-drop extension past the chain's ends (whole
//      rows of the same 2-bit move fill, stopped once a row falls more
//      than x_drop below the best cell). DP work is proportional to the
//      divergence between query and reference, not to their product.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dp/alignment.hpp"
#include "scoring/scheme.hpp"
#include "search/reference_index.hpp"

namespace flsa {
namespace search {

/// A maximal run of merged exact k-mer matches on one diagonal:
/// query[q_begin, q_end) equals subject[s_begin, s_end) residue for
/// residue, scored by the substitution matrix diagonal.
struct Anchor {
  std::size_t q_begin = 0, q_end = 0;
  std::size_t s_begin = 0, s_end = 0;
  Score score = 0;

  std::size_t length() const { return q_end - q_begin; }
  std::ptrdiff_t diagonal() const {
    return static_cast<std::ptrdiff_t>(s_begin) -
           static_cast<std::ptrdiff_t>(q_begin);
  }
};

/// One final gapped hit.
struct SearchHit {
  Alignment alignment;  ///< local alignment; regions are subject-global
};

/// Chaining parameters (stage 2).
struct ChainParams {
  Score gap_weight = 1;          ///< L1 cost per unaligned residue between anchors
  std::size_t max_overlap = 8;   ///< anchors may overlap this much (trimmed later)
  Score min_chain_score = 30;    ///< chains below this are not reported
  std::size_t max_chains = 64;   ///< cap on extracted chains
};

/// One colinear chain: indices into the anchor array, in query/subject
/// order, plus its gap-cost-aware score estimate (anchor scores minus
/// weighted gap lengths; the exact score is computed at fill time).
struct Chain {
  std::vector<std::size_t> anchors;
  Score score = 0;
};

/// Pipeline observability for chained_search.
struct ChainedSearchStats {
  std::size_t anchors = 0;   ///< anchors collected after repeat masking
  std::size_t chains = 0;    ///< chains above min_chain_score
  std::size_t filled = 0;    ///< chains gap-filled into candidate alignments
};

/// Full chained-search parameters (stages 1-3).
struct ChainedSearchParams {
  ChainParams chain;
  std::size_t max_positions_per_kmer = 64;  ///< repeat mask; 0 = unlimited
  Score x_drop = 20;                        ///< flank extension drop-off
  std::size_t band_pad = 16;  ///< gap-fill band half-width beyond |dq - ds|
  std::size_t max_hits = 16;  ///< cap on reported hits
};

/// Stage 1: all anchors of `query` in the index, ordered by q_begin.
std::vector<Anchor> collect_anchors(const Sequence& query,
                                    const ReferenceIndex& index,
                                    const ScoringScheme& scheme,
                                    std::size_t max_positions_per_kmer = 64);

/// Stage 2: best-first disjoint colinear chains over `anchors`.
/// Anchors must be sorted by q_begin (collect_anchors output order) and
/// every anchor must be longer than params.max_overlap.
std::vector<Chain> chain_anchors(std::span<const Anchor> anchors,
                                 const ChainParams& params);

/// Stages 1-3: gapped local hits of `query` against the reference,
/// best first, non-overlapping in subject coordinates. Linear schemes
/// only. Alignment coordinates are query/subject-global.
std::vector<SearchHit> chained_search(const Sequence& query,
                                      const ReferenceIndex& index,
                                      const ScoringScheme& scheme,
                                      const ChainedSearchParams& params = {},
                                      ChainedSearchStats* stats = nullptr);

}  // namespace search
}  // namespace flsa
