#include "search/chain.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>

#include "dp/banded.hpp"
#include "dp/packed_traceback.hpp"
#include "support/assert.hpp"

namespace flsa {
namespace search {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

}  // namespace

std::vector<Anchor> collect_anchors(const Sequence& query,
                                    const ReferenceIndex& index,
                                    const ScoringScheme& scheme,
                                    std::size_t max_positions_per_kmer) {
  const std::size_t k = index.k();
  const SequenceView& subject = index.subject();
  FLSA_REQUIRE(&query.alphabet() == &subject.alphabet());
  const SubstitutionMatrix& sub = scheme.matrix();

  std::vector<Anchor> anchors;
  if (query.size() < k) return anchors;

  // Diagonal substitution scores, so exact runs score without re-probing
  // the full matrix per position.
  std::vector<Score> self(query.alphabet().size());
  for (std::size_t r = 0; r < self.size(); ++r) {
    self[r] = sub.at(static_cast<Residue>(r), static_cast<Residue>(r));
  }

  // The open (still extendable) run per diagonal: an index into `anchors`.
  // Because the outer loop advances q monotonically, a k-mer match at
  // (q, s) either overlaps/abuts its diagonal's open run (merge) or
  // starts a new run.
  std::unordered_map<std::ptrdiff_t, std::size_t> open;
  for (std::size_t q = 0; q + k <= query.size(); ++q) {
    const std::vector<std::uint32_t>& positions =
        index.kmers().lookup(query.residues().subspan(q, k));
    if (positions.empty()) continue;
    if (max_positions_per_kmer != 0 &&
        positions.size() > max_positions_per_kmer) {
      continue;  // repeat-masked: this word is too common to seed on
    }
    for (const std::uint32_t s32 : positions) {
      const auto s = static_cast<std::size_t>(s32);
      const std::ptrdiff_t diagonal = static_cast<std::ptrdiff_t>(s) -
                                      static_cast<std::ptrdiff_t>(q);
      const auto it = open.find(diagonal);
      if (it != open.end()) {
        Anchor& run = anchors[it->second];
        if (q <= run.q_end) {
          // Overlapping or abutting on the same diagonal: one exact run.
          for (std::size_t i = run.q_end; i < q + k; ++i) {
            run.score += self[query[i]];
          }
          run.q_end = std::max(run.q_end, q + k);
          run.s_end = s + (run.q_end - q);
          continue;
        }
      }
      Anchor run{q, q + k, s, s + k, 0};
      for (std::size_t i = q; i < q + k; ++i) run.score += self[query[i]];
      open[diagonal] = anchors.size();
      anchors.push_back(run);
    }
  }
  return anchors;
}

std::vector<Chain> chain_anchors(std::span<const Anchor> anchors,
                                 const ChainParams& params) {
  FLSA_REQUIRE(params.gap_weight >= 0);
  std::vector<Chain> chains;
  if (anchors.empty()) return chains;
  const std::size_t n = anchors.size();
  const Score wg = params.gap_weight;
  const std::size_t overlap = params.max_overlap;
  for (const Anchor& a : anchors) {
    FLSA_REQUIRE(a.length() > overlap);
  }

  // Precedence prev -> next requires prev.q_end <= next.q_begin + overlap
  // and prev.s_end <= next.s_begin + overlap. The L1 gap cost
  //   wg * ((next.q_begin - prev.q_end) + (next.s_begin - prev.s_end))
  // decomposes: maximizing total[prev] - cost over predecessors is a
  // prefix-max query of adjusted[prev] = total[prev] + wg*(prev.q_end +
  // prev.s_end) over prev with q_end <= next.q_begin + overlap — swept in
  // subject order so only anchors with s_end <= next.s_begin + overlap
  // are in the frontier when next is queried.
  struct Event {
    std::size_t x = 0;        // subject coordinate
    bool is_query = false;    // inserts sort before queries at equal x
    std::size_t anchor = 0;
  };
  std::vector<Event> events;
  events.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back({anchors[i].s_end, false, i});
    events.push_back({anchors[i].s_begin + overlap, true, i});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) {
              if (a.x != b.x) return a.x < b.x;
              if (a.is_query != b.is_query) return !a.is_query;
              return a.anchor < b.anchor;
            });

  std::vector<Score> total(n);
  std::vector<std::size_t> pred(n, kNone);
  for (std::size_t i = 0; i < n; ++i) total[i] = anchors[i].score;

  // Monotone frontier: q_end -> (adjusted, anchor), adjusted strictly
  // increasing with q_end (dominated entries are pruned), so the best
  // predecessor with q_end <= key is the greatest key not above it.
  std::map<std::size_t, std::pair<Score, std::size_t>> frontier;
  const auto frontier_insert = [&](std::size_t key, Score adjusted,
                                   std::size_t anchor) {
    auto it = frontier.upper_bound(key);
    if (it != frontier.begin() &&
        std::prev(it)->second.first >= adjusted) {
      return;  // dominated by an entry at or below this key
    }
    it = frontier.insert_or_assign(key, std::make_pair(adjusted, anchor))
             .first;
    auto next = std::next(it);
    while (next != frontier.end() && next->second.first <= adjusted) {
      next = frontier.erase(next);
    }
  };

  for (const Event& event : events) {
    const Anchor& a = anchors[event.anchor];
    if (event.is_query) {
      const auto it = frontier.upper_bound(a.q_begin + overlap);
      if (it == frontier.begin()) continue;
      const auto& [adjusted, prev] = std::prev(it)->second;
      if (prev == event.anchor) continue;  // degenerate self-link guard
      const Score candidate =
          a.score + adjusted -
          wg * static_cast<Score>(a.q_begin + a.s_begin);
      if (candidate > total[event.anchor]) {
        total[event.anchor] = candidate;
        pred[event.anchor] = prev;
      }
    } else {
      const Score adjusted =
          total[event.anchor] +
          wg * static_cast<Score>(a.q_end + a.s_end);
      frontier_insert(a.q_end, adjusted, event.anchor);
    }
  }

  // Extract chains best-first; an anchor joins at most one chain, and a
  // chain whose tail is already claimed by a better chain is dropped
  // (its survivors resurface as shorter candidate chains).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (total[x] != total[y]) return total[x] > total[y];
    if (anchors[x].s_begin != anchors[y].s_begin) {
      return anchors[x].s_begin < anchors[y].s_begin;
    }
    return x < y;
  });
  std::vector<char> used(n, 0);
  for (const std::size_t terminal : order) {
    if (total[terminal] < params.min_chain_score) break;
    if (chains.size() >= params.max_chains) break;
    std::vector<std::size_t> members;
    bool conflict = false;
    for (std::size_t a = terminal;;) {
      if (used[a]) {
        conflict = true;
        break;
      }
      members.push_back(a);
      if (pred[a] == kNone) break;
      a = pred[a];
    }
    if (conflict) continue;
    for (const std::size_t a : members) used[a] = 1;
    std::reverse(members.begin(), members.end());
    chains.push_back(Chain{std::move(members), total[terminal]});
  }
  return chains;
}

namespace {

/// Gapped X-drop extension from the corner where a chain ends: the
/// best-scoring alignment of a prefix of the flank `q` against a prefix of
/// the flank `s`, both read outward from the corner, with gaps charged
/// from the corner and both far ends free. Rows stop once a whole row
/// falls more than `x_drop` below the best cell — the gapped analogue of
/// the ungapped BLAST-style cutoff.
Alignment extend_flank(const Sequence& q, const Sequence& s,
                       const ScoringScheme& scheme, Score x_drop) {
  PackedMoveFill fill(q.residues(), s.residues(), scheme);
  while (fill.rows_filled() < q.size()) {
    const Score row_max = fill.fill_row();
    if (row_max < fill.best().score - x_drop) break;
  }
  Path path(Cell{fill.best().row, fill.best().col});
  fill.traceback(path);
  return alignment_from_path(q, s, path, scheme);
}

/// Composes the final gapped alignment of one chain: exact anchor columns,
/// banded DP in the inter-anchor gaps, gapped X-drop extension past the
/// chain ends. Returns nullopt when trimming swallows the whole chain.
std::optional<Alignment> fill_chain(const Sequence& query,
                                    const SequenceView& subject,
                                    std::span<const Anchor> anchors,
                                    const Chain& chain,
                                    const ScoringScheme& scheme,
                                    const ChainedSearchParams& params) {
  // Trim overlaps so consecutive parts are strictly colinear
  // (prev.q_end <= part.q_begin and prev.s_end <= part.s_begin).
  std::vector<Anchor> parts;
  parts.reserve(chain.anchors.size());
  for (const std::size_t idx : chain.anchors) {
    Anchor a = anchors[idx];
    if (!parts.empty()) {
      const Anchor& prev = parts.back();
      std::size_t trim = 0;
      if (prev.q_end > a.q_begin) trim = prev.q_end - a.q_begin;
      if (prev.s_end > a.s_begin) {
        trim = std::max(trim, prev.s_end - a.s_begin);
      }
      if (trim >= a.length()) continue;  // swallowed by its predecessor
      a.q_begin += trim;
      a.s_begin += trim;
    }
    parts.push_back(a);
  }
  if (parts.empty()) return std::nullopt;

  const SubstitutionMatrix& sub = scheme.matrix();
  const Alphabet& alphabet = query.alphabet();

  // Gapped X-drop extension outward from the chain's ends. The flank
  // rectangle is banded by construction: the subject side is capped at
  // the query side plus band_pad, the indel tolerance everywhere else in
  // the pipeline. The left flanks are reversed so both read outward.
  const std::size_t q_front = parts.front().q_begin;
  const std::size_t s_front = parts.front().s_begin;
  const std::size_t s_left = std::min(s_front, q_front + params.band_pad);
  Alignment left = extend_flank(
      query.subsequence(0, q_front).reversed(),
      subject.materialize(s_front - s_left, s_left).reversed(), scheme,
      params.x_drop);
  // The left flank was aligned right-to-left; the output reads forward.
  std::reverse(left.gapped_a.begin(), left.gapped_a.end());
  std::reverse(left.gapped_b.begin(), left.gapped_b.end());
  const std::size_t q_back = parts.back().q_end;
  const std::size_t s_back = parts.back().s_end;
  const std::size_t q_tail = query.size() - q_back;
  const Alignment right = extend_flank(
      query.subsequence(q_back, q_tail),
      subject.materialize(
          s_back, std::min(subject.size() - s_back, q_tail + params.band_pad)),
      scheme, params.x_drop);

  Alignment out;
  out.a_begin = q_front - left.a_end;
  out.a_end = q_back + right.a_end;
  out.b_begin = s_front - left.b_end;
  out.b_end = s_back + right.b_end;

  Score total = 0;
  const auto emit_diagonal = [&](std::size_t qb, std::size_t qe,
                                 std::size_t sb) {
    for (std::size_t i = qb; i < qe; ++i) {
      out.gapped_a += alphabet.letter(query[i]);
      out.gapped_b += alphabet.letter(subject[sb + (i - qb)]);
      total += sub.at(query[i], subject[sb + (i - qb)]);
    }
  };
  const auto emit_gap = [&](std::size_t prev_q, std::size_t prev_s,
                            std::size_t next_q, std::size_t next_s) {
    const std::size_t dq = next_q - prev_q;
    const std::size_t ds = next_s - prev_s;
    if (dq == 0 && ds == 0) return;
    if (dq == 0 || ds == 0) {
      // Pure gap: no DP needed.
      for (std::size_t i = 0; i < dq; ++i) {
        out.gapped_a += alphabet.letter(query[prev_q + i]);
        out.gapped_b += '-';
      }
      for (std::size_t i = 0; i < ds; ++i) {
        out.gapped_a += '-';
        out.gapped_b += alphabet.letter(subject[prev_s + i]);
      }
      total += static_cast<Score>(dq + ds) * scheme.gap_extend();
      return;
    }
    // Mixed gap: banded global DP over just the gap rectangle. The band
    // half-width covers the diagonal offset between the flanking anchors
    // plus padding, so the optimum stays inside for realistic indels.
    const std::size_t skew = dq > ds ? dq - ds : ds - dq;
    const std::size_t half_width = std::max<std::size_t>(
        1, skew + params.band_pad);
    const Alignment gap = banded_align(query.subsequence(prev_q, dq),
                                       subject.materialize(prev_s, ds),
                                       scheme, half_width);
    out.gapped_a += gap.gapped_a;
    out.gapped_b += gap.gapped_b;
    total += gap.score;
  };

  out.gapped_a += left.gapped_a;
  out.gapped_b += left.gapped_b;
  total += left.score;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    if (p > 0) {
      emit_gap(parts[p - 1].q_end, parts[p - 1].s_end, parts[p].q_begin,
               parts[p].s_begin);
    }
    emit_diagonal(parts[p].q_begin, parts[p].q_end, parts[p].s_begin);
  }
  out.gapped_a += right.gapped_a;
  out.gapped_b += right.gapped_b;
  total += right.score;

  out.score = total;
  return out;
}

}  // namespace

std::vector<SearchHit> chained_search(const Sequence& query,
                                      const ReferenceIndex& index,
                                      const ScoringScheme& scheme,
                                      const ChainedSearchParams& params,
                                      ChainedSearchStats* stats) {
  FLSA_REQUIRE(scheme.is_linear());
  FLSA_REQUIRE(&scheme.alphabet() == &query.alphabet());
  const SequenceView& subject = index.subject();

  std::vector<SearchHit> hits;
  const std::vector<Anchor> anchors = collect_anchors(
      query, index, scheme, params.max_positions_per_kmer);
  ChainParams chain_params = params.chain;
  // Anchors are at least k long, so clamping keeps every anchor eligible.
  chain_params.max_overlap =
      std::min(chain_params.max_overlap, index.k() - 1);
  const std::vector<Chain> chains = chain_anchors(anchors, chain_params);
  if (stats != nullptr) {
    stats->anchors = anchors.size();
    stats->chains = chains.size();
  }

  // Fill best-estimate-first; drop candidates whose *final* subject
  // extent overlaps an already-reported hit.
  std::vector<std::pair<std::size_t, std::size_t>> reported;
  for (const Chain& chain : chains) {
    if (hits.size() >= params.max_hits) break;
    std::optional<Alignment> aln =
        fill_chain(query, subject, anchors, chain, scheme, params);
    if (stats != nullptr) ++stats->filled;
    if (!aln.has_value() || aln->length() == 0 ||
        aln->score < chain_params.min_chain_score) {
      continue;
    }
    bool overlaps = false;
    for (const auto& [rb, re] : reported) {
      if (aln->b_begin < re && rb < aln->b_end) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) continue;
    reported.emplace_back(aln->b_begin, aln->b_end);
    hits.push_back(SearchHit{std::move(*aln)});
  }
  std::sort(hits.begin(), hits.end(),
            [](const SearchHit& x, const SearchHit& y) {
              if (x.alignment.score != y.alignment.score) {
                return x.alignment.score > y.alignment.score;
              }
              return x.alignment.b_begin < y.alignment.b_begin;
            });
  return hits;
}

}  // namespace search
}  // namespace flsa
