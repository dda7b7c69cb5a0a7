#include "dp/banded.hpp"

#include "dp/packed_traceback.hpp"
#include "support/assert.hpp"

namespace flsa {

Alignment banded_align(const Sequence& a, const Sequence& b,
                       const ScoringScheme& scheme, std::size_t half_width,
                       DpCounters* counters) {
  FLSA_REQUIRE(half_width >= 1);
  PackedMoveFill fill(a.residues(), b.residues(), scheme, half_width,
                      counters);
  fill.fill_rows();
  Path path(Cell{a.size(), b.size()});
  fill.traceback(path);
  return alignment_from_path(a, b, path, scheme);
}

}  // namespace flsa
