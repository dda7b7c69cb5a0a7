#include "dp/local.hpp"

#include <vector>

#include "dp/fullmatrix.hpp"
#include "dp/gotoh.hpp"
#include "dp/matrix.hpp"
#include "support/assert.hpp"

namespace flsa {

BestCell local_score_linear(std::span<const Residue> a,
                            std::span<const Residue> b,
                            const ScoringScheme& scheme,
                            DpCounters* counters) {
  std::vector<Score> row(b.size() + 1, 0);
  const std::vector<Score> left(a.size() + 1, 0);
  BestCell best;
  sweep_rectangle_linear(KernelKind::kScalar, a, b, scheme, row, left, row,
                         {}, counters, DpMode::kLocal, &best);
  return best;
}

Alignment local_align_full_matrix(const Sequence& a, const Sequence& b,
                                  const ScoringScheme& scheme,
                                  DpCounters* counters) {
  const std::vector<Score> top(b.size() + 1, 0);
  const std::vector<Score> left(a.size() + 1, 0);
  Matrix2D<Score> dpm;
  BestCell best;  // (0, 0): the first of the all-zero boundary cells
  fill_full_matrix_linear<DpMode::kLocal>(a.residues(), b.residues(), scheme,
                                          top, left, dpm, counters, &best);
  Path path(Cell{best.row, best.col});
  traceback_rectangle_linear<DpMode::kLocal>(a.residues(), b.residues(),
                                             scheme, dpm, best.row, best.col,
                                             path, counters);
  Alignment out = alignment_from_path(a, b, path, scheme);
  FLSA_ASSERT(out.score == best.score);
  return out;
}

Alignment local_align_full_matrix_affine(const Sequence& a,
                                         const Sequence& b,
                                         const ScoringScheme& scheme,
                                         DpCounters* counters) {
  const AffineCell floor{0, kNegInf, kNegInf};
  const std::vector<AffineCell> top(b.size() + 1, floor);
  const std::vector<AffineCell> left(a.size() + 1, floor);
  Matrix2D<AffineCell> dpm;
  BestCell best;  // (0, 0): the first of the all-zero boundary cells
  fill_full_matrix_affine<DpMode::kLocal>(a.residues(), b.residues(), scheme,
                                          top, left, dpm, counters, &best);
  Path path(Cell{best.row, best.col});
  traceback_rectangle_affine<DpMode::kLocal>(a.residues(), b.residues(),
                                             scheme, dpm, best.row, best.col,
                                             AffineState::kD, path, counters);
  Alignment out = alignment_from_path(a, b, path, scheme);
  FLSA_ASSERT(out.score == best.score);
  return out;
}

}  // namespace flsa
