// Umbrella header: the full public API of the FastLSA library.
//
// Typical use:
//   #include "flsa/flsa.hpp"
//   flsa::Sequence a(flsa::Alphabet::protein(), "TLDKLLKD");
//   flsa::Sequence b(flsa::Alphabet::protein(), "TDVLKAD");
//   flsa::Alignment aln =
//       flsa::align(a, b, flsa::ScoringScheme::paper_default());
#pragma once

#include "core/advisor.hpp"
#include "core/aligner.hpp"
#include "core/arena.hpp"
#include "core/fastlsa.hpp"
#include "core/local_align.hpp"
#include "core/semiglobal.hpp"
#include "dp/alignment.hpp"
#include "dp/banded.hpp"
#include "dp/cooptimal.hpp"
#include "dp/format.hpp"
#include "dp/fullmatrix.hpp"
#include "dp/gotoh.hpp"
#include "dp/kernel.hpp"
#include "dp/kernel_simd.hpp"
#include "dp/local.hpp"
#include "dp/packed_traceback.hpp"
#include "dp/semiglobal.hpp"
#include "dp/path.hpp"
#include "hirschberg/hirschberg.hpp"
#include "hirschberg/hirschberg_affine.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_fastlsa.hpp"
#include "search/chain.hpp"
#include "search/kmer_index.hpp"
#include "search/reference_index.hpp"

#include "scoring/builtin.hpp"
#include "scoring/matrix_io.hpp"
#include "scoring/scheme.hpp"
#include "scoring/statistics.hpp"
#include "sequence/fasta.hpp"
#include "sequence/generate.hpp"
#include "sequence/sequence.hpp"
#include "simexec/model.hpp"
#include "simexec/gantt.hpp"
#include "simexec/simulate.hpp"
