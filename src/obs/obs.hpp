// Observability umbrella: FastLSA phase timers on top of the metrics
// registry (obs/metrics.hpp) and the Chrome-trace recorder (obs/trace.hpp).
//
// Instrumentation contract
// ------------------------
// Call sites use the FLSA_OBS_* macros below. Each expands to a check of
// the runtime switches (obs::enabled() for metrics, obs::active_trace()
// for spans — both one relaxed atomic load) and, when the tree is
// configured with -DFLSA_OBS=OFF, to nothing at all, so the SIMD hot
// paths pay zero cost with observability disabled. Per-cell code is never
// instrumented; the finest granularity is one tile (>= min_tile_extent^2
// cells of work).
//
// A PhaseTimer keyed by Phase::kFillGrid, for example, feeds four
// registry instruments on destruction:
//   phase.fill-grid.invocations  (counter)
//   phase.fill-grid.cells        (counter, from add_cells)
//   phase.fill-grid.seconds      (histogram, per-invocation)
//   phase.fill-grid.cells_per_s  (histogram — throughput accounting)
// and, when a trace is being collected, one span on the "phases" lane.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flsa {
namespace obs {

/// The FastLSA run phases the per-phase timers are keyed by.
enum class Phase : std::uint8_t {
  kAlign,       ///< one whole engine run (any strategy)
  kFillGrid,    ///< one Fill Grid Cache wavefront sweep
  kBaseCase,    ///< one stored full-matrix Base Case solve
  kRecursion,   ///< one solve() sub-problem (spans nest by depth)
  kHirschberg,  ///< one Hirschberg divide-and-conquer alignment
};

const char* to_string(Phase phase);

/// RAII per-phase timer; see the header comment for what it records.
/// Metrics recording can be suppressed (record_metrics = false) for
/// phases that nest within themselves — kRecursion — where summed
/// per-invocation seconds would double-count wall time; those still emit
/// trace spans, which nest meaningfully.
class PhaseTimer {
 public:
  explicit PhaseTimer(Phase phase, std::int64_t depth = -1,
                      bool record_metrics = true);
  ~PhaseTimer();

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  /// Attributes DPM cells to this phase invocation (throughput = cells
  /// over the scope's lifetime).
  void add_cells(std::uint64_t cells) { cells_ += cells; }

 private:
  Phase phase_;
  std::int64_t depth_;
  std::uint64_t cells_ = 0;
  bool record_metrics_;
  TraceRecorder* trace_;
  TraceRecorder::Clock::time_point start_;
};

/// Convenience recorders, gated on enabled(). They look the instrument up
/// by name on every call — fine for per-run or per-failure events; hot
/// sites should cache a Counter& / Histogram& from metrics() instead.
void count(std::string_view name, std::uint64_t n = 1);
void observe(std::string_view name, double value);
void set_gauge(std::string_view name, double value);

}  // namespace obs
}  // namespace flsa

// Call-site macros: compile-time no-ops under -DFLSA_OBS=OFF. The `var`
// of FLSA_OBS_PHASE is only ever referenced through FLSA_OBS_PHASE_CELLS,
// so both vanish together.
#if defined(FLSA_OBS_OFF)
#define FLSA_OBS_PHASE(var, ...) ((void)0)
#define FLSA_OBS_PHASE_CELLS(var, n) ((void)0)
#define FLSA_OBS_COUNT(name, n) ((void)0)
#define FLSA_OBS_OBSERVE(name, value) ((void)0)
#define FLSA_OBS_GAUGE(name, value) ((void)0)
#else
#define FLSA_OBS_PHASE(var, ...) ::flsa::obs::PhaseTimer var(__VA_ARGS__)
#define FLSA_OBS_PHASE_CELLS(var, n) (var).add_cells(n)
#define FLSA_OBS_COUNT(name, n) ::flsa::obs::count((name), (n))
#define FLSA_OBS_OBSERVE(name, value) ::flsa::obs::observe((name), (value))
#define FLSA_OBS_GAUGE(name, value) ::flsa::obs::set_gauge((name), (value))
#endif
