#include "obs/obs.hpp"

#include <chrono>

namespace flsa {
namespace obs {

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kAlign: return "align";
    case Phase::kFillGrid: return "fill-grid";
    case Phase::kBaseCase: return "base-case";
    case Phase::kRecursion: return "recursion";
    case Phase::kHirschberg: return "hirschberg";
  }
  return "?";
}

namespace {

/// Per-phase instruments, resolved once per process so PhaseTimer's
/// destructor touches only atomics and one histogram lock.
struct PhaseInstruments {
  Counter& invocations;
  Counter& cells;
  Histogram& seconds;
  Histogram& cells_per_s;

  explicit PhaseInstruments(Phase phase)
      : invocations(metrics().counter(name(phase, "invocations"))),
        cells(metrics().counter(name(phase, "cells"))),
        seconds(metrics().histogram(name(phase, "seconds"))),
        cells_per_s(metrics().histogram(name(phase, "cells_per_s"))) {}

  static std::string name(Phase phase, const char* suffix) {
    return std::string("phase.") + to_string(phase) + "." + suffix;
  }
};

const PhaseInstruments& instruments(Phase phase) {
  static PhaseInstruments table[] = {
      PhaseInstruments(Phase::kAlign),      PhaseInstruments(Phase::kFillGrid),
      PhaseInstruments(Phase::kBaseCase),   PhaseInstruments(Phase::kRecursion),
      PhaseInstruments(Phase::kHirschberg),
  };
  return table[static_cast<std::size_t>(phase)];
}

}  // namespace

PhaseTimer::PhaseTimer(Phase phase, std::int64_t depth, bool record_metrics)
    : phase_(phase), depth_(depth),
      record_metrics_(record_metrics && enabled()), trace_(active_trace()) {
  if (record_metrics_ || trace_ != nullptr) {
    start_ = TraceRecorder::now();
  }
}

PhaseTimer::~PhaseTimer() {
  if (!record_metrics_ && trace_ == nullptr) return;
  const TraceRecorder::Clock::time_point end = TraceRecorder::now();
  if (record_metrics_) {
    const double seconds =
        std::chrono::duration<double>(end - start_).count();
    const PhaseInstruments& pi = instruments(phase_);
    pi.invocations.add(1);
    pi.seconds.observe(seconds);
    if (cells_ > 0) {
      pi.cells.add(cells_);
      if (seconds > 0.0) {
        pi.cells_per_s.observe(static_cast<double>(cells_) / seconds);
      }
    }
  }
  if (trace_ != nullptr) {
    TraceSpan span;
    span.name = to_string(phase_);
    span.category = "phase";
    span.tid = kPhaseLane;
    span.cells = cells_ > 0 ? static_cast<std::int64_t>(cells_) : -1;
    span.depth = depth_;
    trace_->record(span, start_, end);
  }
}

void count(std::string_view name, std::uint64_t n) {
  if (!enabled()) return;
  metrics().counter(name).add(n);
}

void observe(std::string_view name, double value) {
  if (!enabled()) return;
  metrics().histogram(name).observe(value);
}

void set_gauge(std::string_view name, double value) {
  if (!enabled()) return;
  metrics().gauge(name).set(value);
}

}  // namespace obs
}  // namespace flsa
