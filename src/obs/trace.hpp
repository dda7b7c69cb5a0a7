// Chrome-trace span recorder.
//
// Collects duration spans — per-worker tile executions and engine
// phases — and serializes them as the Trace Event JSON that
// chrome://tracing / Perfetto load directly. Loading a parallel run's
// trace shows one lane per worker, which makes the wavefront's
// ramp-up / saturation / ramp-down (the shape behind the paper's alpha
// model, Eq. 32) directly visible.
//
// Recording is pull-based: sites check active_trace() (one relaxed atomic
// pointer load, nullptr when no trace is being collected) and only then
// timestamp and record. record() appends under a mutex; spans are tile- or
// phase-granular (microseconds to seconds of work each), so the lock is
// far off any per-cell path.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

namespace flsa {
namespace obs {

/// One completed duration span. Negative optional args are omitted from
/// the JSON. `name` / `category` must point at static-lifetime strings.
struct TraceSpan {
  const char* name = "";
  const char* category = "";
  std::uint32_t tid = 0;   ///< lane: worker id or kPhaseLane
  double ts_us = 0.0;      ///< start, microseconds since the recorder epoch
  double dur_us = 0.0;
  std::int64_t tile_row = -1;
  std::int64_t tile_col = -1;
  std::int64_t cells = -1;
  std::int64_t depth = -1;
};

/// Display lane for spans that do not belong to a DP worker.
inline constexpr std::uint32_t kPhaseLane = 1000;  ///< engine phases

class TraceRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  TraceRecorder() : epoch_(Clock::now()) {}

  static Clock::time_point now() { return Clock::now(); }

  /// Completes `span` with timestamps derived from [start, end) and
  /// appends it. Thread-safe.
  void record(TraceSpan span, Clock::time_point start, Clock::time_point end);

  std::size_t size() const;
  std::vector<TraceSpan> spans() const;  ///< copy, for tests/tools

  /// Writes the whole trace as Chrome Trace Event JSON ("traceEvents"
  /// array of complete "X" events plus thread-name metadata).
  void write_chrome_trace(std::ostream& os) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<TraceSpan> spans_;
};

#if defined(FLSA_OBS_OFF)
constexpr TraceRecorder* active_trace() { return nullptr; }
inline void set_active_trace(TraceRecorder*) {}
#else
/// The recorder instrumentation currently records into (nullptr = none).
TraceRecorder* active_trace();
void set_active_trace(TraceRecorder* recorder);
#endif

}  // namespace obs
}  // namespace flsa
