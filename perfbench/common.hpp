// Shared plumbing of the end-to-end benchmark driver: command line,
// sample statistics, the result line, the span recorder and the build
// stamp. Each workload lives in its own file and reports through Result.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed window. A traced run splits it into an untraced
  /// and a traced half.
  double seconds = 10.0;
  bool trace = false;
  /// "full" is the benchmark; "tiny" shrinks every input for the
  /// self-test and changes nothing else.
  bool tiny = false;
  /// Self-test only: corrupt one expected answer so the correctness gate
  /// must count a failure.
  bool corrupt_oracle = false;
  /// Directory for the daemons' store files; each workload removes what
  /// it wrote there.
  std::string work_dir = ".bench_build/perfbench-work";
  std::string trace_out;
  std::string source_digest = "unknown";
};

/// Values of one timing series; percentiles by nearest rank.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  double sum() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Samples stamped with the second of the window they completed in.
/// Rates and tail percentiles are taken per whole one-second slice and
/// summarised by their median over slices, so a burst of outside load
/// that hits one slice does not move them.
class Timeline {
 public:
  static constexpr double kSliceSeconds = 1.0;

  void add(double at_s, double value) { events_.push_back({at_s, value}); }
  void append(const Timeline& other) {
    events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  }
  std::size_t size() const { return events_.size(); }
  /// Every value, for whole-window statistics.
  Samples values() const;
  /// Median over slices of events per second.
  double median_count_rate(double window_s) const;
  /// Median over slices of summed values per second.
  double median_sum_rate(double window_s) const;
  /// Median over slices of the q-quantile of the slice's values.
  double median_quantile(double q, double window_s) const;

 private:
  struct Event {
    double at_s, value;
  };
  /// Values grouped by whole slice; events past the last whole slice of
  /// the window are dropped.
  std::vector<Samples> slices(double window_s) const;
  std::vector<Event> events_;
};

/// What one run reports: metrics in print order, plus the correctness
/// tally. `failed` counts typed errors, transport failures and wrong
/// answers alike.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Thread-safe error tally shared by client threads. The first few
/// messages are kept for the log.
class Errors {
 public:
  void fail(const std::string& what);
  std::uint64_t count() const;
  std::vector<std::string> messages() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
  std::vector<std::string> messages_;
};

/// In-memory span recorder: the benchmark wraps each call into a layer
/// in a span (name, start, end, causing span, request id) and writes the
/// whole set as a Chrome trace when the run ends. It starts disabled; a
/// disabled recorder costs one branch per span. Enable it only while no
/// thread is recording.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  /// Records a finished span and returns its id (0 when disabled).
  /// `lane` groups spans by client thread or connection.
  std::uint64_t record(const char* name, std::uint32_t lane,
                       std::uint64_t parent, std::uint64_t request,
                       Clock::time_point start, Clock::time_point end);
  /// Reserves an id for a parent span recorded after its children.
  std::uint64_t reserve();
  /// Records a span under an id from reserve().
  void record_as(std::uint64_t id, const char* name, std::uint32_t lane,
                 std::uint64_t parent, std::uint64_t request,
                 Clock::time_point start, Clock::time_point end);
  std::size_t size() const;
  /// Writes every span as Chrome Trace Event JSON; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t lane;
    std::uint64_t id, parent, request;
    Clock::time_point start, end;
  };
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Process high-water resident set, MiB.
double peak_rss_mib();

/// Returns memory freed by a torn-down set-up to the OS. Without it the
/// next set-up may allocate in another thread's malloc arena, and the
/// high-water mark then depends on which arenas the threads drew.
void release_freed_memory();

/// Samples the median of `reps` set-ups: runs `setup` reps times, each
/// returning its own elapsed seconds.
template <typename F>
double median_setup_seconds(int reps, F&& setup) {
  Samples s;
  for (int i = 0; i < reps; ++i) s.add(setup(i));
  return s.median();
}

/// The build and host identity every result carries: git revision, build
/// type, SIMD ISA, the kernel FastLSA resolves to, nproc, FLSA_OBS.
std::string build_stamp(const Args& args);

/// Prints the notes, the stamp and the final JSON result line.
void print_result(const Args& args, const Result& result, bool correct);

/// The three workloads. Each runs set-up, the timed window and the
/// correctness gate, and fills every metric the run must report.
Result run_align_long(const Args& args, Tracer& tracer);
Result run_serve_short(const Args& args, Tracer& tracer);
Result run_search_ref(const Args& args, Tracer& tracer);

}  // namespace perfbench
