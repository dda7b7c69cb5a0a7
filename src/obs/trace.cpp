#include "obs/trace.hpp"

#include <atomic>
#include <ostream>
#include <set>

namespace flsa {
namespace obs {

namespace {

double micros_between(TraceRecorder::Clock::time_point from,
                      TraceRecorder::Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Minimal JSON string escaper (span names are static strings under our
/// control, but keep the writer safe regardless).
void write_escaped(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      const unsigned u = static_cast<unsigned char>(c);
      os << "\\u00" << "0123456789abcdef"[(u >> 4) & 0xfu]
         << "0123456789abcdef"[u & 0xfu];
    } else {
      os << c;
    }
  }
  os << '"';
}

void write_arg(std::ostream& os, bool& first, const char* key,
               std::int64_t value) {
  if (value < 0) return;
  os << (first ? "" : ",") << '"' << key << "\":" << value;
  first = false;
}

}  // namespace

void TraceRecorder::record(TraceSpan span, Clock::time_point start,
                           Clock::time_point end) {
  span.ts_us = micros_between(epoch_, start);
  span.dur_us = micros_between(start, end);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<TraceSpan> TraceRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void TraceRecorder::write_chrome_trace(std::ostream& os) const {
  const std::vector<TraceSpan> spans = this->spans();

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first_event = true;

  // Thread-name metadata: one lane per worker plus the phase lane, so
  // the viewer labels rows "worker 3" instead of bare tids.
  std::set<std::uint32_t> tids;
  for (const TraceSpan& s : spans) tids.insert(s.tid);
  for (const std::uint32_t tid : tids) {
    os << (first_event ? "" : ",")
       << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"args\":{\"name\":\"";
    if (tid == kPhaseLane) {
      os << "phases";
    } else {
      os << "worker " << tid;
    }
    os << "\"}}";
    first_event = false;
  }

  const std::streamsize precision = os.precision();
  os.precision(3);
  os << std::fixed;
  for (const TraceSpan& s : spans) {
    os << (first_event ? "" : ",") << "{\"name\":";
    write_escaped(os, s.name);
    os << ",\"cat\":";
    write_escaped(os, s.category);
    os << ",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.tid << ",\"ts\":" << s.ts_us
       << ",\"dur\":" << s.dur_us << ",\"args\":{";
    bool first_arg = true;
    write_arg(os, first_arg, "tile_row", s.tile_row);
    write_arg(os, first_arg, "tile_col", s.tile_col);
    write_arg(os, first_arg, "cells", s.cells);
    write_arg(os, first_arg, "depth", s.depth);
    os << "}}";
    first_event = false;
  }
  os << "]}";
  os.unsetf(std::ios_base::fixed);
  os.precision(precision);
}

#if !defined(FLSA_OBS_OFF)

namespace {
std::atomic<TraceRecorder*> g_active_trace{nullptr};
}  // namespace

TraceRecorder* active_trace() {
  return g_active_trace.load(std::memory_order_acquire);
}

void set_active_trace(TraceRecorder* recorder) {
  g_active_trace.store(recorder, std::memory_order_release);
}

#endif  // !FLSA_OBS_OFF

}  // namespace obs
}  // namespace flsa
