#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "flsa/flsa.hpp"
#include "support/version.hpp"

namespace perfbench {

double Samples::sum() const {
  double total = 0.0;
  for (double v : values_) total += v;
  return total;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

Samples Timeline::values() const {
  Samples out;
  for (const Event& e : events_) out.add(e.value);
  return out;
}

std::vector<Samples> Timeline::slices(double window_s) const {
  const auto count = static_cast<std::size_t>(
      std::max(1.0, std::floor(window_s / kSliceSeconds)));
  std::vector<Samples> out(count);
  for (const Event& e : events_) {
    const double slice = std::floor(e.at_s / kSliceSeconds);
    if (slice >= 0.0 && slice < static_cast<double>(count)) {
      out[static_cast<std::size_t>(slice)].add(e.value);
    }
  }
  return out;
}

double Timeline::median_count_rate(double window_s) const {
  Samples rates;
  for (const Samples& s : slices(window_s)) {
    rates.add(static_cast<double>(s.size()) / kSliceSeconds);
  }
  return rates.median();
}

double Timeline::median_sum_rate(double window_s) const {
  Samples rates;
  for (const Samples& s : slices(window_s)) rates.add(s.sum() / kSliceSeconds);
  return rates.median();
}

double Timeline::median_quantile(double q, double window_s) const {
  Samples tails;
  for (const Samples& s : slices(window_s)) {
    if (s.size() > 0) tails.add(s.quantile(q));
  }
  return tails.median();
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Errors::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++count_;
  if (messages_.size() < 5) messages_.push_back(what);
}

std::uint64_t Errors::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

std::vector<std::string> Errors::messages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return messages_;
}

std::uint64_t Tracer::record(const char* name, std::uint32_t lane,
                             std::uint64_t parent, std::uint64_t request,
                             Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = next_id_++;
  spans_.push_back({name, lane, id, parent, request, start, end});
  return id;
}

std::uint64_t Tracer::reserve() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record_as(std::uint64_t id, const char* name, std::uint32_t lane,
                       std::uint64_t parent, std::uint64_t request,
                       Clock::time_point start, Clock::time_point end) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, lane, id, parent, request, start, end});
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - epoch_).count();
    };
    out << (first ? "" : ",\n") << std::fixed << std::setprecision(3)
        << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.lane << ",\"ts\":" << us(s.start)
        << ",\"dur\":" << us(s.end) - us(s.start) << ",\"args\":{\"id\":"
        << s.id << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}}";
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void release_freed_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

namespace {

/// The kernel a FastLSA run resolves kAuto to, taken from the stats of a
/// small alignment that is forced past the base case into a grid sweep.
const char* resolved_kernel() {
  flsa::Xoshiro256 rng(7);
  const flsa::SequencePair pair = flsa::homologous_pair(
      flsa::Alphabet::dna(), 256, flsa::MutationModel{}, rng);
  flsa::FastLsaOptions options;
  options.base_case_cells = 1024;
  flsa::FastLsaStats stats;
  flsa::fastlsa_align(pair.a, pair.b,
                      flsa::ScoringScheme(flsa::scoring::dna(), -10), options,
                      &stats);
  return flsa::to_string(stats.kernel_used);
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

}  // namespace

std::string build_stamp(const Args& args) {
  std::ostringstream os;
  os << "{\"git\":\"" << json_escape(flsa::kGitDescribe)
     << "\",\"source_digest\":\"" << json_escape(args.source_digest)
     << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"simd_isa\":\"" << flsa::simd_kernel_isa()
     << "\",\"kernel_used\":\"" << resolved_kernel()
     << "\",\"nproc\":" << std::thread::hardware_concurrency()
#if defined(FLSA_OBS_OFF)
     << ",\"flsa_obs\":\"OFF\"}";
#else
     << ",\"flsa_obs\":\"ON\"}";
#endif
  return os.str();
}

void print_result(const Args& args, const Result& result, bool correct) {
  for (const std::string& line : result.notes) std::cout << "# " << line << "\n";
  std::cout << "# build " << build_stamp(args) << "\n";
  std::ostringstream os;
  os << std::setprecision(12);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const Result::Metric& m : result.metrics) {
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace perfbench
