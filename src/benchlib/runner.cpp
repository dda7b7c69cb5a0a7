#include "benchlib/runner.hpp"

#include <sstream>
#include <vector>

#include "dp/kernel_simd.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace flsa {
namespace bench {

Summary time_runs(const std::function<void()>& fn, int reps, int warmup) {
  FLSA_REQUIRE(reps >= 1);
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    Timer timer;
    fn();
    seconds.push_back(timer.seconds());
  }
  return summarize(seconds);
}

double cells_per_second(double cells, double seconds) {
  return seconds > 0 ? cells / seconds : 0.0;
}

std::vector<KernelKind> kernel_variants() {
  std::vector<KernelKind> variants{KernelKind::kScalar};
  if (simd_kernel_available()) {
    variants.push_back(KernelKind::kSimd);
    // The narrow saturating tier runs (and stays exact) everywhere, but
    // its throughput story is the vector lanes — bench it only where the
    // SIMD cores run.
    variants.push_back(KernelKind::kInt16);
  }
  return variants;
}

std::string kernel_label(const std::string& base, KernelKind kind) {
  return base + "[" + to_string(kind) + "]";
}

std::string throughput(double cells, double seconds) {
  std::ostringstream os;
  const double rate = seconds > 0 ? cells / seconds : 0.0;
  os.precision(1);
  os << std::fixed;
  if (rate >= 1e9) {
    os << rate / 1e9 << " Gcell/s";
  } else if (rate >= 1e6) {
    os << rate / 1e6 << " Mcell/s";
  } else {
    os << rate / 1e3 << " kcell/s";
  }
  return os.str();
}

}  // namespace bench
}  // namespace flsa
