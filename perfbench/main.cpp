// flsa_perfbench: one run of one workload of the end-to-end benchmark.
//
//   flsa_perfbench --workload align-long|serve-short|search-ref
//                  --seed N --seconds S --trace 0|1
//                  [--size tiny] [--corrupt-oracle] [--work-dir DIR]
//                  [--trace-out FILE] [--source-digest HEX]
//
// The last line of standard output is the JSON result with every metric
// the workload measured; perfbench/run.py keeps the set BENCHMARK.json
// names for the mode. --trace 1 splits the window into an untraced and a
// traced half, records spans and adds the per-layer metrics. The exit
// code is 0 only when every answer matched its oracle.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "flsa_perfbench: " << why
            << "\nusage: flsa_perfbench --workload "
               "align-long|serve-short|search-ref --seed N --seconds S "
               "--trace 0|1 [--size tiny|full] [--corrupt-oracle] "
               "[--work-dir DIR] [--trace-out FILE] [--source-digest HEX]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      args.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value != "0";
      } else if (flag == "--size") {
        if (value != "tiny" && value != "full") usage("bad --size " + value);
        args.tiny = value == "tiny";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--source-digest") {
        args.source_digest = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  perfbench::Tracer tracer;
  try {
    std::filesystem::create_directories(args.work_dir);
    Result all;
    if (args.workload == "align-long") {
      all = perfbench::run_align_long(args, tracer);
    } else if (args.workload == "serve-short") {
      all = perfbench::run_serve_short(args, tracer);
    } else if (args.workload == "search-ref") {
      all = perfbench::run_search_ref(args, tracer);
    } else {
      usage("unknown workload " + args.workload);
    }
    if (args.trace && !args.trace_out.empty()) {
      if (!tracer.write_chrome_trace(args.trace_out)) {
        std::cerr << "flsa_perfbench: cannot write " << args.trace_out
                  << "\n";
      } else {
        all.note("trace: " + std::to_string(tracer.size()) + " spans in " +
                 args.trace_out);
      }
    }
    const bool correct = all.failed == 0 && all.attempted > 0;
    perfbench::print_result(args, all, correct);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "flsa_perfbench: " << args.workload << ": " << e.what()
              << "\n";
    return 3;
  }
}
