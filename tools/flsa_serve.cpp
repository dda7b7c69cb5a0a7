// flsa_serve — the long-running alignment daemon.
//
// Binds a TCP port (loopback by default), answers the wire protocol of
// docs/service.md with a bounded request queue, admission control, and a
// worker pool of persistent Aligners, and drains gracefully on
// SIGINT/SIGTERM: stop accepting, finish every admitted request, flush
// metrics, exit 0.
//
//   flsa_serve --port 7421 --workers 8 --queue 128
//   flsa_serve --port 0 --port-file /tmp/port   # ephemeral; CI reads the file
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>

#include "parallel/thread_pool.hpp"
#include "service/server.hpp"
#include "support/cli.hpp"

namespace {

// Self-pipe: the only async-signal-safe thing the handler does is write
// one byte; the main thread blocks on the read end and runs the actual
// drain with ordinary (unsafe-in-handlers) code.
int g_signal_pipe[2] = {-1, -1};

// Upper bound on --workers. The server starts every worker eagerly, so an
// out-of-range count (a negative one would wrap to ~4 billion as
// unsigned) is a usage error, not a request.
constexpr std::int64_t kMaxWorkers = 1024;

extern "C" void handle_shutdown_signal(int) {
  const char byte = 1;
  // Best effort: if the pipe is full a byte is already pending.
  [[maybe_unused]] const ssize_t rc = write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  flsa::CliParser cli(
      "flsa_serve: alignment service daemon (FastLSA library). Speaks the "
      "length-prefixed binary protocol of docs/service.md; SIGINT/SIGTERM "
      "drain gracefully.");
  cli.add_string("host", "127.0.0.1", "listen address");
  cli.add_int("port", 7421, "TCP port (0 = ephemeral, see --port-file)");
  cli.add_string("port-file", "",
                 "write the bound port number to this file once listening "
                 "(lets scripts use --port 0)");
  cli.add_int("workers", 0,
              "worker threads (0 = hardware concurrency, at most " +
                  std::to_string(kMaxWorkers) + ")");
  cli.add_int("queue", 64, "bounded request queue capacity");
  cli.add_int("max-cells-m", 256,
              "admission budget per request, in millions of DPM cells "
              "((m+1)*(n+1) above this is rejected TOO_LARGE)");
  cli.add_int("k", 8, "FastLSA division factor (server default)");
  cli.add_int("bm", 1 << 20,
              "FastLSA base-case buffer in cells (server default)");
  cli.add_int("max-ref-m", 64,
              "cap on registered-reference length, in millions of "
              "residues (REF_PUT above this is rejected TOO_LARGE)");
  cli.add_int("seed-k", 0,
              "seed (k-mer) length for REF_PUT requests that leave k at 0 "
              "(0 = per-alphabet default: 12 for DNA, 5 for protein)");
  cli.add_string("store-dir", "",
                 "directory for the packed sequence store (mmap'd "
                 "reference files); empty = a private TMPDIR directory "
                 "removed on drain");
  cli.add_int("max-banded-cells-m", 8192,
              "admission budget for banded ALIGN_REF, in millions of "
              "banded-matrix cells ((m+1)*(|n-m|+2w+1) above this is "
              "rejected TOO_LARGE)");
  cli.add_int("max-store-m", 4096,
              "cap on one streamed upload, in millions of residues "
              "(SEQ_BEGIN/SEQ_CHUNK past it answer TOO_LARGE)");
  cli.add_int("idle-timeout-ms", 60000,
              "per-recv read deadline on client connections; bounds idle "
              "and slow-loris peers (0 = none)");
  cli.add_int("upload-idle-ms", 60000,
              "idle ceiling for an open upload session; a session with no "
              "SEQ_* activity for this long is reaped and its partial file "
              "removed (0 = never)");
  cli.add_int("max-connections", 256,
              "concurrent-connection cap; over-cap peers get a typed "
              "CONNECTION_LIMIT answer (0 = unlimited)");
  cli.add_string("fault-plan", "",
                 "fault-injection plan for chaos testing, e.g. "
                 "'seed=42,reject=0.2,drop=0.05,delay=0.1:25,truncate=0.05,"
                 "corrupt=0.05' (see docs/service.md)");
  cli.add_flag("quiet", false, "suppress the startup/drain log lines");

  try {
    if (!cli.parse(argc, argv)) return 0;
    // Range checks before the server is built: the --k/--bm minimums are
    // FastLsaOptions::validate()'s, the maximums what the fields hold.
    static_assert(sizeof(std::size_t) >= sizeof(std::int64_t));
    if (!cli.int_in_range("workers", 0, kMaxWorkers) ||
        !cli.int_in_range("k", 2, std::numeric_limits<unsigned>::max()) ||
        !cli.int_in_range("bm", 16,
                          std::numeric_limits<std::int64_t>::max())) {
      return 2;
    }

    flsa::service::ServiceConfig config;
    config.host = cli.get_string("host");
    config.port = static_cast<std::uint16_t>(cli.get_int("port"));
    config.workers = static_cast<unsigned>(cli.get_int("workers"));
    config.queue_capacity =
        static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("queue")));
    config.max_request_cells =
        static_cast<std::uint64_t>(cli.get_int("max-cells-m")) * 1000000u;
    config.fastlsa.k = static_cast<unsigned>(cli.get_int("k"));
    config.fastlsa.base_case_cells =
        static_cast<std::size_t>(cli.get_int("bm"));
    config.max_reference_residues =
        static_cast<std::size_t>(
            std::max<std::int64_t>(1, cli.get_int("max-ref-m"))) *
        1000000u;
    config.default_seed_k = static_cast<std::uint32_t>(
        std::max<std::int64_t>(0, cli.get_int("seed-k")));
    config.store_dir = cli.get_string("store-dir");
    config.max_banded_cells =
        static_cast<std::uint64_t>(
            std::max<std::int64_t>(1, cli.get_int("max-banded-cells-m"))) *
        1000000u;
    config.max_store_residues =
        static_cast<std::uint64_t>(
            std::max<std::int64_t>(1, cli.get_int("max-store-m"))) *
        1000000u;
    config.idle_timeout_ms = static_cast<std::uint32_t>(
        std::max<std::int64_t>(0, cli.get_int("idle-timeout-ms")));
    config.upload_idle_timeout_ms = static_cast<std::uint32_t>(
        std::max<std::int64_t>(0, cli.get_int("upload-idle-ms")));
    config.max_connections = static_cast<std::size_t>(
        std::max<std::int64_t>(0, cli.get_int("max-connections")));
    config.fault_plan =
        flsa::service::parse_fault_plan(cli.get_string("fault-plan"));

    if (pipe(g_signal_pipe) != 0) {
      std::cerr << "error: pipe failed: " << std::strerror(errno) << "\n";
      return 1;
    }
    struct sigaction action {};
    action.sa_handler = handle_shutdown_signal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
    signal(SIGPIPE, SIG_IGN);  // client resets surface as send() errors

    flsa::service::AlignmentServer server(config);
    server.start();

    const std::string port_file = cli.get_string("port-file");
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << server.port() << "\n";
      if (!out.flush()) {
        std::cerr << "error: cannot write --port-file " << port_file << "\n";
        return 1;
      }
    }
    const bool quiet = cli.get_flag("quiet");
    if (!quiet) {
      const unsigned workers = config.workers != 0
                                   ? config.workers
                                   : flsa::default_thread_count();
      std::cout << "flsa_serve listening on " << config.host << ":"
                << server.port() << " (workers=" << workers
                << ", queue=" << config.queue_capacity
                << ", max cells=" << config.max_request_cells
                << ", fault plan: "
                << flsa::service::to_string(config.fault_plan) << ")\n"
                << std::flush;
      // Restart recovery: say what the registry replay brought back (and
      // what it had to skip) so an operator restarting over a persistent
      // --store-dir sees the surviving handles without asking REF_LIST.
      const auto& recovery = server.recovery();
      if (!config.store_dir.empty()) {
        std::cout << "store recovery: " << recovery.recovered
                  << " handle(s) restored, " << recovery.skipped
                  << " skipped\n";
        for (const std::string& warning : recovery.warnings) {
          std::cout << "store recovery warning: " << warning << "\n";
        }
        std::cout << std::flush;
      }
    }

    // Block until SIGINT/SIGTERM, then drain.
    char byte = 0;
    while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    if (!quiet) std::cout << "draining: finishing in-flight requests\n";
    server.stop();
    if (!quiet) {
      flsa::obs::metrics().report(std::cout);
      std::cout << "drained cleanly\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
