// flsa_router — the sharded front tier for a fleet of flsa_serve
// backends.
//
// Speaks the same wire protocol as flsa_serve to clients, and routes:
// REF_PUT/SEARCH by rendezvous hashing on the reference id (replication
// factor --replication), ALIGN least-loaded. SIGINT/SIGTERM drain
// gracefully: stop accepting, finish in-flight requests, answer
// stragglers SHUTTING_DOWN, exit 0.
//
//   flsa_router --port 7420 --backends 127.0.0.1:7421,127.0.0.1:7422
//   flsa_router --port 0 --port-file /tmp/port --backend-file backends.txt
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "router/router.hpp"
#include "support/cli.hpp"

namespace {

// Self-pipe: the handler only writes one byte; the main thread blocks on
// the read end and runs the drain with ordinary code.
int g_signal_pipe[2] = {-1, -1};

extern "C" void handle_shutdown_signal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t rc = write(g_signal_pipe[1], &byte, 1);
}

flsa::service::Endpoint parse_endpoint(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    throw std::runtime_error("bad backend address '" + spec +
                             "' (expected host:port)");
  }
  const int port = std::stoi(spec.substr(colon + 1));
  if (port <= 0 || port > 65535) {
    throw std::runtime_error("bad backend port in '" + spec + "'");
  }
  return {spec.substr(0, colon), static_cast<std::uint16_t>(port)};
}

/// --backends host:p1,host:p2 plus --backend-file (one host:port per
/// line, '#' comments), concatenated.
std::vector<flsa::service::Endpoint> parse_backends(
    const std::string& list, const std::string& file) {
  std::vector<flsa::service::Endpoint> backends;
  std::string token;
  std::istringstream csv(list);
  while (std::getline(csv, token, ',')) {
    if (!token.empty()) backends.push_back(parse_endpoint(token));
  }
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      throw std::runtime_error("cannot read --backend-file " + file);
    }
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t start = line.find_first_not_of(" \t");
      if (start == std::string::npos || line[start] == '#') continue;
      const std::size_t end = line.find_last_not_of(" \t\r");
      backends.push_back(parse_endpoint(line.substr(start, end - start + 1)));
    }
  }
  return backends;
}

}  // namespace

int main(int argc, char** argv) {
  flsa::CliParser cli(
      "flsa_router: sharded front tier for flsa_serve fleets. Speaks the "
      "wire protocol of docs/service.md to clients; routes REF_PUT/SEARCH "
      "by rendezvous hashing, ALIGN least-loaded. "
      "SIGINT/SIGTERM drain gracefully.");
  cli.add_string("host", "127.0.0.1", "listen address");
  cli.add_int("port", 7420, "TCP port (0 = ephemeral, see --port-file)");
  cli.add_string("port-file", "",
                 "write the bound port number to this file once listening "
                 "(lets scripts use --port 0)");
  cli.add_string("backends", "",
                 "comma-separated backend list, e.g. "
                 "127.0.0.1:7421,127.0.0.1:7422");
  cli.add_string("backend-file", "",
                 "file with one backend host:port per line ('#' comments); "
                 "concatenated with --backends");
  cli.add_int("replication", 1,
              "REF_PUT replication factor (each reference lives on "
              "min(R, backends) backends)");
  cli.add_int("channels", 2, "pipelined connections per backend");
  cli.add_int("queue", 256, "per-backend outbound queue capacity");
  cli.add_int("max-attempts", 3, "total sends per request (try + failovers)");
  cli.add_int("health-interval-ms", 200, "STATS health-check period");
  cli.add_int("upload-route-ttl-ms", 600000,
              "TTL for an upload placement with no SEQ_* traffic; an "
              "abandoned session's route is evicted after this long "
              "(0 = never)");
  cli.add_int("idle-timeout-ms", 60000,
              "per-recv read deadline on client connections (0 = none)");
  cli.add_int("max-connections", 256,
              "concurrent client connection cap (0 = unlimited)");
  cli.add_int("drain-grace-ms", 5000,
              "bound on waiting for in-flight requests at shutdown");
  cli.add_flag("quiet", false, "suppress the startup/drain log lines");

  try {
    if (!cli.parse(argc, argv)) return 0;

    flsa::router::RouterConfig config;
    config.host = cli.get_string("host");
    config.port = static_cast<std::uint16_t>(cli.get_int("port"));
    config.backends = parse_backends(cli.get_string("backends"),
                                     cli.get_string("backend-file"));
    if (config.backends.empty()) {
      std::cerr << "error: no backends (use --backends and/or "
                   "--backend-file)\n";
      return 1;
    }
    config.replication = static_cast<std::size_t>(
        std::max<std::int64_t>(1, cli.get_int("replication")));
    config.channels_per_backend = static_cast<std::size_t>(
        std::max<std::int64_t>(1, cli.get_int("channels")));
    config.queue_capacity = static_cast<std::size_t>(
        std::max<std::int64_t>(1, cli.get_int("queue")));
    config.max_attempts = static_cast<unsigned>(
        std::max<std::int64_t>(1, cli.get_int("max-attempts")));
    config.health_interval_ms = static_cast<std::uint32_t>(
        std::max<std::int64_t>(1, cli.get_int("health-interval-ms")));
    config.upload_route_ttl_ms = static_cast<std::uint32_t>(
        std::max<std::int64_t>(0, cli.get_int("upload-route-ttl-ms")));
    config.idle_timeout_ms = static_cast<std::uint32_t>(
        std::max<std::int64_t>(0, cli.get_int("idle-timeout-ms")));
    config.max_connections = static_cast<std::size_t>(
        std::max<std::int64_t>(0, cli.get_int("max-connections")));
    config.drain_grace_ms = static_cast<std::uint32_t>(
        std::max<std::int64_t>(0, cli.get_int("drain-grace-ms")));

    if (pipe(g_signal_pipe) != 0) {
      std::cerr << "error: pipe failed: " << std::strerror(errno) << "\n";
      return 1;
    }
    struct sigaction action {};
    action.sa_handler = handle_shutdown_signal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
    signal(SIGPIPE, SIG_IGN);

    flsa::router::Router router(config);
    router.start();

    const std::string port_file = cli.get_string("port-file");
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << router.port() << "\n";
      if (!out.flush()) {
        std::cerr << "error: cannot write --port-file " << port_file << "\n";
        return 1;
      }
    }
    const bool quiet = cli.get_flag("quiet");
    if (!quiet) {
      std::cout << "flsa_router listening on " << config.host << ":"
                << router.port() << " (backends=" << config.backends.size()
                << ", replication=" << config.replication
                << ", channels/backend=" << config.channels_per_backend
                << ")\n"
                << std::flush;
    }

    char byte = 0;
    while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    if (!quiet) std::cout << "draining: finishing in-flight requests\n";
    router.stop();
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
