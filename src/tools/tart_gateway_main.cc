// tart-gateway: single-process HTTP ingress node.
//
//   tart-gateway <topology> [param=value ...] [--http=ADDR|PORT]
//                [--log-dir=DIR] [--trace=FILE] [--no-group-commit]
//                [--verbose]
//
// Hosts a catalog topology (net/topologies.h: wordcount, chain, ...)
// entirely in this process and exposes it ONLY through the HTTP gateway
// (docs/GATEWAY.md): POST /inject/<input> to feed it, GET
// /outputs/<output> to drain it, POST /shutdown to stop. With --log-dir,
// every acked injection is durable before the 200 leaves the socket, and
// restarting over the same directory replays the run (log-before-ack).
//
// The multi-partition variant of the same gateway is `tart-node --http`;
// this binary is the zero-config way to put an HTTP face on a topology.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "core/runtime.h"
#include "gateway/gateway.h"
#include "net/topologies.h"

namespace {

tart::gateway::Gateway* g_gateway = nullptr;
std::atomic<bool> g_shutdown{false};

void on_signal(int) { g_shutdown.store(true); }

int usage() {
  std::fprintf(stderr,
               "usage: tart-gateway <topology> [param=value ...] "
               "[--http=ADDR|PORT] [--log-dir=DIR] [--trace=FILE] "
               "[--no-group-commit] [--verbose]\n");
  return 2;
}

std::string http_addr_of(const std::string& arg) {
  return arg.find(':') == std::string::npos ? "127.0.0.1:" + arg : arg;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string topology_name = argv[1];
  std::map<std::string, std::string> params;
  tart::gateway::Gateway::Options gw_options;
  tart::core::RuntimeConfig config;
  std::string trace_path;
  bool verbose = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--http=", 0) == 0) {
      gw_options.listen = http_addr_of(arg.substr(std::strlen("--http=")));
    } else if (arg.rfind("--log-dir=", 0) == 0) {
      config.log_dir = arg.substr(std::strlen("--log-dir="));
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace="));
    } else if (arg == "--no-group-commit") {
      gw_options.group_commit = false;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "tart-gateway: unknown argument '%s'\n",
                   arg.c_str());
      return usage();
    } else if (const auto eq = arg.find('='); eq != std::string::npos) {
      params[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      std::fprintf(stderr, "tart-gateway: bad param '%s' (want key=value)\n",
                   arg.c_str());
      return usage();
    }
  }
  tart::set_log_level(verbose ? tart::LogLevel::kInfo
                              : tart::LogLevel::kError);

  try {
    const tart::net::BuiltTopology built =
        tart::net::build_topology(topology_name, params);
    // Single-process: every component on one engine, everything local.
    std::map<tart::ComponentId, tart::EngineId> placement;
    for (const auto& [name, id] : built.components)
      placement[id] = tart::EngineId(0);
    if (!trace_path.empty()) {
      config.trace.enabled = true;
      config.trace.path = trace_path;
    }
    tart::core::Runtime runtime(built.topology, placement, config);
    runtime.start();

    tart::gateway::Gateway::Host host;
    host.shutdown = [] { g_shutdown.store(true); };
    tart::gateway::Gateway gateway(&runtime, gw_options, built.inputs,
                                   built.outputs, std::move(host));
    g_gateway = &gateway;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::fprintf(stderr, "tart-gateway: '%s' up (http :%u)\n",
                 topology_name.c_str(), gateway.port());

    while (!g_shutdown.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    g_gateway = nullptr;
    gateway.shutdown();
    runtime.stop();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tart-gateway: %s\n", e.what());
    return 1;
  }
}
