// tart-node: hosts one partition of a deployment in this OS process.
//
//   tart-node <deployment.conf> <partition> [--log-dir=DIR] [--trace=FILE]
//             [--http=ADDR|PORT] [--no-group-commit] [--exemplars]
//             [--gauge-interval-ms=N] [--push=ADDR[,INTERVALMS]]
//             [--checkpoint-interval-ms=N] [--checkpoint-bytes=N]
//             [--checkpoint-keep=K] [--segment-bytes=N]
//             [--migrate-crash-at=STAGE] [--verbose]
//
// Every node of a deployment runs this binary with the SAME config file and
// its own partition name. The node builds the global topology, constructs
// only its partition's engine, bridges cross-partition wires over TCP
// (reconnecting forever), and — with --http — serves the HTTP gateway, the
// node's only operator surface. It runs until POST /shutdown or
// SIGINT/SIGTERM.
//
// With --log-dir, the node keeps its external input log in rotated
// segments, writes durable checkpoints (docs/RECOVERY.md) and compacts the
// log below the newest one. Restarting the node over the same directory
// restores that checkpoint and replays only the log suffix past it, with
// outputs suppressed; downstream peers discard duplicates by timestamp and
// the stream continues — the paper's transparent-recovery story (§II.F)
// demonstrated across real processes (see scripts/net_soak.sh, which
// SIGKILLs a node mid-run). Checkpoints fire on demand (POST /checkpoint)
// and, with --checkpoint-interval-ms / --checkpoint-bytes, automatically;
// --checkpoint-keep and --segment-bytes tune retention. These four flags
// require --log-dir (exit status 2 without it). --durable is accepted and
// ignored: a log directory always means checkpoint + segmented log.
//
// A one-partition deployment file (every component placed on one
// partition) runs a complete single-process node.
//
// With --http, the node serves the HTTP gateway (docs/GATEWAY.md): inject,
// close, drain, outputs, checkpoint, migrate, shutdown, and the telemetry
// endpoints (/metrics, /status, /obs, /profile). POSTed injections are
// acked only once durable in the log (log-before-ack). A node without
// --http runs its partition but cannot be driven from outside.
// --exemplars adds OpenMetrics exemplars to GET /metrics histograms,
// linking fat stall buckets to `tart-trace explain --episode` ids.
//
// With --push=ADDR, the node POSTs its GET /obs report (metrics, registry
// samples, status) to a collector — `tart-obs --listen` — every interval,
// for deployments where the collector cannot dial the nodes.
//
// Live migration (docs/PLACEMENT.md): POST /migrate?component=C&to=NODE
// moves a component to another node with the staged VT-barrier protocol.
// --migrate-crash-at=STAGE is test-only fault injection: the process
// _exit(137)s at that stage boundary (prepare|transfer|delta|
// cutover-commit on the source, staged|adopt on the target) so the
// SIGKILL matrix in tests/migration_process_test can prove the journal
// leaves exactly one owner after restart.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "net/host.h"

namespace {

tart::net::NetHost* g_host = nullptr;

void on_signal(int) {
  if (g_host != nullptr) g_host->request_shutdown();
}

int usage() {
  std::fprintf(stderr,
               "usage: tart-node <deployment.conf> <partition> "
               "[--log-dir=DIR] [--trace=FILE] [--http=ADDR|PORT] "
               "[--no-group-commit] [--exemplars] [--gauge-interval-ms=N] "
               "[--push=ADDR[,INTERVALMS]] "
               "[--checkpoint-interval-ms=N] [--checkpoint-bytes=N] "
               "[--checkpoint-keep=K] [--segment-bytes=N] "
               "[--migrate-crash-at=STAGE] [--verbose]\n");
  return 2;
}

/// "8080" -> "127.0.0.1:8080"; "0.0.0.0:80" passes through.
std::string http_addr_of(const std::string& arg) {
  return arg.find(':') == std::string::npos ? "127.0.0.1:" + arg : arg;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string config_path = argv[1];
  const std::string partition = argv[2];
  tart::net::HostOptions options;
  const char* durability_flag = nullptr;  // last one given, if any
  bool verbose = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--log-dir=", 0) == 0) {
      options.log_dir = arg.substr(std::strlen("--log-dir="));
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace_path = arg.substr(std::strlen("--trace="));
    } else if (arg.rfind("--http=", 0) == 0) {
      options.http_addr = http_addr_of(arg.substr(std::strlen("--http=")));
    } else if (arg == "--no-group-commit") {
      options.http_group_commit = false;
    } else if (arg == "--exemplars") {
      options.http_exemplars = true;
    } else if (arg.rfind("--gauge-interval-ms=", 0) == 0) {
      // 0 disables the sweep (negative rejected to keep flags unambiguous).
      options.gauge_interval_ms =
          std::atoi(arg.c_str() + std::strlen("--gauge-interval-ms="));
      if (options.gauge_interval_ms < 0) {
        std::fprintf(stderr, "tart-node: bad --gauge-interval-ms\n");
        return usage();
      }
    } else if (arg.rfind("--push=", 0) == 0) {
      std::string spec = arg.substr(std::strlen("--push="));
      if (const auto comma = spec.rfind(','); comma != std::string::npos) {
        options.push_interval_ms = std::atoi(spec.c_str() + comma + 1);
        spec.resize(comma);
        if (options.push_interval_ms <= 0) {
          std::fprintf(stderr, "tart-node: bad --push interval\n");
          return usage();
        }
      }
      options.push_addr = spec;
      if (options.push_addr.find(':') == std::string::npos) {
        std::fprintf(stderr, "tart-node: --push needs HOST:PORT\n");
        return usage();
      }
    } else if (arg == "--durable") {
      // Accepted for older scripts; a log directory is always durable.
    } else if (arg.rfind("--checkpoint-interval-ms=", 0) == 0) {
      durability_flag = "--checkpoint-interval-ms";
      options.durability.interval_ms =
          std::atoi(arg.c_str() + std::strlen("--checkpoint-interval-ms="));
      if (options.durability.interval_ms <= 0) {
        std::fprintf(stderr, "tart-node: bad --checkpoint-interval-ms\n");
        return usage();
      }
    } else if (arg.rfind("--checkpoint-bytes=", 0) == 0) {
      durability_flag = "--checkpoint-bytes";
      options.durability.bytes_trigger = static_cast<std::uint64_t>(
          std::atoll(arg.c_str() + std::strlen("--checkpoint-bytes=")));
      if (options.durability.bytes_trigger == 0) {
        std::fprintf(stderr, "tart-node: bad --checkpoint-bytes\n");
        return usage();
      }
    } else if (arg.rfind("--checkpoint-keep=", 0) == 0) {
      durability_flag = "--checkpoint-keep";
      options.durability.keep_last = static_cast<std::uint64_t>(
          std::atoll(arg.c_str() + std::strlen("--checkpoint-keep=")));
      if (options.durability.keep_last == 0) {
        std::fprintf(stderr, "tart-node: bad --checkpoint-keep\n");
        return usage();
      }
    } else if (arg.rfind("--segment-bytes=", 0) == 0) {
      durability_flag = "--segment-bytes";
      options.durability.segment_bytes = static_cast<std::uint64_t>(
          std::atoll(arg.c_str() + std::strlen("--segment-bytes=")));
      if (options.durability.segment_bytes == 0) {
        std::fprintf(stderr, "tart-node: bad --segment-bytes\n");
        return usage();
      }
    } else if (arg.rfind("--migrate-crash-at=", 0) == 0) {
      options.migrate_crash_at =
          arg.substr(std::strlen("--migrate-crash-at="));
      if (options.migrate_crash_at.empty()) {
        std::fprintf(stderr, "tart-node: bad --migrate-crash-at\n");
        return usage();
      }
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr, "tart-node: unknown argument '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (durability_flag != nullptr && options.log_dir.empty()) {
    std::fprintf(stderr, "tart-node: %s requires --log-dir\n",
                 durability_flag);
    return 2;
  }
  tart::set_log_level(verbose ? tart::LogLevel::kInfo
                              : tart::LogLevel::kError);

  try {
    tart::net::DeploymentConfig deploy =
        tart::net::DeploymentConfig::parse_file(config_path);
    tart::net::NetHost host(std::move(deploy), partition, options);
    g_host = &host;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    host.start();
    std::fprintf(stderr,
                 "tart-node: partition '%s' up (data :%u, http :%u)\n",
                 partition.c_str(), host.data_port(), host.http_port());
    const int rc = host.run_until_shutdown();
    g_host = nullptr;
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tart-node: %s\n", e.what());
    return 1;
  }
}
