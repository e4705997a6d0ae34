// NetHost: one partition of a deployment, hosted in this process.
//
// Glues the three planes of a tart-node together:
//
//   - deterministic plane: a Runtime restricted to the partition's engine
//     (RuntimeConfig::local_engines). Every process builds the identical
//     global topology/placement from the shared deployment file, so wire
//     ids and routing agree everywhere by construction.
//   - peer plane: a ConnectionManager carrying transport::Frames to the
//     other partitions. Outbound frames leave through the Runtime's remote
//     router; inbound frames enter through Runtime::deliver_from_peer.
//     Link transitions are recorded as diagnostic trace events against
//     kNetTraceComponent, and every link-up re-probes the wires whose
//     sender lives behind that peer — prompting fresh silence intervals
//     (and, via sequence accounting, replay of anything lost while the
//     link was down or this node was dead). §II.F.4's recovery story over
//     real sockets.
//   - operator plane: the HTTP gateway (gateway/gateway.h) — the only way
//     to inject inputs, drain, read outputs and telemetry, checkpoint,
//     migrate, or stop the node. Injections flow through the normal
//     external-input adapters, so they are timestamped + logged and an
//     HTTP-driven run cold-restarts from log_dir exactly like any other
//     (§II.E).
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "gateway/gateway.h"
#include "net/connection_manager.h"
#include "net/partition_config.h"
#include "net/topologies.h"
#include "placement/coordinator.h"

namespace tart::net {

struct HostOptions {
  std::string log_dir;     ///< stable storage; empty = volatile node
  std::string trace_path;  ///< flight-recorder file; empty = tracing off
  /// HTTP ingress listen address ("127.0.0.1:8080"); empty = no gateway.
  /// The gateway serves only the inputs/outputs adaptable on THIS
  /// partition (clients talk to the node hosting the component).
  std::string http_addr;
  bool http_group_commit = true;  ///< see gateway::Gateway::Options
  /// Render OpenMetrics exemplars on the gateway's GET /metrics (stall
  /// episode ids linking fat buckets to `tart-trace explain --episode`).
  bool http_exemplars = false;
  /// Period of the queue-depth / log-retention gauge sweep, run as a timer
  /// on the connection manager's event loop. <= 0 disables the sweep.
  int gauge_interval_ms = 500;
  /// Push-based remote write: "host:port" of a collector (tart-obs
  /// --listen) to POST /obs this node's NodeReport to every
  /// push_interval_ms. Empty = no pushing (default).
  std::string push_addr;
  int push_interval_ms = 1000;
  /// Checkpoint triggers, retention and segment size for log_dir
  /// (docs/RECOVERY.md); ignored without one. A node with a log_dir
  /// restarts from its newest checkpoint: start() replays the recovered
  /// log suffix to quiescence — outputs suppressed — before the gateway
  /// opens for new traffic.
  durability::DurabilityConfig durability;
  /// Upper bound on the start()-time catch-up replay.
  int catch_up_timeout_ms = 30000;
  /// Live-migration fault injection: _exit(137) at this stage boundary
  /// (prepare|transfer|delta|cutover-commit source-side, staged|adopt
  /// target-side). Empty = no injection. Tests only.
  std::string migrate_crash_at;
  NetTuning tuning;
};

class NetHost {
 public:
  /// Builds the partition's runtime (throws ConfigError on a bad
  /// deployment: unknown partition, unplaced component, ...). Nothing
  /// listens until start().
  NetHost(DeploymentConfig deploy, const std::string& partition,
          HostOptions options = {});
  ~NetHost();

  NetHost(const NetHost&) = delete;
  NetHost& operator=(const NetHost&) = delete;

  /// Starts the runtime, the peer transport, and the HTTP gateway.
  void start();

  /// Blocks until request_shutdown() (POST /shutdown or a signal
  /// handler), then tears everything down. Returns a process exit code.
  int run_until_shutdown();

  /// Thread- and signal-safe (only sets a flag and pokes a condvar).
  void request_shutdown();

  [[nodiscard]] core::Runtime& runtime() { return *runtime_; }
  [[nodiscard]] const BuiltTopology& built() const { return built_; }
  /// Placement control plane (live migration). Always present.
  [[nodiscard]] placement::MigrationCoordinator& coordinator() {
    return *coordinator_;
  }
  /// Runtime totals merged with the socket-transport, placement and
  /// gateway counters.
  [[nodiscard]] core::MetricsSnapshot metrics() const;
  [[nodiscard]] std::uint16_t data_port() const {
    return conn_ ? conn_->listen_port() : 0;
  }
  /// HTTP ingress port (0 when no gateway is configured).
  [[nodiscard]] std::uint16_t http_port() const {
    return gateway_ ? gateway_->port() : 0;
  }

 private:
  void on_peer_frame(const std::string& peer, transport::Frame frame);
  void on_link(const std::string& peer, bool up);
  void probe_wires_behind(EngineId peer_engine);

  // Placement control plane (live migration; docs/PLACEMENT.md).
  void on_peer_message(const std::string& peer, NetMessage msg);
  void on_peer_hello(const std::string& peer, const HelloBody& hello);
  void fill_hello(HelloBody& hello);
  void broadcast_cover(const std::map<WireId, std::uint64_t>& cover);
  [[nodiscard]] placement::MigrationResult run_migration(
      const std::string& component, const std::string& to_node);
  /// Advertised http address of the node serving external `name` right
  /// now, or nullopt when that is this node (gateway 307 redirects).
  [[nodiscard]] std::optional<std::string> redirect_for(
      const std::string& name);
  /// metrics() minus the gateway's own counters.
  [[nodiscard]] core::MetricsSnapshot metrics_without_gateway() const;
  /// Status report with the placement-plane fields filled in.
  [[nodiscard]] core::StatusReport status_with_placement();

  /// Loop-thread only: one gauge sweep (wire queue depths, retention
  /// buffers, external-log sizes) into the runtime's registry, then
  /// re-arms itself. Stops re-arming once stopping_ is set.
  void gauge_sweep();
  /// Synchronously cancels the gauge timer on the loop thread (so no sweep
  /// can be mid-flight when the runtime starts stopping).
  void stop_gauge_timer();
  /// POSTs this node's GET /obs report to the push collector every
  /// push_interval_ms.
  void push_loop();

  DeploymentConfig deploy_;
  const PartitionSpec* self_ = nullptr;  // points into deploy_
  HostOptions options_;

  BuiltTopology built_;
  std::map<ComponentId, EngineId> placement_;
  std::map<EngineId, std::string> partition_by_engine_;

  std::unique_ptr<core::Runtime> runtime_;
  std::unique_ptr<placement::MigrationCoordinator> coordinator_;
  /// Placement callbacks park on this until recover_from_journal() ran:
  /// a peer's HELLO must never observe (or be answered with) pre-recovery
  /// placement state.
  std::atomic<bool> placement_ready_{false};
  std::unique_ptr<ConnectionManager> conn_;
  /// The manager's net thread can deliver frames / link-up callbacks the
  /// instant its listener binds — before make_unique even returns and
  /// assigns conn_. Callbacks wait on this latch so they never observe a
  /// half-initialized host (on_link dereferences conn_ to probe wires).
  std::atomic<bool> conn_ready_{false};
  std::unique_ptr<gateway::Gateway> gateway_;

  /// Loop-thread only (armed via post()).
  EventLoop::TimerId gauge_timer_ = 0;
  std::thread push_thread_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

}  // namespace tart::net
