#include "net/host.h"

#include <sys/stat.h>

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/thread_name.h"
#include "durability/manager.h"
#include "durability/replay.h"
#include "gateway/http_client.h"
#include "obs/node_report.h"
#include "obs/prof.h"

namespace tart::net {
NetHost::NetHost(DeploymentConfig deploy, const std::string& partition,
                 HostOptions options)
    : deploy_(std::move(deploy)),
      options_(std::move(options)),
      built_(build_topology(deploy_.topology, deploy_.params)) {
  self_ = deploy_.find_partition(partition);
  if (self_ == nullptr)
    throw ConfigError("unknown partition '" + partition + "'");

  for (const auto& [name, id] : built_.components) {
    const auto it = deploy_.placement.find(name);
    if (it == deploy_.placement.end())
      throw ConfigError("component '" + name + "' has no placement");
    placement_[id] = deploy_.find_partition(it->second)->engine;
  }
  for (const auto& [name, partition_name] : deploy_.placement)
    if (!built_.components.contains(name))
      throw ConfigError("placement names unknown component '" + name + "'");
  for (const auto& p : deploy_.partitions)
    partition_by_engine_[p.engine] = p.name;

  core::RuntimeConfig config;
  config.local_engines = {self_->engine};
  config.log_dir = options_.log_dir;
  config.durability = options_.durability;
  if (!options_.log_dir.empty()) {
    // Refuse a checkpoint written under a different TOPOLOGY: its wire ids
    // would alias unrelated wires here. Placement is deliberately excluded
    // from this fingerprint — live migration moves components without
    // invalidating checkpoints (docs/PLACEMENT.md).
    config.durability.deployment_fp = deploy_.topology_fingerprint();
  }
  if (!options_.trace_path.empty()) {
    config.trace.enabled = true;
    config.trace.path = options_.trace_path;
    // Diagnostics included so link events land in the trace; the recovery
    // differ only compares scheduling-class events, so this stays safe.
    config.trace.categories =
        static_cast<std::uint32_t>(trace::TraceCategory::kAll);
  }
  runtime_ = std::make_unique<core::Runtime>(built_.topology, placement_,
                                             std::move(config));

  // Placement control plane. The journal lives beside the external log so
  // a SIGKILL mid-migration resolves ownership from disk at restart; a
  // volatile node (no log_dir) keeps an in-memory table only.
  placement::MigrationCoordinator::Options pc_options;
  if (!options_.log_dir.empty()) {
    pc_options.journal_dir = options_.log_dir + "/placement";
    ::mkdir(options_.log_dir.c_str(), 0755);
    ::mkdir(pc_options.journal_dir.c_str(), 0755);
  }
  pc_options.crash_at = options_.migrate_crash_at;
  placement::MigrationCoordinator::Callbacks pc_cb;
  pc_cb.send = [this](EngineId to, net::NetMessage msg) {
    const auto it = partition_by_engine_.find(to);
    if (it == partition_by_engine_.end() || !conn_) return false;
    return conn_->send_message(it->second, msg);
  };
  pc_cb.broadcast = [this](net::NetMessage msg) {
    if (!conn_) return;
    for (const auto& p : deploy_.partitions)
      if (p.name != self_->name) (void)conn_->send_message(p.name, msg);
  };
  pc_cb.on_ownership_changed = [this](ComponentId c, bool now_local) {
    // The gateway consults redirect_for() per request, so nothing to
    // refresh — this is the audit trail operators grep for.
    TART_INFO << "placement: component "
              << built_.topology.component(c).name
              << (now_local ? " adopted by " : " evicted from ")
              << self_->name;
  };
  coordinator_ = std::make_unique<placement::MigrationCoordinator>(
      *runtime_, self_->engine, placement_, std::move(pc_options),
      std::move(pc_cb));
}

NetHost::~NetHost() {
  request_shutdown();
  if (started_) (void)run_until_shutdown();
}

void NetHost::start() {
  if (started_) return;

  ConnectionManager::Options conn_options;
  conn_options.node = self_->name;
  conn_options.listen = self_->data_addr;
  for (const auto& p : deploy_.partitions)
    if (p.name != self_->name) conn_options.peers[p.name] = p.data_addr;
  // The HELLO gate is the TOPOLOGY fingerprint: mismatched wire ids are a
  // determinism violation, but divergent *placement* is expected mid-
  // migration and reconciled by the epoch rules instead of refused.
  conn_options.deployment_fp = deploy_.topology_fingerprint();
  conn_options.tuning = options_.tuning;
  // A peer that is already dialing can complete its handshake the moment
  // our listener binds — i.e. while this constructor call is still on the
  // stack and conn_ is not yet assigned. Park such early callbacks on the
  // latch until the host is actually wired up.
  conn_ = std::make_unique<ConnectionManager>(
      std::move(conn_options), runtime_->registry(),
      [this](const std::string& peer, transport::Frame frame) {
        conn_ready_.wait(false);
        on_peer_frame(peer, std::move(frame));
      },
      [this](const std::string& peer, bool up) {
        conn_ready_.wait(false);
        on_link(peer, up);
      },
      [this](const std::string& peer, NetMessage msg) {
        conn_ready_.wait(false);
        on_peer_message(peer, std::move(msg));
      },
      [this](const std::string& peer, const HelloBody& hello) {
        conn_ready_.wait(false);
        on_peer_hello(peer, hello);
      },
      [this](HelloBody& hello) { fill_hello(hello); });

  runtime_->set_remote_router(
      [this](EngineId dst, const transport::Frame& frame) {
        const auto it = partition_by_engine_.find(dst);
        if (it == partition_by_engine_.end()) return;
        (void)conn_->send(it->second, frame);
      });
  conn_ready_.store(true);
  conn_ready_.notify_all();

  runtime_->start();

  // Boot recovery order (docs/PLACEMENT.md): the migration journal decides
  // ownership FIRST — re-adopting migrated-in components and discarding
  // stale staged slices — so the catch-up replay below feeds exactly the
  // components this node actually owns, and no peer ever sees a
  // pre-recovery HELLO (placement callbacks park on the latch).
  coordinator_->recover_from_journal();
  placement_ready_.store(true);
  placement_ready_.notify_all();

  // Checkpoint-bounded retention: every durable checkpoint broadcasts its
  // fresh per-wire cover so remote senders trim retention promptly (the
  // HELLO carries the same bounds for peers that were down).
  if (durability::CheckpointManager* mgr = runtime_->checkpoint_manager()) {
    mgr->set_on_checkpoint(
        [this](const std::map<WireId, std::uint64_t>& cover) {
          if (!stopping_.load()) broadcast_cover(cover);
        });
  }

  // Restart: consume the recovered log suffix past the restored checkpoint
  // (outputs suppressed) before the gateway opens — new external traffic
  // then lands on a caught-up node (docs/RECOVERY.md).
  const core::RecoveryInfo& recovered = runtime_->recovery_info();
  if (recovered.suffix_records + recovered.covered_records > 0) {
    const auto stats = durability::ReplayDriver::catch_up(
        *runtime_, std::chrono::milliseconds(options_.catch_up_timeout_ms));
    TART_INFO << "restart: checkpoint covered " << stats.covered_records
              << " records, replayed " << stats.suffix_records
              << " suffix records in " << stats.seconds << "s"
              << (stats.caught_up ? "" : " (TIMED OUT)");
  }

  if (!options_.http_addr.empty()) {
    // Register EVERY external wire; per-request ownership is decided by
    // redirect_for() against the LIVE placement table, because migration
    // moves an input's adapter mid-run. A request for a wire served
    // elsewhere answers 307 toward its current owner's advertised http
    // address (deployment `http` directive).
    gateway::Gateway::Options gw_options;
    gw_options.listen = options_.http_addr;
    gw_options.exemplars = options_.http_exemplars;
    gateway::Gateway::Host host;
    host.node = self_->name;
    host.status = [this] { return status_with_placement(); };
    host.shutdown = [this] { request_shutdown(); };
    host.redirect = [this](const std::string& name) {
      return redirect_for(name);
    };
    host.migrate = [this](const std::string& component,
                          const std::string& to_node) {
      const placement::MigrationResult r = run_migration(component, to_node);
      gateway::MigrateOutcome out;
      out.ok = r.ok;
      out.epoch = r.epoch;
      out.slice_bytes = r.slice_bytes;
      out.delta_bytes = r.delta_bytes;
      out.record_count = r.record_count;
      out.transfer_ms = r.transfer_ms;
      out.blackout_ms = r.blackout_ms;
      out.error = r.error;
      return out;
    };
    gateway_ = std::make_unique<gateway::Gateway>(
        runtime_.get(), std::move(gw_options), built_.inputs, built_.outputs,
        std::move(host));
  }

  if (options_.gauge_interval_ms > 0) {
    // First arm must happen on the loop thread (EventLoop threading
    // contract); the sweep re-arms itself from then on.
    conn_->loop().post([this] {
      gauge_timer_ = conn_->loop().add_timer(
          EventLoop::Clock::now() +
              std::chrono::milliseconds(options_.gauge_interval_ms),
          [this] { gauge_sweep(); });
    });
  }

  if (!options_.push_addr.empty())
    push_thread_ = std::thread([this] {
      set_thread_name("obs-push");
      push_loop();
    });

  started_ = true;
}

int NetHost::run_until_shutdown() {
  while (!shutdown_requested_.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  if (stopping_.exchange(true)) return 0;
  // Observers first (they read the registry and runtime state), then the
  // gateway: it holds a raw Runtime pointer, so no injection may be in
  // flight once the runtime starts stopping.
  if (push_thread_.joinable()) push_thread_.join();
  stop_gauge_timer();
  if (gateway_) gateway_->shutdown();
  runtime_->stop();
  if (conn_) conn_->shutdown();
  return 0;
}

void NetHost::request_shutdown() { shutdown_requested_.store(true); }

// --- Observers --------------------------------------------------------------

void NetHost::gauge_sweep() {
  gauge_timer_ = 0;
  if (stopping_.load()) return;
  obs::Registry& reg = runtime_->registry();
  const core::StatusReport report = runtime_->status();
  for (const core::ComponentStatus& c : report.components) {
    if (c.crashed) continue;
    reg.gauge("tart_component_retained_messages",
              "Messages held in the component's output retention buffers.",
              {{"component", c.name}})
        .set(static_cast<std::int64_t>(runtime_->retained_messages(c.id)));
    for (const core::WireStatus& ws : c.inputs)
      reg.gauge("tart_wire_queue_depth",
                "Messages queued on an input wire, not yet merged.",
                {{"component", c.name},
                 {"sender", ws.sender},
                 {"wire", "w" + std::to_string(ws.wire.value())}})
          .set(static_cast<std::int64_t>(ws.pending));
  }
  const log::ExternalMessageLog& elog = runtime_->external_log();
  for (const auto& [name, wire] : built_.inputs) {
    const auto& spec = built_.topology.wire(wire);
    // Live placement, not the static config: migration re-homes inputs.
    if (!runtime_->component_is_local(spec.to)) continue;
    reg.gauge("tart_external_log_messages",
              "External input messages retained in the replay log.",
              {{"input", name}})
        .set(static_cast<std::int64_t>(elog.size(wire)));
  }
  runtime_->harvest_telemetry();
  // Fold the hot-path profiler's thread-local accumulators into tart_prof_*
  // cells: they ship in GET /obs and render in /metrics like any other
  // sample.
  obs::prof::harvest_into(reg);
  gauge_timer_ = conn_->loop().add_timer(
      EventLoop::Clock::now() +
          std::chrono::milliseconds(options_.gauge_interval_ms),
      [this] { gauge_sweep(); });
}

void NetHost::stop_gauge_timer() {
  if (!conn_ || options_.gauge_interval_ms <= 0) return;
  // The sweep runs on the loop thread; a posted cancel runs strictly after
  // any in-flight sweep, so once the wait returns no sweep can be touching
  // the runtime. The handshake state is shared, not on this stack: the
  // posted task may still run (and notify) after a timed-out wait returns.
  struct Handshake {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  const auto hs = std::make_shared<Handshake>();
  conn_->loop().post([this, hs] {
    if (gauge_timer_ != 0) conn_->loop().cancel_timer(gauge_timer_);
    gauge_timer_ = 0;
    const std::lock_guard<std::mutex> lk(hs->mu);
    hs->done = true;
    hs->cv.notify_all();
  });
  std::unique_lock<std::mutex> lk(hs->mu);
  hs->cv.wait_for(lk, std::chrono::seconds(1), [&] { return hs->done; });
}

void NetHost::push_loop() {
  std::optional<gateway::BlockingHttpClient> client;
  auto next = std::chrono::steady_clock::now();
  while (true) {
    next += std::chrono::milliseconds(options_.push_interval_ms);
    while (std::chrono::steady_clock::now() < next) {
      if (shutdown_requested_.load() || stopping_.load()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (shutdown_requested_.load() || stopping_.load()) return;
    if (!client)
      client = gateway::BlockingHttpClient::connect(
          options_.push_addr, std::chrono::milliseconds(500));
    if (!client) continue;  // collector down; redial next tick
    try {
      runtime_->harvest_telemetry();
      const obs::NodeReport report{self_->name,
                                   runtime_->registry().samples(),
                                   status_with_placement()};
      const std::vector<std::byte> body = report.encode();
      const auto resp = client->post(
          "/obs",
          std::string_view(reinterpret_cast<const char*>(body.data()),
                           body.size()),
          obs::kNodeReportContentType);
      if (resp.status != 200) client.reset();
    } catch (const std::exception&) {
      client.reset();
    }
  }
}

// --- Peer plane -------------------------------------------------------------

void NetHost::on_peer_frame(const std::string& peer, transport::Frame frame) {
  (void)peer;
  runtime_->deliver_from_peer(std::move(frame));
}

void NetHost::on_link(const std::string& peer, bool up) {
  const auto* spec = deploy_.find_partition(peer);
  if (auto* tracer = runtime_->trace_recorder()) {
    tracer->record(core::kNetTraceComponent,
                   up ? trace::TraceEventKind::kLinkUp
                      : trace::TraceEventKind::kLinkDown,
                   VirtualTime(0), WireId::invalid(),
                   spec != nullptr ? spec->engine.value() : 0);
  }
  if (spec != nullptr && !up && coordinator_)
    coordinator_->on_peer_disconnected(spec->engine);
  if (up && spec != nullptr) probe_wires_behind(spec->engine);
}

void NetHost::probe_wires_behind(EngineId peer_engine) {
  // A fresh (or restored) link means an unknown amount of traffic was lost
  // while it was down. Probing every wire whose sender sits behind the
  // peer makes the sender announce a fresh silence interval carrying its
  // data-tick count (§II.F.1); our receivers compare that count with what
  // they hold and request replay for the difference — the net layer never
  // has to know *what* was lost. Routed by the LIVE placement (migration
  // re-homes senders mid-run), not the static config map.
  for (const auto& spec : runtime_->topology().wires()) {
    if (!spec.from.is_valid() || !spec.to.is_valid()) continue;
    if (runtime_->engine_of(spec.from) != peer_engine) continue;
    if (!runtime_->component_is_local(spec.to)) continue;
    const auto peer_it = partition_by_engine_.find(peer_engine);
    if (peer_it == partition_by_engine_.end()) continue;
    (void)conn_->send(peer_it->second, transport::ProbeFrame{spec.id});
  }
}

// --- Placement control plane ------------------------------------------------

void NetHost::on_peer_message(const std::string& peer, NetMessage msg) {
  placement_ready_.wait(false);
  const auto* spec = deploy_.find_partition(peer);
  if (spec == nullptr) return;
  if (msg.type == NetMsgType::kCoverUpdate) {
    // The peer's durable checkpoint covers these positions: local senders
    // can drop retention below them — no failover can request them again.
    const CoverUpdateBody body = CoverUpdateBody::decode(msg.payload);
    for (const WireCoverBound& b : body.covered)
      runtime_->trim_retention_below(WireId(b.wire), b.covered_seq);
    return;
  }
  (void)coordinator_->on_peer_message(spec->engine, msg);
}

void NetHost::on_peer_hello(const std::string& peer, const HelloBody& hello) {
  placement_ready_.wait(false);
  const auto* spec = deploy_.find_partition(peer);
  if (spec == nullptr) return;
  // Placement reconciliation: the higher epoch wins (docs/PLACEMENT.md);
  // a node that missed a migration learns about it here. Then the cover
  // bounds — a HELLO after a long partition carries the checkpoint cover
  // kCoverUpdate broadcasts could not deliver.
  coordinator_->on_peer_connected(spec->engine, hello.placement_epoch,
                                  hello.moves);
  for (const WireCoverBound& b : hello.covered)
    runtime_->trim_retention_below(WireId(b.wire), b.covered_seq);
}

void NetHost::fill_hello(HelloBody& hello) {
  placement_ready_.wait(false);
  hello.placement_epoch = coordinator_->epoch();
  hello.moves = coordinator_->overrides();
  if (durability::CheckpointManager* mgr = runtime_->checkpoint_manager()) {
    for (const auto& [wire, seq] : mgr->latest_cover())
      if (seq > 0) hello.covered.push_back(WireCoverBound{wire.value(), seq});
  }
}

void NetHost::broadcast_cover(const std::map<WireId, std::uint64_t>& cover) {
  CoverUpdateBody body;
  for (const auto& [wire, seq] : cover)
    if (seq > 0) body.covered.push_back(WireCoverBound{wire.value(), seq});
  if (!body.covered.empty() && conn_) {
    const NetMessage msg{NetMsgType::kCoverUpdate, body.encode()};
    for (const auto& p : deploy_.partitions)
      if (p.name != self_->name) (void)conn_->send_message(p.name, msg);
  }
  // Staged migration slices at or below this checkpoint are superseded.
  coordinator_->on_durable_checkpoint();
}

placement::MigrationResult NetHost::run_migration(
    const std::string& component, const std::string& to_node) {
  placement::MigrationResult r;
  const auto comp = built_.components.find(component);
  if (comp == built_.components.end()) {
    r.error = "unknown component '" + component + "'";
    return r;
  }
  const auto* part = deploy_.find_partition(to_node);
  if (part == nullptr) {
    r.error = "unknown partition '" + to_node + "'";
    return r;
  }
  return coordinator_->migrate(comp->second, part->engine);
}

std::optional<std::string> NetHost::redirect_for(const std::string& name) {
  ComponentId owner_component = ComponentId::invalid();
  if (const auto in = built_.inputs.find(name); in != built_.inputs.end())
    owner_component = built_.topology.wire(in->second).to;
  else if (const auto out = built_.outputs.find(name);
           out != built_.outputs.end())
    owner_component = built_.topology.wire(out->second).from;
  if (!owner_component.is_valid()) return std::nullopt;
  const EngineId owner = runtime_->engine_of(owner_component);
  if (runtime_->engine_is_local(owner)) return std::nullopt;
  const auto peer_it = partition_by_engine_.find(owner);
  // Remote owner with no advertised http address: empty string, which the
  // gateway answers 404 ("served by another partition") — serving the wire
  // locally would hand back misleading empty output streams.
  if (peer_it == partition_by_engine_.end()) return std::string();
  const auto* spec = deploy_.find_partition(peer_it->second);
  if (spec == nullptr || spec->http_addr.empty()) return std::string();
  return spec->http_addr;
}

core::StatusReport NetHost::status_with_placement() {
  core::StatusReport report = runtime_->status();
  report.placement_epoch = coordinator_->epoch();
  std::map<std::uint32_t, std::uint64_t> epoch_of;
  for (const PlacementMove& m : coordinator_->overrides())
    epoch_of[m.component] = m.epoch;
  for (const auto& [c, e] : coordinator_->placement_snapshot()) {
    core::PlacementEntry entry;
    entry.component = c.value();
    entry.engine = e.value();
    if (const auto it = epoch_of.find(c.value()); it != epoch_of.end())
      entry.epoch = it->second;
    report.placement.push_back(entry);
  }
  for (const placement::MigrationInfo& m : coordinator_->inflight())
    report.migrations.push_back(core::MigrationStatus{
        m.epoch, m.component.value(), m.from.value(), m.to.value(), m.stage});
  return report;
}

}  // namespace tart::net
