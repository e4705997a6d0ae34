// Execution engine: the failure unit.
//
// "An execution engine is either a physical machine or a container such as
// a JVM within a machine" (§II.C). An engine hosts the runners of the
// components placed on it, dispatches incoming frames to them, runs the
// aggressive-silence push timer, and implements fail-stop semantics:
// crash() discards every runner (state, queues, retention) exactly as a
// machine loss would; recover() rebuilds them from the passive replica and
// triggers replay.
//
// Locking: the runner map is guarded by a plain mutex held only for
// lookups; dispatch pins the target runner with a shared_ptr and calls
// into it with NO engine lock held (frames routed onward from inside a
// runner may re-enter any engine — holding a lock across that is a
// lock-order cycle waiting to happen). crash() swaps the map out, joins
// the threads, and lets in-flight pins expire.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "checkpoint/replica.h"
#include "common/ids.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/router.h"
#include "core/runner.h"
#include "core/topology.h"
#include "log/fault_log.h"

namespace tart::core {

class Engine {
 public:
  /// `tracer` may be null (tracing disabled).
  Engine(EngineId id, const Topology& topology, const RuntimeConfig& config,
         FrameRouter& router, log::DeterminismFaultLog& fault_log,
         checkpoint::ReplicaStore& replica, obs::Registry& registry,
         trace::TraceRecorder* tracer);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a component placed on this engine (before start()).
  void add_component(ComponentId component);

  /// Starting is the recover() protocol in steps, so a runtime can finish
  /// each step on every engine before the next: restore every component
  /// from the replica, ask upstream for replays past the restored
  /// positions, serve those replays, then start the scheduler threads.
  void restore();
  void request_replays();
  void serve_replays();
  void start();
  void stop();

  /// Fail-stop: every hosted component loses its state, queues, and
  /// retention buffers. Frames arriving while crashed are dropped (the
  /// machine is gone).
  void crash();

  /// Failover: "the passive backup becomes active. The checkpoint is
  /// restored, and connections are made to sending engines ... the sending
  /// engine will be asked to replay messages" (§II.F.3).
  void recover();

  // --- Elastic placement (live migration; src/placement) -------------------

  /// Adds a component to a RUNNING engine: builds its runner, restores it
  /// from `plan` (nullopt = fresh), requests replays past the restored
  /// positions and starts the scheduler thread — the recover() protocol,
  /// scoped to one component. No-op (false) if the component is already
  /// hosted or the engine is crashed.
  bool adopt_component(ComponentId component,
                       const std::optional<checkpoint::RestorePlan>& plan);

  /// Removes a component from a RUNNING engine: stops its runner thread and
  /// unhosts it. Returns the sealed output positions (published horizon +
  /// next seq per wire) the departing node may promise as final silence, or
  /// nullopt when the component is not hosted.
  std::optional<std::vector<ComponentRunner::SilenceUpdate>> evict_component(
      ComponentId component);

  [[nodiscard]] bool crashed() const { return crashed_.load(); }
  [[nodiscard]] EngineId id() const { return id_; }

  // Frame dispatch (called by the Runtime's router). Data is consumed:
  // messages are moved into the receiving runner.
  void deliver_to_receiver(WireId wire, transport::Frame&& frame);
  /// Delivers a run of data messages on `wire` to its receiving runner,
  /// pinned once; a data frame is delivered as a batch of one.
  void deliver_batch_to_receiver(WireId wire, std::span<Message> batch);
  /// Hands a log-backed replay run to the runner receiving `run.wire`.
  void deliver_run_to_receiver(const MessageRun& run);
  void deliver_to_sender(WireId wire, const transport::Frame& frame);

  [[nodiscard]] std::shared_ptr<ComponentRunner> runner(
      ComponentId component) const;
  [[nodiscard]] bool all_exhausted() const;
  [[nodiscard]] MetricsSnapshot metrics(ComponentId component) const;
  [[nodiscard]] std::vector<ComponentId> components() const;

 private:
  using RunnerMap = std::map<ComponentId, std::shared_ptr<ComponentRunner>>;

  [[nodiscard]] RunnerMap make_runners() const;
  /// Pins the runner hosting `component`; nullptr when crashed or unknown.
  [[nodiscard]] std::shared_ptr<ComponentRunner> pin(
      ComponentId component) const;
  [[nodiscard]] std::vector<std::shared_ptr<ComponentRunner>> pin_all() const;
  void aggressive_loop();

  const EngineId id_;
  const Topology& topology_;
  const RuntimeConfig& config_;
  FrameRouter& router_;
  log::DeterminismFaultLog& fault_log_;
  checkpoint::ReplicaStore& replica_;
  obs::Registry& registry_;
  trace::TraceRecorder* const tracer_;

  /// Guarded by map_mu_ since live migration mutates it mid-run.
  std::vector<ComponentId> placed_;
  mutable std::mutex map_mu_;  // guards runners_ + placed_; never held across calls
  RunnerMap runners_;
  std::atomic<bool> crashed_{false};
  std::atomic<bool> started_{false};

  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  bool timer_stop_ = false;
  std::thread aggressive_thread_;
};

}  // namespace tart::core
