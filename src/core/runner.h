// ComponentRunner: one component's deterministic scheduler.
//
// Each component gets a dedicated thread (as in the paper's experiments,
// where "the three components each had a dedicated thread"). The runner:
//
//   - merges the component's input wires pessimistically in virtual-time
//     order (Inbox), waiting out pessimism delays and firing curiosity
//     probes at lagging senders (§II.E, §II.H);
//   - runs handlers one at a time, maintaining a virtual-time cursor that
//     advances by estimator charges (never by measured time);
//   - stamps outgoing messages with deterministic virtual arrival times
//     (compute estimate + communication-delay estimate, optionally rounded
//     up by the hyper-aggressive bias policy);
//   - publishes per-output-wire silence horizons (lock-free, so probe
//     servicing never blocks on a busy or blocked component);
//   - retains sent messages until downstream stability acknowledgements
//     trim them, and serves replay requests from that retention;
//   - takes soft checkpoints between handlers and ships them to the
//     passive replica;
//   - supports an arrival-order mode, the non-deterministic baseline the
//     paper compares against.
//
// Thread-safety protocol: `mu_` guards the inbox, control queue and
// arrival queue; the runner's scheduling state (cursor, positions,
// retention, estimators, hand-off buffers) is touched only by the runner
// thread; published horizons are atomics readable by any thread. Frames
// are never routed while holding `mu_` (no lock-order cycles between
// runners).
//
// Hand-off batching: while more input is queued behind the current
// dispatch, data emits are buffered per output wire and handed to the
// receiver as one batch (FrameRouter::to_receiver_batch: one route, one
// receiver lock, one wake). With nothing queued an emit is routed at once,
// so an idle pipeline keeps its per-message latency. Every point that
// could wait on, expose or replay a wire's position flushes first.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <variant>
#include <vector>

#include "checkpoint/replica.h"
#include "checkpoint/snapshot.h"
#include "common/ids.h"
#include "common/virtual_time.h"
#include "core/component.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/router.h"
#include "core/status.h"
#include "core/topology.h"
#include "estimator/bias.h"
#include "estimator/comm_delay.h"
#include "estimator/estimator_manager.h"
#include "log/fault_log.h"
#include "trace/recorder.h"
#include "wire/inbox.h"
#include "wire/retention_buffer.h"

namespace tart::core {

/// Control messages processed on the runner thread (they touch
/// runner-private state such as retention buffers).
struct ReplayRequestCtl {
  WireId wire;
  VirtualTime after;
  std::uint64_t from_seq;
};
struct StabilityCtl {
  WireId wire;
  VirtualTime through;
};
struct DupCallCtl {
  WireId call_wire;
  std::uint64_t call_id;
};
/// Forces an immediate FULL soft checkpoint on the runner thread — the
/// per-component barrier a durable checkpoint is assembled from
/// (src/durability). Full, so the replica's latest version is guaranteed
/// to advance even if a delta would have been rejected.
struct CheckpointNowCtl {};
/// Drops output retention on `wire` below `below_seq`: the remote
/// consumer's durable checkpoint covers those messages, so no failover can
/// ever replay-request them (checkpoint-bounded retention; the bound
/// arrives in HELLO / kCoverUpdate frames).
struct RetentionTrimCtl {
  WireId wire;
  std::uint64_t below_seq;
  /// When set, the number of records dropped is added here (the runtime's
  /// process-wide trim counter; surfaced as a metric).
  std::atomic<std::uint64_t>* trimmed = nullptr;
};
using ControlMsg = std::variant<ReplayRequestCtl, StabilityCtl, DupCallCtl,
                                CheckpointNowCtl, RetentionTrimCtl>;

class ComponentRunner {
 public:
  /// `tracer` may be null (tracing disabled): every record point then
  /// costs a single branch. `registry` outlives the runner (owned by the
  /// Runtime); re-registration after crash/recover re-attaches to the
  /// same cells.
  ComponentRunner(const Topology& topology, ComponentId id,
                  const RuntimeConfig& config, FrameRouter& router,
                  log::DeterminismFaultLog& fault_log,
                  checkpoint::ReplicaStore& replica, obs::Registry& registry,
                  trace::TraceRecorder* tracer);
  ~ComponentRunner();

  ComponentRunner(const ComponentRunner&) = delete;
  ComponentRunner& operator=(const ComponentRunner&) = delete;

  /// Spawns the scheduler thread. For a recovering component, call
  /// restore_from + request_replays first.
  void start();

  /// Cooperative stop; joins the thread. Safe to call twice.
  void stop();

  /// Longest run of emits one output wire buffers before handing it off;
  /// also the chunk a replay is served in, and read back in from a run.
  static constexpr std::size_t kHandoffBatchCap = Inbox::kRunChunk;

  // --- Frame entry points (any thread) -----------------------------------

  /// The only way data enters the runner: offers `batch` (messages on
  /// `wire`, in order; each is moved out) under one lock acquisition and
  /// wakes the scheduler once. A single data frame is a batch of one.
  void deliver_data(WireId wire, std::span<Message> batch);
  /// A replay handed over as a run (Inbox::offer_run): accounted at once,
  /// read back from its source as the inbox drains.
  void deliver_run(const MessageRun& run);
  void deliver_silence(WireId wire, VirtualTime through,
                       std::uint64_t expected_seq = 0);
  void deliver_reply(Message&& m);
  /// Curiosity probe service: answered immediately from the published
  /// horizon without involving the runner thread.
  void handle_probe(WireId wire);
  void enqueue_control(ControlMsg msg);

  // --- Recovery (call only while the thread is not running) --------------

  /// Rebuilds the component from a replica restore plan; with nullopt the
  /// component starts fresh (replay then re-feeds from the beginning).
  void restore_from(const std::optional<checkpoint::RestorePlan>& plan);

  /// Asks every upstream sender (component or external adapter) to replay
  /// ticks past the restored positions.
  void request_replays();

  /// Serves the queued control messages (replay requests from restored
  /// receivers) on the calling thread, as the scheduler thread would first.
  void serve_queued_control();

  // --- Introspection ------------------------------------------------------

  [[nodiscard]] ComponentId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] VirtualTime published_horizon(WireId wire) const;
  [[nodiscard]] MetricsSnapshot metrics() const {
    MetricsSnapshot s = metrics_.snapshot();
    if (tracer_ != nullptr) {
      s.trace_events_recorded = tracer_->recorded(id_);
      s.trace_events_dropped = tracer_->dropped(id_);
    }
    return s;
  }
  /// All inputs closed and processed, no handler running.
  [[nodiscard]] bool exhausted() const;
  [[nodiscard]] VirtualTime current_vt() const;

  /// Silence-wavefront view: the VT frontier, per-input-wire horizons and
  /// queue depths, and — when the head is held by pessimism — which wires
  /// are blocking it. Consistent read under the runner lock; read-only.
  [[nodiscard]] ComponentStatus status() const;

  /// FNV hash of the component's full serialized state. Only meaningful
  /// when the component is quiescent (drained or stopped); used by tests to
  /// assert replayed state is bit-identical to a never-failed run.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  /// Total messages currently retained across all output wires (bounded by
  /// downstream checkpoint progress; the retention ablation measures this).
  [[nodiscard]] std::size_t retained_messages() const;
  /// Bytes those retained messages occupy. Like retained_messages(), safe
  /// to call from any thread.
  [[nodiscard]] std::size_t retention_memory_bytes() const;

  struct SilenceUpdate {
    WireId wire;
    VirtualTime through;
    std::uint64_t expected_seq;
  };

  /// Silence updates not yet pushed (aggressive propagation): wires whose
  /// published horizon advanced past the last push. Calling marks them
  /// pushed. Invoked by the engine's aggressive timer.
  [[nodiscard]] std::vector<SilenceUpdate> collect_silence_updates();

  /// Every output wire's sealed position (published horizon + next seq).
  /// Call only after stop(): the departing node of a live migration
  /// promises this as its final silence on each wire it abandons.
  [[nodiscard]] std::vector<SilenceUpdate> seal_outputs() const;

 private:
  friend class RunnerContext;

  /// One output wire. Invariant: `next_seq` and `published` never cover
  /// an unsent message. A message in `buffered` already holds its seq and
  /// vt (and sits in `retention`), but `next_seq` counts only messages
  /// handed to the router, and `published` stays below the first buffered
  /// vt; both advance past a batch only once it is en route. A probe
  /// answered meanwhile therefore under-reports, never over-promises.
  struct OutputState {
    WireSpec spec;
    /// Data emits on this wire may be buffered: it leads to another
    /// component or the outside world. Self (timer) wires never are — a
    /// buffered timer would be invisible to the idle-horizon bound.
    bool batchable = false;
    /// Written only by the runner thread; read by probe servicing from any
    /// thread (it travels in SilenceFrame::expected_seq).
    std::atomic<std::uint64_t> next_seq{0};
    VirtualTime last_sent = VirtualTime(-1);
    RetentionBuffer retention;
    std::unique_ptr<estimator::CommDelayEstimator> delay;
    std::atomic<std::int64_t> published{-1};    // silence horizon (ticks)
    std::atomic<std::int64_t> last_pushed{-1};  // aggressive-push watermark
    /// A probe arrived and could not be satisfied beyond `published`; push
    /// the horizon to the receiver as soon as it advances (the probed
    /// sender "computes a new silence interval" and delivers it, §II.H).
    std::atomic<bool> probe_pending{false};
    /// Emitted, not yet handed off (runner thread only); consecutive seqs.
    std::vector<Message> buffered;
  };

  struct InputPos {
    VirtualTime delivered_vt = VirtualTime(-1);
    std::uint64_t delivered_seq = 0;
  };

  /// Thrown out of a blocked call when the runner is stopped/crashed.
  struct StopSignal {};

  void run();
  void process(const Message& m);
  /// Post-dispatch bookkeeping, entered and left holding `mu_`: refreshes
  /// the idle horizons and, only when a probe is pending, drops the lock
  /// to answer it.
  void after_dispatch(std::unique_lock<std::mutex>& lk);
  /// Mirrors the queued input count into `queued_`. Requires `mu_`.
  void note_queued_locked();
  void drain_control(std::unique_lock<std::mutex>& lk);
  void serve_control(const ControlMsg& msg);
  void send_probes();

  /// Sends one message on a specific wire from handler context; returns
  /// the assigned virtual time. `explicit_delay` overrides the wire's
  /// communication-delay estimator (time-aware sends / timers). Runner
  /// thread only.
  VirtualTime emit(OutputState& out, VirtualTime cursor, MessageKind kind,
                   std::uint64_t call_id, Payload payload,
                   std::optional<TickDuration> explicit_delay = std::nullopt);

  /// Publishes horizons while a handler runs: no output can appear before
  /// floor + min_delay(wire).
  void publish_busy_horizons(VirtualTime floor);
  /// Publishes horizons between handlers, from the inbox lower bound.
  /// Requires `mu_`.
  void publish_idle_horizons_locked();
  void advance_published(OutputState& out, VirtualTime through);
  /// Publishes +inf on all outputs and routes final silence frames.
  void publish_final_silence();

  /// Hands every buffered output run to its receiver. No locks held.
  void flush_outputs();
  /// Hands `out.buffered` to the receiver as one batch, then advances the
  /// wire's next_seq and published horizon past it.
  void hand_off(OutputState& out);

  /// Pushes freshly-advanced horizons to receivers with outstanding probe
  /// interest. Must be called with no locks held.
  void flush_probe_responses();

  void maybe_checkpoint();
  void capture_checkpoint();

  [[nodiscard]] TickDuration charge_for(const estimator::BlockCounters& c,
                                        VirtualTime dequeue_vt,
                                        TickDuration floor) const;

  // Immutable wiring (set at construction).
  const Topology& topology_;
  const ComponentId id_;
  const std::string name_;
  const RuntimeConfig& config_;
  FrameRouter& router_;
  checkpoint::ReplicaStore& replica_;
  obs::Registry& registry_;
  /// Flight recorder; null when tracing is off. Owned by the Runtime, so
  /// a component's event stream continues across engine crash/recover.
  trace::TraceRecorder* const tracer_;
  estimator::BiasPolicy bias_;
  /// Immutable after construction; safe to read from any thread (probe
  /// servicing fans transitive probes out over it).
  std::vector<WireId> input_wires_;
  /// Self-loop (timer) input wires and the rest, split. A self wire closes
  /// itself once every non-self input is closed and nothing is pending —
  /// no future handler could schedule another timer.
  std::vector<WireId> self_wires_;
  std::vector<WireId> nonself_wires_;

  std::unique_ptr<Component> component_;
  estimator::EstimatorManager estimators_;

  // Scheduling state guarded by mu_.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Inbox inbox_;
  std::deque<Message> arrival_queue_;  // kArrivalOrder mode
  std::deque<ControlMsg> control_;
  /// Input messages queued behind the current dispatch (inbox, unread run
  /// records included, or arrival queue); written under mu_, read
  /// lock-free by emit() as the batching gate.
  std::atomic<std::size_t> queued_{0};
  /// Emits buffered on any output and not yet delivered to a receiver;
  /// while nonzero the runner is not quiescent (status/exhausted).
  std::atomic<std::size_t> buffered_{0};
  std::atomic<bool> stop_{false};
  bool in_handler_ = false;
  bool final_silence_sent_ = false;

  /// Virtual position after the last dispatch. Only the runner thread
  /// writes it, outside mu_ (process() runs unlocked); status() and
  /// current_vt() read it from other threads, so it is atomic.
  std::atomic<VirtualTime> current_vt_{VirtualTime::zero()};

  // Runner-thread-private state.
  VirtualTime max_arrival_vt_ = VirtualTime(-1);  // out-of-order detection
  std::map<WireId, InputPos> input_pos_;          // data/call/external inputs
  std::map<WireId, VirtualTime> last_reply_;      // reply-wire positions
  std::map<WireId, std::unique_ptr<OutputState>> outputs_;
  std::uint64_t processed_since_checkpoint_ = 0;
  std::uint64_t checkpoint_version_ = 0;
  bool force_full_checkpoint_ = true;

  // Call/reply rendezvous.
  std::mutex reply_mu_;
  std::condition_variable reply_cv_;
  std::optional<Message> pending_reply_;
  std::uint64_t awaited_call_id_ = 0;
  WireId awaited_reply_wire_;

  /// Rate limiter for transitive curiosity probes (see handle_probe).
  std::atomic<std::int64_t> last_transitive_probe_ns_{0};

  // Telemetry cells (registry-owned; registered at construction, recorded
  // into lock-free). Stall attribution is per blocking input wire; probe
  // RTT matches a probe send stamp (probe_sent_ns_, guarded by mu_) to the
  // next silence frame on that wire.
  std::map<WireId, obs::Histogram*> stall_hist_;
  std::map<WireId, obs::Histogram*> probe_rtt_hist_;
  obs::Histogram* est_err_hist_ = nullptr;
  /// Ingress queueing: durable-commit to first dispatch of an external
  /// input (recorded on the input's own first hop only).
  obs::Histogram* ingress_queue_hist_ = nullptr;
  /// Router hand-offs of emitted messages (a direct send is a hand-off of
  /// one, a flushed run a hand-off of many), and the messages they carried.
  obs::Counter* handoffs_ = nullptr;
  obs::Counter* handoff_messages_ = nullptr;
  std::map<WireId, std::int64_t> probe_sent_ns_;

  // Request-lineage origin of the message currently being processed
  // (runner thread only): every emit() during the dispatch copies it onto
  // the outgoing message, so descendants inherit the input's identity.
  WireId current_origin_wire_ = WireId::invalid();
  std::uint64_t current_origin_seq_ = 0;
  std::int64_t current_origin_wall_ns_ = 0;

  // Stall-forensics state (runner thread only). Each pessimism episode is
  // minted a per-component id that rides in kStallResolved/kStallBlame
  // trace events and histogram exemplars, so a fat p99 bucket links back
  // to concrete trace records (`tart-trace explain --episode`). The
  // horizons photographed at episode begin let the release path report the
  // blocking wire's deficit without re-deriving it offline.
  std::uint64_t stall_episode_seq_ = 0;
  std::uint64_t stall_episode_id_ = 0;
  std::int64_t stall_begin_wall_ns_ = 0;
  std::map<WireId, std::int64_t> stall_h_begin_;
  std::vector<WireId> stall_last_lagging_;

  RunnerMetrics metrics_;
  std::thread thread_;
};

}  // namespace tart::core
