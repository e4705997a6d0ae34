// Deployment-time tuning knobs (§II.G "Controls Affecting Performance").
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common/ids.h"
#include "common/virtual_time.h"
#include "durability/config.h"
#include "estimator/calibrator.h"
#include "estimator/comm_delay.h"
#include "trace/trace_config.h"
#include "transport/network_link.h"

namespace tart::core {

/// How messages are scheduled at each component.
enum class SchedulingMode {
  /// TART: strict virtual-time order with pessimistic silence waiting.
  kDeterministic,
  /// Baseline: real-time arrival order (a conventional runtime). Used by
  /// the overhead benchmarks; provides no replay guarantee.
  kArrivalOrder,
};

/// Silence-propagation strategy (§II.G.3). Lazy propagation — silence
/// implied by the next data message — is always active; the knobs below add
/// explicit propagation on top of it.
struct SilenceConfig {
  /// Curiosity-driven: a receiver in a pessimism delay probes the lagging
  /// senders for fresh silence intervals.
  bool curiosity = true;
  /// Re-probe cadence while a pessimism delay persists (real time).
  std::chrono::microseconds probe_interval{200};
  /// Aggressive: senders push silence updates unprompted at this real-time
  /// cadence. Zero disables.
  std::chrono::microseconds aggressive_interval{0};
};

struct CheckpointConfig {
  /// Soft-checkpoint a component every N processed messages. Zero disables
  /// (recovery then replays from the beginning of the external log).
  std::uint64_t every_n_messages = 0;
  /// Every k-th snapshot is full; the rest are incremental deltas when the
  /// component supports them.
  std::uint64_t full_every_k = 8;
};

struct RuntimeConfig {
  SchedulingMode mode = SchedulingMode::kDeterministic;
  SilenceConfig silence;
  CheckpointConfig checkpoint;

  /// Flight recorder (src/trace): VT-ordered event tracing for determinism
  /// verification and performance forensics. Off by default; when off the
  /// hot path pays one branch per record point.
  trace::TraceConfig trace;

  /// Online estimator recalibration via determinism faults (§II.G.4).
  bool calibration = false;
  estimator::CalibratorConfig calibrator;

  /// Hyper-aggressive bias per component (§II.G.1 "bias algorithm"):
  /// the designated slow senders round output virtual times up to
  /// (bias+1)-tick grid boundaries and eagerly promise the gaps silent.
  std::map<ComponentId, TickDuration> bias;

  /// Communication-delay estimator per wire; wires without an entry use
  /// LocalDelayEstimator (1 tick).
  std::map<WireId,
           std::function<std::unique_ptr<estimator::CommDelayEstimator>()>>
      comm_delay;

  /// Simulated physical links between engine pairs (ordered pair). Frame
  /// traffic between two engines flows through a ReliableChannel over these
  /// faulty links; engine pairs without an entry communicate directly.
  std::map<std::pair<EngineId, EngineId>, transport::LinkConfig> links;

  /// Partition-aware deployment: the engines hosted by THIS process. Empty
  /// means every engine in the placement is local (the classic
  /// single-process deployment). When non-empty, only local engines are
  /// constructed; frames routed toward a non-local engine are handed to
  /// the remote router (Runtime::set_remote_router) — the socket transport
  /// bridge — and frames arriving from peer processes enter through
  /// Runtime::deliver_from_peer.
  std::set<EngineId> local_engines;

  /// Stable-storage directory (§II.C: the backup can be "a stable storage
  /// device"). Empty = volatile. When set, the runtime keeps its external
  /// input log in rotated segments (<log_dir>/messages.*.seg), the
  /// determinism-fault log in <log_dir>/faults.log, and durable checkpoint
  /// files (ckpt.*.tckp) beside them. A Runtime constructed over an
  /// existing log_dir restores the newest valid checkpoint and replays only
  /// the log suffix past it (docs/RECOVERY.md) — the one restart path.
  std::string log_dir;

  /// Checkpoint triggers, retention and segment size for log_dir
  /// (src/durability, docs/RECOVERY.md). Ignored without a log_dir.
  durability::DurabilityConfig durability;
};

}  // namespace tart::core
