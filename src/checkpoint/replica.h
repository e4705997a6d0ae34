// Passive replica store.
//
// "Each engine is associated with a backup, which is either a stable
// storage device for holding checkpoints, or a passive replica residing on
// a separate execution engine, which holds checkpoints, ready to
// immediately become active should the active engine fail" (§II.C). The
// replica performs no processing: it stores the latest full snapshot per
// component plus any deltas received since, and hands them back on
// failover. Delta application happens on the recovering side.
//
// The store itself is in memory; a durable checkpoint file
// (src/durability) persists its plans on "a stable storage device".
//
// Thread-safe: soft checkpoints arrive asynchronously from engine threads.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "checkpoint/snapshot.h"
#include "common/ids.h"

namespace tart::trace {
class TraceRecorder;
}

namespace tart::checkpoint {

/// Everything needed to rebuild one component: the last full snapshot and
/// the ordered deltas on top of it.
struct RestorePlan {
  ComponentSnapshot base;
  std::vector<ComponentSnapshot> deltas;
};

class ReplicaStore {
 public:
  /// Accepts a soft checkpoint. A full snapshot replaces the base and
  /// clears accumulated deltas; a delta is appended (its version must
  /// extend the chain, otherwise it is rejected and a full snapshot should
  /// be sent next).
  /// Returns true if accepted.
  bool store(ComponentSnapshot snapshot);

  /// Snapshot chain for failover, if any checkpoint was ever received.
  [[nodiscard]] std::optional<RestorePlan> restore(ComponentId component) const;

  /// Latest version held for a component (0 if none).
  [[nodiscard]] std::uint64_t latest_version(ComponentId component) const;

  /// Consistent copy of every component's restore plan, taken under the
  /// store lock — the state a durable checkpoint file persists.
  [[nodiscard]] std::map<ComponentId, RestorePlan> export_plans() const;

  /// Seeds a component's plan from a durable checkpoint file (boot path,
  /// before any engine starts). Replaces whatever is held.
  void import_plan(ComponentId component, RestorePlan plan);

  /// Cumulative bytes received — the shipping cost of checkpointing, used
  /// by the checkpoint-frequency ablation bench.
  [[nodiscard]] std::uint64_t bytes_received() const;
  [[nodiscard]] std::uint64_t snapshots_received() const;

  void clear();

  /// Flight recorder (may be null): an accepted snapshot is the durable
  /// checkpoint event, so it is recorded here rather than at capture.
  void set_trace(trace::TraceRecorder* recorder);

 private:
  bool store_locked(ComponentSnapshot snapshot);

  mutable std::mutex mutex_;
  std::map<ComponentId, RestorePlan> plans_;
  std::uint64_t bytes_ = 0;
  std::uint64_t count_ = 0;
  trace::TraceRecorder* trace_ = nullptr;
};

}  // namespace tart::checkpoint
