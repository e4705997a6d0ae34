// Stall introspection: the "silence wavefront" view of a runtime.
//
// The paper's pessimistic merge holds the earliest pending message until
// every other input wire has promised silence past its virtual time
// (SS II.D). When a pipeline looks stuck, the question is always the same:
// WHICH component is holding WHAT message, and WHICH input wires' silence
// horizons are behind it. StatusReport answers exactly that, per
// component, from a consistent read under the runner lock.
//
// Served as GET /status JSON and inside the binary GET /obs report
// (tart-obs) on the gateway. Read-only: building a report never
// perturbs scheduling.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/virtual_time.h"

namespace tart::core {

/// One input wire of one component, as seen by the pessimistic merge.
struct WireStatus {
  WireId wire = WireId::invalid();
  /// Name of the sending component, or "external" for ingress wires.
  std::string sender;
  /// Silence horizon: the sender has promised no message earlier than
  /// this (ticks; VirtualTime::infinity() when the wire is closed).
  std::int64_t horizon_ticks = 0;
  /// Messages queued on this wire, not yet merged.
  std::uint64_t pending = 0;
  /// True when this wire is what the held message is waiting on: its
  /// horizon has not passed the held message's virtual time.
  bool blocking = false;
};

/// One component's frontier.
struct ComponentStatus {
  ComponentId id = ComponentId::invalid();
  std::string name;
  /// Virtual-time frontier: everything up to here is settled.
  std::int64_t vt_ticks = 0;
  /// Total messages pending across all input wires.
  std::uint64_t pending = 0;
  bool exhausted = false;
  /// Crashed and awaiting recovery; the rest of the fields are zero.
  bool crashed = false;
  /// True when the earliest pending message is being held by pessimism.
  bool held = false;
  std::int64_t held_vt = 0;
  WireId held_wire = WireId::invalid();
  std::vector<WireStatus> inputs;
};

/// Where one component lives right now (placement overrides applied).
struct PlacementEntry {
  std::uint32_t component = 0;  ///< ComponentId::value()
  std::uint32_t engine = 0;     ///< EngineId::value() of the owner
  std::uint64_t epoch = 0;      ///< 0 = static (config) placement
};

/// One in-flight live migration, as seen from this node (either side).
struct MigrationStatus {
  std::uint64_t epoch = 0;
  std::uint32_t component = 0;
  std::uint32_t from_engine = 0;
  std::uint32_t to_engine = 0;
  std::string stage;  ///< prepare/transfer/delta/cutover (source);
                      ///< staged/adopt (target)
};

/// Point-in-time wavefront over every component placed on this runtime.
/// Each component's entry is internally consistent (read under its runner
/// lock); entries are mutually concurrent.
struct StatusReport {
  std::vector<ComponentStatus> components;

  // --- Placement control plane (filled by the net host; empty when the
  // runtime is in-process and placement is static) --------------------------
  std::uint64_t placement_epoch = 0;
  std::vector<PlacementEntry> placement;
  std::vector<MigrationStatus> migrations;
};

}  // namespace tart::core
