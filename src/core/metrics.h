// Per-component scheduler metrics: the quantities the paper's evaluation
// tracks ("We counted the number of out-of-order messages, the number of
// curiosity probes, and the average end-to-end latency", §III.A) plus the
// pessimism-delay accounting that explains the overhead of determinism.
//
// The counts live in the telemetry registry as {component="..."} labelled
// counter families (obs/registry.h); MetricsSnapshot is a typed read of one
// component's cells (Runtime::metrics) or of their sum over the local
// components (Runtime::total_metrics). Every other telemetry number is a
// registry family too, registered by whoever counts it
// (docs/OBSERVABILITY.md, "Who registers what").
#pragma once

#include <cstdint>
#include <string>

#include "obs/registry.h"

namespace tart::core {

/// Plain-value readout of one component's scheduler counters (or of their
/// sum). Raw units: pessimism_wait_ns is nanoseconds.
struct MetricsSnapshot {
  std::uint64_t messages_processed = 0;
  std::uint64_t calls_served = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t pessimism_events = 0;
  std::uint64_t pessimism_wait_ns = 0;
  std::uint64_t estimator_underestimates = 0;
  std::uint64_t out_of_order_arrivals = 0;
  std::uint64_t duplicates_discarded = 0;
  std::uint64_t gaps_detected = 0;
  std::uint64_t checkpoints_taken = 0;
};

/// Per-runner handles into the telemetry registry: one labelled counter
/// cell per scheduler count, found-or-created by name so a recovered
/// component re-attaches to its series (counts survive crash/recover the
/// way trace streams do; checkpoint restore overwrites messages_processed
/// via Counter::set). Increments are relaxed atomic adds on stable cells —
/// the registry is never touched after construction.
class RunnerMetrics {
 public:
  RunnerMetrics(obs::Registry& registry, const std::string& component);

  obs::Counter& messages_processed;
  obs::Counter& calls_served;
  obs::Counter& probes_sent;
  obs::Counter& pessimism_events;
  obs::Counter& pessimism_wait_ns;
  obs::Counter& estimator_underestimates;
  obs::Counter& out_of_order_arrivals;
  obs::Counter& duplicates_discarded;
  obs::Counter& gaps_detected;
  obs::Counter& checkpoints_taken;

  [[nodiscard]] MetricsSnapshot snapshot() const;
};

}  // namespace tart::core
