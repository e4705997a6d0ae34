#include "core/metrics.h"

namespace tart::core {
namespace {

obs::Counter& cell(obs::Registry& registry, const std::string& component,
                   const char* name, const char* help, double scale = 1.0) {
  return registry.counter(name, help, obs::Labels{{"component", component}},
                          scale);
}

}  // namespace

RunnerMetrics::RunnerMetrics(obs::Registry& registry,
                             const std::string& component)
    : messages_processed(cell(registry, component,
                              "tart_messages_processed_total",
                              "Messages dispatched to component handlers")),
      calls_served(cell(registry, component, "tart_calls_served_total",
                        "Synchronous calls served (on_call invocations)")),
      probes_sent(cell(registry, component, "tart_probes_sent_total",
                       "Curiosity probes sent at lagging senders")),
      pessimism_events(cell(
          registry, component, "tart_pessimism_events_total",
          "Stall episodes: the earliest message held awaiting silence")),
      pessimism_wait_ns(cell(
          registry, component, "tart_pessimism_wait_seconds_total",
          "Wall time blocked awaiting other wires' silence promises", 1e-9)),
      estimator_underestimates(cell(
          registry, component, "tart_estimator_underestimates_total",
          "Handler executions that ran longer than the estimator's charge")),
      out_of_order_arrivals(cell(
          registry, component, "tart_out_of_order_arrivals_total",
          "Arrivals whose virtual time inverted the arrival order")),
      duplicates_discarded(
          cell(registry, component, "tart_duplicates_discarded_total",
               "Replay duplicates discarded by timestamp (SS II.F.4)")),
      gaps_detected(cell(registry, component, "tart_gaps_detected_total",
                         "Sequence gaps detected (lost ticks needing replay)")),
      checkpoints_taken(
          cell(registry, component, "tart_checkpoints_taken_total",
               "Soft checkpoints shipped to the passive replica")) {}

MetricsSnapshot RunnerMetrics::snapshot() const {
  MetricsSnapshot s;
  s.messages_processed = messages_processed.value();
  s.calls_served = calls_served.value();
  s.probes_sent = probes_sent.value();
  s.pessimism_events = pessimism_events.value();
  s.pessimism_wait_ns = pessimism_wait_ns.value();
  s.estimator_underestimates = estimator_underestimates.value();
  s.out_of_order_arrivals = out_of_order_arrivals.value();
  s.duplicates_discarded = duplicates_discarded.value();
  s.gaps_detected = gaps_detected.value();
  s.checkpoints_taken = checkpoints_taken.value();
  return s;
}

}  // namespace tart::core
