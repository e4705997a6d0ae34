// Flight-recorder configuration, embedded in RuntimeConfig.
//
// Tracing is off by default; when off the hot path pays a single
// null-pointer branch per would-be record point. When on, the default
// category mask records only scheduling-class events, whose stream is a
// deterministic function of the input log — so two runs over the same log
// yield byte-identical trace files (the harness in
// tests/trace_determinism_test.cc enforces this).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "common/ids.h"
#include "trace/trace_event.h"

namespace tart::trace {

struct TraceConfig {
  bool enabled = false;

  /// Output file written at finalize (Runtime::stop). Empty keeps the
  /// trace in memory only (introspection / benches).
  std::string path;

  /// Which event categories to record (TraceCategory bits).
  std::uint32_t categories = static_cast<std::uint32_t>(TraceCategory::kScheduling);

  /// Per-component ring capacity (rounded up to a power of two). Records
  /// that arrive while the ring is full are dropped and counted in
  /// tart_trace_events_dropped_total.
  std::size_t ring_capacity = 1 << 14;

  /// Background-writer drain cadence.
  std::chrono::microseconds drain_interval{500};

  /// TEST-ONLY: skews the recorded virtual time of the named components'
  /// events by the given tick delta, *in the trace layer only* — scheduling
  /// is untouched. Simulates a nondeterministic run so divergence
  /// detection can be exercised without actually breaking the runtime.
  std::map<ComponentId, std::int64_t> debug_vt_skew;
};

}  // namespace tart::trace
