// Tiered fast restart: the high-speed replay driver.
//
// After a restart, Runtime::start() restores every component from the
// newest durable checkpoint and each component asks the external log to
// replay only the uncovered suffix (§II.F.3/4). This driver wraps that
// catch-up window: external output callbacks are suppressed (the outside
// world already saw these messages — replay must be invisible, §II.A), and
// the caller blocks until the wavefront has consumed the whole suffix.
// RTO therefore scales with the suffix length, not the log length:
// TieredRestartTest.SuffixReplayIsIndependentOfCoveredPrefixLength pins
// the replayed count, and perfbench restart-replay times it.
#pragma once

#include <chrono>
#include <cstdint>

namespace tart::core {
class Runtime;
}

namespace tart::durability {

struct ReplayStats {
  bool caught_up = false;          ///< quiescent within the timeout
  std::uint64_t covered_records = 0;  ///< skipped thanks to the checkpoint
  std::uint64_t suffix_records = 0;   ///< replayed from the log suffix
  double seconds = 0;              ///< wall time spent catching up
};

class ReplayDriver {
 public:
  /// Blocks until every component has processed the recovered log suffix
  /// (or the timeout passes). Call after Runtime::start() and before
  /// exposing the node to new external input. Outputs are suppressed for
  /// the duration; delivered records are still retained for inspection.
  /// Components blocked awaiting silence on a still-open wire count as
  /// caught up — the pre-crash wavefront was parked in the same place, and
  /// only new input (or a probe) can advance it. This also makes catch_up
  /// usable as a live "settle" barrier: it returns once everything the
  /// external log holds has been delivered and consumed as far as the
  /// silence frontier permits.
  static ReplayStats catch_up(
      core::Runtime& runtime,
      std::chrono::milliseconds timeout = std::chrono::seconds(30));
};

}  // namespace tart::durability
