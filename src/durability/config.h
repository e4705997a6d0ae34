// Durability subsystem knobs. Dependency-free so core/config.h can embed
// it without core -> durability header coupling.
#pragma once

#include <cstdint>

namespace tart::durability {

/// Tuning for the one on-disk mode: a runtime with a log_dir always writes
/// checkpoint files and a segmented, checkpoint-compacted external log
/// into that directory.
struct DurabilityConfig {
  /// No effect: a log_dir alone selects the durable path. Kept only so
  /// callers that still set it (the perfbench workloads) keep compiling.
  bool enabled = false;

  /// Write a durable checkpoint every this many milliseconds. <= 0
  /// disables the timer (on-demand checkpoints still work).
  int interval_ms = 0;

  /// Write a durable checkpoint whenever the external log has grown this
  /// many bytes since the last one. 0 disables the bytes trigger.
  std::uint64_t bytes_trigger = 0;

  /// Checkpoint files retained on disk; older ones are pruned after each
  /// successful write. At least 1.
  std::uint64_t keep_last = 3;

  /// External-log segment rotation threshold (SegmentedStore).
  std::uint64_t segment_bytes = 4ull << 20;

  /// How long a forced checkpoint waits for every component runner to
  /// capture its snapshot before giving up.
  int barrier_timeout_ms = 10000;

  /// Deployment fingerprint stamped into checkpoint files (0 = unchecked);
  /// a restart refuses a checkpoint written under a different deployment.
  std::uint64_t deployment_fp = 0;
};

}  // namespace tart::durability
