// CheckpointManager: turns in-memory soft checkpoints into durable
// checkpoint files and drives checkpoint-gated log compaction.
//
// A durable checkpoint is taken in four steps, serialized under one lock:
//   1. barrier — every live local component is forced to capture a FULL
//      soft checkpoint (kCheckpoint control verb on its runner thread);
//   2. export — the replica store's restore plans are copied atomically;
//      per-component snapshot times need not align, because each snapshot
//      carries its own input positions and retained outputs (§II.F.2);
//   3. persist — plans + per-wire covered positions + the covered
//      external-log record index are written atomically to disk
//      (CheckpointWriter);
//   4. compact — only after the file is durable, the external log drops
//      covered records and deletes wholly-covered segments. The gating
//      invariant: nothing is ever truncated above the newest durable
//      checkpoint's covered offset.
//
// Triggers: an interval timer, a log-growth bytes threshold, and on-demand
// (POST /checkpoint / tests).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "durability/checkpoint_file.h"
#include "durability/config.h"

namespace tart::core {
class Runtime;
}

namespace tart::durability {

struct CheckpointStats {
  bool ok = false;
  std::uint64_t id = 0;
  std::uint64_t bytes = 0;              ///< checkpoint file size
  std::uint64_t covered_records = 0;    ///< global log records covered
  std::uint64_t reclaimed_records = 0;  ///< log records dropped by this pass
  std::string error;                    ///< set when !ok
};

class CheckpointManager {
 public:
  /// Writes checkpoint files into `dir` (the runtime's log_dir).
  /// `restored` is the checkpoint the runtime booted from, if any.
  CheckpointManager(core::Runtime& runtime, const std::string& dir,
                    DurabilityConfig config,
                    const DurableCheckpoint* restored);
  ~CheckpointManager();

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Starts the trigger thread (no-op when neither trigger is configured).
  void start();
  void stop();

  /// Takes one durable checkpoint now (steps 1-4 above). Thread-safe;
  /// concurrent callers serialize.
  CheckpointStats checkpoint_now();

  [[nodiscard]] std::uint64_t checkpoints_written() const {
    return written_.load();
  }
  [[nodiscard]] std::uint64_t checkpoint_bytes() const {
    return bytes_.load();
  }
  [[nodiscard]] std::uint64_t checkpoint_failures() const {
    return failures_.load();
  }

  /// Per-wire covered seq of the NEWEST durable checkpoint — every input
  /// wire's next expected seq as the checkpointed plans recorded it (not
  /// just external wires; cross-node senders bound their retention with
  /// it). Seeded from the restored checkpoint, refreshed on every successful
  /// checkpoint_now. Empty until a checkpoint exists.
  [[nodiscard]] std::map<WireId, std::uint64_t> latest_cover() const;

  /// Fires after every SUCCESSFUL durable checkpoint, with the fresh cover
  /// map, on the checkpointing thread. The host broadcasts kCoverUpdate to
  /// peers and prunes superseded migration slices from it.
  void set_on_checkpoint(
      std::function<void(const std::map<WireId, std::uint64_t>&)> fn);

 private:
  void trigger_loop();

  core::Runtime& runtime_;
  const DurabilityConfig config_;
  CheckpointWriter writer_;

  std::mutex ckpt_mu_;  ///< serializes checkpoint_now

  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> failures_{0};

  mutable std::mutex cover_mu_;
  std::map<WireId, std::uint64_t> latest_cover_;
  std::function<void(const std::map<WireId, std::uint64_t>&)> on_checkpoint_;

  std::mutex trigger_mu_;
  std::condition_variable trigger_cv_;
  bool trigger_stop_ = false;
  std::thread trigger_thread_;
};

}  // namespace tart::durability
