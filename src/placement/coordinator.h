// MigrationCoordinator: the staged live-migration protocol + the node's
// placement control plane.
//
// Migration IS recovery, aimed at a different node. A migrated component is
// adopted exactly the way a failed-over component is restored: from a
// RestorePlan plus log replay, with request_replays() healing internal
// wires from upstream retention. The coordinator's job is only to move the
// recovery *inputs* (checkpoint slice + external-log suffix) across the
// network and to sequence the ownership flip so that, at every instant and
// after any SIGKILL, the cluster converges on exactly one owner.
//
// Source-side stages (each is a crash-injection point, --migrate-crash-at):
//
//   prepare   journal kIntent(E); force a FULL soft checkpoint of the
//             component; export the bulk slice (RestorePlan + external-log
//             suffix past the plan's coverage).
//   transfer  stream the bulk slice to the target (chunked, CRC-verified,
//             resumable — net/stream_channel.h) while the component KEEPS
//             SERVING; arrivals during the transfer accrue in the log.
//   delta     blackout begins: force a fresh checkpoint, evict the
//             component (stop runner, drop input adapters — the gateway
//             starts redirecting), flip local routing to the target, and
//             stream the much smaller delta slice (fresh plan + records
//             accrued since the bulk slice).
//   cutover   send kMigrateCommit(E); target journals kAdopt, adopts, acks;
//             source journals kRelease, seals each output wire with a final
//             silence frame at its published horizon, and broadcasts
//             kPlacementUpdate. Blackout ends at the ack.
//
// Target-side stages: staged (bulk slice durable on disk + kStaged
// journaled) and adopt (kAdopt journaled, component live, ack sent).
//
// Ownership rule after ANY crash: the journal decides (placement/journal.h).
// An unresolved kIntent keeps the source owning; kAdopt makes the target
// owner; the overlap window — target adopted, source not yet released — is
// the one state where both nodes briefly run the component, and it is
// BENIGN: deterministic replay makes the two executions byte-identical, so
// downstream duplicate-discard by (vt, seq) absorbs the echo. Reconnect
// HELLOs carry placement overrides; the higher epoch wins and the stale
// owner journals kRelease and evicts (docs/PLACEMENT.md failure matrix).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "net/stream_channel.h"
#include "net/wire_format.h"
#include "placement/journal.h"
#include "placement/slice.h"
#include "placement/table.h"

namespace tart::placement {

struct MigrationResult {
  bool ok = false;
  std::string error;
  std::uint64_t epoch = 0;
  std::uint64_t slice_bytes = 0;  ///< bulk slice size
  std::uint64_t delta_bytes = 0;  ///< delta slice size
  std::uint64_t record_count = 0;  ///< log records shipped (bulk + delta)
  double transfer_ms = 0;   ///< bulk stream wall time (component serving)
  double blackout_ms = 0;   ///< seal -> commit-ack wall time
};

/// One in-flight migration, as shown by /status and tart-obs.
struct MigrationInfo {
  std::uint64_t epoch = 0;
  ComponentId component;
  EngineId from;
  EngineId to;
  std::string stage;  ///< prepare|transfer|delta|cutover|staged|adopt
};

class MigrationCoordinator {
 public:
  struct Callbacks {
    /// Enqueue one envelope to a peer; false when the peer link is down.
    std::function<bool(EngineId, net::NetMessage)> send;
    /// Broadcast to every connected peer (placement updates).
    std::function<void(net::NetMessage)> broadcast;
    /// Local ownership changed (gateway refreshes its local-input set).
    std::function<void(ComponentId, bool now_local)> on_ownership_changed;
  };

  struct Options {
    std::string journal_dir;  ///< "" = volatile (no journal, no staging)
    std::string crash_at;     ///< fault injection: _exit(137) at this stage
    std::chrono::milliseconds checkpoint_timeout{10'000};
    std::chrono::milliseconds transfer_timeout{120'000};
    net::StreamSender::Options stream;
  };

  MigrationCoordinator(core::Runtime& runtime, EngineId self,
                       std::map<ComponentId, EngineId> initial_placement,
                       Options options, Callbacks callbacks);

  // --- Boot -----------------------------------------------------------------

  /// Replays the migration journal: re-applies placement overrides,
  /// re-adopts components whose adoption predates the newest durable
  /// checkpoint (from staged slice files), discards staged-but-unadopted
  /// slices, and keeps unresolved intents pending. Call after the runtime
  /// booted, before serving peers.
  void recover_from_journal();

  // --- Source side (control thread; blocking) -------------------------------

  MigrationResult migrate(ComponentId component, EngineId to);

  // --- Net-thread entry points ----------------------------------------------

  /// Stream + migration envelopes from peer `from`. Replies go out via
  /// callbacks. Returns true when the type was consumed.
  bool on_peer_message(EngineId from, const net::NetMessage& msg);

  void on_peer_connected(EngineId peer, std::uint64_t epoch,
                         const std::vector<net::PlacementMove>& moves);
  void on_peer_disconnected(EngineId peer);

  /// Applies remote overrides (HELLO or kPlacementUpdate): journals them,
  /// adopts/evicts when they name this node, resolves pending intents.
  void apply_remote_moves(const std::vector<net::PlacementMove>& moves);

  // --- Introspection (any thread) -------------------------------------------

  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] std::vector<net::PlacementMove> overrides() const;
  [[nodiscard]] EngineId engine_of(ComponentId c) const;
  [[nodiscard]] std::map<ComponentId, EngineId> placement_snapshot() const;
  [[nodiscard]] std::vector<MigrationInfo> inflight() const;
  /// Unresolved source-side intents (ownership in doubt until a peer's
  /// override or an explicit abort resolves them).
  [[nodiscard]] std::size_t pending_intents() const;

  /// Durable-checkpoint completion hook: staged slice files at or below
  /// `epoch_bound` are superseded and removed.
  void on_durable_checkpoint();

 private:
  struct Staged {
    net::StreamOpenBody open;
    MigrationSlice slice;
  };

  void maybe_crash(const char* stage);
  void pump_sender_locked(std::unique_lock<std::mutex>& lk);
  [[nodiscard]] bool journal_or_fail(const JournalRecord& rec,
                                     std::string* error);
  /// Builds a slice for `component`: plan + external-log records with
  /// seq >= the per-wire floor (bulk: plan coverage; delta: bulk ship end).
  [[nodiscard]] std::optional<MigrationSlice> export_slice(
      ComponentId component, EngineId to, std::uint64_t epoch, bool is_delta,
      const std::map<WireId, std::uint64_t>& floor, std::string* error);
  void handle_commit(EngineId from, const net::PlacementUpdateBody& body);
  /// Adopts from staged slices; returns false (with error) when the staged
  /// state is incomplete or the runtime refused.
  bool adopt_staged(std::uint64_t epoch, EngineId from, std::string* error);
  [[nodiscard]] static std::vector<core::Runtime::AdoptedInput> merge_inputs(
      const MigrationSlice& bulk, const MigrationSlice* delta);
  void apply_remote_moves_locked(const std::vector<net::PlacementMove>& moves,
                                 std::unique_lock<std::mutex>& lk);
  void evict_local_locked(ComponentId c, EngineId new_owner);
  void broadcast_update_locked(std::uint64_t epoch,
                               const std::vector<net::PlacementMove>& moves);

  core::Runtime& runtime_;
  const EngineId self_;
  Options options_;
  Callbacks cb_;
  MigrationJournal journal_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  PlacementTable table_;

  /// The tart_mig_* families in the runtime's registry.
  struct Metrics {
    explicit Metrics(obs::Registry& registry);
    obs::Counter& started;
    obs::Counter& completed;
    obs::Counter& failed;
    obs::Counter& adopted;
    obs::Counter& evicted;
    obs::Counter& bytes_sent;
    obs::Counter& bytes_received;
    obs::Counter& updates_applied;
    obs::Counter& recovered_adoptions;  ///< adoptions replayed from journal
  };
  Metrics metrics_;

  // Source-side in-flight state (one migration at a time per source).
  struct SourceMigration {
    std::uint64_t epoch = 0;
    ComponentId component;
    EngineId to;
    std::string stage;
    std::unique_ptr<net::StreamSender> sender;
    bool peer_up = true;
    bool commit_sent = false;
    bool commit_acked = false;
    bool commit_refused = false;
  };
  std::optional<SourceMigration> source_;

  // Target-side staging: epoch -> {bulk, delta} as they land.
  std::map<std::uint64_t, Staged> staged_bulk_;
  std::map<std::uint64_t, Staged> staged_delta_;
  std::string target_stage_;  ///< staged|adopt ("" when idle)
  std::uint64_t target_epoch_ = 0;

  /// Source-side intents awaiting resolution (survive restarts).
  std::map<std::uint32_t, JournalRecord> pending_intents_;

  net::StreamReceiver receiver_;
};

}  // namespace tart::placement
