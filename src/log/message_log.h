// Stable log of external input messages.
//
// "When a message arrives at the system from an external source, it is
// (a) given a timestamp, and then is (b) logged ... Because the message is
// logged, it is safe to use the actual real time as the virtual time of
// this message. Only external messages are logged" (§II.E).
//
// The log is the only durable input source in the system: after any
// failure, the entire execution is a deterministic function of this log.
// Entries are keyed by the external wire they enter on; replay reads a
// contiguous range by virtual time or sequence.
//
// Compaction support (src/durability): once a durable checkpoint covers a
// prefix of the log, that prefix never needs replaying again. Each wire
// then carries a *base* — the first sequence number still retained and the
// virtual time of the last message below it — so position accounting
// (next_seq, last_vt) survives truncation. The log also tracks the global
// append order of records (mirroring the backing store's record indices),
// which lets the checkpoint manager translate per-wire covered sequence
// numbers into a store record index safe to truncate below. A restart
// reads back only the records from the checkpoint's covered index on
// (load); the covered prefix is never read.
//
// In memory each wire's retained records are their Message::encode bytes
// (PackedMessages); with a store attached, the same bytes are what gets
// framed to disk, so a record is encoded once. Reads decode on the way out.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/virtual_time.h"
#include "wire/message.h"
#include "wire/packed_messages.h"

namespace tart::log {

class SegmentedStore;

class ExternalMessageLog {
 public:
  /// Appends an external arrival. Synchronous — returns once durable (in
  /// this reproduction, once in the in-memory stable store). Entries per
  /// wire must arrive with increasing seq and nondecreasing vt.
  void append(const Message& message);

  /// Appends N arrivals with ONE stable-store flush (group commit): the
  /// attached store's append_batch frames every record and fsyncs once.
  /// Per-wire ordering rules are those of append(); messages for the same
  /// wire must appear in seq order within the batch. Returns false when a
  /// store is attached and its batched write failed — the messages are
  /// still appended in memory (the system keeps running) but callers that
  /// promised durability (log-before-ack) must surface the failure.
  bool append_batch(const std::vector<Message>& messages);

  /// All logged messages on `wire` with vt strictly greater than `after`,
  /// in order — the replay feed after a failover.
  [[nodiscard]] std::vector<Message> replay_after(WireId wire,
                                                  VirtualTime after) const;

  /// All logged messages on `wire` with seq >= from_seq.
  [[nodiscard]] std::vector<Message> replay_from_seq(
      WireId wire, std::uint64_t from_seq) const;

  /// Bounded replay feed: replaces `out` with at most `max` logged
  /// messages on `wire` from seq `from_seq` on, in order (reusing its
  /// storage), and returns how many. The restart feed loops over these
  /// chunks, so a suffix is never materialised whole; the lock is held
  /// only while one chunk is copied.
  std::size_t read_from_seq(WireId wire, std::uint64_t from_seq,
                            std::size_t max, std::vector<Message>& out) const;

  [[nodiscard]] std::uint64_t size(WireId wire) const;
  [[nodiscard]] std::uint64_t total_size() const;

  /// Highest vt logged on a wire — external sources are silent through
  /// this when closed. Falls back to the wire's base vt (the last
  /// truncated message's vt) when no entry survives, and -1 when the wire
  /// never logged anything.
  [[nodiscard]] VirtualTime last_vt(WireId wire) const;

  /// Sequence number the next arrival on `wire` will get: one past the
  /// last retained entry, or the wire's base when nothing is retained.
  [[nodiscard]] std::uint64_t next_seq(WireId wire) const;

  /// VT of the message just below `seq` on `wire` (-1 when seq == 0);
  /// answers from retained entries or the base.
  [[nodiscard]] VirtualTime vt_below(WireId wire, std::uint64_t seq) const;

  // --- Compaction (checkpoint-gated; see src/durability) -------------------

  /// Restores a wire's position accounting from a durable checkpoint:
  /// messages with seq < next_seq are covered (loads skip them) and the
  /// wire's silence floor is `last_vt`. Call before load.
  void set_base(WireId wire, std::uint64_t next_seq, VirtualTime last_vt);

  /// Largest global record index N such that every record with index < N
  /// is covered: its wire appears in `covered` with a sequence bound
  /// strictly above the record's seq. Records at index >= N stay.
  [[nodiscard]] std::uint64_t covered_record_index(
      const std::map<WireId, std::uint64_t>& covered) const;

  /// Drops every covered record in the global prefix (advancing per-wire
  /// bases) and returns the new first retained record index — the bound to
  /// hand to SegmentedStore::truncate_below. Never drops a record above
  /// the covered bound: the gating invariant.
  std::uint64_t truncate_covered(
      const std::map<WireId, std::uint64_t>& covered);

  [[nodiscard]] std::uint64_t truncated_messages() const;

  /// Bytes the log holds in memory: every wire's packed records plus the
  /// global order index (tart_log_memory_bytes).
  [[nodiscard]] std::uint64_t memory_bytes() const;

  /// Write-through persistence: every subsequent append is also framed
  /// into `store` before the call returns (stable-storage durability).
  void attach_store(SegmentedStore* store);

  /// The restart load: copies the records of `store` from global index
  /// max(`covered_index`, store.first_retained_index()) on — the restored
  /// checkpoint's covered_record_index, 0 without one — into the log, each
  /// read and checksummed once and decoded once to validate it. Records
  /// past that index but below their wire's base (set_base) are
  /// index-tracked but not retained. Call on an empty log before attaching
  /// a store. All or nothing: throws serde::DecodeError when a record does
  /// not decode as one Message or does not continue its wire's seqs, or
  /// CorruptSegmentError when the store lost records, and leaves the log
  /// unchanged.
  void load(const SegmentedStore& store, std::uint64_t covered_index);

 private:
  /// Consecutive seqs [first, first + count) on one wire.
  struct SeqRun {
    std::uint64_t first = 0;
    std::uint64_t count = 0;
  };

  struct WireLog {
    /// Retained records; seq implicit (consecutive per wire).
    PackedMessages records;
    /// Compaction base: first seq still retained (set_base or the last
    /// truncation) and the vt of the message just below it.
    bool has_base = false;
    std::uint64_t base_seq = 0;
    VirtualTime base_vt = VirtualTime(-1);
    /// Records a load found below the base: still in the store (so in
    /// order_, ahead of every retained record of this wire) but not
    /// retained. Their seqs, as runs.
    std::deque<SeqRun> covered;
  };

  /// How far a walk of order_ got on one wire: through `runs` whole
  /// covered runs plus `in_run` of the next, then `retained` records.
  struct WalkPos {
    std::uint64_t bound = 0;
    std::size_t runs = 0;
    std::uint64_t in_run = 0;
    std::uint64_t retained = 0;
  };

  std::span<const std::byte> append_locked(const Message& message);
  /// Walks order_ from its front while each record is covered by
  /// `covered` (see covered_record_index); returns the records walked and
  /// leaves each wire's position in `walk`.
  std::uint64_t walk_covered_locked(
      const std::map<WireId, std::uint64_t>& covered,
      std::map<WireId, WalkPos>& walk) const;

  mutable std::mutex mutex_;
  std::map<WireId, WireLog> wires_;
  /// Wire of every record still backed by the store, in global append
  /// order; front has index order_base_. A record's seq follows from its
  /// place among its wire's entries (covered runs, then retained).
  std::deque<WireId> order_;
  std::uint64_t order_base_ = 0;
  std::uint64_t truncated_ = 0;
  SegmentedStore* store_ = nullptr;
};

}  // namespace tart::log
