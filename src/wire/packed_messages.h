// Encoded storage for the recovery stores' message runs.
//
// The external input log (log/message_log.h) keeps one run of messages per
// input wire and sender-side output retention (retention_buffer.h) one per
// output wire. Each run has consecutive seqs, grows at the back, is trimmed
// at the front once a checkpoint covers it, and is read back in order for
// replay. PackedMessages holds such a run as the messages' Message::encode
// bytes, not as decoded objects: a logged wordcount sentence costs its
// 48-byte encoding plus a 4-byte index slot instead of ~300 B of heap.
// Readers get decoded Messages.
//
// Layout: records are packed into byte blocks that start at 256 B and
// double up to 32 KiB; a record larger than that gets a block of its own.
// A block is slotted: record bytes grow from its front and a table of
// 4-byte record end offsets grows from its back, so the index lives inside
// the blocks and a block is the only allocation. The seq is implicit:
// record i of the run has seq first_seq() + i. Trimming a prefix frees
// every block it empties; a block with one live record stays whole.
//
// Not synchronised: the owner serialises every call, except that size()
// and memory_bytes() may be read from any thread (scrape-time gauges).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "common/virtual_time.h"
#include "wire/message.h"

namespace tart {

class PackedMessages {
 public:
  PackedMessages() = default;
  PackedMessages(const PackedMessages&) = delete;
  PackedMessages& operator=(const PackedMessages&) = delete;

  /// Encodes `m` and appends it. A non-empty run requires m.seq ==
  /// end_seq(); an empty one starts at m.seq. Returns the stored encoding,
  /// valid until the record is trimmed or the run cleared.
  std::span<const std::byte> append(const Message& m);

  /// Appends `record`, which must be one Message's encoding with seq
  /// `seq` (same seq rule as append). Returns the stored copy.
  std::span<const std::byte> append_encoded(std::span<const std::byte> record,
                                            std::uint64_t seq);

  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Seq of the first record; equals end_seq() when the run is empty.
  [[nodiscard]] std::uint64_t first_seq() const { return first_seq_; }
  /// One past the seq of the last record.
  [[nodiscard]] std::uint64_t end_seq() const { return end_seq_; }

  /// The record with seq `seq`, first_seq() <= seq < end_seq(): decoded,
  /// or every field but the payload.
  [[nodiscard]] Message at(std::uint64_t seq) const;
  [[nodiscard]] Message header(std::uint64_t seq) const;

  /// Replaces `out` with the decoded records from seq
  /// max(`from_seq`, first_seq()) on, at most `max` of them, in order, and
  /// returns how many.
  std::size_t read(std::uint64_t from_seq, std::size_t max,
                   std::vector<Message>& out) const;

  /// Seq of the first record with vt > `after` (end_seq() when none).
  /// Relies on the run's vts being nondecreasing (the wire discipline).
  [[nodiscard]] std::uint64_t first_after(VirtualTime after) const;

  /// Drops the first `n` records (every record when n >= size()).
  void pop_front(std::size_t n);
  void clear();

  /// Bytes held: every block and its bookkeeping.
  [[nodiscard]] std::size_t memory_bytes() const {
    return memory_.load(std::memory_order_relaxed);
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> mem;
    std::uint32_t cap = 0;
    std::uint32_t used = 0;   ///< record bytes, packed from the front
    std::uint32_t count = 0;  ///< records; end offsets sit at the back
    std::uint64_t first_seq = 0;

    [[nodiscard]] std::uint32_t end_of(std::uint32_t k) const;
    [[nodiscard]] std::span<const std::byte> record(std::uint32_t k) const;
  };

  /// The encoding of the record with seq `seq`.
  [[nodiscard]] std::span<const std::byte> record(std::uint64_t seq) const;
  /// The block holding seq `seq` (first_seq_ <= seq < end_seq_).
  [[nodiscard]] std::deque<Block>::const_iterator block_of(
      std::uint64_t seq) const;
  void add_block(std::size_t record_bytes);

  /// Invariant: blocks_ is empty exactly when the run is.
  std::deque<Block> blocks_;
  std::uint64_t first_seq_ = 0;
  std::uint64_t end_seq_ = 0;
  std::size_t next_cap_ = 0;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> memory_{0};
};

}  // namespace tart
