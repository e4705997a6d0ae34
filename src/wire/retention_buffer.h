// Sender-side output retention.
//
// TART logs only messages from the external world; inter-component messages
// are not logged (§II.F.2). Replay after a downstream failover is instead
// served from the sender's retained output: each wire keeps its sent
// messages until the downstream receiver's checkpoint provably covers them
// (a stability acknowledgement), at which point they are trimmed. If the
// sender itself fails, the buffer is regenerated by the sender's own
// deterministic re-execution — identical virtual times guarantee identical
// retained content.
//
// Messages are held as their encodings (PackedMessages): recording one
// encodes it into a block, and every read decodes on the way out.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/virtual_time.h"
#include "wire/message.h"
#include "wire/packed_messages.h"

namespace tart {

class RetentionBuffer {
 public:
  /// Records a sent message. Messages must be appended in increasing seq
  /// and nondecreasing vt order (the wire discipline).
  void record(const Message& m);

  /// Downstream checkpoint covers everything with vt <= `through`; those
  /// retained messages can never be requested again.
  void acknowledge_through(VirtualTime through);

  /// Replays every retained message with vt in (`after`, +inf), in order.
  /// Serves the receiver's "resend the range of ticks for which there is a
  /// gap" request after a failover (§II.F.4).
  [[nodiscard]] std::vector<Message> replay_after(VirtualTime after) const;

  /// Drops retained messages with seq < `below_seq`: the downstream
  /// consumer's DURABLE checkpoint covers them, so no failover — even a
  /// restart-from-disk — can ever request them again. The seq-based cousin
  /// of acknowledge_through; drives checkpoint-bounded retention across
  /// nodes (kCoverUpdate / HELLO cover bounds, docs/PLACEMENT.md).
  /// Returns the number of records dropped.
  std::size_t trim_below_seq(std::uint64_t below_seq);

  /// Replays retained messages with seq >= `from_seq`, boundedly: replaces
  /// `out` with at most `max` of them, in order (reusing its storage), and
  /// returns how many. A replay request is served as a loop of chunks.
  std::size_t read_from_seq(std::uint64_t from_seq, std::size_t max,
                            std::vector<Message>& out) const;

  /// Retained messages. Like memory_bytes(), safe to read from any
  /// thread while the owner records and trims.
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] bool empty() const { return buf_.empty(); }
  /// Bytes the retained messages occupy (tart_retention_memory_bytes).
  [[nodiscard]] std::size_t memory_bytes() const {
    return buf_.memory_bytes();
  }

  /// Highest sent vt, if anything was ever recorded (survives trimming).
  [[nodiscard]] std::optional<VirtualTime> last_sent_vt() const {
    return last_vt_;
  }
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Drops everything (sender-side failover; will be regenerated).
  void clear();

  /// Reinstalls checkpointed contents: `messages` in order, with the send
  /// counter continuing from `next_seq`.
  void restore(const std::vector<Message>& messages, std::uint64_t next_seq);

  /// Retained message with the given call correlation id, if still held
  /// (serves reply re-sends for duplicate calls after a caller failover).
  [[nodiscard]] std::optional<Message> find_by_call_id(
      std::uint64_t call_id) const;

  /// Copy of the retained messages (checkpoint capture).
  [[nodiscard]] std::vector<Message> contents() const;

 private:
  PackedMessages buf_;
  std::optional<VirtualTime> last_vt_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace tart
