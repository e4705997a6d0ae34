// The unit of communication between components.
//
// Every message carries the virtual time at which it is to be processed by
// the receiver ("All message interfaces are augmented to include an
// additional parameter representing the virtual time that the message will
// be processed at the receiver", §II.C). Per-wire sequence numbers support
// gap detection for replay; they carry no scheduling meaning.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>

#include "common/ids.h"
#include "common/virtual_time.h"
#include "serde/archive.h"
#include "wire/payload.h"

namespace tart {

enum class MessageKind : std::uint8_t {
  kData = 0,   ///< One-way send.
  kCall = 1,   ///< Two-way service request (expects a reply).
  kReply = 2,  ///< Reply to a kCall.
};

struct Message {
  WireId wire;
  VirtualTime vt;          ///< Scheduled processing time at the receiver.
  std::uint64_t seq = 0;   ///< Per-wire sequence number (gap detection).
  MessageKind kind = MessageKind::kData;
  std::uint64_t call_id = 0;  ///< Correlates kCall with its kReply.

  // Request lineage (docs/TRACING.md): the external input this message
  // causally descends from, stamped at injection and copied onto every
  // message a handler emits while processing a descendant. Deterministic
  // (a pure function of the input log), so it round-trips the external
  // log, checkpoints, retention buffers and migration slices unchanged.
  // origin_wire is invalid for messages with no external ancestor
  // (timer-style self-sends before any input).
  WireId origin_wire = WireId::invalid();
  std::uint64_t origin_seq = 0;
  /// Steady-clock arrival stamp of the origin input, ns; 0 = unknown.
  /// Wall time, NOT replay-deterministic: consumed only by observability
  /// (live end-to-end latency), never by scheduling decisions.
  std::int64_t origin_wall_ns = 0;

  Payload payload;

  /// Scheduling key: virtual time, tie-broken by wire id (paper footnote 2).
  [[nodiscard]] std::pair<VirtualTime, WireId> key() const {
    return {vt, wire};
  }

  [[nodiscard]] bool has_origin() const { return origin_wire.is_valid(); }

  void encode(serde::Writer& w) const {
    // The fields before the payload are assembled on the stack and
    // appended in one step (the same bytes as one write_* call each).
    std::byte head[2 * 4 + 8 + 1 + 4 * serde::kMaxVarintBytes];
    std::byte* p = head;
    serde::put_u32(p, wire.value());
    serde::put_svarint(p, vt.ticks());
    serde::put_varint(p, seq);
    serde::put_u8(p, static_cast<std::uint8_t>(kind));
    serde::put_varint(p, call_id);
    serde::put_u32(p, origin_wire.value());
    serde::put_varint(p, origin_seq);
    serde::put_u64(p, static_cast<std::uint64_t>(origin_wall_ns));
    w.write_raw(head, static_cast<std::size_t>(p - head));
    payload.encode(w);
  }

  [[nodiscard]] static Message decode(serde::Reader& r) {
    Message m = decode_header(r);
    m.payload = Payload::decode(r);
    return m;
  }

  /// The header of the one message encoded in `record`, checked to its
  /// last byte with the same Reader calls as decode() but no payload
  /// built. Throws serde::DecodeError exactly when decode() would refuse
  /// `record` or leave bytes of it unread.
  [[nodiscard]] static Message check_encoded(std::span<const std::byte> record) {
    serde::Reader r(record.data(), record.size());
    Message m = decode_header(r);
    Payload::skip(r);
    if (!r.at_end()) throw serde::DecodeError("trailing bytes after message");
    return m;
  }

  /// Every field but the payload, which is left unread in `r` (and empty
  /// in the result): lets a store of encoded messages test a vt or call id
  /// without materialising the payload.
  [[nodiscard]] static Message decode_header(serde::Reader& r) {
    Message m;
    m.wire = WireId(r.read_u32());
    m.vt = r.read_vt();
    m.seq = r.read_varint();
    m.kind = static_cast<MessageKind>(r.read_u8());
    m.call_id = r.read_varint();
    m.origin_wire = WireId(r.read_u32());
    m.origin_seq = r.read_varint();
    m.origin_wall_ns = static_cast<std::int64_t>(r.read_u64());
    return m;
  }
};

inline std::ostream& operator<<(std::ostream& os, const Message& m) {
  return os << "msg{wire=" << m.wire << " vt=" << m.vt << " seq=" << m.seq
            << '}';
}

}  // namespace tart
