// Socket wire format: length-prefixed, CRC-checked envelopes.
//
// Everything that crosses a TCP connection between tart peers — handshakes,
// heartbeats, transport::Frame traffic, and the placement plane — travels
// inside one envelope shape:
//
//   offset  size  field
//   0       4     magic 0x54524154 ("TART", little-endian)
//   4       1     format version (kNetFormatVersion)
//   5       1     message type (NetMsgType)
//   6       4     payload length N (little-endian; <= kMaxNetPayload)
//   10      N     payload (serde-encoded body, shape per type)
//   10+N    4     CRC-32 (IEEE) of bytes [4, 10+N) — version through payload
//
// The decoder is incremental (feed whatever the socket produced, take out
// whole messages) and hardened: truncation simply waits for more bytes,
// while bad magic, unknown version, oversized length, or a CRC mismatch
// raise NetError — the connection-fatal signal — without ever reading past
// the buffer. Payload *content* is decoded by the caller with serde, whose
// Reader is bounds-checked; a serde::DecodeError is equally
// connection-fatal, never UB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "serde/archive.h"
#include "transport/frame.h"

namespace tart::net {

/// Connection-fatal protocol violation (malformed envelope or body).
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kNetMagic = 0x54524154;  // "TART"
inline constexpr std::uint8_t kNetFormatVersion = 1;
inline constexpr std::size_t kNetHeaderBytes = 10;
inline constexpr std::size_t kNetTrailerBytes = 4;
/// Upper bound on a single payload; anything larger is a corrupt length
/// field (a checkpoint-sized DataFrame is far below this).
inline constexpr std::uint32_t kMaxNetPayload = 16u * 1024 * 1024;

enum class NetMsgType : std::uint8_t {
  // Peer protocol.
  kHello = 1,      ///< node name + deployment fingerprint; first on a conn
  kHeartbeat = 2,  ///< idle keep-alive; any traffic counts as liveness
  kFrame = 3,      ///< one transport::Frame

  // Numbers 16..35 and 44..45 belonged to the retired binary operator
  // protocol (operators now use the HTTP gateway); they are never reused.

  // Placement / live migration.
  /// Epoch-stamped placement override broadcast (PlacementUpdateBody).
  /// Stale epochs are ignored by the receiver.
  kPlacementUpdate = 36,
  /// Durable-checkpoint covered-seq bounds per external wire
  /// (CoverUpdateBody); senders trim output retention below the bound.
  kCoverUpdate = 37,
  // Chunked, CRC-protected, resumable blob channel (net/stream_channel.h).
  kStreamOpen = 38,
  kStreamChunk = 39,
  kStreamAck = 40,
  kStreamClose = 41,
  /// Migration cutover commit from source to target (MigrateCommitBody)
  /// -> kMigrateCommitAck once the target has journaled adoption.
  kMigrateCommit = 42,
  kMigrateCommitAck = 43,
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), the classic table-driven form.
[[nodiscard]] std::uint32_t crc32(const std::byte* data, std::size_t size);
[[nodiscard]] std::uint32_t crc32(const std::vector<std::byte>& data);

/// One decoded envelope.
struct NetMessage {
  NetMsgType type = NetMsgType::kHeartbeat;
  std::vector<std::byte> payload;
};

/// Serializes an envelope around an already-encoded payload.
[[nodiscard]] std::vector<std::byte> encode_message(
    NetMsgType type, const std::vector<std::byte>& payload);
[[nodiscard]] inline std::vector<std::byte> encode_message(NetMsgType type) {
  return encode_message(type, {});
}

/// Envelope for one transport::Frame.
[[nodiscard]] std::vector<std::byte> encode_frame_message(
    const transport::Frame& frame);
/// Decodes a kFrame payload. Throws NetError/serde::DecodeError when
/// malformed (trailing bytes included).
[[nodiscard]] transport::Frame decode_frame_payload(
    const std::vector<std::byte>& payload);

/// Incremental stream decoder: feed() socket bytes, next() whole messages.
class StreamDecoder {
 public:
  void feed(const std::byte* data, std::size_t size);
  void feed(const std::vector<std::byte>& data) {
    feed(data.data(), data.size());
  }

  /// Extracts the next complete message, or nullopt when more bytes are
  /// needed. Throws NetError on a malformed envelope; the decoder is then
  /// poisoned (every later call throws) — callers must drop the connection.
  [[nodiscard]] std::optional<NetMessage> next();

  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;
  bool poisoned_ = false;
};

/// One placement override: a component that no longer lives where the
/// deployment config says it does, stamped with the epoch that moved it.
struct PlacementMove {
  std::uint32_t component = 0;  ///< ComponentId::value()
  std::uint32_t engine = 0;     ///< EngineId::value() of the new owner
  std::uint64_t epoch = 0;      ///< placement epoch that applied this move
};

/// Durable-checkpoint coverage of one external wire at the sending node's
/// consumer: retention below covered_seq can never be replayed again.
struct WireCoverBound {
  std::uint32_t wire = 0;  ///< WireId::value()
  std::uint64_t covered_seq = 0;
};

/// Peer handshake body.
///
/// The fingerprint check is split (see docs/PLACEMENT.md): `deployment_fp`
/// hashes only topology + params + partition data addresses and must match
/// exactly — mismatched wire ids would alias unrelated wires. Placement is
/// carried as an epoch plus explicit overrides and merely *synchronized*:
/// a node that missed a migration learns about it here instead of being
/// refused the connection.
struct HelloBody {
  std::string node;
  std::uint64_t deployment_fp = 0;    ///< topology fingerprint; must match
  std::uint64_t placement_epoch = 0;  ///< highest placement epoch applied
  std::vector<PlacementMove> moves;   ///< overrides vs the config placement
  std::vector<WireCoverBound> covered;  ///< durable coverage of local inputs

  [[nodiscard]] std::vector<std::byte> encode() const;
  [[nodiscard]] static HelloBody decode(const std::vector<std::byte>& payload);
};

/// kPlacementUpdate broadcast: the same override list as HELLO carries,
/// pushed eagerly when a migration commits.
struct PlacementUpdateBody {
  std::uint64_t placement_epoch = 0;
  std::vector<PlacementMove> moves;

  [[nodiscard]] std::vector<std::byte> encode() const;
  [[nodiscard]] static PlacementUpdateBody decode(
      const std::vector<std::byte>& payload);
};

/// kCoverUpdate: fresh durable-checkpoint coverage after a checkpoint
/// completes, so remote senders can trim retention without waiting for the
/// next reconnect.
struct CoverUpdateBody {
  std::vector<WireCoverBound> covered;

  [[nodiscard]] std::vector<std::byte> encode() const;
  [[nodiscard]] static CoverUpdateBody decode(
      const std::vector<std::byte>& payload);
};

}  // namespace tart::net
