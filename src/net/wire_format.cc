#include "net/wire_format.h"

#include <array>
#include <cstring>

namespace tart::net {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr auto kCrcTable = make_crc_table();

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(std::byte{static_cast<std::uint8_t>(v >> (8 * i))});
}

std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= std::uint32_t{static_cast<std::uint8_t>(p[i])} << (8 * i);
  return v;
}

}  // namespace

std::uint32_t crc32(const std::byte* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = kCrcTable[(c ^ static_cast<std::uint8_t>(data[i])) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::vector<std::byte>& data) {
  return crc32(data.data(), data.size());
}

std::vector<std::byte> encode_message(NetMsgType type,
                                      const std::vector<std::byte>& payload) {
  if (payload.size() > kMaxNetPayload)
    throw NetError("payload exceeds kMaxNetPayload");
  std::vector<std::byte> out;
  out.reserve(kNetHeaderBytes + payload.size() + kNetTrailerBytes);
  put_u32(out, kNetMagic);
  out.push_back(std::byte{kNetFormatVersion});
  out.push_back(std::byte{static_cast<std::uint8_t>(type)});
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  // CRC covers version..payload: magic is the resync marker, everything
  // after it is integrity-checked.
  put_u32(out, crc32(out.data() + 4, out.size() - 4));
  return out;
}

std::vector<std::byte> encode_frame_message(const transport::Frame& frame) {
  return encode_message(NetMsgType::kFrame, transport::frame_to_bytes(frame));
}

transport::Frame decode_frame_payload(const std::vector<std::byte>& payload) {
  return transport::frame_from_bytes(payload);
}

void StreamDecoder::feed(const std::byte* data, std::size_t size) {
  // Compact consumed prefix before it grows unbounded.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 64 * 1024)) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

std::optional<NetMessage> StreamDecoder::next() {
  if (poisoned_) throw NetError("decoder poisoned by earlier error");
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kNetHeaderBytes) return std::nullopt;
  const std::byte* p = buf_.data() + pos_;
  if (get_u32(p) != kNetMagic) {
    poisoned_ = true;
    throw NetError("bad magic");
  }
  const auto version = static_cast<std::uint8_t>(p[4]);
  if (version != kNetFormatVersion) {
    poisoned_ = true;
    throw NetError("unsupported net format version " +
                   std::to_string(version));
  }
  const std::uint32_t length = get_u32(p + 6);
  if (length > kMaxNetPayload) {
    poisoned_ = true;
    throw NetError("oversized payload length " + std::to_string(length));
  }
  const std::size_t total = kNetHeaderBytes + length + kNetTrailerBytes;
  if (avail < total) return std::nullopt;
  const std::uint32_t stored = get_u32(p + kNetHeaderBytes + length);
  const std::uint32_t computed = crc32(p + 4, kNetHeaderBytes - 4 + length);
  if (stored != computed) {
    poisoned_ = true;
    throw NetError("CRC mismatch");
  }
  NetMessage msg;
  msg.type = static_cast<NetMsgType>(static_cast<std::uint8_t>(p[5]));
  msg.payload.assign(p + kNetHeaderBytes, p + kNetHeaderBytes + length);
  pos_ += total;
  return msg;
}

namespace {

void encode_moves(serde::Writer& w, const std::vector<PlacementMove>& moves) {
  w.write_varint(moves.size());
  for (const PlacementMove& m : moves) {
    w.write_varint(m.component);
    w.write_varint(m.engine);
    w.write_varint(m.epoch);
  }
}

std::vector<PlacementMove> decode_moves(serde::Reader& r) {
  const auto n = r.read_count();
  std::vector<PlacementMove> moves;
  moves.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    PlacementMove m;
    m.component = static_cast<std::uint32_t>(r.read_varint());
    m.engine = static_cast<std::uint32_t>(r.read_varint());
    m.epoch = r.read_varint();
    moves.push_back(m);
  }
  return moves;
}

void encode_covers(serde::Writer& w, const std::vector<WireCoverBound>& covs) {
  w.write_varint(covs.size());
  for (const WireCoverBound& c : covs) {
    w.write_varint(c.wire);
    w.write_varint(c.covered_seq);
  }
}

std::vector<WireCoverBound> decode_covers(serde::Reader& r) {
  const auto n = r.read_count();
  std::vector<WireCoverBound> covs;
  covs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    WireCoverBound c;
    c.wire = static_cast<std::uint32_t>(r.read_varint());
    c.covered_seq = r.read_varint();
    covs.push_back(c);
  }
  return covs;
}

}  // namespace

std::vector<std::byte> HelloBody::encode() const {
  serde::Writer w;
  w.write_string(node);
  w.write_u64(deployment_fp);
  w.write_varint(placement_epoch);
  encode_moves(w, moves);
  encode_covers(w, covered);
  return w.take();
}

HelloBody HelloBody::decode(const std::vector<std::byte>& payload) {
  serde::Reader r(payload);
  HelloBody h;
  h.node = r.read_string();
  h.deployment_fp = r.read_u64();
  h.placement_epoch = r.read_varint();
  h.moves = decode_moves(r);
  h.covered = decode_covers(r);
  if (!r.at_end()) throw serde::DecodeError("trailing bytes after hello");
  return h;
}

std::vector<std::byte> PlacementUpdateBody::encode() const {
  serde::Writer w;
  w.write_varint(placement_epoch);
  encode_moves(w, moves);
  return w.take();
}

PlacementUpdateBody PlacementUpdateBody::decode(
    const std::vector<std::byte>& payload) {
  serde::Reader r(payload);
  PlacementUpdateBody b;
  b.placement_epoch = r.read_varint();
  b.moves = decode_moves(r);
  if (!r.at_end())
    throw serde::DecodeError("trailing bytes after placement update");
  return b;
}

std::vector<std::byte> CoverUpdateBody::encode() const {
  serde::Writer w;
  encode_covers(w, covered);
  return w.take();
}

CoverUpdateBody CoverUpdateBody::decode(
    const std::vector<std::byte>& payload) {
  serde::Reader r(payload);
  CoverUpdateBody b;
  b.covered = decode_covers(r);
  if (!r.at_end())
    throw serde::DecodeError("trailing bytes after cover update");
  return b;
}

}  // namespace tart::net
