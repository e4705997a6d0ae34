// Byte-stream serialization used for checkpoints and cross-engine framing.
//
// Checkpoint state captured from components (per paper §II.F.2: "a method is
// provided to gather all full checkpoint state and all incremental changes
// and to return them to the scheduler, which then serializes them and sends
// them to the partner") is encoded with these archives. The format is a
// simple deterministic little-endian / varint encoding: determinism of the
// byte stream lets tests compare checkpoints for bit-identity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/virtual_time.h"
#include "obs/prof.h"

namespace tart::serde {

/// Thrown when a reader runs past the end of its buffer or sees a malformed
/// encoding — indicates a corrupted or truncated checkpoint.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Longest varint: 64 bits at 7 per byte.
inline constexpr std::size_t kMaxVarintBytes = 10;

// Field encoders over a raw cursor: each writes one field at `p` and
// advances it. Writer's methods append one field each through them; an
// encoder with a fixed run of fields (Message::encode) can fill a stack
// buffer with them and append it in one step. Little-endian fixed width,
// LEB128 varints, zig-zag signed varints.
inline void put_u8(std::byte*& p, std::uint8_t v) { *p++ = std::byte{v}; }

inline void put_u32(std::byte*& p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) *p++ = static_cast<std::byte>(v >> (8 * i));
}

inline void put_u64(std::byte*& p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) *p++ = static_cast<std::byte>(v >> (8 * i));
}

inline void put_varint(std::byte*& p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::byte>(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::byte>(v);
}

inline void put_svarint(std::byte*& p, std::int64_t v) {
  put_varint(p, (static_cast<std::uint64_t>(v) << 1) ^
                    static_cast<std::uint64_t>(v >> 63));
}

/// Append-only encoder. Encodes into its own buffer, or into one the
/// caller owns (see the second constructor).
class Writer {
 public:
  Writer() = default;
  /// Appends to `out`, which the caller owns: a caller that clears and
  /// reuses one buffer keeps its capacity, so a stream of records encodes
  /// with no allocation once it has grown. Not an archive allocation for
  /// the profiler (the buffer is not this writer's).
  explicit Writer(std::vector<std::byte>& out) : buf_(&out), accounted_(true) {}
  Writer(Writer&& other) noexcept
      : own_(std::move(other.own_)),
        buf_(other.buf_ == &other.own_ ? &own_ : other.buf_),
        accounted_(other.accounted_) {
    other.accounted_ = true;
  }
  Writer& operator=(Writer&& other) noexcept {
    own_ = std::move(other.own_);
    buf_ = other.buf_ == &other.own_ ? &own_ : other.buf_;
    accounted_ = other.accounted_;
    other.accounted_ = true;
    return *this;
  }
  // Each finished archive is one wire-path allocation event; counted once
  // per buffer (at take() or destruction, not per write call) so the
  // encoders themselves stay branch-free.
  ~Writer() { account(); }

  void write_u8(std::uint8_t v) { buf_->push_back(std::byte{v}); }

  // Fixed-width and varint fields are assembled on the stack and appended
  // in one step, not byte by byte.
  void write_u32(std::uint32_t v) {
    std::byte b[4];
    std::byte* p = b;
    put_u32(p, v);
    write_raw(b, sizeof b);
  }

  void write_u64(std::uint64_t v) {
    std::byte b[8];
    std::byte* p = b;
    put_u64(p, v);
    write_raw(b, sizeof b);
  }

  /// LEB128-style varint; compact for the small counts that dominate
  /// checkpoint payloads.
  void write_varint(std::uint64_t v) {
    std::byte b[kMaxVarintBytes];
    std::byte* p = b;
    put_varint(p, v);
    write_raw(b, static_cast<std::size_t>(p - b));
  }

  /// Zig-zag signed varint.
  void write_svarint(std::int64_t v) {
    std::byte b[kMaxVarintBytes];
    std::byte* p = b;
    put_svarint(p, v);
    write_raw(b, static_cast<std::size_t>(p - b));
  }

  void write_bool(bool v) { write_u8(v ? 1 : 0); }

  void write_double(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    write_u64(bits);
  }

  void write_string(std::string_view s) {
    write_varint(s.size());
    write_raw(reinterpret_cast<const std::byte*>(s.data()), s.size());
  }

  void write_bytes(const std::vector<std::byte>& bytes) {
    write_varint(bytes.size());
    write_raw(bytes.data(), bytes.size());
  }

  /// Appends raw bytes with no length prefix (caller-framed data).
  void write_raw(const std::byte* data, std::size_t size) {
    buf_->insert(buf_->end(), data, data + size);
  }

  void write_vt(VirtualTime t) { write_svarint(t.ticks()); }

  [[nodiscard]] const std::vector<std::byte>& bytes() const { return *buf_; }
  [[nodiscard]] std::vector<std::byte> take() {
    account();
    accounted_ = false;  // a reused writer accounts its next buffer too
    return std::move(*buf_);
  }
  [[nodiscard]] std::size_t size() const { return buf_->size(); }

 private:
  void account() {
    if (accounted_ || buf_->empty()) return;
    accounted_ = true;
    TART_PROF_BYTES("serde.archive", buf_->size());
  }

  std::vector<std::byte> own_;
  std::vector<std::byte>* buf_ = &own_;
  bool accounted_ = false;
};

/// Sequential decoder over a borrowed buffer.
class Reader {
 public:
  explicit Reader(const std::vector<std::byte>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  Reader(const std::byte* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t read_u8() {
    require(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  [[nodiscard]] std::uint32_t read_u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= std::uint32_t{static_cast<std::uint8_t>(data_[pos_ + i])} << (8 * i);
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t read_u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= std::uint64_t{static_cast<std::uint8_t>(data_[pos_ + i])} << (8 * i);
    pos_ += 8;
    return v;
  }

  [[nodiscard]] std::uint64_t read_varint() {
    // When a longest varint fits in what is left, its bytes need no
    // bounds check each.
    const bool checked = remaining() < kMaxVarintBytes;
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b =
          checked ? read_u8() : static_cast<std::uint8_t>(data_[pos_++]);
      v |= std::uint64_t{static_cast<std::uint8_t>(b & 0x7F)} << shift;
      if (!(b & 0x80)) return v;
    }
    throw DecodeError("varint too long");
  }

  [[nodiscard]] std::int64_t read_svarint() {
    const std::uint64_t z = read_varint();
    return static_cast<std::int64_t>(z >> 1) ^ -static_cast<std::int64_t>(z & 1);
  }

  /// Element count of a length-prefixed sequence. Every element takes at
  /// least one byte, so a count above the bytes left is corruption —
  /// refused here, before a decoder reserves memory for it.
  [[nodiscard]] std::uint64_t read_count() {
    const std::uint64_t n = read_varint();
    if (n > remaining()) throw DecodeError("count exceeds buffer");
    return n;
  }

  [[nodiscard]] bool read_bool() { return read_u8() != 0; }

  [[nodiscard]] double read_double() {
    const std::uint64_t bits = read_u64();
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }

  [[nodiscard]] std::string read_string() {
    const auto n = read_varint();
    require(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::vector<std::byte> read_bytes() {
    const auto n = read_varint();
    require(n);
    std::vector<std::byte> out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] VirtualTime read_vt() { return VirtualTime(read_svarint()); }

  [[nodiscard]] bool at_end() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  void require(std::uint64_t n) const {
    if (n > size_ - pos_) throw DecodeError("buffer underrun");
  }
  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Generic encode/decode for common value types, used by checkpointed
// containers. Extend by overloading encode_value/decode_value.

inline void encode_value(Writer& w, std::int32_t v) { w.write_svarint(v); }
inline void encode_value(Writer& w, std::int64_t v) { w.write_svarint(v); }
inline void encode_value(Writer& w, std::uint32_t v) { w.write_varint(v); }
inline void encode_value(Writer& w, std::uint64_t v) { w.write_varint(v); }
inline void encode_value(Writer& w, bool v) { w.write_bool(v); }
inline void encode_value(Writer& w, double v) { w.write_double(v); }
inline void encode_value(Writer& w, const std::string& v) { w.write_string(v); }
inline void encode_value(Writer& w, VirtualTime v) { w.write_vt(v); }

template <typename T>
void decode_value(Reader& r, T& out);

inline void decode_value(Reader& r, std::int32_t& v) {
  v = static_cast<std::int32_t>(r.read_svarint());
}
inline void decode_value(Reader& r, std::int64_t& v) { v = r.read_svarint(); }
inline void decode_value(Reader& r, std::uint32_t& v) {
  v = static_cast<std::uint32_t>(r.read_varint());
}
inline void decode_value(Reader& r, std::uint64_t& v) { v = r.read_varint(); }
inline void decode_value(Reader& r, bool& v) { v = r.read_bool(); }
inline void decode_value(Reader& r, double& v) { v = r.read_double(); }
inline void decode_value(Reader& r, std::string& v) { v = r.read_string(); }
inline void decode_value(Reader& r, VirtualTime& v) { v = r.read_vt(); }

template <typename T>
void encode_value(Writer& w, const std::vector<T>& v) {
  w.write_varint(v.size());
  for (const auto& e : v) encode_value(w, e);
}

template <typename T>
void decode_value(Reader& r, std::vector<T>& v) {
  const auto n = r.read_count();
  v.clear();
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    T e{};
    decode_value(r, e);
    v.push_back(std::move(e));
  }
}

template <typename K, typename V>
void encode_value(Writer& w, const std::map<K, V>& m) {
  w.write_varint(m.size());
  for (const auto& [k, v] : m) {
    encode_value(w, k);
    encode_value(w, v);
  }
}

template <typename K, typename V>
void decode_value(Reader& r, std::map<K, V>& m) {
  const auto n = r.read_varint();
  m.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    K k{};
    V v{};
    decode_value(r, k);
    decode_value(r, v);
    m.emplace(std::move(k), std::move(v));
  }
}

/// FNV-1a content hash, for cheap bit-identity assertions on checkpoints.
[[nodiscard]] std::uint64_t fingerprint(std::span<const std::byte> bytes);

}  // namespace tart::serde
