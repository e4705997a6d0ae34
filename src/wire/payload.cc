#include "wire/payload.h"

namespace tart {

namespace {
enum Tag : std::uint8_t {
  kNone = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
  kInts = 4,
  kStrings = 5,
  kBytes = 6,
};
}  // namespace

void Payload::encode(serde::Writer& w) const {
  std::visit(
      [&w](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          w.write_u8(kNone);
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          w.write_u8(kInt);
          w.write_svarint(v);
        } else if constexpr (std::is_same_v<T, double>) {
          w.write_u8(kDouble);
          w.write_double(v);
        } else if constexpr (std::is_same_v<T, std::string>) {
          w.write_u8(kString);
          w.write_string(v);
        } else if constexpr (std::is_same_v<T, std::vector<std::int64_t>>) {
          w.write_u8(kInts);
          w.write_varint(v.size());
          for (const auto e : v) w.write_svarint(e);
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          w.write_u8(kStrings);
          w.write_varint(v.size());
          for (const auto& e : v) w.write_string(e);
        } else if constexpr (std::is_same_v<T, std::vector<std::byte>>) {
          w.write_u8(kBytes);
          w.write_bytes(v);
        }
      },
      value_);
}

Payload Payload::decode(serde::Reader& r) {
  switch (r.read_u8()) {
    case kNone:
      return {};
    case kInt:
      return Payload(r.read_svarint());
    case kDouble:
      return Payload(r.read_double());
    case kString:
      return Payload(r.read_string());
    case kInts: {
      const auto n = r.read_count();
      std::vector<std::int64_t> v;
      v.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.read_svarint());
      return Payload(std::move(v));
    }
    case kStrings: {
      const auto n = r.read_count();
      std::vector<std::string> v;
      v.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.read_string());
      return Payload(std::move(v));
    }
    case kBytes:
      return Payload(r.read_bytes());
    default:
      throw serde::DecodeError("bad payload tag");
  }
}

}  // namespace tart
