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

std::string to_string(std::span<const std::byte> v) {
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}

/// The one payload parser. With `Build` it decodes; without, it makes the
/// same Reader calls (so accepts and refuses exactly the same bytes) and
/// builds nothing.
template <bool Build>
Payload parse(serde::Reader& r) {
  switch (r.read_u8()) {
    case kNone:
      return {};
    case kInt: {
      const std::int64_t v = r.read_svarint();
      return Build ? Payload(v) : Payload();
    }
    case kDouble: {
      const double v = r.read_double();
      return Build ? Payload(v) : Payload();
    }
    case kString: {
      const auto v = r.read_view();
      if constexpr (Build) return Payload(to_string(v));
      return {};
    }
    case kInts: {
      const auto n = r.read_count();
      std::vector<std::int64_t> v;
      if constexpr (Build) v.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::int64_t e = r.read_svarint();
        if constexpr (Build) v.push_back(e);
      }
      if constexpr (Build) return Payload(std::move(v));
      return {};
    }
    case kStrings: {
      const auto n = r.read_count();
      std::vector<std::string> v;
      if constexpr (Build) v.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto e = r.read_view();
        if constexpr (Build) v.push_back(to_string(e));
      }
      if constexpr (Build) return Payload(std::move(v));
      return {};
    }
    case kBytes: {
      const auto v = r.read_view();
      if constexpr (Build)
        return Payload(std::vector<std::byte>(v.begin(), v.end()));
      return {};
    }
    default:
      throw serde::DecodeError("bad payload tag");
  }
}
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

Payload Payload::decode(serde::Reader& r) { return parse<true>(r); }

void Payload::skip(serde::Reader& r) { (void)parse<false>(r); }

}  // namespace tart
