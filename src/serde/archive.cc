#include "serde/archive.h"

namespace tart::serde {

std::uint64_t fingerprint(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace tart::serde
