// Byte-level fuzzing shared by the decoder tests. Every decoder of disk or
// peer bytes must decode a damaged input or refuse it typed, and must never
// crash or allocate without bound (ASan backs the "never").
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace tart::testing {

using Bytes = std::vector<std::byte>;

inline constexpr int kMutationRounds = 2000;

/// A batch as the stable stores' append_batch takes it: views of records.
inline std::vector<std::span<const std::byte>> spans(
    const std::vector<Bytes>& records) {
  return {records.begin(), records.end()};
}

/// Overwrites 1-4 random bytes with random values; one round in four also
/// splices in a maximal varint (up to 2^64-1), so length and count prefixes
/// meet the values that overflow bounds checks or huge allocations.
inline Bytes mutate(Bytes in, Rng& rng) {
  const auto flips = rng.uniform_int(1, 4);
  for (std::int64_t f = 0; f < flips; ++f)
    in[rng.bounded(in.size())] = static_cast<std::byte>(rng.bounded(256));
  if (rng.bounded(4) == 0) {
    Bytes huge(9, std::byte{0xFF});
    huge.push_back(static_cast<std::byte>(1 + rng.bounded(127)));
    const auto at = static_cast<std::ptrdiff_t>(rng.bounded(in.size()));
    in.insert(in.begin() + at, huge.begin(), huge.end());
  }
  return in;
}

/// Feeds `decode` every strict prefix of the valid encoding `good`, each of
/// which must be refused, then kMutationRounds seeded mutants of it, some
/// of which must decode and some be refused. `decode` returns whether its
/// input decoded and signals a refusal by returning false or throwing
/// `Refusal`; any other exception escapes and fails the test.
template <typename Refusal, typename Decode>
void fuzz_decoder(const Bytes& good, std::uint64_t seed, Decode decode) {
  const auto decoded = [&decode](const Bytes& bytes) {
    try {
      return decode(bytes);
    } catch (const Refusal&) {
      return false;
    }
  };
  EXPECT_TRUE(decoded(good));
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    EXPECT_FALSE(decoded(Bytes(good.begin(), good.begin() + cut)))
        << "prefix " << cut;
  Rng rng(seed);
  int accepted = 0;
  for (int round = 0; round < kMutationRounds; ++round)
    if (decoded(mutate(good, rng))) ++accepted;
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutationRounds);
}

}  // namespace tart::testing
