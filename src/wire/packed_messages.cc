#include "wire/packed_messages.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace tart {

namespace {
constexpr std::size_t kMinBlock = 256;
constexpr std::size_t kMaxBlock = 32 << 10;
constexpr std::size_t kSlot = sizeof(std::uint32_t);
}  // namespace

std::uint32_t PackedMessages::Block::end_of(std::uint32_t k) const {
  std::uint32_t end = 0;
  std::memcpy(&end, mem.get() + cap - kSlot * (k + 1), kSlot);
  return end;
}

std::span<const std::byte> PackedMessages::Block::record(
    std::uint32_t k) const {
  const std::uint32_t begin = k == 0 ? 0 : end_of(k - 1);
  return {mem.get() + begin, end_of(k) - begin};
}

std::span<const std::byte> PackedMessages::append(const Message& m) {
  // One encode buffer per thread, reused: appending allocates only when a
  // block fills. A rare oversized record does not pin its buffer.
  thread_local std::vector<std::byte> scratch;
  scratch.clear();
  serde::Writer w(scratch);
  m.encode(w);
  const auto stored = append_encoded(scratch, m.seq);
  if (scratch.capacity() > kMaxBlock) scratch = {};
  return stored;
}

std::span<const std::byte> PackedMessages::append_encoded(
    std::span<const std::byte> record, std::uint64_t seq) {
  if (blocks_.empty()) {
    first_seq_ = seq;
    end_seq_ = seq;
  }
  assert(seq == end_seq_);
  (void)seq;
  const std::size_t n = record.size();
  if (blocks_.empty() ||
      blocks_.back().used + n + kSlot * (blocks_.back().count + 1ull) >
          blocks_.back().cap)
    add_block(n);
  Block& b = blocks_.back();
  std::byte* dst = b.mem.get() + b.used;
  if (n > 0) std::memcpy(dst, record.data(), n);
  b.used += static_cast<std::uint32_t>(n);
  std::memcpy(b.mem.get() + b.cap - kSlot * (b.count + 1), &b.used, kSlot);
  ++b.count;
  ++end_seq_;
  size_.store(end_seq_ - first_seq_, std::memory_order_relaxed);
  return {dst, n};
}

void PackedMessages::add_block(std::size_t record_bytes) {
  // Slot offsets are 32-bit: a record must fit a block that size allows.
  if (record_bytes > UINT32_MAX - 2 * kSlot)
    throw std::length_error("message encoding too large to retain");
  next_cap_ = next_cap_ == 0 ? kMinBlock : std::min(next_cap_ * 2, kMaxBlock);
  const std::size_t need = (record_bytes + kSlot + kSlot - 1) & ~(kSlot - 1);
  Block b;
  b.cap = static_cast<std::uint32_t>(std::max(next_cap_, need));
  b.mem = std::make_unique_for_overwrite<std::byte[]>(b.cap);
  b.first_seq = end_seq_;
  memory_.store(memory_bytes() + b.cap + sizeof(Block),
                std::memory_order_relaxed);
  blocks_.push_back(std::move(b));
}

std::deque<PackedMessages::Block>::const_iterator PackedMessages::block_of(
    std::uint64_t seq) const {
  assert(seq >= first_seq_ && seq < end_seq_);
  return std::partition_point(
      blocks_.begin(), blocks_.end(),
      [seq](const Block& b) { return b.first_seq + b.count <= seq; });
}

std::span<const std::byte> PackedMessages::record(std::uint64_t seq) const {
  const auto b = block_of(seq);
  return b->record(static_cast<std::uint32_t>(seq - b->first_seq));
}

Message PackedMessages::at(std::uint64_t seq) const {
  const auto bytes = record(seq);
  serde::Reader r(bytes.data(), bytes.size());
  return Message::decode(r);
}

Message PackedMessages::header(std::uint64_t seq) const {
  const auto bytes = record(seq);
  serde::Reader r(bytes.data(), bytes.size());
  return Message::decode_header(r);
}

std::size_t PackedMessages::read(std::uint64_t from_seq, std::size_t max,
                                 std::vector<Message>& out) const {
  out.clear();
  from_seq = std::max(from_seq, first_seq_);
  if (from_seq >= end_seq_) return 0;
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(max, end_seq_ - from_seq));
  out.reserve(n);
  auto b = block_of(from_seq);
  auto k = static_cast<std::uint32_t>(from_seq - b->first_seq);
  for (std::size_t i = 0; i < n; ++i, ++k) {
    if (k == b->count) {
      ++b;
      k = 0;
    }
    const auto bytes = b->record(k);
    serde::Reader r(bytes.data(), bytes.size());
    out.push_back(Message::decode(r));
  }
  return n;
}

std::uint64_t PackedMessages::first_after(VirtualTime after) const {
  std::uint64_t lo = first_seq_;
  std::uint64_t hi = end_seq_;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (header(mid).vt > after) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void PackedMessages::pop_front(std::size_t n) {
  first_seq_ += std::min<std::uint64_t>(n, end_seq_ - first_seq_);
  std::size_t freed = 0;
  while (!blocks_.empty() &&
         blocks_.front().first_seq + blocks_.front().count <= first_seq_) {
    freed += blocks_.front().cap + sizeof(Block);
    blocks_.pop_front();
  }
  memory_.store(memory_bytes() - freed, std::memory_order_relaxed);
  size_.store(end_seq_ - first_seq_, std::memory_order_relaxed);
}

void PackedMessages::clear() {
  blocks_.clear();
  first_seq_ = end_seq_ = 0;
  memory_.store(0, std::memory_order_relaxed);
  size_.store(0, std::memory_order_relaxed);
}

}  // namespace tart
