#include "wire/retention_buffer.h"

#include <algorithm>
#include <cassert>

namespace tart {

void RetentionBuffer::record(const Message& m) {
  assert(buf_.empty() || (m.seq == buf_.back().seq + 1 && m.vt >= buf_.back().vt));
  buf_.push_back(m);
  last_vt_ = m.vt;
  next_seq_ = m.seq + 1;
}

void RetentionBuffer::acknowledge_through(VirtualTime through) {
  while (!buf_.empty() && buf_.front().vt <= through) buf_.pop_front();
}

std::size_t RetentionBuffer::trim_below_seq(std::uint64_t below_seq) {
  std::size_t dropped = 0;
  while (!buf_.empty() && buf_.front().seq < below_seq) {
    buf_.pop_front();
    ++dropped;
  }
  return dropped;
}

std::vector<Message> RetentionBuffer::replay_after(VirtualTime after) const {
  std::vector<Message> out;
  for (const Message& m : buf_)
    if (m.vt > after) out.push_back(m);
  return out;
}

std::size_t RetentionBuffer::read_from_seq(std::uint64_t from_seq,
                                           std::size_t max,
                                           std::vector<Message>& out) const {
  out.clear();
  if (buf_.empty()) return 0;
  // Retained seqs are consecutive (record() asserts it; trims drop a
  // prefix), so the first wanted message sits at a fixed offset.
  const std::uint64_t first = buf_.front().seq;
  const std::uint64_t skip = from_seq > first ? from_seq - first : 0;
  if (skip >= buf_.size()) return 0;
  const auto begin = buf_.begin() + static_cast<std::ptrdiff_t>(skip);
  const std::size_t n =
      std::min(max, buf_.size() - static_cast<std::size_t>(skip));
  out.assign(begin, begin + static_cast<std::ptrdiff_t>(n));
  return n;
}

void RetentionBuffer::clear() {
  buf_.clear();
  last_vt_.reset();
  next_seq_ = 0;
}

void RetentionBuffer::restore(std::vector<Message> messages,
                              std::uint64_t next_seq) {
  buf_.assign(messages.begin(), messages.end());
  next_seq_ = next_seq;
  last_vt_.reset();
  if (!buf_.empty()) last_vt_ = buf_.back().vt;
}

std::optional<Message> RetentionBuffer::find_by_call_id(
    std::uint64_t call_id) const {
  for (const Message& m : buf_)
    if (m.call_id == call_id) return m;
  return std::nullopt;
}

std::vector<Message> RetentionBuffer::contents() const {
  return {buf_.begin(), buf_.end()};
}

}  // namespace tart
