#include "wire/retention_buffer.h"

#include <algorithm>
#include <cassert>

namespace tart {

void RetentionBuffer::record(const Message& m) {
  assert(buf_.empty() || (m.seq == buf_.end_seq() && m.vt >= *last_vt_));
  buf_.append(m);
  last_vt_ = m.vt;
  next_seq_ = m.seq + 1;
}

void RetentionBuffer::acknowledge_through(VirtualTime through) {
  buf_.pop_front(buf_.first_after(through) - buf_.first_seq());
}

std::size_t RetentionBuffer::trim_below_seq(std::uint64_t below_seq) {
  if (below_seq <= buf_.first_seq()) return 0;
  const std::size_t dropped =
      std::min<std::uint64_t>(buf_.size(), below_seq - buf_.first_seq());
  buf_.pop_front(dropped);
  return dropped;
}

std::vector<Message> RetentionBuffer::replay_after(VirtualTime after) const {
  std::vector<Message> out;
  buf_.read(buf_.first_after(after), SIZE_MAX, out);
  return out;
}

std::size_t RetentionBuffer::read_from_seq(std::uint64_t from_seq,
                                           std::size_t max,
                                           std::vector<Message>& out) const {
  return buf_.read(from_seq, max, out);
}

void RetentionBuffer::clear() {
  buf_.clear();
  last_vt_.reset();
  next_seq_ = 0;
}

void RetentionBuffer::restore(const std::vector<Message>& messages,
                              std::uint64_t next_seq) {
  buf_.clear();
  for (const Message& m : messages) buf_.append(m);
  next_seq_ = next_seq;
  last_vt_.reset();
  if (!messages.empty()) last_vt_ = messages.back().vt;
}

std::optional<Message> RetentionBuffer::find_by_call_id(
    std::uint64_t call_id) const {
  for (std::uint64_t seq = buf_.first_seq(); seq < buf_.end_seq(); ++seq)
    if (buf_.header(seq).call_id == call_id) return buf_.at(seq);
  return std::nullopt;
}

std::vector<Message> RetentionBuffer::contents() const {
  std::vector<Message> out;
  buf_.read(buf_.first_seq(), SIZE_MAX, out);
  return out;
}

}  // namespace tart
