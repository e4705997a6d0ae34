#include "log/message_log.h"

#include <algorithm>
#include <cassert>

#include "log/segmented_store.h"

namespace tart::log {

void ExternalMessageLog::append_locked(const Message& message) {
  auto& list = entries_[message.wire];
  if (list.empty()) {
    // First retained entry on this wire must continue from the base (when
    // a compaction base exists; otherwise any starting seq is accepted).
    const auto base = base_seq_.find(message.wire);
    assert(base == base_seq_.end() || message.seq == base->second);
    (void)base;
  } else {
    assert(message.seq == list.back().seq + 1 &&
           message.vt >= list.back().vt);
  }
  list.push_back(message);
  order_.emplace_back(message.wire, message.seq);
}

void ExternalMessageLog::append(const Message& message) {
  const std::lock_guard<std::mutex> lock(mutex_);
  append_locked(message);
  if (store_ != nullptr) {
    serde::Writer w;
    message.encode(w);
    store_->append(w.bytes());
  }
}

bool ExternalMessageLog::append_batch(const std::vector<Message>& messages) {
  const std::lock_guard<std::mutex> lock(mutex_);
  bool durable = true;
  if (store_ != nullptr && !messages.empty()) {
    std::vector<std::vector<std::byte>> records;
    records.reserve(messages.size());
    for (const Message& m : messages) {
      serde::Writer w;
      m.encode(w);
      records.push_back(w.take());
    }
    durable = store_->append_batch(records);
  }
  for (const Message& m : messages) append_locked(m);
  return durable;
}

void ExternalMessageLog::attach_store(SegmentedStore* store) {
  const std::lock_guard<std::mutex> lock(mutex_);
  store_ = store;
}

void ExternalMessageLog::load(const SegmentedStore& store,
                              std::uint64_t covered_index) {
  // A checkpoint covering past the end of the log (its tail was lost) must
  // not shift the order index: the next append gets next_index().
  const std::uint64_t from = std::min(
      std::max(covered_index, store.first_retained_index()),
      store.next_index());
  const std::lock_guard<std::mutex> lock(mutex_);
  // Decode into locals and install them only once every record decoded: a
  // bad record (or trailing bytes) fails the whole load cleanly.
  std::map<WireId, std::vector<Message>> entries;
  std::deque<std::pair<WireId, std::uint64_t>> order;
  store.read_from(from, [&](std::span<const std::byte> record) {
    serde::Reader r(record.data(), record.size());
    Message m = Message::decode(r);
    if (!r.at_end()) throw serde::DecodeError("trailing bytes in log record");
    // The order index must mirror the store record-for-record — including
    // covered records whose segment has not been reclaimed yet — or a
    // later covered_record_index would point at the wrong segment.
    order.emplace_back(m.wire, m.seq);
    const auto base = base_seq_.find(m.wire);
    if (base != base_seq_.end() && m.seq < base->second)
      return;  // covered by the restored checkpoint
    entries[m.wire].push_back(std::move(m));
  });
  // Batched appends from one writer may interleave with single appends
  // from another across wires; per wire the seq order is authoritative.
  for (auto& [wire, list] : entries)
    std::sort(list.begin(), list.end(),
              [](const Message& a, const Message& b) { return a.seq < b.seq; });
  order_base_ = from;
  order_ = std::move(order);
  entries_ = std::move(entries);
}

void ExternalMessageLog::set_base(WireId wire, std::uint64_t next_seq,
                                  VirtualTime last_vt) {
  const std::lock_guard<std::mutex> lock(mutex_);
  base_seq_[wire] = next_seq;
  base_vt_[wire] = last_vt;
}

std::vector<Message> ExternalMessageLog::replay_after(
    WireId wire, VirtualTime after) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Message> out;
  const auto it = entries_.find(wire);
  if (it == entries_.end()) return out;
  for (const Message& m : it->second)
    if (m.vt > after) out.push_back(m);
  return out;
}

std::vector<Message> ExternalMessageLog::replay_from_seq(
    WireId wire, std::uint64_t from_seq) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Message> out;
  const auto it = entries_.find(wire);
  if (it == entries_.end()) return out;
  for (const Message& m : it->second)
    if (m.seq >= from_seq) out.push_back(m);
  return out;
}

std::uint64_t ExternalMessageLog::size(WireId wire) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(wire);
  return it == entries_.end() ? 0 : it->second.size();
}

std::uint64_t ExternalMessageLog::total_size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& [w, list] : entries_) n += list.size();
  return n;
}

VirtualTime ExternalMessageLog::last_vt(WireId wire) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(wire);
  if (it != entries_.end() && !it->second.empty()) return it->second.back().vt;
  const auto base = base_vt_.find(wire);
  return base == base_vt_.end() ? VirtualTime(-1) : base->second;
}

std::uint64_t ExternalMessageLog::next_seq(WireId wire) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(wire);
  if (it != entries_.end() && !it->second.empty())
    return it->second.back().seq + 1;
  const auto base = base_seq_.find(wire);
  return base == base_seq_.end() ? 0 : base->second;
}

VirtualTime ExternalMessageLog::vt_below(WireId wire,
                                         std::uint64_t seq) const {
  if (seq == 0) return VirtualTime(-1);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(wire);
  if (it != entries_.end()) {
    const auto& list = it->second;
    const auto pos = std::lower_bound(
        list.begin(), list.end(), seq - 1,
        [](const Message& m, std::uint64_t s) { return m.seq < s; });
    if (pos != list.end() && pos->seq == seq - 1) return pos->vt;
  }
  const auto base = base_vt_.find(wire);
  return base == base_vt_.end() ? VirtualTime(-1) : base->second;
}

std::uint64_t ExternalMessageLog::covered_record_index(
    const std::map<WireId, std::uint64_t>& covered) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t index = order_base_;
  for (const auto& [wire, seq] : order_) {
    const auto bound = covered.find(wire);
    if (bound == covered.end() || seq >= bound->second) break;
    ++index;
  }
  return index;
}

std::uint64_t ExternalMessageLog::truncate_covered(
    const std::map<WireId, std::uint64_t>& covered) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<WireId, std::uint64_t> drop;  // wire -> entries to erase
  while (!order_.empty()) {
    const auto& [wire, seq] = order_.front();
    const auto bound = covered.find(wire);
    if (bound == covered.end() || seq >= bound->second) break;
    auto& base = base_seq_[wire];
    if (seq >= base) {
      base = seq + 1;
      ++drop[wire];
    }
    order_.pop_front();
    ++order_base_;
    ++truncated_;
  }
  for (const auto& [wire, count] : drop) {
    auto& list = entries_[wire];
    const std::size_t n = std::min<std::size_t>(count, list.size());
    if (n > 0) {
      base_vt_[wire] = max(base_vt_.try_emplace(wire, VirtualTime(-1))
                               .first->second,
                           list[n - 1].vt);
      list.erase(list.begin(), list.begin() + static_cast<std::ptrdiff_t>(n));
    }
  }
  return order_base_;
}

std::uint64_t ExternalMessageLog::truncated_messages() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return truncated_;
}

}  // namespace tart::log
