#include "log/message_log.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "log/segmented_store.h"

namespace tart::log {

std::span<const std::byte> ExternalMessageLog::append_locked(
    const Message& message) {
  WireLog& w = wires_[message.wire];
  // Per wire the seqs are consecutive; the first retained entry continues
  // from the base (when a compaction base exists; otherwise any starting
  // seq is accepted).
  assert(w.records.empty()
             ? (!w.has_base || message.seq == w.base_seq)
             : (message.seq == w.records.end_seq() &&
                message.vt >= w.records.header(message.seq - 1).vt));
  order_.push_back(message.wire);
  return w.records.append(message);
}

void ExternalMessageLog::append(const Message& message) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto bytes = append_locked(message);
  if (store_ != nullptr) store_->append(bytes);
}

bool ExternalMessageLog::append_batch(const std::vector<Message>& messages) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Each message is encoded once, into the log; the store frames those
  // same bytes (they stay put while the lock is held).
  std::vector<std::span<const std::byte>> records;
  if (store_ != nullptr) records.reserve(messages.size());
  for (const Message& m : messages) {
    const auto bytes = append_locked(m);
    if (store_ != nullptr) records.push_back(bytes);
  }
  return store_ == nullptr || records.empty() || store_->append_batch(records);
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
  assert(order_.empty());  // so undoing a failed load empties the log
  try {
    store.read_from(from, [&](std::span<const std::byte> record) {
      // Checked whole, payload walked but not built; only the bytes are
      // kept (the replay decodes them once, as its receiver drains).
      const Message m = Message::check_encoded(record);
      WireLog& w = wires_[m.wire];
      // The order index must mirror the store record-for-record —
      // including covered records whose segment has not been reclaimed yet
      // — or a later covered_record_index would point at the wrong segment.
      order_.push_back(m.wire);
      if (m.seq < w.base_seq) {  // covered by the restored checkpoint
        if (w.covered.empty() ||
            m.seq != w.covered.back().first + w.covered.back().count)
          w.covered.push_back({m.seq, 0});
        ++w.covered.back().count;
        return;
      }
      if (!w.records.empty() && m.seq != w.records.end_seq())
        throw serde::DecodeError("log record out of sequence on its wire");
      w.records.append_encoded(record, m.seq);
    });
  } catch (...) {
    for (auto& [wire, w] : wires_) {
      w.records.clear();
      w.covered.clear();
    }
    order_.clear();
    throw;
  }
  order_base_ = from;
}

void ExternalMessageLog::set_base(WireId wire, std::uint64_t next_seq,
                                  VirtualTime last_vt) {
  const std::lock_guard<std::mutex> lock(mutex_);
  WireLog& w = wires_[wire];
  w.has_base = true;
  w.base_seq = next_seq;
  w.base_vt = last_vt;
}

std::vector<Message> ExternalMessageLog::replay_after(
    WireId wire, VirtualTime after) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Message> out;
  const auto it = wires_.find(wire);
  if (it == wires_.end()) return out;
  const PackedMessages& records = it->second.records;
  records.read(records.first_after(after), SIZE_MAX, out);
  return out;
}

std::vector<Message> ExternalMessageLog::replay_from_seq(
    WireId wire, std::uint64_t from_seq) const {
  std::vector<Message> out;
  (void)read_from_seq(wire, from_seq, SIZE_MAX, out);
  return out;
}

std::size_t ExternalMessageLog::read_from_seq(WireId wire,
                                              std::uint64_t from_seq,
                                              std::size_t max,
                                              std::vector<Message>& out) const {
  out.clear();
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = wires_.find(wire);
  if (it == wires_.end()) return 0;
  return it->second.records.read(from_seq, max, out);
}

MessageRun ExternalMessageLog::run(WireId wire, std::uint64_t from_seq,
                                   std::uint64_t end_seq,
                                   VirtualTime through) const {
  std::uint64_t first = from_seq;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = wires_.find(wire); it != wires_.end()) {
      const WireLog& w = it->second;
      first = std::max(first, w.records.empty() ? w.base_seq
                                                : w.records.first_seq());
    }
  }
  return MessageRun{this, wire, first, std::max(first, end_seq), through};
}

std::uint64_t ExternalMessageLog::size(WireId wire) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = wires_.find(wire);
  return it == wires_.end() ? 0 : it->second.records.size();
}

std::uint64_t ExternalMessageLog::total_size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& [wire, w] : wires_) n += w.records.size();
  return n;
}

VirtualTime ExternalMessageLog::last_vt(WireId wire) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = wires_.find(wire);
  if (it == wires_.end()) return VirtualTime(-1);
  const PackedMessages& records = it->second.records;
  if (!records.empty()) return records.header(records.end_seq() - 1).vt;
  return it->second.base_vt;
}

std::uint64_t ExternalMessageLog::next_seq(WireId wire) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = wires_.find(wire);
  if (it == wires_.end()) return 0;
  const PackedMessages& records = it->second.records;
  return records.empty() ? it->second.base_seq : records.end_seq();
}

VirtualTime ExternalMessageLog::vt_below(WireId wire,
                                         std::uint64_t seq) const {
  if (seq == 0) return VirtualTime(-1);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = wires_.find(wire);
  if (it == wires_.end()) return VirtualTime(-1);
  const PackedMessages& records = it->second.records;
  if (seq - 1 >= records.first_seq() && seq - 1 < records.end_seq())
    return records.header(seq - 1).vt;
  return it->second.base_vt;
}

std::uint64_t ExternalMessageLog::walk_covered_locked(
    const std::map<WireId, std::uint64_t>& covered,
    std::map<WireId, WalkPos>& walk) const {
  for (const auto& [wire, bound] : covered) walk[wire].bound = bound;
  std::uint64_t walked = 0;
  for (const WireId wire : order_) {
    const auto it = walk.find(wire);
    if (it == walk.end()) break;
    WalkPos& pos = it->second;
    const WireLog& w = wires_.at(wire);
    const bool in_covered = pos.runs < w.covered.size();
    const std::uint64_t seq =
        in_covered ? w.covered[pos.runs].first + pos.in_run
                   : w.records.first_seq() + pos.retained;
    if (seq >= pos.bound) break;
    if (!in_covered) {
      ++pos.retained;
    } else if (++pos.in_run == w.covered[pos.runs].count) {
      ++pos.runs;
      pos.in_run = 0;
    }
    ++walked;
  }
  return walked;
}

std::uint64_t ExternalMessageLog::covered_record_index(
    const std::map<WireId, std::uint64_t>& covered) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<WireId, WalkPos> walk;
  return order_base_ + walk_covered_locked(covered, walk);
}

std::uint64_t ExternalMessageLog::truncate_covered(
    const std::map<WireId, std::uint64_t>& covered) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<WireId, WalkPos> walk;
  const std::uint64_t n = walk_covered_locked(covered, walk);
  for (const auto& [wire, pos] : walk) {
    const auto it = wires_.find(wire);
    if (it == wires_.end()) continue;
    WireLog& w = it->second;
    w.covered.erase(w.covered.begin(),
                    w.covered.begin() + static_cast<std::ptrdiff_t>(pos.runs));
    if (pos.in_run > 0) {
      w.covered.front().first += pos.in_run;
      w.covered.front().count -= pos.in_run;
    }
    if (pos.retained > 0) {
      // Retained seqs are never below the base: each dropped one moves it.
      const std::uint64_t last = w.records.first_seq() + pos.retained - 1;
      w.has_base = true;
      w.base_seq = last + 1;
      w.base_vt = max(w.base_vt, w.records.header(last).vt);
      w.records.pop_front(pos.retained);
    }
  }
  order_.erase(order_.begin(), order_.begin() + static_cast<std::ptrdiff_t>(n));
  order_base_ += n;
  truncated_ += n;
  return order_base_;
}

std::uint64_t ExternalMessageLog::truncated_messages() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return truncated_;
}

std::uint64_t ExternalMessageLog::memory_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = order_.size() * sizeof(WireId);
  for (const auto& [wire, w] : wires_)
    n += w.records.memory_bytes() + w.covered.size() * sizeof(SeqRun);
  return n;
}

}  // namespace tart::log
