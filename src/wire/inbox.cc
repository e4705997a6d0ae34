#include "wire/inbox.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "trace/recorder.h"

namespace tart {

void Inbox::add_wire(WireId wire) {
  assert(wire.is_valid());
  wires_.emplace(wire, WireState{});
}

void Inbox::set_data_grid(WireId wire, std::int64_t window) {
  auto it = wires_.find(wire);
  assert(it != wires_.end());
  it->second.grid = window;
}

bool Inbox::has_wire(WireId wire) const { return wires_.contains(wire); }

const Inbox::WireState* Inbox::find(WireId wire) const {
  const auto it = wires_.find(wire);
  return it == wires_.end() ? nullptr : &it->second;
}

// Out of line and cold: offer() is the hottest function in the merge and
// inlining the hash/record machinery into its rejection branches costs
// the accept path real cycles (bigger frame, more callee saves) even
// when tracing is off.
__attribute__((cold, noinline)) void Inbox::trace_discard(
    const Message& m) const {
  trace_->record(trace_self_, trace::TraceEventKind::kDuplicateDiscard, m.vt,
                 m.wire, m.seq, trace::hash_of(m.payload));
}

__attribute__((cold, noinline)) void Inbox::trace_gap(
    const Message& m) const {
  trace_->record(trace_self_, trace::TraceEventKind::kGap, m.vt, m.wire,
                 m.seq);
}

// A rejected run records what rejecting its messages one by one would:
// read back from the source only when tracing.
__attribute__((cold, noinline)) void Inbox::trace_run(const MessageRun& run,
                                                      std::uint64_t end,
                                                      bool gap) const {
  std::vector<Message> chunk;
  for (std::uint64_t from = run.from_seq; from < end;) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(kRunChunk, end - from));
    if (run.source->read_from_seq(run.wire, from, want, chunk) == 0) return;
    for (const Message& m : chunk) gap ? trace_gap(m) : trace_discard(m);
    from = chunk.back().seq + 1;
  }
}

AcceptResult Inbox::offer(Message&& m) {
  auto it = wires_.find(m.wire);
  assert(it != wires_.end() && "message for unregistered wire");
  WireState& w = it->second;

  // Duplicate: vt already accounted (silent or delivered/pending data).
  // Replayed messages re-arrive with their original (identical) timestamps
  // and are discarded here.
  if (m.vt <= w.horizon) {
    if (trace_ != nullptr) trace_discard(m);
    return AcceptResult::kDuplicate;
  }

  // Gap: FIFO sequence jumped, meaning ticks were lost on the physical
  // link or the sender restarted ahead of us. Caller must request replay.
  if (m.seq > w.next_seq) {
    if (trace_ != nullptr) trace_gap(m);
    return AcceptResult::kGap;
  }
  if (m.seq < w.next_seq) {
    if (trace_ != nullptr) trace_discard(m);
    return AcceptResult::kDuplicate;
  }

  w.next_seq = m.seq + 1;
  // The message's vt accounts all earlier ticks as (implied) silence and
  // its own tick as data.
  w.horizon = m.vt;
  if (w.runs.empty()) {
    w.pending.push_back(std::move(m));
  } else {
    w.runs.back().behind.push_back(std::move(m));
    ++w.queued;
  }
  return AcceptResult::kAccepted;
}

RunOfferResult Inbox::offer_run(const MessageRun& run) {
  auto it = wires_.find(run.wire);
  assert(it != wires_.end() && "run for unregistered wire");
  assert(run.source != nullptr);
  WireState& w = it->second;
  RunOfferResult result;
  if (run.from_seq >= run.end_seq) return result;

  // The per-message rules of offer(), applied to the range. A sound
  // sender's records at or past next_seq order after the horizon, so the
  // vt rule can only reject the whole run (its last vt is accounted) or
  // the records below next_seq, which the seq rule rejects anyway.
  if (run.through <= w.horizon || run.end_seq <= w.next_seq) {
    result.duplicates = run.end_seq - run.from_seq;
    if (trace_ != nullptr) trace_run(run, run.end_seq, false);
    return result;
  }
  if (run.from_seq > w.next_seq) {
    result.gaps = run.end_seq - run.from_seq;
    if (trace_ != nullptr) trace_run(run, run.end_seq, true);
    return result;
  }
  MessageRun rest = run;
  if (rest.from_seq < w.next_seq) {
    result.duplicates = w.next_seq - rest.from_seq;
    if (trace_ != nullptr) trace_run(run, w.next_seq, false);
    rest.from_seq = w.next_seq;
  }
  result.accepted = rest.end_seq - rest.from_seq;
  w.next_seq = rest.end_seq;
  w.horizon = rest.through;
  w.runs.push_back(QueuedRun{rest, {}});
  w.queued += result.accepted;
  if (w.pending.empty()) refill(w);
  return result;
}

void Inbox::refill(WireState& w) {
  while (w.pending.empty() && !w.runs.empty()) {
    QueuedRun& q = w.runs.front();
    MessageRun& r = q.run;
    if (r.from_seq < r.end_seq) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(kRunChunk, r.end_seq - r.from_seq));
      const std::size_t n =
          r.source->read_from_seq(r.wire, r.from_seq, want, chunk_);
      // The run is already accounted: a source that lost its records
      // cannot be papered over.
      if (n != want || chunk_.front().seq != r.from_seq)
        throw std::logic_error("run source lost records of an accepted run");
      for (Message& m : chunk_) w.pending.push_back(std::move(m));
      w.run_chunk = n;
      r.from_seq += n;
      w.queued -= n;
    }
    if (r.from_seq == r.end_seq) {
      w.queued -= q.behind.size();
      for (Message& m : q.behind) w.pending.push_back(std::move(m));
      w.runs.pop_front();
    }
  }
}

bool Inbox::announce_silence(WireId wire, VirtualTime through,
                             std::uint64_t expected_seq) {
  auto it = wires_.find(wire);
  assert(it != wires_.end());
  WireState& w = it->second;
  if (expected_seq > w.next_seq) {
    // The sender accounted data ticks we never received: they were lost
    // (e.g. dropped while this engine was down). Do not mark them silent;
    // the caller must request replay from next_seq.
    return true;
  }
  if (through > w.horizon) w.horizon = through;
  return false;
}

const Inbox::WireState* Inbox::head_wire() const {
  const WireState* best = nullptr;
  for (const auto& [id, w] : wires_) {
    if (w.pending.empty()) continue;
    // Ties on vt go to the smaller wire id: wires_ iterates in id order, so
    // only a strictly earlier vt displaces the current best.
    if (best == nullptr || w.pending.front().vt < best->pending.front().vt)
      best = &w;
  }
  return best;
}

const Message* Inbox::peek() const {
  const WireState* w = head_wire();
  return w == nullptr ? nullptr : &w->pending.front();
}

bool Inbox::permits(const WireState& w, WireId other_id, VirtualTime t,
                    WireId id) {
  if (!w.pending.empty()) {
    // A pending head on the other wire must order after (t, id).
    return std::pair{t, id} < w.pending.front().key();
  }
  const VirtualTime h = w.effective_horizon();
  if (h >= t) return true;
  // Horizon t-1 suffices when the other wire loses the vt==t tie-break:
  // any future message on it has vt > horizon >= t-1, i.e. vt >= t, and at
  // vt == t our smaller wire id wins.
  return h >= t.prev() && other_id > id;
}

bool Inbox::eligible(const Message& head) const {
  for (const auto& [id, w] : wires_) {
    if (id == head.wire) continue;
    if (!permits(w, id, head.vt, head.wire)) return false;
  }
  return true;
}

bool Inbox::head_eligible() const {
  const Message* head = peek();
  return head != nullptr && eligible(*head);
}

std::optional<Message> Inbox::pop() {
  // Locate the head once; the const lookup hands back one of our own
  // wires, so dropping the const to move out of it is sound.
  auto* w = const_cast<WireState*>(head_wire());
  if (w == nullptr || !eligible(w->pending.front())) return std::nullopt;
  std::optional<Message> m(std::move(w->pending.front()));
  w->pending.pop_front();
  if (w->run_chunk > 0) --w->run_chunk;
  if (w->pending.empty() && !w->runs.empty()) refill(*w);
  return m;
}

std::vector<WireId> Inbox::lagging_wires() const {
  std::vector<WireId> out;
  const Message* head = peek();
  if (head == nullptr) return out;
  for (const auto& [id, w] : wires_) {
    if (id == head->wire) continue;
    if (!permits(w, id, head->vt, head->wire)) out.push_back(id);
  }
  return out;
}

VirtualTime Inbox::accounted_through() const {
  VirtualTime lo = VirtualTime::infinity();
  for (const auto& [id, w] : wires_) lo = min(lo, w.effective_horizon());
  return lo;
}

VirtualTime Inbox::wire_horizon(WireId wire) const {
  const WireState* w = find(wire);
  assert(w != nullptr);
  return w->horizon;
}

std::size_t Inbox::pending() const {
  std::size_t n = 0;
  for (const auto& [id, w] : wires_) n += w.pending.size() + w.queued;
  return n;
}

std::size_t Inbox::pending_on(WireId wire) const {
  const WireState* w = find(wire);
  return w == nullptr ? 0 : w->pending.size() + w->queued;
}

std::size_t Inbox::decoded_run_messages(WireId wire) const {
  const WireState* w = find(wire);
  return w == nullptr ? 0 : w->run_chunk;
}

bool Inbox::exhausted() const {
  for (const auto& [id, w] : wires_)
    if (!w.closed() || !w.pending.empty()) return false;
  return true;
}

std::uint64_t Inbox::next_seq(WireId wire) const {
  const WireState* w = find(wire);
  assert(w != nullptr);
  return w->next_seq;
}

void Inbox::restore_position(WireId wire, VirtualTime through,
                             std::uint64_t seq) {
  auto it = wires_.find(wire);
  assert(it != wires_.end());
  WireState& w = it->second;
  w.pending.clear();
  w.run_chunk = 0;
  w.runs.clear();
  w.queued = 0;
  w.horizon = through;
  w.next_seq = seq;
}

}  // namespace tart
