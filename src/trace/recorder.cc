#include "trace/recorder.h"

#include <algorithm>

#include "common/thread_name.h"
#include "obs/prof.h"

namespace tart::trace {

TraceRecorder::TraceRecorder(TraceConfig config,
                             std::vector<ComponentId> components)
    : config_(std::move(config)) {
  std::sort(components.begin(), components.end());
  components.erase(std::unique(components.begin(), components.end()),
                   components.end());
  slots_.reserve(components.size());
  for (const ComponentId c : components) {
    auto slot = std::make_unique<Slot>();
    slot->id = c;
    const auto skew = config_.debug_vt_skew.find(c);
    if (skew != config_.debug_vt_skew.end()) slot->vt_skew = skew->second;
    slot->ring = std::make_unique<RingBuffer<TraceEvent>>(
        config_.ring_capacity);
    index_.emplace(c, slots_.size());
    slots_.push_back(std::move(slot));
  }
  writer_ = std::thread([this] {
    set_thread_name("trace");
    writer_loop();
  });
}

TraceRecorder::~TraceRecorder() { finalize(); }

void TraceRecorder::record(ComponentId component, TraceEventKind kind,
                           VirtualTime vt, WireId wire, std::uint64_t aux,
                           std::uint64_t payload_hash) {
  if (finalized_.load(std::memory_order_relaxed)) return;
  if (!wants(kind)) return;
  const auto it = index_.find(component);
  if (it == index_.end()) return;
  Slot& slot = *slots_[it->second];

  TraceEvent e;
  e.component = component;
  e.kind = kind;
  e.vt = (slot.vt_skew != 0 && !vt.is_infinite())
             ? VirtualTime(vt.ticks() + slot.vt_skew)
             : vt;
  e.wire = wire;
  e.aux = aux;
  e.payload_hash = payload_hash;
  e.seq = slot.seq.fetch_add(1, std::memory_order_relaxed);

  if (slot.ring->try_push(e)) {
    slot.recorded.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot.dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void TraceRecorder::writer_loop() {
  std::unique_lock<std::mutex> lk(writer_mu_);
  while (!writer_stop_) {
    writer_cv_.wait_for(lk, config_.drain_interval);
    lk.unlock();
    drain_all();
    lk.lock();
  }
}

void TraceRecorder::drain_all() {
  TART_PROF_SPAN("trace.drain");
  for (auto& slot : slots_) {
    while (auto e = slot->ring->try_pop()) slot->drained.push_back(*e);
  }
}

void TraceRecorder::finalize() {
  if (finalized_.exchange(true)) return;
  {
    const std::lock_guard<std::mutex> lk(writer_mu_);
    writer_stop_ = true;
  }
  writer_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  drain_all();

  trace_.version = kTraceFormatVersion;
  trace_.categories = config_.categories;
  trace_.components.clear();
  for (auto& slot : slots_) {
    // Multi-producer pushes can land in the ring slightly out of sequence
    // order; the canonical stream is the sequence order.
    std::stable_sort(slot->drained.begin(), slot->drained.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.seq < b.seq;
                     });
    ComponentTrace ct;
    ct.component = slot->id;
    ct.events = std::move(slot->drained);
    trace_.components.push_back(std::move(ct));
  }
  if (!config_.path.empty()) write_trace_file(config_.path, trace_);
}

const TraceRecorder::Slot* TraceRecorder::find(ComponentId component) const {
  const auto it = index_.find(component);
  return it == index_.end() ? nullptr : slots_[it->second].get();
}

std::uint64_t TraceRecorder::recorded(ComponentId component) const {
  const Slot* s = find(component);
  return s == nullptr ? 0 : s->recorded.load(std::memory_order_relaxed);
}

std::uint64_t TraceRecorder::dropped(ComponentId component) const {
  const Slot* s = find(component);
  return s == nullptr ? 0 : s->dropped.load(std::memory_order_relaxed);
}

std::uint64_t TraceRecorder::total_recorded() const {
  std::uint64_t n = 0;
  for (const auto& s : slots_)
    n += s->recorded.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t TraceRecorder::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& s : slots_)
    n += s->dropped.load(std::memory_order_relaxed);
  return n;
}

}  // namespace tart::trace
