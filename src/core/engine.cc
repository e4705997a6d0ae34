#include "core/engine.h"

#include <algorithm>
#include <cassert>

#include "common/thread_name.h"

namespace tart::core {

Engine::Engine(EngineId id, const Topology& topology,
               const RuntimeConfig& config, FrameRouter& router,
               log::DeterminismFaultLog& fault_log,
               checkpoint::ReplicaStore& replica, obs::Registry& registry,
               trace::TraceRecorder* tracer)
    : id_(id),
      topology_(topology),
      config_(config),
      router_(router),
      fault_log_(fault_log),
      replica_(replica),
      registry_(registry),
      tracer_(tracer) {}

Engine::~Engine() { stop(); }

void Engine::add_component(ComponentId component) {
  assert(!started_.load());
  placed_.push_back(component);
}

Engine::RunnerMap Engine::make_runners() const {
  std::vector<ComponentId> placed;
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    placed = placed_;
  }
  RunnerMap runners;
  for (const ComponentId c : placed) {
    runners.emplace(c, std::make_shared<ComponentRunner>(
                           topology_, c, config_, router_, fault_log_,
                           replica_, registry_, tracer_));
  }
  return runners;
}

std::shared_ptr<ComponentRunner> Engine::pin(ComponentId component) const {
  const std::lock_guard<std::mutex> lk(map_mu_);
  if (crashed_.load()) return nullptr;
  const auto it = runners_.find(component);
  return it == runners_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<ComponentRunner>> Engine::pin_all() const {
  std::vector<std::shared_ptr<ComponentRunner>> out;
  const std::lock_guard<std::mutex> lk(map_mu_);
  if (crashed_.load()) return out;
  out.reserve(runners_.size());
  for (const auto& [c, r] : runners_) out.push_back(r);
  return out;
}

void Engine::restore() {
  // Starting is the same protocol as recovering: restore whatever the
  // replica holds (nullopt -> fresh component) and request replay past the
  // restored positions. On a fresh deployment the requests are no-ops; on
  // a cold restart over persisted state they resume the execution.
  RunnerMap runners = make_runners();
  for (auto& [c, r] : runners) {
    const auto plan = replica_.restore(c);
    // A cold restart that found persisted state IS a recovery: the marker
    // tells the trace differ (diff --recovery) which dispatch prefix the
    // restored checkpoint already covers. A truly fresh component gets no
    // marker — its trace must match a never-failed run exactly.
    if (plan && tracer_ != nullptr) {
      const checkpoint::ComponentSnapshot& last =
          plan->deltas.empty() ? plan->base : plan->deltas.back();
      tracer_->record(c, trace::TraceEventKind::kRecoveryStart, last.vt,
                      WireId::invalid(), last.version);
    }
    r->restore_from(plan);
  }
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    runners_ = std::move(runners);
  }
}

void Engine::request_replays() {
  for (const auto& r : pin_all()) r->request_replays();
}

void Engine::serve_replays() {
  for (const auto& r : pin_all()) r->serve_queued_control();
}

void Engine::start() {
  for (const auto& r : pin_all()) r->start();
  started_ = true;
  if (config_.silence.aggressive_interval.count() > 0 &&
      !aggressive_thread_.joinable()) {
    aggressive_thread_ = std::thread([this] {
      set_thread_name("silence-push");
      aggressive_loop();
    });
  }
}

void Engine::stop() {
  {
    const std::lock_guard<std::mutex> lk(timer_mu_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  if (aggressive_thread_.joinable()) aggressive_thread_.join();
  for (const auto& r : pin_all()) r->stop();
}

void Engine::crash() {
  // Swap the map out under the brief lock; in-flight dispatches still pin
  // the old runners and complete harmlessly against dying objects.
  RunnerMap dead;
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    crashed_ = true;
    dead = std::move(runners_);
    runners_.clear();
  }
  // Join the scheduler threads with no lock held (they may be routing
  // frames into this very engine).
  for (auto& [c, r] : dead) r->stop();
  if (tracer_ != nullptr) {
    for (const ComponentId c : components())
      tracer_->record(c, trace::TraceEventKind::kCrash, VirtualTime(-1),
                      WireId::invalid(), id_.value());
  }
  // Fail-stop: state dies when the last in-flight pin expires.
}

void Engine::recover() {
  assert(crashed_.load());
  RunnerMap runners = make_runners();
  for (auto& [c, r] : runners) {
    const auto plan = replica_.restore(c);
    // Recorded here rather than in restore_from so a component that never
    // checkpointed (restart-from-scratch) still gets its recovery marker —
    // the differ needs it to license the replayed dispatch stutter.
    if (tracer_ != nullptr) {
      const checkpoint::ComponentSnapshot* last =
          plan ? (plan->deltas.empty() ? &plan->base : &plan->deltas.back())
               : nullptr;
      tracer_->record(c, trace::TraceEventKind::kRecoveryStart,
                      last != nullptr ? last->vt : VirtualTime(-1),
                      WireId::invalid(),
                      last != nullptr ? last->version : 0);
    }
    r->restore_from(plan);
  }
  // Request replays before the scheduler threads start: request_replays
  // reads the restored input positions, which the running threads mutate.
  // Replayed frames arriving before start() simply queue in the inboxes —
  // but only once the map is published and crashed_ cleared.
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    runners_ = std::move(runners);
    crashed_ = false;
  }
  for (const auto& r : pin_all()) r->request_replays();
  for (const auto& r : pin_all()) r->start();
}

void Engine::deliver_to_receiver(WireId wire, transport::Frame&& frame) {
  if (auto* data = std::get_if<transport::DataFrame>(&frame)) {
    deliver_batch_to_receiver(wire, std::span<Message>(&data->msg, 1));
    return;
  }
  const auto* silence = std::get_if<transport::SilenceFrame>(&frame);
  if (silence == nullptr) return;
  const auto r = pin(topology_.wire(wire).to);
  if (r == nullptr) return;  // crashed: the machine is gone, frames lost
  r->deliver_silence(silence->wire, silence->through, silence->expected_seq);
}

void Engine::deliver_batch_to_receiver(WireId wire, std::span<Message> batch) {
  const auto& spec = topology_.wire(wire);
  const auto r = pin(spec.to);
  if (r == nullptr) return;  // crashed: the machine is gone, frames lost
  if (spec.kind == WireKind::kReply) {
    for (Message& m : batch) r->deliver_reply(std::move(m));
  } else {
    r->deliver_data(wire, batch);
  }
}

void Engine::deliver_run_to_receiver(const MessageRun& run) {
  const auto r = pin(topology_.wire(run.wire).to);
  if (r == nullptr) return;  // crashed: the machine is gone, frames lost
  r->deliver_run(run);
}

void Engine::deliver_to_sender(WireId wire, const transport::Frame& frame) {
  const auto& spec = topology_.wire(wire);
  const auto r = pin(spec.from);
  if (r == nullptr) return;

  if (std::holds_alternative<transport::ProbeFrame>(frame)) {
    r->handle_probe(wire);
  } else if (const auto* replay =
                 std::get_if<transport::ReplayRequestFrame>(&frame)) {
    r->enqueue_control(
        ReplayRequestCtl{replay->wire, replay->after, replay->from_seq});
  } else if (const auto* stability =
                 std::get_if<transport::StabilityFrame>(&frame)) {
    r->enqueue_control(StabilityCtl{stability->wire, stability->through});
  }
}

std::shared_ptr<ComponentRunner> Engine::runner(ComponentId component) const {
  return pin(component);
}

bool Engine::all_exhausted() const {
  if (crashed_.load()) return false;
  std::vector<std::shared_ptr<ComponentRunner>> runners;
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    if (runners_.size() != placed_.size()) return false;
    runners.reserve(runners_.size());
    for (const auto& [c, r] : runners_) runners.push_back(r);
  }
  for (const auto& r : runners)
    if (!r->exhausted()) return false;
  return true;
}

MetricsSnapshot Engine::metrics(ComponentId component) const {
  const auto r = pin(component);
  return r == nullptr ? MetricsSnapshot{} : r->metrics();
}

std::vector<ComponentId> Engine::components() const {
  const std::lock_guard<std::mutex> lk(map_mu_);
  return placed_;
}

bool Engine::adopt_component(
    ComponentId component, const std::optional<checkpoint::RestorePlan>& plan) {
  if (crashed_.load()) return false;
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    if (runners_.count(component) != 0) return false;
  }
  auto r = std::make_shared<ComponentRunner>(topology_, component, config_,
                                             router_, fault_log_, replica_,
                                             registry_, tracer_);
  // Adoption IS recovery on a new node: the marker tells the trace differ
  // (diff --recovery) which dispatch prefix the restored plan covers.
  if (tracer_ != nullptr) {
    const checkpoint::ComponentSnapshot* last =
        plan ? (plan->deltas.empty() ? &plan->base : &plan->deltas.back())
             : nullptr;
    tracer_->record(component, trace::TraceEventKind::kRecoveryStart,
                    last != nullptr ? last->vt : VirtualTime(-1),
                    WireId::invalid(), last != nullptr ? last->version : 0);
  }
  r->restore_from(plan);
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    if (!runners_.emplace(component, r).second) return false;  // raced adopt
    placed_.push_back(component);
  }
  r->request_replays();
  r->start();
  return true;
}

std::optional<std::vector<ComponentRunner::SilenceUpdate>>
Engine::evict_component(ComponentId component) {
  std::shared_ptr<ComponentRunner> r;
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    const auto it = runners_.find(component);
    if (it == runners_.end()) return std::nullopt;
    r = it->second;
    runners_.erase(it);
    placed_.erase(std::remove(placed_.begin(), placed_.end(), component),
                  placed_.end());
  }
  // Join the scheduler thread with no lock held (it may be routing frames).
  r->stop();
  return r->seal_outputs();
}

void Engine::aggressive_loop() {
  std::unique_lock<std::mutex> lk(timer_mu_);
  while (!timer_stop_) {
    timer_cv_.wait_for(lk, config_.silence.aggressive_interval);
    if (timer_stop_) return;
    lk.unlock();
    for (const auto& r : pin_all()) {
      for (const auto& u : r->collect_silence_updates())
        router_.to_receiver(
            u.wire,
            transport::SilenceFrame{u.wire, u.through, u.expected_seq});
    }
    lk.lock();
  }
}

}  // namespace tart::core
