#include "durability/manager.h"

#include <chrono>
#include <utility>

#include "common/thread_name.h"
#include "core/runtime.h"
#include "log/segmented_store.h"
#include "obs/prof.h"

namespace tart::durability {

namespace {

/// Every input wire's checkpointed next-seq, from the newest snapshot in
/// each plan. This — not just the external-wire cover list — is what
/// remote senders need to bound their retention buffers: the consumer can
/// never replay-request below its durably checkpointed position.
std::map<WireId, std::uint64_t> cover_from_plans(
    const std::map<ComponentId, checkpoint::RestorePlan>& plans) {
  std::map<WireId, std::uint64_t> cover;
  for (const auto& [component, plan] : plans) {
    (void)component;
    const checkpoint::ComponentSnapshot& last =
        plan.deltas.empty() ? plan.base : plan.deltas.back();
    for (const auto& in : last.inputs) {
      auto [it, inserted] = cover.emplace(in.wire, in.next_seq);
      if (!inserted && in.next_seq > it->second) it->second = in.next_seq;
    }
  }
  return cover;
}

/// Drops retention no restart can ask for from `plans` before they are
/// written: on a data wire whose receiver is local (its position is in the
/// same file), every message below the receiver's next_seq; on an external
/// output wire, everything (no consumer ever requests a replay).
void drop_dead_retention(
    const core::Runtime& runtime,
    std::map<ComponentId, checkpoint::RestorePlan>& plans) {
  const std::map<WireId, std::uint64_t> cover = cover_from_plans(plans);
  const core::Topology& topology = runtime.topology();
  for (auto& [component, plan] : plans) {
    (void)component;
    const auto prune = [&](checkpoint::ComponentSnapshot& snapshot) {
      for (checkpoint::OutputPosition& out : snapshot.outputs) {
        const core::WireSpec& spec = topology.wire(out.wire);
        if (spec.kind == core::WireKind::kExternalOutput) {
          out.retained.clear();
          continue;
        }
        if (spec.kind != core::WireKind::kData ||
            !runtime.engine_is_local(runtime.engine_of(spec.to)))
          continue;
        const auto below = cover.find(out.wire);
        if (below == cover.end()) continue;
        std::erase_if(out.retained, [&](const Message& m) {
          return m.seq < below->second;
        });
      }
    };
    prune(plan.base);
    for (checkpoint::ComponentSnapshot& delta : plan.deltas) prune(delta);
  }
}

}  // namespace

CheckpointManager::CheckpointManager(core::Runtime& runtime,
                                     const std::string& dir,
                                     DurabilityConfig config,
                                     const DurableCheckpoint* restored)
    : runtime_(runtime),
      config_(std::move(config)),
      writer_(dir, config_.keep_last) {
  // Seed the cover from the checkpoint the runtime booted from, so a
  // restarted node advertises accurate bounds in its very first HELLO.
  if (restored != nullptr) latest_cover_ = cover_from_plans(restored->plans);
}

CheckpointManager::~CheckpointManager() { stop(); }

void CheckpointManager::start() {
  if (config_.interval_ms <= 0 && config_.bytes_trigger == 0) return;
  if (trigger_thread_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lk(trigger_mu_);
    trigger_stop_ = false;
  }
  trigger_thread_ = std::thread([this] {
    set_thread_name("ckpt");
    trigger_loop();
  });
}

void CheckpointManager::stop() {
  {
    const std::lock_guard<std::mutex> lk(trigger_mu_);
    trigger_stop_ = true;
  }
  trigger_cv_.notify_all();
  if (trigger_thread_.joinable()) trigger_thread_.join();
}

void CheckpointManager::trigger_loop() {
  using namespace std::chrono;
  // Poll cadence: the configured interval, or a coarse tick for the
  // bytes-only trigger.
  const auto tick = config_.interval_ms > 0
                        ? milliseconds(config_.interval_ms)
                        : milliseconds(50);
  std::uint64_t bytes_at_last = runtime_.log_bytes_on_disk();
  std::unique_lock<std::mutex> lk(trigger_mu_);
  while (!trigger_stop_) {
    trigger_cv_.wait_for(lk, tick);
    if (trigger_stop_) break;
    bool fire = config_.interval_ms > 0;
    if (!fire && config_.bytes_trigger > 0) {
      const std::uint64_t now_bytes = runtime_.log_bytes_on_disk();
      fire = now_bytes >= bytes_at_last + config_.bytes_trigger;
    }
    if (!fire) continue;
    lk.unlock();
    (void)checkpoint_now();
    bytes_at_last = runtime_.log_bytes_on_disk();
    lk.lock();
  }
}

CheckpointStats CheckpointManager::checkpoint_now() {
  const std::lock_guard<std::mutex> lk(ckpt_mu_);
  CheckpointStats stats;

  // 1. Barrier: force a full soft checkpoint of every live component so
  // the exported plans reflect "now", not the last periodic snapshot.
  if (!runtime_.force_component_checkpoints(
          std::chrono::milliseconds(config_.barrier_timeout_ms))) {
    failures_.fetch_add(1);
    stats.error = "checkpoint barrier timed out";
    return stats;
  }

  // 2. Export the plans and derive per-wire coverage from each consumer's
  // checkpointed input position.
  DurableCheckpoint c;
  c.deployment_fp = config_.deployment_fp;
  c.plans = runtime_.replica().export_plans();
  drop_dead_retention(runtime_, c.plans);
  std::map<WireId, std::uint64_t> covered;
  for (const WireId wire : runtime_.external_input_wires()) {
    const ComponentId consumer = runtime_.topology().wire(wire).to;
    std::uint64_t covered_seq = 0;
    const auto it = c.plans.find(consumer);
    if (it != c.plans.end()) {
      const checkpoint::ComponentSnapshot& last =
          it->second.deltas.empty() ? it->second.base
                                    : it->second.deltas.back();
      for (const auto& in : last.inputs)
        if (in.wire == wire) {
          covered_seq = in.next_seq;
          break;
        }
    }
    covered.emplace(wire, covered_seq);
    c.wires.push_back(WireCover{
        wire, covered_seq,
        runtime_.external_log().vt_below(wire, covered_seq)});
  }
  c.covered_record_index = runtime_.external_log().covered_record_index(covered);

  // 3. Persist. A failed write gates nothing: the log keeps everything.
  std::uint64_t file_bytes = 0;
  {
    TART_PROF_SPAN("ckpt.write");
    file_bytes = writer_.write(c);
  }
  if (file_bytes == 0) {
    failures_.fetch_add(1);
    stats.error = "checkpoint write failed";
    return stats;
  }
  written_.fetch_add(1);
  bytes_.fetch_add(file_bytes);

  // 4. Compact: the file is durable, so everything it covers may go.
  stats.reclaimed_records = runtime_.compact_below(covered);
  stats.ok = true;
  stats.id = c.id;
  stats.bytes = file_bytes;
  stats.covered_records = c.covered_record_index;

  // Publish the fresh cover; peers bound their retention with it.
  std::function<void(const std::map<WireId, std::uint64_t>&)> hook;
  std::map<WireId, std::uint64_t> cover = cover_from_plans(c.plans);
  {
    const std::lock_guard<std::mutex> cover_lk(cover_mu_);
    latest_cover_ = cover;
    hook = on_checkpoint_;
  }
  if (hook) hook(cover);
  return stats;
}

std::map<WireId, std::uint64_t> CheckpointManager::latest_cover() const {
  const std::lock_guard<std::mutex> lk(cover_mu_);
  return latest_cover_;
}

void CheckpointManager::set_on_checkpoint(
    std::function<void(const std::map<WireId, std::uint64_t>&)> fn) {
  const std::lock_guard<std::mutex> lk(cover_mu_);
  on_checkpoint_ = std::move(fn);
}

}  // namespace tart::durability
