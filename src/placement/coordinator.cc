#include "placement/coordinator.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "transport/frame.h"

namespace tart::placement {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Stream ids carry the migration epoch; bit 0 distinguishes the delta.
std::uint64_t bulk_stream_id(std::uint64_t epoch) { return epoch << 1; }
std::uint64_t delta_stream_id(std::uint64_t epoch) { return (epoch << 1) | 1; }

net::PlacementMove move_of(const JournalRecord& r) {
  return net::PlacementMove{r.component.value(), r.to.value(), r.epoch};
}

}  // namespace

MigrationCoordinator::Metrics::Metrics(obs::Registry& registry)
    : started(registry.counter(
          "tart_mig_started_total",
          "Live migrations initiated on this node as source")),
      completed(registry.counter(
          "tart_mig_completed_total",
          "Live migrations that reached cutover (source side)")),
      failed(registry.counter(
          "tart_mig_failed_total",
          "Live migrations aborted or rolled back (source side)")),
      adopted(registry.counter(
          "tart_mig_adopted_total",
          "Components adopted by this node as migration target")),
      evicted(registry.counter(
          "tart_mig_evicted_total",
          "Components evicted from this node after cutover")),
      bytes_sent(registry.counter(
          "tart_mig_bytes_sent_total",
          "Checkpoint-slice bytes shipped to migration targets")),
      bytes_received(registry.counter(
          "tart_mig_bytes_received_total",
          "Checkpoint-slice bytes received as migration target")),
      updates_applied(registry.counter(
          "tart_mig_updates_applied_total",
          "Placement updates applied from peers (re-routes)")),
      recovered_adoptions(registry.counter(
          "tart_mig_recovered_adoptions_total",
          "Adoptions re-applied from the migration journal at boot")) {}

MigrationCoordinator::MigrationCoordinator(
    core::Runtime& runtime, EngineId self,
    std::map<ComponentId, EngineId> initial_placement, Options options,
    Callbacks callbacks)
    : runtime_(runtime),
      self_(self),
      options_(std::move(options)),
      cb_(std::move(callbacks)),
      journal_(options_.journal_dir),
      table_(std::move(initial_placement)),
      metrics_(runtime.registry()),
      receiver_(
          // Completion runs inside on_peer_message with mu_ held.
          [this](const net::StreamOpenBody& open, std::vector<std::byte> blob) {
            auto slice = MigrationSlice::decode(blob);
            if (!slice) return;  // shape mismatch; sender will time out
            const std::uint64_t e = slice->epoch;
            metrics_.bytes_received.inc(blob.size());
            if (journal_.durable()) {
              (void)MigrationJournal::write_slice_file(
                  MigrationJournal::slice_path(options_.journal_dir,
                                               open.stream_id),
                  blob);
            }
            Staged staged{open, std::move(*slice)};
            if (!staged.slice.is_delta) {
              journal_.append({JournalRecordKind::kStaged, e,
                               staged.slice.component, staged.slice.from,
                               staged.slice.to});
              target_stage_ = "staged";
              target_epoch_ = e;
              staged_bulk_[e] = std::move(staged);
              maybe_crash("staged");
            } else {
              staged_delta_[e] = std::move(staged);
            }
          },
          [](const net::StreamOpenBody& open) -> std::string {
            if (open.kind != kSliceBulk && open.kind != kSliceDelta)
              return "unknown migration stream kind";
            return "";
          }) {}

void MigrationCoordinator::maybe_crash(const char* stage) {
  if (!options_.crash_at.empty() && options_.crash_at == stage) _exit(137);
}

bool MigrationCoordinator::journal_or_fail(const JournalRecord& rec,
                                           std::string* error) {
  if (journal_.append(rec)) return true;
  if (error != nullptr)
    *error = std::string("migration journal append failed (") +
             journal_kind_name(rec.kind) + ")";
  return false;
}

// --- Boot --------------------------------------------------------------------

void MigrationCoordinator::recover_from_journal() {
  const JournalRecovery rec = MigrationJournal::recover(options_.journal_dir);
  std::unique_lock<std::mutex> lk(mu_);
  for (const JournalRecord& r : rec.overrides) table_.apply(move_of(r));
  for (const JournalRecord& r : rec.pending_intents)
    pending_intents_[r.component.value()] = r;
  // Staged-but-never-adopted slices are dead weight: the source still owns.
  for (const JournalRecord& r : rec.pending_staged) {
    ::unlink(MigrationJournal::slice_path(options_.journal_dir,
                                          bulk_stream_id(r.epoch))
                 .c_str());
    ::unlink(MigrationJournal::slice_path(options_.journal_dir,
                                          delta_stream_id(r.epoch))
                 .c_str());
  }
  // Re-adopt components this node owns by journal but that the static
  // placement (which the runtime booted from) puts elsewhere. The newest
  // durable checkpoint may already cover the component; otherwise the
  // staged slice file persisted between kStaged and kAdopt fills in.
  for (const JournalRecord& r : rec.adopted) {
    const ComponentId c = r.component;
    if (table_.engine_of(c) != self_) continue;  // later override moved it on
    auto plan = runtime_.export_component_plan(c);
    std::vector<core::Runtime::AdoptedInput> inputs;
    if (!plan) {
      const auto bulk_blob = MigrationJournal::read_slice_file(
          MigrationJournal::slice_path(options_.journal_dir,
                                       bulk_stream_id(r.epoch)));
      const auto delta_blob = MigrationJournal::read_slice_file(
          MigrationJournal::slice_path(options_.journal_dir,
                                       delta_stream_id(r.epoch)));
      std::optional<MigrationSlice> bulk, delta;
      if (bulk_blob) bulk = MigrationSlice::decode(*bulk_blob);
      if (delta_blob) delta = MigrationSlice::decode(*delta_blob);
      if (bulk) {
        inputs = merge_inputs(*bulk, delta ? &*delta : nullptr);
        plan = delta ? delta->plan : bulk->plan;
      }
    }
    std::string err;
    if (runtime_.adopt_component(c, self_, plan, inputs, &err)) {
      metrics_.recovered_adoptions.inc();
      runtime_.apply_placement(c, self_);
      if (cb_.on_ownership_changed) cb_.on_ownership_changed(c, true);
    }
  }
  // Components the static placement put HERE but the journal moved away:
  // the runtime booted them; evict so exactly one owner runs. Remaining
  // drifted entries are routing-only updates.
  for (const auto& [c, eng] : table_.snapshot()) {
    if (eng == self_) continue;
    if (runtime_.component_is_local(c))
      evict_local_locked(c, eng);
    else
      runtime_.apply_placement(c, eng);
  }
}

// --- Source side -------------------------------------------------------------

MigrationResult MigrationCoordinator::migrate(ComponentId component,
                                              EngineId to) {
  MigrationResult res;
  std::unique_lock<std::mutex> lk(mu_);
  if (source_) {
    res.error = "a migration is already in progress on this node";
    return res;
  }
  if (to == self_) {
    res.error = "target engine is the source";
    return res;
  }
  if (table_.engine_of(component) != self_) {
    res.error = "component is not owned by this node";
    return res;
  }
  if (pending_intents_.count(component.value()) != 0) {
    res.error = "a prior migration of this component is unresolved";
    return res;
  }

  const std::uint64_t epoch = table_.epoch() + 1;
  res.epoch = epoch;
  metrics_.started.inc();
  source_.emplace();
  source_->epoch = epoch;
  source_->component = component;
  source_->to = to;
  source_->stage = "prepare";

  const JournalRecord intent{JournalRecordKind::kIntent, epoch, component,
                             self_, to};
  if (!journal_or_fail(intent, &res.error)) {
    source_.reset();
    metrics_.failed.inc();
    return res;
  }
  pending_intents_[component.value()] = intent;
  maybe_crash("prepare");

  const auto fail_before_seal = [&](std::string why) {
    // The component never stopped serving; just tear the attempt down.
    journal_.append({JournalRecordKind::kAbort, epoch, component, self_, to});
    pending_intents_.erase(component.value());
    source_.reset();
    metrics_.failed.inc();
    res.error = std::move(why);
    return res;
  };

  lk.unlock();
  const bool ckpt_ok = runtime_.force_component_checkpoint(
      component, options_.checkpoint_timeout);
  lk.lock();
  if (!ckpt_ok) return fail_before_seal("component checkpoint barrier timed out");

  auto bulk = export_slice(component, to, epoch, /*is_delta=*/false, {},
                           &res.error);
  if (!bulk) return fail_before_seal(res.error);
  std::map<WireId, std::uint64_t> ship_end;
  for (const auto& in : bulk->inputs)
    ship_end[in.wire] = in.base_seq + in.records.size();

  std::vector<std::byte> blob = bulk->encode();
  res.slice_bytes = blob.size();
  res.record_count += bulk->record_count();

  source_->stage = "transfer";
  source_->sender = std::make_unique<net::StreamSender>(
      bulk_stream_id(epoch), kSliceBulk,
      "engine-" + std::to_string(self_.value()), std::move(blob),
      options_.stream);
  const Clock::time_point transfer_t0 = Clock::now();
  pump_sender_locked(lk);
  maybe_crash("transfer");

  const auto deadline = Clock::now() + options_.transfer_timeout;
  const auto wait_sender = [&]() -> bool {  // true = done, false = timeout/fail
    while (!source_->sender->done() && !source_->sender->failed()) {
      if (cv_.wait_until(lk, deadline) == std::cv_status::timeout &&
          !source_->sender->done() && !source_->sender->failed())
        return false;
      pump_sender_locked(lk);
    }
    return source_->sender->done();
  };
  if (!wait_sender()) {
    return fail_before_seal(source_->sender->failed()
                                ? "bulk stream refused: " +
                                      source_->sender->error()
                                : "bulk stream transfer timed out");
  }
  res.transfer_ms = ms_since(transfer_t0);

  // --- Delta round: blackout begins -----------------------------------------
  source_->stage = "delta";
  maybe_crash("delta");
  lk.unlock();
  const bool delta_ckpt_ok = runtime_.force_component_checkpoint(
      component, options_.checkpoint_timeout);
  const Clock::time_point seal_t0 = Clock::now();
  // Seal: stop the runner, drop the input adapters (the gateway starts
  // redirecting new arrivals), flip local routing toward the target.
  std::vector<core::Runtime::SealedOutput> sealed;
  if (delta_ckpt_ok) sealed = runtime_.evict_component(component, to);
  if (cb_.on_ownership_changed) cb_.on_ownership_changed(component, false);
  lk.lock();
  metrics_.evicted.inc();
  table_.apply(net::PlacementMove{component.value(), to.value(), epoch});

  const auto rollback_to_local = [&](std::string why) {
    // Post-seal failure: re-adopt locally (the log and replica never left)
    // under a FRESH epoch so a target that did adopt loses the tie
    // deterministically on reconnect.
    journal_.append({JournalRecordKind::kAbort, epoch, component, self_, to});
    pending_intents_.erase(component.value());
    const std::uint64_t back = table_.epoch() + 1;
    lk.unlock();
    auto plan = runtime_.export_component_plan(component);
    std::string err;
    runtime_.adopt_component(component, self_, plan, {}, &err);
    lk.lock();
    table_.apply(net::PlacementMove{component.value(), self_.value(), back});
    journal_.append(
        {JournalRecordKind::kApplied, back, component, to, self_});
    broadcast_update_locked(back, {net::PlacementMove{component.value(),
                                                      self_.value(), back}});
    source_.reset();
    metrics_.failed.inc();
    res.error = std::move(why);
    lk.unlock();
    if (cb_.on_ownership_changed) cb_.on_ownership_changed(component, true);
    lk.lock();
    return res;
  };
  if (!delta_ckpt_ok)
    return rollback_to_local("seal checkpoint barrier timed out");

  auto delta = export_slice(component, to, epoch, /*is_delta=*/true, ship_end,
                            &res.error);
  if (!delta) return rollback_to_local(res.error);
  std::vector<std::byte> delta_blob = delta->encode();
  res.delta_bytes = delta_blob.size();
  res.record_count += delta->record_count();
  source_->sender = std::make_unique<net::StreamSender>(
      delta_stream_id(epoch), kSliceDelta,
      "engine-" + std::to_string(self_.value()), std::move(delta_blob),
      options_.stream);
  pump_sender_locked(lk);
  if (!wait_sender()) {
    return rollback_to_local(source_->sender->failed()
                                 ? "delta stream refused: " +
                                       source_->sender->error()
                                 : "delta stream transfer timed out");
  }

  // --- Cutover ---------------------------------------------------------------
  source_->stage = "cutover";
  net::PlacementUpdateBody commit;
  commit.placement_epoch = epoch;
  commit.moves = {net::PlacementMove{component.value(), to.value(), epoch}};
  if (cb_.send(to, net::NetMessage{net::NetMsgType::kMigrateCommit,
                                   commit.encode()}))
    source_->commit_sent = true;
  else
    source_->peer_up = false;
  maybe_crash("cutover-commit");
  while (!source_->commit_acked && !source_->commit_refused) {
    // A reconnect clears commit_sent: a commit in flight when the link (or
    // the target) died may never have been processed, and adoption is
    // idempotent on the target, so re-offer it.
    if (!source_->commit_sent && source_->peer_up) {
      source_->commit_sent = cb_.send(
          to, net::NetMessage{net::NetMsgType::kMigrateCommit,
                              commit.encode()});
    }
    if (cv_.wait_until(lk, deadline) == std::cv_status::timeout &&
        !source_->commit_acked && !source_->commit_refused)
      return rollback_to_local("cutover commit timed out");
  }
  if (source_->commit_refused)
    return rollback_to_local("target refused adoption");

  // Target owns. Release, seal wires with final silence, tell the world.
  journal_.append({JournalRecordKind::kRelease, epoch, component, self_, to});
  pending_intents_.erase(component.value());
  for (const auto& s : sealed)
    runtime_.to_receiver(
        s.wire, transport::SilenceFrame{s.wire, s.horizon, s.next_seq});
  broadcast_update_locked(epoch, commit.moves);
  res.blackout_ms = ms_since(seal_t0);
  res.ok = true;
  metrics_.completed.inc();
  source_.reset();
  return res;
}

std::optional<MigrationSlice> MigrationCoordinator::export_slice(
    ComponentId component, EngineId to, std::uint64_t epoch, bool is_delta,
    const std::map<WireId, std::uint64_t>& floor, std::string* error) {
  auto plan = runtime_.export_component_plan(component);
  if (!plan) {
    if (error != nullptr) *error = "no checkpoint to export for component";
    return std::nullopt;
  }
  MigrationSlice s;
  s.epoch = epoch;
  s.component = component;
  s.from = self_;
  s.to = to;
  s.is_delta = is_delta;
  s.plan = std::move(*plan);
  const checkpoint::ComponentSnapshot& newest =
      s.plan.deltas.empty() ? s.plan.base : s.plan.deltas.back();
  const log::ExternalMessageLog& log = runtime_.external_log();
  for (const WireId wire : runtime_.external_inputs_of(component)) {
    WireLogSlice in;
    in.wire = wire;
    if (const auto it = floor.find(wire); it != floor.end()) {
      in.base_seq = it->second;
    } else {
      // Bulk slice: ship everything the plan does not cover.
      in.base_seq = 0;
      for (const auto& pos : newest.inputs)
        if (pos.wire == wire) in.base_seq = pos.next_seq;
    }
    in.base_vt = log.vt_below(wire, in.base_seq);
    in.closed = runtime_.external_input_state(wire).closed;
    in.records = log.replay_from_seq(wire, in.base_seq);
    s.inputs.push_back(std::move(in));
  }
  return s;
}

void MigrationCoordinator::pump_sender_locked(
    std::unique_lock<std::mutex>& lk) {
  (void)lk;
  if (!source_ || !source_->sender || !source_->peer_up) return;
  while (auto m = source_->sender->next_message()) {
    metrics_.bytes_sent.inc(m->payload.size());
    if (!cb_.send(source_->to, std::move(*m))) {
      source_->peer_up = false;
      return;
    }
  }
}

// --- Net-thread entry points -------------------------------------------------

bool MigrationCoordinator::on_peer_message(EngineId from,
                                           const net::NetMessage& msg) {
  std::unique_lock<std::mutex> lk(mu_);
  switch (msg.type) {
    case net::NetMsgType::kStreamOpen: {
      const auto reply = receiver_.on_open(net::StreamOpenBody::decode(msg.payload));
      if (reply) cb_.send(from, *reply);
      return true;
    }
    case net::NetMsgType::kStreamChunk: {
      const auto reply =
          receiver_.on_chunk(net::StreamChunkBody::decode(msg.payload));
      if (reply) cb_.send(from, *reply);
      return true;
    }
    case net::NetMsgType::kStreamClose:
      receiver_.on_close(net::StreamCloseBody::decode(msg.payload));
      return true;
    case net::NetMsgType::kStreamAck: {
      if (source_ && source_->sender) {
        source_->sender->on_ack(net::StreamAckBody::decode(msg.payload));
        pump_sender_locked(lk);
        cv_.notify_all();
      }
      return true;
    }
    case net::NetMsgType::kMigrateCommit:
      handle_commit(from, net::PlacementUpdateBody::decode(msg.payload));
      return true;
    case net::NetMsgType::kMigrateCommitAck: {
      const auto body = net::PlacementUpdateBody::decode(msg.payload);
      if (source_ && body.placement_epoch == source_->epoch) {
        if (body.moves.empty())
          source_->commit_refused = true;
        else
          source_->commit_acked = true;
        cv_.notify_all();
      }
      return true;
    }
    case net::NetMsgType::kPlacementUpdate: {
      const auto body = net::PlacementUpdateBody::decode(msg.payload);
      apply_remote_moves_locked(body.moves, lk);
      return true;
    }
    default:
      return false;
  }
}

void MigrationCoordinator::handle_commit(EngineId from,
                                         const net::PlacementUpdateBody& body) {
  if (body.moves.size() != 1) return;
  const net::PlacementMove move = body.moves[0];
  const std::uint64_t epoch = move.epoch;
  const ComponentId c(move.component);
  net::PlacementUpdateBody ack;
  ack.placement_epoch = epoch;
  const bool already_ours =
      table_.epoch_of(c) >= epoch && table_.engine_of(c) == self_;
  std::string err;
  if (already_ours || adopt_staged(epoch, from, &err)) {
    ack.moves = {move};
    if (!already_ours) {
      target_stage_ = "adopt";
      broadcast_update_locked(epoch, ack.moves);
    }
    maybe_crash("adopt");
  }
  cb_.send(from,
           net::NetMessage{net::NetMsgType::kMigrateCommitAck, ack.encode()});
  target_stage_.clear();
  target_epoch_ = 0;
}

bool MigrationCoordinator::adopt_staged(std::uint64_t epoch, EngineId from,
                                        std::string* error) {
  auto bulk_it = staged_bulk_.find(epoch);
  auto delta_it = staged_delta_.find(epoch);
  std::optional<MigrationSlice> bulk, delta;
  if (bulk_it != staged_bulk_.end()) bulk = std::move(bulk_it->second.slice);
  if (delta_it != staged_delta_.end())
    delta = std::move(delta_it->second.slice);
  if (!bulk && journal_.durable()) {
    // The receiver state died with a restart, but staging was durable.
    if (const auto blob = MigrationJournal::read_slice_file(
            MigrationJournal::slice_path(options_.journal_dir,
                                         bulk_stream_id(epoch))))
      bulk = MigrationSlice::decode(*blob);
    if (const auto blob = MigrationJournal::read_slice_file(
            MigrationJournal::slice_path(options_.journal_dir,
                                         delta_stream_id(epoch))))
      delta = MigrationSlice::decode(*blob);
  }
  if (!bulk) {
    if (error != nullptr) *error = "no staged slice for epoch";
    return false;
  }
  const ComponentId c = bulk->component;
  if (!journal_or_fail({JournalRecordKind::kAdopt, epoch, c, from, self_},
                       error))
    return false;
  const auto inputs = merge_inputs(*bulk, delta ? &*delta : nullptr);
  std::optional<checkpoint::RestorePlan> plan =
      delta ? std::move(delta->plan) : std::move(bulk->plan);
  if (!runtime_.adopt_component(c, self_, plan, inputs, error)) return false;
  table_.apply(net::PlacementMove{c.value(), self_.value(), epoch});
  metrics_.adopted.inc();
  if (bulk_it != staged_bulk_.end()) staged_bulk_.erase(bulk_it);
  if (delta_it != staged_delta_.end()) staged_delta_.erase(delta_it);
  if (cb_.on_ownership_changed) cb_.on_ownership_changed(c, true);
  return true;
}

std::vector<core::Runtime::AdoptedInput> MigrationCoordinator::merge_inputs(
    const MigrationSlice& bulk, const MigrationSlice* delta) {
  std::map<std::uint32_t, core::Runtime::AdoptedInput> by_wire;
  for (const auto& in : bulk.inputs) {
    core::Runtime::AdoptedInput a;
    a.wire = in.wire;
    a.base_seq = in.base_seq;
    a.base_vt = in.base_vt;
    a.closed = in.closed;
    a.records = in.records;
    by_wire[in.wire.value()] = std::move(a);
  }
  if (delta != nullptr) {
    for (const auto& in : delta->inputs) {
      auto it = by_wire.find(in.wire.value());
      if (it == by_wire.end()) {
        core::Runtime::AdoptedInput a;
        a.wire = in.wire;
        a.base_seq = in.base_seq;
        a.base_vt = in.base_vt;
        a.closed = in.closed;
        a.records = in.records;
        by_wire[in.wire.value()] = std::move(a);
        continue;
      }
      core::Runtime::AdoptedInput& a = it->second;
      a.closed = a.closed || in.closed;
      for (const auto& m : in.records) {
        // The delta resumes at the bulk's ship end; tolerate overlap from a
        // retried round by skipping already-carried seqs.
        if (a.records.empty() || m.seq > a.records.back().seq)
          a.records.push_back(m);
      }
    }
  }
  std::vector<core::Runtime::AdoptedInput> out;
  out.reserve(by_wire.size());
  for (auto& [w, a] : by_wire) out.push_back(std::move(a));
  return out;
}

void MigrationCoordinator::on_peer_connected(
    EngineId peer, std::uint64_t epoch,
    const std::vector<net::PlacementMove>& moves) {
  (void)epoch;
  std::unique_lock<std::mutex> lk(mu_);
  apply_remote_moves_locked(moves, lk);
  if (source_ && source_->to == peer) {
    source_->peer_up = true;
    source_->commit_sent = false;  // re-offer a possibly-lost commit
    if (source_->sender) {
      source_->sender->reopen();
      pump_sender_locked(lk);
    }
    cv_.notify_all();
  }
}

void MigrationCoordinator::on_peer_disconnected(EngineId peer) {
  const std::lock_guard<std::mutex> lk(mu_);
  if (source_ && source_->to == peer) {
    source_->peer_up = false;
    cv_.notify_all();
  }
  // Receiver partials are kept: the peer's re-open resumes the stream.
}

void MigrationCoordinator::apply_remote_moves(
    const std::vector<net::PlacementMove>& moves) {
  std::unique_lock<std::mutex> lk(mu_);
  apply_remote_moves_locked(moves, lk);
}

void MigrationCoordinator::apply_remote_moves_locked(
    const std::vector<net::PlacementMove>& moves,
    std::unique_lock<std::mutex>& lk) {
  for (const net::PlacementMove& m : moves) {
    const ComponentId c(m.component);
    const EngineId eng(m.engine);
    // A peer's override at epoch >= an unresolved local intent proves the
    // handoff completed: the in-doubt source releases. This must run BEFORE
    // the table staleness check — the source flipped its own table at the
    // seal, so the target's override arrives epoch-equal ("stale") yet is
    // still the proof of adoption.
    bool resolved_intent = false;
    if (const auto it = pending_intents_.find(m.component);
        it != pending_intents_.end() && m.epoch >= it->second.epoch &&
        eng != self_) {
      journal_.append(
          {JournalRecordKind::kRelease, m.epoch, c, self_, eng});
      pending_intents_.erase(it);
      resolved_intent = true;
      // The override IS proof of adoption — stronger than the commit ack.
      // Wake an in-flight migrate() whose ack the target's crash (or a
      // dropped link) swallowed, so it completes instead of timing out and
      // wrongly re-adopting a component the target already owns.
      if (source_ && source_->component == c && source_->to == eng &&
          m.epoch >= source_->epoch) {
        source_->commit_acked = true;
        cv_.notify_all();
      }
    }
    const bool was_local = table_.engine_of(c) == self_;
    if (!table_.apply(m)) continue;  // stale epoch
    metrics_.updates_applied.inc();
    if (!resolved_intent)
      journal_.append({JournalRecordKind::kApplied, m.epoch, c,
                       EngineId::invalid(), eng});
    if (eng != self_ && was_local) {
      evict_local_locked(c, eng);
    } else if (eng == self_ && !was_local) {
      // Named owner without a migration slice (journal lost, or an
      // operator-forced move): adopt from whatever the local replica and
      // log hold — recovery semantics rebuild the state.
      lk.unlock();
      auto plan = runtime_.export_component_plan(c);
      std::string err;
      const bool ok = runtime_.adopt_component(c, self_, plan, {}, &err);
      if (ok && cb_.on_ownership_changed) cb_.on_ownership_changed(c, true);
      lk.lock();
      if (ok) metrics_.recovered_adoptions.inc();
    } else {
      runtime_.apply_placement(c, eng);
    }
  }
}

void MigrationCoordinator::evict_local_locked(ComponentId c,
                                              EngineId new_owner) {
  const auto sealed = runtime_.evict_component(c, new_owner);
  for (const auto& s : sealed)
    runtime_.to_receiver(
        s.wire, transport::SilenceFrame{s.wire, s.horizon, s.next_seq});
  metrics_.evicted.inc();
  if (cb_.on_ownership_changed) cb_.on_ownership_changed(c, false);
}

void MigrationCoordinator::broadcast_update_locked(
    std::uint64_t epoch, const std::vector<net::PlacementMove>& moves) {
  if (!cb_.broadcast) return;
  net::PlacementUpdateBody body;
  body.placement_epoch = epoch;
  body.moves = moves;
  cb_.broadcast(
      net::NetMessage{net::NetMsgType::kPlacementUpdate, body.encode()});
}

// --- Introspection -----------------------------------------------------------

std::uint64_t MigrationCoordinator::epoch() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return table_.epoch();
}

std::vector<net::PlacementMove> MigrationCoordinator::overrides() const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::vector<net::PlacementMove> out = table_.overrides();
  // Ownership is decided at release, not at the local routing flip. A move
  // whose intent is still unresolved must not leak into HELLOs: a target
  // that restarted mid-transfer (staged slice discarded) would otherwise
  // adopt from its EMPTY replica on reconnect and then ack the commit via
  // the already-ours shortcut — silently losing the component's state.
  std::erase_if(out, [this](const net::PlacementMove& m) {
    const auto it = pending_intents_.find(m.component);
    return it != pending_intents_.end() && it->second.epoch <= m.epoch &&
           it->second.to.value() == m.engine;
  });
  return out;
}

EngineId MigrationCoordinator::engine_of(ComponentId c) const {
  const std::lock_guard<std::mutex> lk(mu_);
  return table_.engine_of(c);
}

std::map<ComponentId, EngineId> MigrationCoordinator::placement_snapshot()
    const {
  const std::lock_guard<std::mutex> lk(mu_);
  return table_.snapshot();
}

std::vector<MigrationInfo> MigrationCoordinator::inflight() const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::vector<MigrationInfo> out;
  if (source_) {
    out.push_back(MigrationInfo{source_->epoch, source_->component, self_,
                                source_->to, source_->stage});
  }
  if (!target_stage_.empty() && target_epoch_ != 0) {
    if (const auto it = staged_bulk_.find(target_epoch_);
        it != staged_bulk_.end()) {
      out.push_back(MigrationInfo{target_epoch_, it->second.slice.component,
                                  it->second.slice.from, self_,
                                  target_stage_});
    }
  }
  return out;
}

std::size_t MigrationCoordinator::pending_intents() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return pending_intents_.size();
}

void MigrationCoordinator::on_durable_checkpoint() {
  const std::lock_guard<std::mutex> lk(mu_);
  if (!journal_.durable()) return;
  // Slice files for epochs at or below the table's epoch are superseded by
  // the checkpoint that just landed; in-flight stagings use higher epochs.
  MigrationJournal::remove_slice_files(options_.journal_dir,
                                       bulk_stream_id(table_.epoch() + 1));
}

}  // namespace tart::placement
