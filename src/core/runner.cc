#include "core/runner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <set>

#include "common/logging.h"
#include "obs/prof.h"

namespace tart::core {

namespace {
using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
}  // namespace

// ---------------------------------------------------------------------------
// Handler context

class RunnerContext final : public Context {
 public:
  RunnerContext(ComponentRunner& runner, VirtualTime dequeue_vt,
                TickDuration prescient_charge)
      : runner_(runner),
        dequeue_vt_(dequeue_vt),
        cursor_(dequeue_vt),
        prescient_charge_(prescient_charge) {}

  [[nodiscard]] VirtualTime now() const override { return cursor_; }

  void count_block(std::size_t block, std::uint64_t n) override {
    counters_.count(block, n);
  }

  void send(PortId port, Payload payload) override {
    send_impl(port, std::nullopt, std::move(payload));
  }

  void send_delayed(PortId port, TickDuration delay,
                    Payload payload) override {
    send_impl(port, std::max(delay, TickDuration(1)), std::move(payload));
  }

  void send_impl(PortId port, std::optional<TickDuration> delay,
                 Payload payload) {
    advance_cursor();
    bool any = false;
    for (auto& [wid, out] : runner_.outputs_) {
      if (out->spec.from_port != port) continue;
      if (out->spec.kind == WireKind::kCall) continue;  // calls use call()
      runner_.emit(*out, cursor_, MessageKind::kData, 0, payload, delay);
      any = true;
    }
    if (!any)
      throw std::logic_error("send on unconnected port " +
                             std::to_string(port.value()) + " of " +
                             runner_.name_);
  }

  [[nodiscard]] Payload call(PortId port, Payload payload) override {
    advance_cursor();
    ComponentRunner::OutputState* call_out = nullptr;
    for (auto& [wid, out] : runner_.outputs_) {
      if (out->spec.from_port == port &&
          out->spec.kind == WireKind::kCall) {
        call_out = out.get();
        break;
      }
    }
    if (call_out == nullptr)
      throw std::logic_error("call on unconnected port " +
                             std::to_string(port.value()) + " of " +
                             runner_.name_);
    const WireId reply_wire = call_out->spec.paired;
    const std::uint64_t call_id = call_out->next_seq.load();  // deterministic

    {
      // Arm the rendezvous before routing, so a fast reply can't race past.
      const std::lock_guard<std::mutex> lk(runner_.reply_mu_);
      runner_.pending_reply_.reset();
      runner_.awaited_call_id_ = call_id;
      runner_.awaited_reply_wire_ = reply_wire;
    }
    runner_.emit(*call_out, cursor_, MessageKind::kCall, call_id,
                 std::move(payload));

    std::unique_lock<std::mutex> lk(runner_.reply_mu_);
    runner_.reply_cv_.wait(lk, [this] {
      return runner_.pending_reply_.has_value() || runner_.stop_.load();
    });
    if (!runner_.pending_reply_)
      throw ComponentRunner::StopSignal{};
    Message reply = std::move(*runner_.pending_reply_);
    runner_.pending_reply_.reset();
    // Record the consumed reply position under the rendezvous lock so a
    // concurrently arriving duplicate is classified correctly.
    runner_.last_reply_[reply_wire] = reply.vt;
    lk.unlock();

    // Resume at the reply's virtual arrival time.
    cursor_ = max(cursor_, reply.vt);
    return reply.payload;
  }

  [[nodiscard]] const estimator::BlockCounters& counters() const {
    return counters_;
  }
  [[nodiscard]] VirtualTime cursor() const { return cursor_; }
  [[nodiscard]] VirtualTime dequeue_vt() const { return dequeue_vt_; }
  [[nodiscard]] TickDuration prescient_charge() const {
    return prescient_charge_;
  }

  /// Moves the cursor to dequeue_vt + current estimator charge (monotone).
  void advance_cursor() {
    const TickDuration charge =
        runner_.charge_for(counters_, dequeue_vt_, prescient_charge_);
    cursor_ = max(cursor_, dequeue_vt_ + charge);
  }

 private:
  ComponentRunner& runner_;
  VirtualTime dequeue_vt_;
  VirtualTime cursor_;
  TickDuration prescient_charge_;
  estimator::BlockCounters counters_;
};

// ---------------------------------------------------------------------------
// Construction / wiring

ComponentRunner::ComponentRunner(const Topology& topology, ComponentId id,
                                 const RuntimeConfig& config,
                                 FrameRouter& router,
                                 log::DeterminismFaultLog& fault_log,
                                 checkpoint::ReplicaStore& replica,
                                 obs::Registry& registry,
                                 trace::TraceRecorder* tracer)
    : topology_(topology),
      id_(id),
      name_(topology.component(id).name),
      config_(config),
      router_(router),
      replica_(replica),
      registry_(registry),
      tracer_(tracer),
      bias_([&] {
        const auto it = config.bias.find(id);
        return estimator::BiasPolicy(
            it == config.bias.end() ? TickDuration(0) : it->second);
      }()),
      component_(topology.component(id).factory()),
      estimators_(id, topology.component(id).estimator_factory(),
                  config.calibration ? &fault_log : nullptr,
                  config.calibrator),
      metrics_(registry, topology.component(id).name) {
  inbox_.set_trace(tracer_, id_);
  for (const WireId w : topology.inputs_of(id)) {
    inbox_.add_wire(w);
    input_pos_.emplace(w, InputPos{});
    input_wires_.push_back(w);
    (topology.wire(w).from == id ? self_wires_ : nonself_wires_)
        .push_back(w);
    // Receiver-side bias: if the sending component follows the
    // hyper-aggressive discipline, its data may only occupy ticks on the
    // (bias+1) grid; the ticks between are silent by construction.
    const auto& spec = topology.wire(w);
    if (spec.from.is_valid()) {
      const auto bias_it = config.bias.find(spec.from);
      if (bias_it != config.bias.end() &&
          bias_it->second > TickDuration(0)) {
        inbox_.set_data_grid(w, bias_it->second.ticks() + 1);
      }
    }
  }
  for (const WireId w : topology.outputs_of(id)) {
    auto out = std::make_unique<OutputState>();
    out->spec = topology.wire(w);
    const auto it = config.comm_delay.find(w);
    out->delay = (it != config.comm_delay.end())
                     ? it->second()
                     : std::make_unique<estimator::LocalDelayEstimator>();
    outputs_.emplace(w, std::move(out));
  }
  // Reply wires feeding *into* this component (we are the caller).
  for (const auto& spec : topology.wires()) {
    if (spec.kind == WireKind::kReply && spec.to == id)
      last_reply_.emplace(spec.id, VirtualTime(-1));
  }
  // Telemetry: registered eagerly so the labelled families exist (at zero)
  // from the first scrape, not only after the first stall.
  for (const WireId w : input_wires_) {
    const auto& spec = topology.wire(w);
    const std::string sender = spec.from.is_valid()
                                   ? topology.component(spec.from).name
                                   : "external";
    const obs::Labels labels{{"component", name_},
                             {"sender", sender},
                             {"wire", "w" + std::to_string(w.value())}};
    obs::Histogram& sh = registry.histogram(
        "tart_pessimism_stall_seconds",
        "Pessimism-stall episode duration, attributed to the input "
        "wire whose silence horizon lagged the held message",
        labels, 100e-6, 256);
    // Exemplars link a bucket back to concrete episode ids the flight
    // recorder knows about (`tart-trace explain --episode`).
    sh.enable_exemplars(4);
    stall_hist_.emplace(w, &sh);
    probe_rtt_hist_.emplace(
        w, &registry.histogram(
               "tart_probe_rtt_seconds",
               "Curiosity-probe to silence-response round trip", labels,
               20e-6, 256));
  }
  est_err_hist_ = &registry.histogram(
      "tart_estimator_error_seconds",
      "Absolute error between the estimator's virtual-time charge and the "
      "measured handler time",
      obs::Labels{{"component", name_}}, 1e-6, 256);
  ingress_queue_hist_ = &registry.histogram(
      "tart_lineage_ingress_queue_seconds",
      "Edge arrival to first handler dispatch of an external input "
      "(the ingress-queueing stage of the lineage decomposition)",
      obs::Labels{{"component", name_}}, 50e-6, 256);
}

ComponentRunner::~ComponentRunner() { stop(); }

void ComponentRunner::start() {
  assert(!thread_.joinable());
  stop_ = false;
  thread_ = std::thread([this] { run(); });
}

void ComponentRunner::stop() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    if (stop_.load() && !thread_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  reply_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

// ---------------------------------------------------------------------------
// Frame entry points

void ComponentRunner::deliver_data(const Message& m) {
  AcceptResult result = AcceptResult::kAccepted;
  VirtualTime gap_after;
  std::uint64_t gap_seq = 0;
  bool dup_call = false;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    if (m.vt <= max_arrival_vt_) metrics_.out_of_order_arrivals.inc();
    max_arrival_vt_ = max(max_arrival_vt_, m.vt);

    if (config_.mode == SchedulingMode::kArrivalOrder) {
      arrival_queue_.push_back(m);
    } else {
      result = inbox_.offer(m);
      switch (result) {
        case AcceptResult::kAccepted:
          break;
        case AcceptResult::kDuplicate:
          metrics_.duplicates_discarded.inc();
          // A re-sent call means the caller recovered and re-executed: the
          // retained reply must be re-sent (the original may have died with
          // the caller's engine).
          if (m.kind == MessageKind::kCall) {
            control_.push_back(DupCallCtl{m.wire, m.call_id});
            dup_call = true;
          }
          break;
        case AcceptResult::kGap:
          metrics_.gaps_detected.inc();
          gap_after = inbox_.wire_horizon(m.wire);
          gap_seq = inbox_.next_seq(m.wire);
          break;
      }
    }
  }
  cv_.notify_all();
  (void)dup_call;
  if (result == AcceptResult::kGap) {
    router_.to_sender(
        m.wire, transport::ReplayRequestFrame{m.wire, gap_after, gap_seq});
  }
}

void ComponentRunner::deliver_silence(WireId wire, VirtualTime through,
                                      std::uint64_t expected_seq) {
  bool gap = false;
  std::uint64_t from_seq = 0;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    // Reply wires bypass the inbox (the blocked caller is the only
    // consumer); silence on them carries no scheduling information.
    if (!inbox_.has_wire(wire)) return;
    // A silence frame on a probed wire IS the probe response; close the
    // round-trip measurement.
    if (const auto pit = probe_sent_ns_.find(wire);
        pit != probe_sent_ns_.end()) {
      const auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now().time_since_epoch())
                              .count();
      if (const auto hit = probe_rtt_hist_.find(wire);
          hit != probe_rtt_hist_.end())
        hit->second->record(static_cast<double>(now_ns - pit->second) * 1e-9);
      probe_sent_ns_.erase(pit);
    }
    if (config_.mode == SchedulingMode::kDeterministic) {
      gap = inbox_.announce_silence(wire, through, expected_seq);
      from_seq = inbox_.next_seq(wire);
    } else if (through.is_infinite()) {
      // Arrival-order baseline: only close tracking, no tick accounting.
      (void)inbox_.announce_silence(wire, through, 0);
    }
  }
  cv_.notify_all();
  if (gap) {
    // The announcement accounted data ticks we never received (lost while
    // this engine was down, or on a raw link): fetch them.
    metrics_.gaps_detected.inc();
    router_.to_sender(wire, transport::ReplayRequestFrame{
                                wire, VirtualTime(-1), from_seq});
  }
}

void ComponentRunner::deliver_reply(const Message& m) {
  {
    const std::lock_guard<std::mutex> lk(reply_mu_);
    const auto it = last_reply_.find(m.wire);
    const VirtualTime seen =
        it == last_reply_.end() ? VirtualTime(-1) : it->second;
    if (m.vt > seen && m.wire == awaited_reply_wire_ &&
        m.call_id == awaited_call_id_ && !pending_reply_) {
      pending_reply_ = m;
    } else {
      // Duplicate of an already-consumed reply (re-sent after a callee
      // failover, or in answer to a re-executed call we no longer await).
      metrics_.duplicates_discarded.inc();
      if (tracer_ != nullptr)
        tracer_->record(id_, trace::TraceEventKind::kDuplicateDiscard, m.vt,
                        m.wire, m.call_id, trace::hash_of(m.payload));
    }
  }
  reply_cv_.notify_all();
}

void ComponentRunner::handle_probe(WireId wire) {
  const auto it = outputs_.find(wire);
  if (it == outputs_.end()) return;
  // Read the data count before the horizon: a count that lags the horizon
  // can only under-report (no false gaps), and probes repeat.
  const std::uint64_t seq = it->second->next_seq.load();
  const VirtualTime horizon(it->second->published.load());
  it->second->probe_pending.store(true);
  router_.to_receiver(wire, transport::SilenceFrame{wire, horizon, seq});

  // Transitive curiosity: this component's own silence horizon is bounded
  // by what its inputs have promised, so "computing a new silence
  // interval" (§II.H) means refreshing those promises too — in particular
  // an external adapter's real-time-anchored silence. Rate-limited so
  // probe chains in deep or cyclic topologies cannot storm.
  const auto now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count();
  std::int64_t last = last_transitive_probe_ns_.load();
  const std::int64_t interval_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          config_.silence.probe_interval)
          .count();
  if (now_ns - last < interval_ns / 2) return;
  if (!last_transitive_probe_ns_.compare_exchange_strong(last, now_ns))
    return;
  for (const WireId in_wire : input_wires_)
    router_.to_sender(in_wire, transport::ProbeFrame{in_wire});
}

void ComponentRunner::enqueue_control(ControlMsg msg) {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    control_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Main loop

void ComponentRunner::run() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    publish_idle_horizons_locked();
  }
  std::unique_lock<std::mutex> lk(mu_);
  bool head_was_delayed = false;  // identity of the currently blocked head
  VirtualTime delayed_vt;
  WireId delayed_wire;
  Clock::time_point stall_start{};
  // Every wire observed lagging during the current stall episode; the
  // episode's duration is attributed to each of them on release.
  std::set<WireId> stall_blockers;

  try {
    while (!stop_.load()) {
      // Control work first: replay/stability/dup-call touch runner-private
      // state, so they run here, between handler invocations.
      drain_control(lk);
      if (stop_.load()) break;

      if (config_.mode == SchedulingMode::kArrivalOrder) {
        if (!arrival_queue_.empty()) {
          Message m = std::move(arrival_queue_.front());
          arrival_queue_.pop_front();
          in_handler_ = true;
          lk.unlock();
          process(m);
          lk.lock();
          in_handler_ = false;
          continue;
        }
        if (inbox_.exhausted() && !final_silence_sent_) {
          lk.unlock();
          publish_final_silence();
          lk.lock();
        }
        cv_.wait_for(lk, std::chrono::milliseconds(1));
        continue;
      }

      if (auto m = inbox_.pop()) {
        if (head_was_delayed) {
          const std::int64_t stall_ns = ns_between(stall_start, Clock::now());
          // The blocking wire: when the held head itself released, the last
          // wire still observed lagging; when an earlier arrival displaced
          // the head, the displacer's wire (its data unblocked the pop).
          const bool displaced =
              m->vt != delayed_vt || m->wire != delayed_wire;
          WireId blocking = delayed_wire;
          if (displaced) {
            blocking = m->wire;
          } else if (!stall_last_lagging_.empty()) {
            blocking = *std::min_element(stall_last_lagging_.begin(),
                                         stall_last_lagging_.end());
          }
          if (tracer_ != nullptr) {
            tracer_->record(id_, trace::TraceEventKind::kStallEnd, m->vt,
                            m->wire, static_cast<std::uint64_t>(stall_ns));
            const auto hb = stall_h_begin_.find(blocking);
            const VirtualTime h_begin = hb != stall_h_begin_.end()
                                            ? VirtualTime(hb->second)
                                            : VirtualTime(-1);
            tracer_->record(id_, trace::TraceEventKind::kStallResolved,
                            delayed_vt, blocking, stall_episode_id_,
                            static_cast<std::uint64_t>(stall_ns));
            tracer_->record(id_, trace::TraceEventKind::kStallBlame, h_begin,
                            blocking, stall_episode_id_,
                            static_cast<std::uint64_t>(stall_begin_wall_ns_));
          }
          const double stall_s = static_cast<double>(stall_ns) * 1e-9;
          for (const WireId w : stall_blockers)
            if (const auto hit = stall_hist_.find(w); hit != stall_hist_.end())
              hit->second->record(
                  stall_s, obs::Exemplar{stall_s, stall_episode_id_,
                                         id_.value(), w.value()});
          stall_blockers.clear();
        }
        head_was_delayed = false;
        in_handler_ = true;
        lk.unlock();
        process(*m);
        lk.lock();
        in_handler_ = false;
        continue;
      }

      if (inbox_.pending() > 0) {
        // Pessimism delay: the earliest message is held until the other
        // senders promise silence through its virtual time (§II.E).
        // Refresh our own horizons first — input horizons may have
        // advanced, and self (timer) wires take their silence from here.
        publish_idle_horizons_locked();
        if (inbox_.head_eligible()) continue;
        const auto head = inbox_.peek();
        if (!head_was_delayed || head->vt != delayed_vt ||
            head->wire != delayed_wire) {
          metrics_.pessimism_events.inc();
          head_was_delayed = true;
          delayed_vt = head->vt;
          delayed_wire = head->wire;
          stall_start = Clock::now();
          stall_blockers.clear();
          // New episode: mint an id and photograph the input horizons, so
          // the release path can report how far the blocking wire was from
          // covering the held vt when the episode began (kStallBlame).
          stall_episode_id_ = stall_episode_seq_++;
          stall_begin_wall_ns_ =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  stall_start.time_since_epoch())
                  .count();
          stall_h_begin_.clear();
          stall_last_lagging_.clear();
          for (const WireId w : input_wires_)
            stall_h_begin_[w] = inbox_.wire_horizon(w).ticks();
          // aux/payload carry the episode id and begin wall stamp (same
          // clock as kStallBlame): if the stream ends before the resolve,
          // forensics can still report the episode as open instead of
          // silently dropping its accumulated stall time.
          if (tracer_ != nullptr)
            tracer_->record(id_, trace::TraceEventKind::kStallBegin,
                            head->vt, head->wire, stall_episode_id_,
                            static_cast<std::uint64_t>(stall_begin_wall_ns_));
        }
        const auto lagging = inbox_.lagging_wires();
        stall_blockers.insert(lagging.begin(), lagging.end());
        if (!lagging.empty()) stall_last_lagging_ = lagging;
        const auto t0 = Clock::now();
        if (config_.silence.curiosity) {
          const auto t0_ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  t0.time_since_epoch())
                  .count();
          // Stamp under mu_ so deliver_silence can match the response;
          // an already-outstanding stamp keeps its original send time.
          for (const WireId w : lagging) probe_sent_ns_.try_emplace(w, t0_ns);
          lk.unlock();
          for (const WireId w : lagging) {
            metrics_.probes_sent.inc();
            if (tracer_ != nullptr)
              tracer_->record(id_, trace::TraceEventKind::kCuriosityProbe,
                              delayed_vt, w);
            router_.to_sender(w, transport::ProbeFrame{w});
          }
          lk.lock();
          if (stop_.load()) break;
          // Re-check: probe responses may already have landed.
          if (inbox_.head_eligible()) {
            metrics_.pessimism_wait_ns.inc(
                static_cast<std::uint64_t>(ns_between(t0, Clock::now())));
            continue;
          }
        }
        cv_.wait_for(lk, config_.silence.probe_interval);
        metrics_.pessimism_wait_ns.inc(
            static_cast<std::uint64_t>(ns_between(t0, Clock::now())));
        continue;
      }

      if (inbox_.exhausted()) {
        if (!final_silence_sent_) {
          lk.unlock();
          publish_final_silence();
          lk.lock();
        }
        cv_.wait_for(lk, std::chrono::milliseconds(5));
        continue;
      }

      // Timer (self-loop) wires: once every non-self input is closed and
      // nothing is pending anywhere, no handler can ever run again, so no
      // further timer can be scheduled — the self wires close themselves
      // (breaking the otherwise-circular wait for our own silence).
      if (!self_wires_.empty() && inbox_.pending() == 0) {
        bool others_closed = true;
        for (const WireId w : nonself_wires_)
          if (!inbox_.wire_horizon(w).is_infinite()) others_closed = false;
        if (others_closed) {
          for (const WireId w : self_wires_)
            (void)inbox_.announce_silence(w, VirtualTime::infinity(),
                                          inbox_.next_seq(w));
          continue;
        }
      }

      // Idle: nothing pending. Refresh horizons (the inbox lower bound may
      // have advanced via silence), satisfy any outstanding probe
      // interest, and wait for work.
      publish_idle_horizons_locked();
      lk.unlock();
      flush_probe_responses();
      lk.lock();
      if (stop_.load()) break;
      cv_.wait_for(lk, std::chrono::milliseconds(1));
    }
  } catch (const StopSignal&) {
    // Blocked call interrupted by stop/crash; thread exits, state dropped.
    if (!lk.owns_lock()) lk.lock();
    in_handler_ = false;
  } catch (const std::exception& e) {
    // A component bug (bad payload access, send on an unconnected port,
    // handler exception): the component fail-stops — equivalent to its
    // engine losing this component — rather than taking the process down.
    TART_ERROR << "component '" << name_ << "' failed: " << e.what();
    if (!lk.owns_lock()) lk.lock();
    in_handler_ = false;
  }
}

void ComponentRunner::drain_control(std::unique_lock<std::mutex>& lk) {
  while (!control_.empty()) {
    ControlMsg msg = std::move(control_.front());
    control_.pop_front();
    lk.unlock();
    serve_control(msg);
    lk.lock();
  }
}

void ComponentRunner::serve_control(const ControlMsg& msg) {
  if (const auto* replay = std::get_if<ReplayRequestCtl>(&msg)) {
    const auto it = outputs_.find(replay->wire);
    if (it == outputs_.end()) return;
    OutputState& out = *it->second;
    for (Message& m : out.retention.replay_from_seq(replay->from_seq))
      router_.to_receiver(replay->wire, transport::DataFrame{std::move(m)});
    // Follow with the current horizon so the receiver is not stuck waiting
    // for silence that was announced before its failover.
    const std::uint64_t seq = out.next_seq.load();
    router_.to_receiver(
        replay->wire,
        transport::SilenceFrame{replay->wire,
                                VirtualTime(out.published.load()), seq});
  } else if (const auto* stability = std::get_if<StabilityCtl>(&msg)) {
    const auto it = outputs_.find(stability->wire);
    if (it == outputs_.end()) return;
    it->second->retention.acknowledge_through(stability->through);
  } else if (const auto* dup = std::get_if<DupCallCtl>(&msg)) {
    // Re-send the retained reply for a duplicate (re-executed) call.
    const auto& call_spec = topology_.wire(dup->call_wire);
    const auto it = outputs_.find(call_spec.paired);
    if (it == outputs_.end()) return;
    if (const auto reply = it->second->retention.find_by_call_id(
            dup->call_id)) {
      router_.to_receiver(reply->wire, transport::DataFrame{*reply});
    }
  } else if (std::holds_alternative<CheckpointNowCtl>(msg)) {
    force_full_checkpoint_ = true;
    capture_checkpoint();
    processed_since_checkpoint_ = 0;
  } else if (const auto* trim = std::get_if<RetentionTrimCtl>(&msg)) {
    const auto it = outputs_.find(trim->wire);
    if (it != outputs_.end()) {
      const std::size_t dropped =
          it->second->retention.trim_below_seq(trim->below_seq);
      if (trim->trimmed != nullptr && dropped > 0)
        trim->trimmed->fetch_add(dropped, std::memory_order_relaxed);
    }
  }
}

// ---------------------------------------------------------------------------
// Message processing

void ComponentRunner::process(const Message& m) {
  const auto& spec = topology_.wire(m.wire);
  const VirtualTime dequeue_vt =
      max(m.vt, current_vt_.load(std::memory_order_relaxed));
  // The dispatch record IS the scheduling decision: replaying the same log
  // must reproduce this stream exactly (§II.D), which the trace differ
  // checks.
  if (tracer_ != nullptr)
    tracer_->record(id_, trace::TraceEventKind::kDispatch, m.vt, m.wire,
                    m.seq, trace::hash_of(m.payload));

  // Request lineage: descendants emitted during this dispatch inherit the
  // message's origin input; the wall-stamped hop events bracket the
  // handler so the offline decomposition can charge queueing vs
  // processing (lineage category — absent from the scheduling stream).
  current_origin_wire_ = m.origin_wire;
  current_origin_seq_ = m.origin_seq;
  current_origin_wall_ns_ = m.origin_wall_ns;
  const bool record_hops =
      tracer_ != nullptr &&
      tracer_->wants(trace::TraceEventKind::kHopDispatch);
  if (record_hops)
    tracer_->record(id_, trace::TraceEventKind::kHopDispatch, m.vt, m.wire,
                    m.seq,
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now().time_since_epoch())
                            .count()));
  // Ingress queueing (live view): edge arrival to this first dispatch,
  // only when this IS the origin input's own hop.
  if (m.origin_wall_ns > 0 && m.wire == m.origin_wire &&
      m.seq == m.origin_seq && ingress_queue_hist_ != nullptr) {
    const std::int64_t q_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count() -
        m.origin_wall_ns;
    if (q_ns >= 0)
      ingress_queue_hist_->record(static_cast<double>(q_ns) * 1e-9);
  }

  TickDuration prescient_charge(0);
  if (config_.mode == SchedulingMode::kDeterministic) {
    if (const auto pc =
            component_->prescient_counters(spec.to_port, m.payload)) {
      prescient_charge = charge_for(*pc, dequeue_vt, TickDuration(0));
      publish_busy_horizons(dequeue_vt + prescient_charge);
    } else {
      publish_busy_horizons(dequeue_vt +
                            estimators_.min_estimate(dequeue_vt));
    }
  }

  RunnerContext ctx(*this, dequeue_vt, prescient_charge);
  const auto t0 = Clock::now();
  Payload reply;
  const bool is_call = m.kind == MessageKind::kCall;
  if (is_call) {
    reply = component_->on_call(ctx, spec.to_port, m.payload);
    metrics_.calls_served.inc();
  } else {
    component_->on_message(ctx, spec.to_port, m.payload);
  }
  const auto elapsed_ns = ns_between(t0, Clock::now());
  // Reuses the two clock reads the estimator already pays for.
  TART_PROF_SPAN_NS("runner.dispatch", elapsed_ns);

  if (config_.mode == SchedulingMode::kDeterministic) {
    // Estimator accuracy: the charge that moved the cursor vs. the wall
    // time the handler actually took (1 tick = 1 virtual ns). Pure
    // observation — the cursor has already advanced by the charge.
    const std::int64_t charged_ns =
        charge_for(ctx.counters(), dequeue_vt, prescient_charge).ticks();
    const std::int64_t err_ns = elapsed_ns - charged_ns;
    if (err_ns > 0) metrics_.estimator_underestimates.inc();
    if (est_err_hist_ != nullptr)
      est_err_hist_->record(
          static_cast<double>(err_ns < 0 ? -err_ns : err_ns) * 1e-9);
  }

  ctx.advance_cursor();
  VirtualTime cursor = ctx.cursor();

  if (is_call) {
    OutputState& reply_out = *outputs_.at(spec.paired);
    const VirtualTime reply_vt =
        emit(reply_out, cursor, MessageKind::kReply, m.call_id,
             std::move(reply));
    (void)reply_vt;
  }

  if (record_hops)
    tracer_->record(id_, trace::TraceEventKind::kHopDone, m.vt, m.wire,
                    m.seq,
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now().time_since_epoch())
                            .count()));
  current_origin_wire_ = WireId::invalid();
  current_origin_seq_ = 0;
  current_origin_wall_ns_ = 0;

  current_vt_.store(cursor, std::memory_order_release);
  input_pos_[m.wire] = InputPos{m.vt, m.seq + 1};
  metrics_.messages_processed.inc();
  ++processed_since_checkpoint_;

  if (config_.calibration) {
    estimators_.add_sample(ctx.counters(),
                           static_cast<double>(elapsed_ns), cursor);
  }

  maybe_checkpoint();

  {
    std::unique_lock<std::mutex> lk(mu_);
    publish_idle_horizons_locked();
  }
  flush_probe_responses();
}

TickDuration ComponentRunner::charge_for(const estimator::BlockCounters& c,
                                         VirtualTime dequeue_vt,
                                         TickDuration floor) const {
  TickDuration charge = estimators_.estimate(c, dequeue_vt);
  charge = std::max(charge, estimators_.min_estimate(dequeue_vt));
  charge = std::max(charge, floor);
  return std::max(charge, TickDuration(1));
}

VirtualTime ComponentRunner::emit(OutputState& out, VirtualTime cursor,
                                  MessageKind kind, std::uint64_t call_id,
                                  Payload payload,
                                  std::optional<TickDuration> explicit_delay) {
  // An explicit delay must still respect the wire's promised silence floor
  // (its minimum delay), or a horizon computed before this send could
  // cover the chosen tick.
  VirtualTime vt =
      cursor + (explicit_delay
                    ? std::max(*explicit_delay, out.delay->min_delay())
                    : out.delay->delay(cursor));
  vt = bias_.adjust(vt);
  if (vt <= out.last_sent) vt = out.last_sent.next();

  Message msg;
  msg.wire = out.spec.id;
  msg.vt = vt;
  msg.seq = out.next_seq.load(std::memory_order_relaxed);
  msg.kind = kind;
  msg.call_id = call_id;
  // Causal inheritance: whatever input triggered the dispatch we are
  // inside (invalid outside a dispatch, e.g. probe machinery) stamps its
  // identity onto the descendant.
  msg.origin_wire = current_origin_wire_;
  msg.origin_seq = current_origin_seq_;
  msg.origin_wall_ns = current_origin_wall_ns_;
  msg.payload = std::move(payload);

  if (tracer_ != nullptr)
    tracer_->record(id_, trace::TraceEventKind::kEmit, vt, out.spec.id,
                    msg.seq, trace::hash_of(msg.payload));

  // Retention keeps a full copy of every sent message until the receiver's
  // checkpoint horizon passes it — the steady-state memory cost the
  // zero-copy work needs a baseline for. An external consumer never asks
  // for a replay (nor acknowledges), so its wire retains nothing.
  if (out.spec.kind != WireKind::kExternalOutput) {
    TART_PROF_BYTES("runner.retention", msg.payload.approx_bytes());
    out.retention.record(msg);
  }
  out.last_sent = vt;
  router_.to_receiver(out.spec.id, transport::DataFrame{msg});
  // Only after the data frame is en route may the accounting cover its
  // tick — otherwise a concurrent probe response could claim a data tick
  // (count or horizon) the receiver has not seen yet.
  out.next_seq.store(msg.seq + 1, std::memory_order_relaxed);
  advance_published(out, vt);
  return vt;
}

// ---------------------------------------------------------------------------
// Silence publication

void ComponentRunner::advance_published(OutputState& out,
                                        VirtualTime through) {
  std::int64_t cur = out.published.load();
  while (through.ticks() > cur &&
         !out.published.compare_exchange_weak(cur, through.ticks())) {
  }
  // cur holds the pre-advance value when the CAS won; diagnostic-class, so
  // gate on the category mask before paying for the record (and for the
  // clock read below).
  if (through.ticks() > cur && tracer_ != nullptr &&
      tracer_->wants(trace::TraceEventKind::kSilencePromise)) {
    // aux = sender-side wall stamp of the promise. Offline forensics
    // subtracts it from a stalled receiver's episode-begin stamp to split
    // the stall into estimator error (promise published late) vs
    // propagation lag (promise in flight). Never read by the scheduler.
    const auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now().time_since_epoch())
                            .count();
    tracer_->record(id_, trace::TraceEventKind::kSilencePromise, through,
                    out.spec.id, static_cast<std::uint64_t>(now_ns));
  }
}

void ComponentRunner::publish_busy_horizons(VirtualTime floor) {
  for (auto& [wid, out] : outputs_) {
    VirtualTime h = floor + out->delay->min_delay() - TickDuration(1);
    if (bias_.enabled())
      h = max(h, bias_.eager_promise(
                     current_vt_.load(std::memory_order_relaxed)));
    advance_published(*out, h);
  }
}

void ComponentRunner::publish_idle_horizons_locked() {
  // Lower bound on the next dequeue time: the earliest tick any input wire
  // could still produce, and never before our current virtual position.
  // Self-loop (timer) wires are excluded from the bound except for their
  // *pending* heads: any future self-arrival is generated by a dequeue at
  // or after this very bound, so excluding their empty horizons is sound
  // by induction — and breaks the otherwise-circular dependency between a
  // timer wire's input horizon and the component's own output horizon.
  VirtualTime lb = VirtualTime::infinity();
  for (const WireId w : nonself_wires_) lb = min(lb, inbox_.wire_horizon(w).next());
  if (const auto head = inbox_.peek()) lb = min(lb, head->vt);
  lb = max(lb, current_vt_.load(std::memory_order_relaxed));

  const bool closed = inbox_.exhausted();
  for (auto& [wid, out] : outputs_) {
    if (closed) {
      advance_published(*out, VirtualTime::infinity());
      continue;
    }
    // lb is infinite once every non-self wire is closed and no head is
    // pending; the estimate then names no tick and only the bias promise
    // can advance the horizon.
    std::optional<VirtualTime> h =
        checked_add(lb, estimators_.future_min_estimate(lb) +
                            out->delay->min_delay() - TickDuration(1));
    if (bias_.enabled()) {
      const VirtualTime eager =
          bias_.eager_promise(current_vt_.load(std::memory_order_relaxed));
      h = h ? max(*h, eager) : eager;
    }
    if (h) advance_published(*out, *h);
    // Self wires: the freshly computed horizon feeds straight back into
    // our own inbox (no probe round trip; delivery on self wires is
    // synchronous and lossless, so no tick accounting is needed).
    if (out->spec.to == id_ && inbox_.has_wire(wid)) {
      (void)inbox_.announce_silence(wid,
                                    VirtualTime(out->published.load()), 0);
    }
  }
}

void ComponentRunner::publish_final_silence() {
  std::vector<SilenceUpdate> updates;
  for (auto& [wid, out] : outputs_) {
    advance_published(*out, VirtualTime::infinity());
    updates.push_back(
        SilenceUpdate{wid, VirtualTime::infinity(), out->next_seq.load()});
  }
  for (const SilenceUpdate& u : updates)
    router_.to_receiver(
        u.wire, transport::SilenceFrame{u.wire, u.through, u.expected_seq});
  {
    const std::lock_guard<std::mutex> lk(mu_);
    final_silence_sent_ = true;
  }
}

void ComponentRunner::flush_probe_responses() {
  for (auto& [wid, out] : outputs_) {
    if (!out->probe_pending.load(std::memory_order_relaxed)) continue;
    const std::uint64_t seq = out->next_seq.load();
    const std::int64_t h = out->published.load();
    if (h <= out->last_pushed.load()) continue;
    out->probe_pending.store(false);
    out->last_pushed.store(h);
    router_.to_receiver(
        wid, transport::SilenceFrame{wid, VirtualTime(h), seq});
  }
}

std::vector<ComponentRunner::SilenceUpdate>
ComponentRunner::collect_silence_updates() {
  std::vector<SilenceUpdate> updates;
  for (auto& [wid, out] : outputs_) {
    const std::uint64_t seq = out->next_seq.load();
    const std::int64_t h = out->published.load();
    if (h > out->last_pushed.load()) {
      out->last_pushed.store(h);
      updates.push_back(SilenceUpdate{wid, VirtualTime(h), seq});
    }
  }
  return updates;
}

// ---------------------------------------------------------------------------
// Checkpointing and recovery

void ComponentRunner::maybe_checkpoint() {
  if (config_.checkpoint.every_n_messages == 0) return;
  if (processed_since_checkpoint_ < config_.checkpoint.every_n_messages)
    return;
  processed_since_checkpoint_ = 0;
  capture_checkpoint();
}

void ComponentRunner::capture_checkpoint() {
  checkpoint::ComponentSnapshot s;
  s.component = id_;
  s.version = ++checkpoint_version_;
  const bool delta_ok = component_->supports_delta() &&
                        !force_full_checkpoint_ &&
                        config_.checkpoint.full_every_k > 0 &&
                        (s.version % config_.checkpoint.full_every_k) != 0;
  s.is_delta = delta_ok;
  serde::Writer w;
  if (delta_ok) {
    component_->capture_delta(w);
  } else {
    component_->capture_full(w);
  }
  s.state = w.take();
  s.vt = current_vt_.load(std::memory_order_relaxed);
  s.messages_processed = metrics_.messages_processed.value();
  s.estimator_version = estimators_.version_at(s.vt);

  for (const auto& [wire, pos] : input_pos_) {
    s.inputs.push_back(
        checkpoint::InputPosition{wire, pos.delivered_vt, pos.delivered_seq});
  }
  for (const auto& [wire, vt] : last_reply_) {
    if (outputs_.contains(wire)) continue;  // only reply wires we *receive*
    s.inputs.push_back(checkpoint::InputPosition{wire, vt, 0});
  }
  for (auto& [wire, out] : outputs_) {
    checkpoint::OutputPosition op;
    op.wire = wire;
    op.next_seq = out->next_seq.load();
    op.silence_through = VirtualTime(out->published.load());
    op.last_sent = out->last_sent;
    op.retained = out->retention.contents();
    serde::Writer dw;
    out->delay->capture(dw);
    op.delay_state = dw.take();
    s.outputs.push_back(std::move(op));
  }

  // The kCheckpoint trace event is recorded by the replica on acceptance
  // (a rejected delta is not a durable checkpoint).
  const bool accepted = replica_.store(std::move(s));
  force_full_checkpoint_ = !accepted;
  metrics_.checkpoints_taken.inc();

  // Input ticks at or before the checkpointed positions are now stable:
  // upstream retention can be trimmed.
  for (const auto& [wire, pos] : input_pos_)
    router_.to_sender(wire,
                      transport::StabilityFrame{wire, pos.delivered_vt});
  for (const auto& [wire, vt] : last_reply_) {
    if (outputs_.contains(wire)) continue;
    router_.to_sender(wire, transport::StabilityFrame{wire, vt});
  }
}

void ComponentRunner::restore_from(
    const std::optional<checkpoint::RestorePlan>& plan) {
  assert(!thread_.joinable());
  component_ = topology_.component(id_).factory();
  if (!plan) {
    // Nothing was ever checkpointed: replay from the beginning.
    force_full_checkpoint_ = true;
    return;
  }

  {
    serde::Reader r(plan->base.state);
    component_->restore_full(r);
  }
  for (const auto& delta : plan->deltas) {
    serde::Reader r(delta.state);
    component_->apply_delta(r);
  }

  const checkpoint::ComponentSnapshot& last =
      plan->deltas.empty() ? plan->base : plan->deltas.back();
  current_vt_.store(last.vt, std::memory_order_release);
  max_arrival_vt_ = VirtualTime(-1);
  checkpoint_version_ = last.version;
  processed_since_checkpoint_ = 0;
  force_full_checkpoint_ = true;
  metrics_.messages_processed.set(last.messages_processed);
  estimators_.restore_to_version(last.estimator_version);

  for (const auto& in : last.inputs) {
    if (input_pos_.contains(in.wire)) {
      input_pos_[in.wire] = InputPos{in.horizon, in.next_seq};
      inbox_.restore_position(in.wire, in.horizon, in.next_seq);
    } else {
      last_reply_[in.wire] = in.horizon;
    }
  }
  for (const auto& op : last.outputs) {
    const auto it = outputs_.find(op.wire);
    if (it == outputs_.end()) continue;
    OutputState& out = *it->second;
    out.next_seq.store(op.next_seq);
    out.last_sent = op.last_sent;
    out.retention.restore(op.retained, op.next_seq);
    out.published.store(op.silence_through.ticks());
    out.last_pushed.store(-1);
    if (!op.delay_state.empty()) {
      serde::Reader r(op.delay_state);
      out.delay->restore(r);
    }
  }
}

void ComponentRunner::serve_queued_control() {
  assert(!thread_.joinable());
  std::unique_lock<std::mutex> lk(mu_);
  drain_control(lk);
}

void ComponentRunner::request_replays() {
  for (const auto& [wire, pos] : input_pos_) {
    if (tracer_ != nullptr)
      tracer_->record(id_, trace::TraceEventKind::kReplayStart,
                      pos.delivered_vt, wire, pos.delivered_seq);
    router_.to_sender(wire,
                      transport::ReplayRequestFrame{wire, pos.delivered_vt,
                                                    pos.delivered_seq});
  }
}

// ---------------------------------------------------------------------------
// Introspection

std::vector<ComponentRunner::SilenceUpdate> ComponentRunner::seal_outputs()
    const {
  std::vector<SilenceUpdate> out;
  out.reserve(outputs_.size());
  for (const auto& [wid, o] : outputs_)
    out.push_back(
        SilenceUpdate{wid, VirtualTime(o->published.load()),
                      o->next_seq.load()});
  return out;
}

VirtualTime ComponentRunner::published_horizon(WireId wire) const {
  const auto it = outputs_.find(wire);
  if (it == outputs_.end()) return VirtualTime(-1);
  return VirtualTime(it->second->published.load());
}

bool ComponentRunner::exhausted() const {
  const std::lock_guard<std::mutex> lk(mu_);
  if (in_handler_ || !control_.empty()) return false;
  if (config_.mode == SchedulingMode::kArrivalOrder)
    return arrival_queue_.empty() && inbox_.exhausted();
  return inbox_.exhausted();
}

VirtualTime ComponentRunner::current_vt() const {
  return current_vt_.load(std::memory_order_acquire);
}

ComponentStatus ComponentRunner::status() const {
  const std::lock_guard<std::mutex> lk(mu_);
  ComponentStatus st;
  st.id = id_;
  st.name = name_;
  st.vt_ticks = current_vt_.load(std::memory_order_acquire).ticks();
  st.pending = inbox_.pending();
  if (config_.mode == SchedulingMode::kArrivalOrder)
    st.pending += arrival_queue_.size();
  st.exhausted = !in_handler_ && inbox_.exhausted();
  const auto head = inbox_.peek();
  st.held = head.has_value() && !inbox_.head_eligible();
  if (st.held) {
    st.held_vt = head->vt.ticks();
    st.held_wire = head->wire;
  }
  const std::vector<WireId> lagging =
      st.held ? inbox_.lagging_wires() : std::vector<WireId>{};
  for (const WireId w : input_wires_) {
    WireStatus ws;
    ws.wire = w;
    const auto& spec = topology_.wire(w);
    ws.sender = spec.from.is_valid() ? topology_.component(spec.from).name
                                     : "external";
    ws.horizon_ticks = inbox_.wire_horizon(w).ticks();
    ws.pending = inbox_.pending_on(w);
    ws.blocking =
        std::find(lagging.begin(), lagging.end(), w) != lagging.end();
    st.inputs.push_back(std::move(ws));
  }
  return st;
}

std::uint64_t ComponentRunner::state_fingerprint() const {
  serde::Writer w;
  component_->capture_full(w);
  return serde::fingerprint(w.bytes());
}

std::size_t ComponentRunner::retained_messages() const {
  std::size_t n = 0;
  for (const auto& [wid, out] : outputs_) n += out->retention.size();
  return n;
}

}  // namespace tart::core
