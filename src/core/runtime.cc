#include "core/runtime.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <thread>

#include "durability/checkpoint_file.h"
#include "durability/manager.h"

namespace tart::core {

Runtime::Runtime(Topology topology, std::map<ComponentId, EngineId> placement,
                 RuntimeConfig config)
    : topology_(std::move(topology)),
      placement_(std::move(placement)),
      config_(std::move(config)),
      epoch_(std::chrono::steady_clock::now()) {
  // Flight recorder, shared by every engine (see member comment). EVERY
  // component gets a stream — including ones currently placed remotely:
  // live migration may adopt them here mid-run, and an unregistered
  // component would record nothing. Unused streams stay empty and cost
  // only their preallocated ring. The net pseudo-component carries link
  // events in partitioned deployments.
  if (config_.trace.enabled) {
    std::vector<ComponentId> traced;
    traced.reserve(placement_.size() + 1);
    for (const auto& [component, engine] : placement_)
      traced.push_back(component);
    if (!config_.local_engines.empty()) traced.push_back(kNetTraceComponent);
    // The edge pseudo-component exists only when lineage events can be
    // recorded: keeping the component set unchanged otherwise preserves
    // trace-diff compatibility with lineage-off runs.
    if ((config_.trace.categories &
         static_cast<std::uint32_t>(trace::TraceCategory::kLineage)) != 0)
      traced.push_back(kEdgeTraceComponent);
    tracer_ =
        std::make_unique<trace::TraceRecorder>(config_.trace, traced);
    replica_.set_trace(tracer_.get());
  }
  e2e_hist_ = &registry_.histogram(
      "tart_lineage_e2e_seconds",
      "End-to-end request latency: origin-input arrival at the edge to "
      "causally descendant external-output visibility",
      {}, 250e-6, 256);
  // Exemplars tag fat buckets with the (wire, seq) lineage id: episode =
  // origin seq, wire = origin wire (`tart-trace lineage --input WIRE:SEQ`).
  e2e_hist_->enable_exemplars(4);
  // Engines named by the placement; non-local engines live in peer
  // processes and are reached through the remote router.
  for (const auto& [component, engine] : placement_) {
    if (!engine_is_local(engine)) continue;
    if (!engines_.contains(engine)) {
      engines_.emplace(engine, std::make_unique<Engine>(
                                   engine, topology_, config_, *this,
                                   fault_log_, replica_, registry_,
                                   tracer_.get()));
    }
    engines_.at(engine)->add_component(component);
  }
  // A node that starts with no components still needs its engine running —
  // it may be the TARGET of a live migration and must be able to adopt.
  for (const EngineId engine : config_.local_engines) {
    if (!engines_.contains(engine)) {
      engines_.emplace(engine, std::make_unique<Engine>(
                                   engine, topology_, config_, *this,
                                   fault_log_, replica_, registry_,
                                   tracer_.get()));
    }
  }
  // Stable storage (docs/RECOVERY.md): restore plans + per-wire coverage
  // from the newest valid checkpoint file, then load only the log suffix
  // past it. Soft checkpoints persist only inside checkpoint files.
  if (!config_.log_dir.empty()) {
    const durability::DurabilityConfig& d = config_.durability;
    const auto newest = durability::CheckpointReader::load_newest(
        config_.log_dir, d.deployment_fp);
    if (newest.has_value()) {
      recovery_.from_checkpoint = true;
      recovery_.checkpoint_id = newest->checkpoint.id;
      recovery_.skipped_invalid = newest->skipped_invalid;
      for (const auto& [component, plan] : newest->checkpoint.plans)
        replica_.import_plan(component, plan);
      for (const auto& cover : newest->checkpoint.wires) {
        message_log_.set_base(cover.wire, cover.covered_seq, cover.last_vt);
        recovery_.covered_records += cover.covered_seq;
      }
    }
    log::SegmentedStore::Options seg_opts;
    seg_opts.segment_bytes = d.segment_bytes;
    segment_store_ = std::make_unique<log::SegmentedStore>(
        config_.log_dir, "messages", seg_opts);
    message_log_.load(*segment_store_,
                      newest.has_value()
                          ? newest->checkpoint.covered_record_index
                          : 0);
    message_log_.attach_store(segment_store_.get());
    recovery_.suffix_records = message_log_.total_size();

    const std::string faults_path = config_.log_dir + "/faults.log";
    fault_log_.load_from(faults_path);
    fault_store_ = std::make_unique<log::FileStableStore>(faults_path);
    fault_log_.attach_store(fault_store_.get());

    ckpt_manager_ = std::make_unique<durability::CheckpointManager>(
        *this, config_.log_dir, d,
        newest.has_value() ? &newest->checkpoint : nullptr);
  }

  // External endpoints — only those adjacent to a local component: a
  // remote partition owns (logs, timestamps, replays) its own boundary.
  for (const auto& spec : topology_.wires()) {
    if (spec.kind == WireKind::kExternalInput &&
        engine_is_local(engine_of(spec.to))) {
      auto adapter = std::make_shared<InputAdapter>();
      // Resume positions past anything recovered from stable storage
      // (next_seq, not size: compaction may have truncated a covered
      // prefix out of the retained log).
      adapter->next_seq = message_log_.next_seq(spec.id);
      adapter->last_vt = message_log_.last_vt(spec.id);
      inputs_.emplace(spec.id, std::move(adapter));
    }
    if (spec.kind == WireKind::kExternalOutput &&
        engine_is_local(engine_of(spec.from)))
      outputs_.emplace(spec.id, std::make_shared<OutputSink>());
  }
  // Simulated links between engine pairs (local pairs only; cross-process
  // pairs are bridged by the real socket transport instead).
  for (const auto& [pair, link_config] : config_.links) {
    const auto [a, b] = pair;
    if (!engine_is_local(a) || !engine_is_local(b)) continue;
    const EngineId lo = a < b ? a : b;
    const EngineId hi = a < b ? b : a;
    if (bridge_between(lo, hi) != nullptr) continue;  // one per pair
    auto bridge = std::make_unique<LinkBridge>();
    bridge->lo = lo;
    bridge->hi = hi;
    transport::ReliableConfig rc;
    rc.forward = link_config;
    rc.backward = link_config;
    rc.backward.seed = link_config.seed + 1;
    bridge->channel = std::make_unique<transport::ReliableChannel>(
        rc,
        // a_handler: frames arriving at `lo` (sent by `hi`).
        [this](transport::Frame f) { dispatch_local(std::move(f)); },
        // b_handler: frames arriving at `hi` (sent by `lo`).
        [this](transport::Frame f) { dispatch_local(std::move(f)); });
    bridges_.push_back(std::move(bridge));
  }
}

Runtime::~Runtime() { stop(); }

void Runtime::start() {
  assert(!started_);
  // Starting IS recovering: every component restores from whatever the
  // replica holds (nothing, on a fresh deployment; persisted checkpoints,
  // on a cold restart over a log_dir) and asks upstream — external logs
  // included — to replay everything past its restored position. Every
  // replay is requested and served before any runner thread runs: a sender
  // already running would send live what a later request makes it send
  // again, and a probe answered before the replay would report data the
  // receiver lacks, so it would ask for the range twice. Either way the
  // receiver discards the second copies as duplicates. Serving an external
  // log's replay decodes nothing: the receiver's inbox accounts the whole
  // run at once and its runner thread reads the records back from the log,
  // one chunk at a time, as it drains them.
  for (auto& [id, engine] : engines_) engine->restore();
  for (auto& [id, engine] : engines_) engine->request_replays();
  for (auto& [id, engine] : engines_) engine->serve_replays();
  for (auto& [id, engine] : engines_) engine->start();
  started_ = true;
  if (ckpt_manager_ != nullptr) ckpt_manager_->start();
}

bool Runtime::drain(std::chrono::milliseconds timeout) {
  close_all_inputs();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    bool all = true;
    for (const auto& [id, engine] : engines_)
      if (!engine->all_exhausted()) all = false;
    if (all) return true;
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void Runtime::stop() {
  // The trigger thread first: a checkpoint barrier against stopping
  // runners would stall until its timeout.
  if (ckpt_manager_ != nullptr) ckpt_manager_->stop();
  for (auto& [id, engine] : engines_) engine->stop();
  for (auto& bridge : bridges_) bridge->channel->shutdown();
  // After every producer thread is quiet: drain the rings, freeze the
  // canonical per-component streams, and write the file. Idempotent.
  if (tracer_ != nullptr) tracer_->finalize();
}

// ---------------------------------------------------------------------------
// External world

VirtualTime Runtime::real_now() const {
  return VirtualTime(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count());
}

namespace {
/// Absolute steady-clock ns — the same clock every other wall stamp in the
/// trace uses (runner stalls, silence promises), comparable across
/// processes on one machine.
std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

void Runtime::record_ingest(const Message& m, std::int64_t arrive_ns,
                            std::int64_t durable_ns) {
  if (tracer_ == nullptr ||
      !tracer_->wants(trace::TraceEventKind::kIngestArrive))
    return;
  tracer_->record(kEdgeTraceComponent, trace::TraceEventKind::kIngestArrive,
                  m.vt, m.wire, m.seq,
                  static_cast<std::uint64_t>(arrive_ns));
  if (durable_ns >= 0)
    tracer_->record(kEdgeTraceComponent,
                    trace::TraceEventKind::kIngestDurable, m.vt, m.wire,
                    m.seq, static_cast<std::uint64_t>(durable_ns));
}

VirtualTime Runtime::inject(WireId input_wire, Payload payload) {
  const auto pinned = input_adapter(input_wire);
  if (pinned == nullptr)
    throw std::out_of_range("inject: wire has no local input adapter");
  InputAdapter& in = *pinned;
  const std::int64_t arrive_ns = wall_now_ns();
  Message m;
  {
    const std::lock_guard<std::mutex> lk(in.mu);
    if (in.closed)
      throw std::logic_error("inject on closed external input");
    if (in.source == InputAdapter::Source::kUnknown)
      in.source = InputAdapter::Source::kRealtime;
    // "It is safe to use the actual real time as the virtual time of this
    // message" (§II.E) — clamped past any silence promise already issued
    // and kept strictly increasing per wire.
    m.vt = max(max(real_now(), in.last_vt.next()), in.promised.next());
    m.wire = input_wire;
    m.seq = in.next_seq++;
    m.kind = MessageKind::kData;
    m.payload = std::move(payload);
    m.origin_wire = input_wire;
    m.origin_seq = m.seq;
    m.origin_wall_ns = arrive_ns;
    in.last_vt = m.vt;
    ++in.in_flight;
    // Logged synchronously *before* delivery: the message must be durable
    // while its effects are not (§II.E).
    message_log_.append(m);
  }
  record_ingest(m, arrive_ns, wall_now_ns());
  const VirtualTime vt_assigned = m.vt;
  deliver_input(in, std::move(m));
  return vt_assigned;
}

VirtualTime Runtime::inject_at(WireId input_wire, VirtualTime vt,
                               Payload payload) {
  const auto pinned = input_adapter(input_wire);
  if (pinned == nullptr)
    throw std::out_of_range("inject_at: wire has no local input adapter");
  InputAdapter& in = *pinned;
  const std::int64_t arrive_ns = wall_now_ns();
  Message m;
  {
    const std::lock_guard<std::mutex> lk(in.mu);
    if (in.closed)
      throw std::logic_error("inject on closed external input");
    in.source = InputAdapter::Source::kScripted;
    // Per-wire virtual times must be strictly increasing (one event per
    // tick on a wire) and may not land on promised-silent ticks.
    m.vt = max(max(vt, in.last_vt.next()), in.promised.next());
    m.wire = input_wire;
    m.seq = in.next_seq++;
    m.kind = MessageKind::kData;
    m.payload = std::move(payload);
    m.origin_wire = input_wire;
    m.origin_seq = m.seq;
    m.origin_wall_ns = arrive_ns;
    in.last_vt = m.vt;
    ++in.in_flight;
    message_log_.append(m);
  }
  record_ingest(m, arrive_ns, wall_now_ns());
  const VirtualTime vt_assigned = m.vt;
  deliver_input(in, std::move(m));
  return vt_assigned;
}

InjectResult Runtime::try_inject(WireId input_wire, Payload payload) {
  return try_inject_batch({{input_wire, -1, std::move(payload)}}).front();
}

InjectResult Runtime::try_inject_at(WireId input_wire, VirtualTime vt,
                                    Payload payload) {
  return try_inject_batch({{input_wire, vt.ticks(), std::move(payload)}})
      .front();
}

std::vector<InjectResult> Runtime::try_inject_batch(
    const std::vector<InjectRequest>& requests) {
  std::vector<InjectResult> results(requests.size());

  // Adapters of every wire named by the batch, locked in WireId order (the
  // single-inject paths take one adapter lock at a time, so any consistent
  // multi-lock order is deadlock-free against them). Pinned shared_ptrs: a
  // concurrent eviction may erase the map entry mid-batch.
  std::map<WireId, std::shared_ptr<InputAdapter>> adapters;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto pinned = input_adapter(requests[i].wire);
    if (pinned == nullptr) {
      results[i].status = InjectStatus::kUnknownWire;
    } else {
      adapters.emplace(requests[i].wire, std::move(pinned));
    }
  }
  std::vector<std::unique_lock<std::mutex>> guards;
  guards.reserve(adapters.size());
  for (auto& [wire, adapter] : adapters) guards.emplace_back(adapter->mu);

  // Stamp and log while holding the locks: per-wire memory order, stable
  // store order and seq order must agree even against concurrent single
  // injections (which block on the same adapter locks meanwhile).
  std::vector<Message> batch;
  std::vector<std::size_t> batch_to_request;
  batch.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (results[i].status != InjectStatus::kOk) continue;
    const InjectRequest& req = requests[i];
    InputAdapter& in = *adapters.at(req.wire);
    if (in.closed) {
      results[i].status = InjectStatus::kClosed;
      continue;
    }
    Message m;
    if (req.vt < 0) {
      // Real-time stamping, exactly as inject().
      if (in.source == InputAdapter::Source::kUnknown)
        in.source = InputAdapter::Source::kRealtime;
      m.vt = max(max(real_now(), in.last_vt.next()), in.promised.next());
    } else {
      // Scripted: refuse rather than clamp — the requested timestamp must
      // land strictly after everything already logged or promised silent.
      const VirtualTime vt{req.vt};
      if (vt <= in.last_vt || vt <= in.promised) {
        results[i].status = InjectStatus::kVtRegressed;
        continue;
      }
      in.source = InputAdapter::Source::kScripted;
      m.vt = vt;
    }
    m.wire = req.wire;
    m.seq = in.next_seq++;
    m.kind = MessageKind::kData;
    m.payload = req.payload;
    m.origin_wire = req.wire;
    m.origin_seq = m.seq;
    m.origin_wall_ns =
        req.arrival_wall_ns > 0 ? req.arrival_wall_ns : wall_now_ns();
    in.last_vt = m.vt;
    ++in.in_flight;
    results[i].vt = m.vt;
    results[i].seq = m.seq;
    batch.push_back(std::move(m));
    batch_to_request.push_back(i);
  }
  // One framed append + one flush for the whole batch: the group commit.
  const bool durable = message_log_.append_batch(batch);
  guards.clear();
  const std::int64_t durable_ns = durable ? wall_now_ns() : -1;

  // Logged (durably or not) — now, and only now, let the messages affect
  // the system (§II.E: log before delivery).
  for (std::size_t b = 0; b < batch.size(); ++b) {
    if (!durable) results[batch_to_request[b]].status = InjectStatus::kStoreFailed;
    record_ingest(batch[b], batch[b].origin_wall_ns, durable_ns);
    deliver_input(*adapters.at(batch[b].wire), std::move(batch[b]));
  }
  return results;
}

void Runtime::close_input(WireId input_wire) {
  const auto pinned = input_adapter(input_wire);
  if (pinned == nullptr) return;  // not locally owned (anymore)
  InputAdapter& in = *pinned;
  transport::SilenceFrame answer;
  {
    const std::lock_guard<std::mutex> lk(in.mu);
    if (in.closed) return;
    in.closed = true;
    if (in.in_flight > 0) {
      in.answer_deferred = true;
      return;
    }
    answer = silence_answer_locked(input_wire, in);
  }
  to_receiver(input_wire, answer);
}

void Runtime::deliver_input(InputAdapter& in, Message&& m) {
  const WireId wire = m.wire;
  to_receiver(wire, transport::DataFrame{std::move(m)});
  std::optional<transport::SilenceFrame> answer;
  {
    const std::lock_guard<std::mutex> lk(in.mu);
    if (--in.in_flight == 0 && in.answer_deferred) {
      in.answer_deferred = false;
      answer = silence_answer_locked(wire, in);
    }
  }
  if (answer) to_receiver(wire, *answer);
}

transport::SilenceFrame Runtime::silence_answer_locked(WireId wire,
                                                       InputAdapter& in) {
  // A real-time source IS silent through "now": any future arrival will
  // be stamped with a later real time. Scripted sources (inject_at) have
  // no such bound and only promise through their last logged arrival.
  VirtualTime through = in.last_vt;
  if (in.closed) {
    through = VirtualTime::infinity();
  } else if (in.source == InputAdapter::Source::kRealtime) {
    through = max(in.last_vt, real_now());
    in.promised = max(in.promised, through);
  }
  return transport::SilenceFrame{wire, through, in.next_seq};
}

void Runtime::close_all_inputs() {
  for (const WireId wire : external_input_wires()) close_input(wire);
}

void Runtime::subscribe(WireId output_wire, OutputCallback callback) {
  const auto pinned = output_sink(output_wire);
  if (pinned == nullptr)
    throw std::out_of_range("subscribe: wire has no local output sink");
  const std::lock_guard<std::mutex> lk(pinned->mu);
  pinned->callback = std::move(callback);
}

std::vector<OutputRecord> Runtime::output_records(WireId output_wire,
                                                  std::size_t after,
                                                  std::size_t max) const {
  const auto pinned = output_sink(output_wire);
  if (pinned == nullptr) return {};
  const std::lock_guard<std::mutex> lk(pinned->mu);
  const std::deque<OutputRecord>& records = pinned->records;
  if (after >= records.size()) return {};
  const auto first = records.begin() + static_cast<std::ptrdiff_t>(after);
  const std::size_t n = std::min(max, records.size() - after);
  return {first, first + static_cast<std::ptrdiff_t>(n)};
}

std::size_t Runtime::output_count(WireId output_wire) const {
  const auto pinned = output_sink(output_wire);
  if (pinned == nullptr) return 0;
  const std::lock_guard<std::mutex> lk(pinned->mu);
  return pinned->records.size();
}

void Runtime::set_output_ready_hook(std::function<void()> hook) {
  const std::lock_guard<std::mutex> lk(output_hook_mu_);
  output_hook_set_.store(static_cast<bool>(hook));
  output_hook_ = std::move(hook);
}

void Runtime::deliver_external_output(WireId wire, transport::Frame&& frame) {
  auto* data = std::get_if<transport::DataFrame>(&frame);
  if (data == nullptr) return;  // silence to the external world is dropped
  const auto pinned = output_sink(wire);
  if (pinned == nullptr) {  // output owned by a remote partition
    remote_frames_dropped_.fetch_add(1);
    return;
  }
  OutputSink& sink = *pinned;
  OutputCallback callback;
  OutputRecord record;
  {
    const std::lock_guard<std::mutex> lk(sink.mu);
    record.vt = data->msg.vt;
    record.payload = std::move(data->msg.payload);
    record.origin_wire = data->msg.origin_wire;
    record.origin_seq = data->msg.origin_seq;
    // Output stutter (§II.A): after a rollback the system may re-deliver
    // already-delivered external messages; they carry duplicate timestamps
    // so the consumer can compensate.
    record.stutter = data->msg.vt <= sink.last_vt;
    sink.last_vt = max(sink.last_vt, data->msg.vt);
    sink.records.push_back(record);
    // Catch-up replay must be invisible to the outside world (§II.A): the
    // record is kept, the subscriber is not called.
    if (!outputs_suppressed_.load()) callback = sink.callback;
  }
  if (output_hook_set_.load()) {
    const std::lock_guard<std::mutex> lk(output_hook_mu_);
    if (output_hook_) output_hook_();
  }
  const std::int64_t deliver_ns = wall_now_ns();
  if (tracer_ != nullptr &&
      tracer_->wants(trace::TraceEventKind::kOutputDeliver))
    tracer_->record(kEdgeTraceComponent,
                    trace::TraceEventKind::kOutputDeliver, data->msg.vt,
                    wire, data->msg.seq,
                    static_cast<std::uint64_t>(deliver_ns));
  // Live end-to-end latency: origin-input arrival to output visibility.
  // Replay catch-up re-deliveries are excluded — their origin stamps are
  // from a previous incarnation and would poison the distribution.
  if (data->msg.origin_wall_ns > 0 && !outputs_suppressed_.load()) {
    const double secs =
        static_cast<double>(deliver_ns - data->msg.origin_wall_ns) * 1e-9;
    obs::Exemplar ex;
    ex.value = secs;
    ex.episode = data->msg.origin_seq;
    ex.component = kEdgeTraceComponent.value();
    ex.wire = data->msg.origin_wire.value();
    e2e_hist_->record(secs, ex);
  }
  if (callback) callback(record.vt, record.payload, record.stutter);
}

void Runtime::handle_external_sender_frame(WireId wire,
                                           const transport::Frame& frame) {
  const auto pinned = input_adapter(wire);
  if (pinned == nullptr) {  // input owned by a remote partition
    remote_frames_dropped_.fetch_add(1);
    return;
  }
  InputAdapter& in = *pinned;
  if (std::holds_alternative<transport::ProbeFrame>(frame)) {
    transport::SilenceFrame answer;
    {
      const std::lock_guard<std::mutex> lk(in.mu);
      if (in.in_flight > 0) {
        // The last in-flight delivery answers (deliver_input).
        in.answer_deferred = true;
        return;
      }
      answer = silence_answer_locked(wire, in);
    }
    to_receiver(wire, answer);
  } else if (const auto* replay =
                 std::get_if<transport::ReplayRequestFrame>(&frame)) {
    // Snapshot the promise before reading the log: every message it
    // counts is already logged (stamping appends under the same lock), so
    // the replay below covers it and the silence cannot claim a tick the
    // replay did not resend.
    bool closed;
    VirtualTime through;
    std::uint64_t seq;
    {
      const std::lock_guard<std::mutex> lk(in.mu);
      closed = in.closed;
      through = in.last_vt;
      seq = in.next_seq;
    }
    // "If the 'sender' is an external component ... the messages are
    // re-sent from the log" (§II.F.4) — as one run the receiver accounts
    // at once and reads back from the log, a chunk at a time, as its inbox
    // drains. An adapter exists only beside a local receiver.
    if (replay->from_seq < seq) {
      const EngineId dst = receiver_route(topology_.wire(wire)).second;
      if (engine_is_local(dst)) {
        engines_.at(dst)->deliver_run_to_receiver(
            message_log_.run(wire, replay->from_seq, seq, through));
      } else {  // the receiver moved away meanwhile; its new owner replays
        remote_frames_dropped_.fetch_add(1);
      }
    }
    to_receiver(wire,
                transport::SilenceFrame{
                    wire, closed ? VirtualTime::infinity() : through, seq});
  }
  // Stability acks: the log is already durable; nothing to trim here.
}

// ---------------------------------------------------------------------------
// Routing

EngineId Runtime::engine_of(ComponentId component) const {
  const std::shared_lock<std::shared_mutex> lk(placement_mu_);
  return placement_.at(component);
}

std::map<ComponentId, EngineId> Runtime::placement_snapshot() const {
  const std::shared_lock<std::shared_mutex> lk(placement_mu_);
  return placement_;
}

std::shared_ptr<Runtime::InputAdapter> Runtime::input_adapter(
    WireId wire) const {
  const std::shared_lock<std::shared_mutex> lk(io_mu_);
  const auto it = inputs_.find(wire);
  return it == inputs_.end() ? nullptr : it->second;
}

std::shared_ptr<Runtime::OutputSink> Runtime::output_sink(WireId wire) const {
  const std::shared_lock<std::shared_mutex> lk(io_mu_);
  const auto it = outputs_.find(wire);
  return it == outputs_.end() ? nullptr : it->second;
}

bool Runtime::engine_is_local(EngineId id) const {
  return config_.local_engines.empty() || config_.local_engines.contains(id);
}

void Runtime::set_remote_router(RemoteRouter router) {
  remote_router_ = std::move(router);
}

void Runtime::deliver_from_peer(transport::Frame frame) {
  dispatch_local(std::move(frame));
}

Runtime::LinkBridge* Runtime::bridge_between(EngineId a, EngineId b) {
  const EngineId lo = a < b ? a : b;
  const EngineId hi = a < b ? b : a;
  for (auto& bridge : bridges_)
    if (bridge->lo == lo && bridge->hi == hi) return bridge.get();
  return nullptr;
}

void Runtime::route(EngineId src, EngineId dst, WireId wire,
                    transport::Frame frame) {
  (void)wire;
  // Cross-partition: the destination engine lives in another process.
  if (dst.is_valid() && !engine_is_local(dst)) {
    if (remote_router_) {
      remote_router_(dst, frame);
    } else {
      remote_frames_dropped_.fetch_add(1);
    }
    return;
  }
  if (src == dst || !src.is_valid() || !dst.is_valid()) {
    dispatch_local(std::move(frame));
    return;
  }
  LinkBridge* bridge = bridge_between(src, dst);
  if (bridge == nullptr) {
    dispatch_local(std::move(frame));
    return;
  }
  if (src == bridge->lo) {
    bridge->channel->send_from_a(frame);
  } else {
    bridge->channel->send_from_b(frame);
  }
}

void Runtime::dispatch_local(transport::Frame&& frame) {
  // Frame direction is implied by its type: data/silence travel with the
  // wire, probes/replays/stability travel against it.
  const WireId wire = transport::frame_wire(frame);
  if (std::holds_alternative<transport::DataFrame>(frame) ||
      std::holds_alternative<transport::SilenceFrame>(frame)) {
    dispatch_to_receiver_local(wire, std::move(frame));
  } else {
    dispatch_to_sender_local(wire, frame);
  }
}

void Runtime::dispatch_to_receiver_local(WireId wire,
                                         transport::Frame&& frame) {
  const auto& spec = topology_.wire(wire);
  if (spec.kind == WireKind::kExternalOutput) {
    deliver_external_output(wire, std::move(frame));
    return;
  }
  // A peer process may (buggily) hand us a frame for a component it hosts
  // itself; dropping beats crashing the node.
  const EngineId dst = engine_of(spec.to);
  if (!engine_is_local(dst)) {
    remote_frames_dropped_.fetch_add(1);
    return;
  }
  engines_.at(dst)->deliver_to_receiver(wire, std::move(frame));
}

void Runtime::dispatch_to_sender_local(WireId wire,
                                       const transport::Frame& frame) {
  const auto& spec = topology_.wire(wire);
  if (spec.kind == WireKind::kExternalInput) {
    handle_external_sender_frame(wire, frame);
    return;
  }
  if (!engine_is_local(engine_of(spec.from))) {
    remote_frames_dropped_.fetch_add(1);
    return;
  }
  engines_.at(engine_of(spec.from))->deliver_to_sender(wire, frame);
}

std::pair<EngineId, EngineId> Runtime::receiver_route(
    const WireSpec& spec) const {
  const std::shared_lock<std::shared_mutex> lk(placement_mu_);
  const EngineId dst = placement_.at(spec.to);
  const EngineId src =
      spec.kind == WireKind::kExternalInput || !spec.from.is_valid()
          ? dst
          : placement_.at(spec.from);
  return {src, dst};
}

void Runtime::to_receiver(WireId wire, transport::Frame frame) {
  const auto& spec = topology_.wire(wire);
  if (spec.kind == WireKind::kExternalOutput) {
    deliver_external_output(wire, std::move(frame));
    return;
  }
  const auto [src, dst] = receiver_route(spec);
  route(src, dst, wire, std::move(frame));
}

void Runtime::to_receiver_batch(WireId wire, std::span<Message> batch) {
  if (batch.empty()) return;
  const auto& spec = topology_.wire(wire);
  if (spec.kind == WireKind::kExternalOutput) {
    for (Message& m : batch)
      deliver_external_output(wire, transport::DataFrame{std::move(m)});
    return;
  }
  const auto [src, dst] = receiver_route(spec);
  // A local receiver with no simulated link in between takes the whole run
  // at once; peer and bridge frames keep their per-frame path.
  if (engine_is_local(dst) &&
      (src == dst || bridge_between(src, dst) == nullptr)) {
    engines_.at(dst)->deliver_batch_to_receiver(wire, batch);
    return;
  }
  for (Message& m : batch)
    route(src, dst, wire, transport::DataFrame{std::move(m)});
}

void Runtime::to_sender(WireId wire, transport::Frame frame) {
  const auto& spec = topology_.wire(wire);
  if (spec.kind == WireKind::kExternalInput) {
    handle_external_sender_frame(wire, frame);
    return;
  }
  const EngineId dst = engine_of(spec.from);
  const EngineId src = spec.to.is_valid() ? engine_of(spec.to) : dst;
  route(src, dst, wire, std::move(frame));
}

// ---------------------------------------------------------------------------
// Failure injection and introspection

void Runtime::crash_engine(EngineId engine) { engines_.at(engine)->crash(); }

void Runtime::recover_engine(EngineId engine) {
  engines_.at(engine)->recover();
}

void Runtime::set_link_down(EngineId a, EngineId b, bool down) {
  if (LinkBridge* bridge = bridge_between(a, b))
    bridge->channel->set_down(down);
}

MetricsSnapshot Runtime::metrics(ComponentId component) const {
  const EngineId e = engine_of(component);
  if (!engine_is_local(e)) return MetricsSnapshot{};
  return engines_.at(e)->metrics(component);
}

std::uint64_t Runtime::state_fingerprint(ComponentId component) {
  if (!engine_is_local(engine_of(component))) return 0;
  Engine& e = *engines_.at(engine_of(component));
  const auto r = e.runner(component);
  return r == nullptr ? 0 : r->state_fingerprint();
}

std::size_t Runtime::retained_messages(ComponentId component) {
  if (!engine_is_local(engine_of(component))) return 0;
  Engine& e = *engines_.at(engine_of(component));
  const auto r = e.runner(component);
  return r == nullptr ? 0 : r->retained_messages();
}

void Runtime::harvest_telemetry() {
  const auto count = [this](const char* name, const char* help,
                            std::uint64_t v) {
    registry_.counter(name, help).set(v);
  };
  const auto level = [this](const char* name, const char* help,
                            std::uint64_t v) {
    registry_.gauge(name, help).set(static_cast<std::int64_t>(v));
  };
  count("tart_trace_events_recorded_total", "Flight-recorder events recorded",
        tracer_ ? tracer_->total_recorded() : 0);
  count("tart_trace_events_dropped_total",
        "Flight-recorder events dropped on ring overflow",
        tracer_ ? tracer_->total_dropped() : 0);

  const log::SegmentedStore* seg = segment_store_.get();
  count("tart_store_records_written_total",
        "Records appended to stable storage",
        seg ? fault_store_->records_written() + seg->records_written() : 0);
  count("tart_store_flushes_total",
        "Stable-store fsync flushes (less than records = group commit)",
        seg ? fault_store_->flushes() + seg->flushes() : 0);
  level("tart_log_segments", "External-log segments currently on disk",
        seg ? seg->segment_count() : 0);
  level("tart_log_disk_bytes",
        "Bytes the segmented external log occupies on disk.",
        seg ? seg->bytes_on_disk() : 0);
  count("tart_log_segments_deleted_total",
        "Wholly-covered log segments deleted by compaction",
        seg ? seg->segments_deleted() : 0);
  count("tart_log_records_reclaimed_total",
        "Log records reclaimed by checkpoint-gated compaction",
        seg ? message_log_.truncated_messages() : 0);
  level("tart_external_log_retained_messages",
        "Total external input messages retained in the replay log.",
        message_log_.total_size());
  level("tart_log_memory_bytes",
        "Bytes the external input log holds in memory.",
        message_log_.memory_bytes());

  const durability::CheckpointManager* ckpt = ckpt_manager_.get();
  count("tart_ckpt_written_total", "Durable checkpoint files written",
        ckpt ? ckpt->checkpoints_written() : 0);
  count("tart_ckpt_bytes_total",
        "Bytes written into durable checkpoint files",
        ckpt ? ckpt->checkpoint_bytes() : 0);
  count("tart_ckpt_failed_total",
        "Durable checkpoint attempts that failed (barrier or write)",
        ckpt ? ckpt->checkpoint_failures() : 0);
  count("tart_ckpt_skipped_invalid_total",
        "Torn/corrupt checkpoint files skipped at restart",
        recovery_.skipped_invalid);
  level("tart_restart_covered_records",
        "Log records the restart checkpoint covered (not replayed)",
        recovery_.covered_records);
  level("tart_restart_suffix_records",
        "Log records replayed from the suffix at restart",
        recovery_.suffix_records);
  count("tart_retention_trimmed_records_total",
        "Retention-buffer records trimmed below the remote durable cover",
        retention_trimmed_.load(std::memory_order_relaxed));

  for (const auto& [component, engine] : placement_snapshot()) {
    if (!engine_is_local(engine)) continue;
    const auto r = engines_.at(engine)->runner(component);
    registry_
        .gauge("tart_retention_memory_bytes",
               "Bytes the component's output retention holds in memory.",
               {{"component", topology_.component(component).name}})
        .set(static_cast<std::int64_t>(
            r == nullptr ? 0 : r->retention_memory_bytes()));
  }
}

MetricsSnapshot Runtime::total_metrics() const {
  MetricsSnapshot total;
  for (const auto& [component, engine] : placement_snapshot()) {
    if (!engine_is_local(engine)) continue;
    const MetricsSnapshot s = engines_.at(engine)->metrics(component);
    total.messages_processed += s.messages_processed;
    total.calls_served += s.calls_served;
    total.probes_sent += s.probes_sent;
    total.pessimism_events += s.pessimism_events;
    total.pessimism_wait_ns += s.pessimism_wait_ns;
    total.estimator_underestimates += s.estimator_underestimates;
    total.out_of_order_arrivals += s.out_of_order_arrivals;
    total.duplicates_discarded += s.duplicates_discarded;
    total.gaps_detected += s.gaps_detected;
    total.checkpoints_taken += s.checkpoints_taken;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Durability (docs/RECOVERY.md)

std::vector<WireId> Runtime::external_input_wires() const {
  const std::shared_lock<std::shared_mutex> lk(io_mu_);
  std::vector<WireId> wires;
  wires.reserve(inputs_.size());
  for (const auto& [wire, adapter] : inputs_) wires.push_back(wire);
  return wires;
}

bool Runtime::force_component_checkpoints(std::chrono::milliseconds timeout) {
  struct Pending {
    ComponentId component;
    std::uint64_t pre_version;
  };
  std::vector<Pending> pending;
  for (const auto& [component, engine] : placement_snapshot()) {
    if (!engine_is_local(engine)) continue;
    Engine& e = *engines_.at(engine);
    if (e.crashed()) continue;  // fail-stopped: nothing to capture
    const auto runner = e.runner(component);
    if (runner == nullptr) continue;
    pending.push_back({component, replica_.latest_version(component)});
    runner->enqueue_control(CheckpointNowCtl{});
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    bool all = true;
    for (const auto& p : pending)
      if (replica_.latest_version(p.component) <= p.pre_version) all = false;
    if (all) return true;
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::uint64_t Runtime::compact_below(
    const std::map<WireId, std::uint64_t>& covered) {
  const std::uint64_t before = message_log_.truncated_messages();
  const std::uint64_t first_retained = message_log_.truncate_covered(covered);
  if (segment_store_ != nullptr)
    segment_store_->truncate_below(first_retained);
  return message_log_.truncated_messages() - before;
}

std::uint64_t Runtime::log_bytes_on_disk() const {
  return segment_store_ == nullptr ? 0 : segment_store_->bytes_on_disk();
}

StatusReport Runtime::status() const {
  StatusReport report;
  for (const auto& [component, engine] : placement_snapshot()) {
    if (!engine_is_local(engine)) continue;
    const auto runner = engines_.at(engine)->runner(component);
    if (runner == nullptr) {
      // Crashed (or not yet started): show the placement with no detail.
      ComponentStatus st;
      st.id = component;
      st.name = topology_.component(component).name;
      st.crashed = true;
      report.components.push_back(std::move(st));
      continue;
    }
    report.components.push_back(runner->status());
  }
  return report;
}

// ---------------------------------------------------------------------------
// Elastic placement (live migration; src/placement)

std::vector<WireId> Runtime::external_inputs_of(ComponentId c) const {
  std::vector<WireId> wires;
  for (const auto& spec : topology_.wires())
    if (spec.kind == WireKind::kExternalInput && spec.to == c)
      wires.push_back(spec.id);
  return wires;
}

Runtime::ExternalInputState Runtime::external_input_state(WireId wire) const {
  ExternalInputState st;
  const auto pinned = input_adapter(wire);
  if (pinned == nullptr) {
    // No adapter (remote or already evicted): the log still knows the
    // durable position, which is what a migration slice needs.
    st.next_seq = message_log_.next_seq(wire);
    st.last_vt = message_log_.last_vt(wire);
    return st;
  }
  const std::lock_guard<std::mutex> lk(pinned->mu);
  st.known = true;
  st.next_seq = pinned->next_seq;
  st.last_vt = pinned->last_vt;
  st.closed = pinned->closed;
  return st;
}

bool Runtime::component_is_local(ComponentId c) const {
  return engine_is_local(engine_of(c));
}

bool Runtime::force_component_checkpoint(ComponentId c,
                                         std::chrono::milliseconds timeout) {
  const EngineId e = engine_of(c);
  if (!engine_is_local(e)) return false;
  const auto eit = engines_.find(e);
  if (eit == engines_.end() || eit->second->crashed()) return false;
  const auto runner = eit->second->runner(c);
  if (runner == nullptr) return false;
  const std::uint64_t pre = replica_.latest_version(c);
  runner->enqueue_control(CheckpointNowCtl{});
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (replica_.latest_version(c) <= pre) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

std::optional<checkpoint::RestorePlan> Runtime::export_component_plan(
    ComponentId c) {
  return replica_.restore(c);
}

bool Runtime::adopt_component(ComponentId c, EngineId onto,
                              const std::optional<checkpoint::RestorePlan>& plan,
                              const std::vector<AdoptedInput>& inputs,
                              std::string* error) {
  const auto fail = [&](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!engine_is_local(onto)) return fail("adopting engine is not local");
  const auto eit = engines_.find(onto);
  if (eit == engines_.end()) return fail("adopting engine does not exist");
  if (eit->second->crashed()) return fail("adopting engine is crashed");
  // Seed the external log with the shipped suffix before the new runner can
  // request replays from it. Overlap with records already held (re-adoption,
  // resumed delta rounds) is skipped by seq — append() demands order.
  for (const AdoptedInput& in : inputs) {
    if (message_log_.next_seq(in.wire) == 0 && in.base_seq > 0)
      message_log_.set_base(in.wire, in.base_seq, in.base_vt);
    for (const Message& m : in.records)
      if (m.seq >= message_log_.next_seq(in.wire)) message_log_.append(m);
  }
  // Import the shipped plan so the local replica owns it from here on
  // (delta checkpoints chain off it; durable checkpoints persist it).
  if (plan.has_value()) replica_.import_plan(c, *plan);
  // Routing flips first: replay requests the new runner issues must resolve
  // against the local wires. Peers flip via the placement protocol, not
  // this map.
  {
    const std::unique_lock<std::shared_mutex> lk(placement_mu_);
    placement_[c] = onto;
  }
  // (Re)create the boundary adapters the component owns here now, resuming
  // past whatever the freshly seeded log holds.
  {
    const std::unique_lock<std::shared_mutex> lk(io_mu_);
    for (const auto& spec : topology_.wires()) {
      if (spec.kind == WireKind::kExternalInput && spec.to == c &&
          !inputs_.contains(spec.id)) {
        auto adapter = std::make_shared<InputAdapter>();
        adapter->next_seq = message_log_.next_seq(spec.id);
        adapter->last_vt = message_log_.last_vt(spec.id);
        inputs_.emplace(spec.id, std::move(adapter));
      }
      if (spec.kind == WireKind::kExternalOutput && spec.from == c &&
          !outputs_.contains(spec.id))
        outputs_.emplace(spec.id, std::make_shared<OutputSink>());
    }
  }
  for (const AdoptedInput& in : inputs) {
    if (!in.closed) continue;
    if (const auto pinned = input_adapter(in.wire)) {
      const std::lock_guard<std::mutex> lk(pinned->mu);
      pinned->closed = true;
    }
  }
  // The engine restores whatever the replica now holds (the imported plan,
  // or the pre-eviction local state on a rollback), requests replays past
  // the restored positions and starts the scheduler thread.
  if (!eit->second->adopt_component(c, replica_.restore(c)))
    return fail("component is already hosted on the adopting engine");
  return true;
}

std::vector<Runtime::SealedOutput> Runtime::evict_component(
    ComponentId c, EngineId new_owner) {
  std::vector<SealedOutput> sealed;
  const EngineId cur = engine_of(c);
  if (engine_is_local(cur)) {
    const auto eit = engines_.find(cur);
    if (eit != engines_.end()) {
      // Stops and joins the runner thread with NO runtime lock held — the
      // thread may be routing frames through this very object right now.
      if (const auto updates = eit->second->evict_component(c)) {
        sealed.reserve(updates->size());
        for (const auto& u : *updates)
          sealed.push_back({u.wire, u.through, u.expected_seq});
      }
    }
  }
  {
    const std::unique_lock<std::shared_mutex> lk(placement_mu_);
    placement_[c] = new_owner;
  }
  // Drop the boundary adapters: external arrivals are the new owner's to
  // timestamp and log from now on (the gateway redirects).
  {
    const std::unique_lock<std::shared_mutex> lk(io_mu_);
    for (const auto& spec : topology_.wires()) {
      if (spec.kind == WireKind::kExternalInput && spec.to == c)
        inputs_.erase(spec.id);
      if (spec.kind == WireKind::kExternalOutput && spec.from == c)
        outputs_.erase(spec.id);
    }
  }
  return sealed;
}

void Runtime::apply_placement(ComponentId c, EngineId engine) {
  const std::unique_lock<std::shared_mutex> lk(placement_mu_);
  placement_[c] = engine;
}

void Runtime::trim_retention_below(WireId wire, std::uint64_t below_seq) {
  const auto& spec = topology_.wire(wire);
  // External inputs are log-backed, not retention-backed; the checkpoint
  // compaction path owns their trimming.
  if (spec.kind == WireKind::kExternalInput || !spec.from.is_valid()) return;
  const EngineId e = engine_of(spec.from);
  if (!engine_is_local(e)) return;
  const auto eit = engines_.find(e);
  if (eit == engines_.end()) return;
  if (const auto runner = eit->second->runner(spec.from))
    runner->enqueue_control(
        RetentionTrimCtl{wire, below_seq, &retention_trimmed_});
}

}  // namespace tart::core
