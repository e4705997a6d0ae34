// Invariants of the batched runner-to-runner hand-off: while more input is
// queued behind a dispatch, a runner buffers its data emits and hands each
// run to the receiver in one batch. A buffered emit must stay invisible to
// every reader of the wire's position (probes, quiescence checks, sealed
// positions) until its batch is en route, no flush point may be missing
// (calls, stop, eviction), and FIFO must hold when a wire alternates
// between buffered and direct sends. Threads are named by role.
#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/wordcount.h"
#include "core/runtime.h"
#include "durability/replay.h"

namespace tart::core {
namespace {

using namespace std::chrono_literals;

/// Holds a handler at entry while its payload is marked held, so a test
/// can queue input behind a dispatch and inspect the runner mid-run.
class Gate {
 public:
  void hold(std::int64_t v) {
    const std::lock_guard<std::mutex> lk(mu_);
    held_.insert(v);
  }
  void release(std::int64_t v) {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      held_.erase(v);
    }
    cv_.notify_all();
  }
  void release_all() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      held_.clear();
    }
    cv_.notify_all();
  }
  /// Handler side: blocks while `v` is held.
  void pass(std::int64_t v) {
    std::unique_lock<std::mutex> lk(mu_);
    if (!held_.contains(v)) return;
    blocked_.insert(v);
    cv_.notify_all();
    cv_.wait(lk, [&] { return !held_.contains(v); });
    blocked_.erase(v);
  }
  [[nodiscard]] bool wait_blocked(std::int64_t v) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, 10s, [&] { return blocked_.contains(v); });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<std::int64_t> held_;
  std::set<std::int64_t> blocked_;
};

/// Releases every hold on scope exit, so a failed assertion cannot leave
/// a handler blocked while the runtime joins its thread.
struct ReleaseOnExit {
  std::shared_ptr<Gate> gate;
  ~ReleaseOnExit() { gate->release_all(); }
};

/// Forwards its integer payload after passing the gate.
class GatedRelay : public Component {
 public:
  explicit GatedRelay(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}
  void on_message(Context& ctx, PortId, const Payload& payload) override {
    gate_->pass(payload.as_int());
    ctx.count_block(0);
    ctx.send(PortId(0), payload);
  }
  void capture_full(serde::Writer& w) const override { w.write_u8(0); }
  void restore_full(serde::Reader& r) override { (void)r.read_u8(); }

 private:
  std::shared_ptr<Gate> gate_;
};

/// What the receiving end saw: (dispatch vt, payload) per message.
struct Seen {
  std::mutex mu;
  std::vector<std::pair<VirtualTime, std::int64_t>> items;
  [[nodiscard]] std::size_t size() {
    const std::lock_guard<std::mutex> lk(mu);
    return items.size();
  }
  [[nodiscard]] bool wait_for_size(std::size_t n) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (size() < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(1ms);
    }
    return true;
  }
};

class RecordingSink : public Component {
 public:
  explicit RecordingSink(std::shared_ptr<Seen> seen) : seen_(std::move(seen)) {}
  void on_message(Context& ctx, PortId, const Payload& payload) override {
    {
      const std::lock_guard<std::mutex> lk(seen_->mu);
      seen_->items.emplace_back(ctx.now(), payload.as_int());
    }
    ctx.count_block(0);
    ctx.send(PortId(0), payload);
  }
  void capture_full(serde::Writer& w) const override { w.write_u8(0); }
  void restore_full(serde::Reader& r) override { (void)r.read_u8(); }

 private:
  std::shared_ptr<Seen> seen_;
};

std::uint64_t counter(Runtime& rt, const std::string& name,
                      const std::string& component) {
  return rt.registry()
      .counter(name, "", obs::Labels{{"component", component}})
      .value();
}

/// `n` requests on `wire`: payloads first, first+1, ... at virtual times
/// vt0, vt0+step, ... Built in place: a braced temporary trips gcc 12's
/// -Wmaybe-uninitialized on Payload's variant.
std::vector<InjectRequest> requests(WireId wire, std::int64_t first, int n,
                                    std::int64_t vt0, std::int64_t step) {
  std::vector<InjectRequest> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& r = out[static_cast<std::size_t>(i)];
    r.wire = wire;
    r.vt = vt0 + i * step;
    r.payload = Payload(first + i);
  }
  return out;
}

const ComponentStatus& status_of(const StatusReport& report, ComponentId c) {
  for (const auto& s : report.components)
    if (s.id == c) return s;
  throw std::out_of_range("no such component");
}

/// gated relay `src` (engine 0) -> recording `sink` (engine 1) -> output.
/// `drive_to_buffered` leaves src holding exactly one buffered emit (of
/// input 1, vt 1000) with nothing queued in its inbox, blocked at the entry
/// of input 2 (vt 1'000'000): the idle horizon computed after dispatch 1
/// would cover the buffered tick by a wide margin were it not capped.
struct Rig {
  std::shared_ptr<Gate> gate = std::make_shared<Gate>();
  std::shared_ptr<Seen> seen = std::make_shared<Seen>();
  Topology topo;
  ComponentId src, sink;
  WireId in, link, out;
  std::unique_ptr<Runtime> rt;

  Rig() {
    src = topo.add("hs-src", [g = gate] {
      return std::make_unique<GatedRelay>(g);
    });
    sink = topo.add("hs-sink", [s = seen] {
      return std::make_unique<RecordingSink>(s);
    });
    in = topo.external_input(src, PortId(0));
    link = topo.connect(src, PortId(0), sink, PortId(0));
    out = topo.external_output(sink, PortId(0));
    rt = std::make_unique<Runtime>(
        topo,
        std::map<ComponentId, EngineId>{{src, EngineId(0)},
                                        {sink, EngineId(1)}},
        RuntimeConfig{});
    rt->start();
  }
  ~Rig() {
    gate->release_all();
    rt->stop();
  }

  ComponentRunner& src_runner() { return *rt->engine(EngineId(0)).runner(src); }

  void drive_to_buffered() {
    gate->hold(1);
    gate->hold(2);
    rt->inject_at(in, VirtualTime(1000), Payload(std::int64_t{1}));
    ASSERT_TRUE(gate->wait_blocked(1));
    rt->inject_at(in, VirtualTime(1'000'000), Payload(std::int64_t{2}));
    // Input 2 is queued behind dispatch 1: its emit is buffered.
    while (status_of(rt->status(), src).inputs.front().pending == 0)
      std::this_thread::sleep_for(100us);
    gate->release(1);
    ASSERT_TRUE(gate->wait_blocked(2));
  }
};

// --- 1. Probes --------------------------------------------------------------

TEST(HandoffTest, ProbeNeverReportsABufferedSeqOrTick) {
  Rig rig;
  rig.drive_to_buffered();
  ASSERT_EQ(rig.seen->size(), 0u);  // emit 1 is buffered, not delivered

  // The sender's published horizon, as any probe would read it.
  const VirtualTime published = rig.src_runner().published_horizon(rig.link);
  // A probe answered now travels to the sink as a silence frame.
  rig.rt->to_sender(rig.link, transport::ProbeFrame{rig.link});
  const std::int64_t sink_horizon =
      status_of(rig.rt->status(), rig.sink).inputs.front().horizon_ticks;

  rig.gate->release(2);
  ASSERT_TRUE(rig.seen->wait_for_size(2));
  const VirtualTime buffered_vt = rig.seen->items.front().first;
  EXPECT_LT(published, buffered_vt);
  EXPECT_LT(sink_horizon, buffered_vt.ticks());
  // An expected_seq counting the buffered emit would have tripped a gap.
  EXPECT_EQ(rig.rt->metrics(rig.sink).gaps_detected, 0u);
  EXPECT_EQ(rig.rt->metrics(rig.sink).duplicates_discarded, 0u);
}

// --- 2. Quiescence ----------------------------------------------------------

TEST(HandoffTest, NoQuiescenceWhileEmitsAreBuffered) {
  Rig rig;
  rig.drive_to_buffered();

  const ComponentStatus st = status_of(rig.rt->status(), rig.src);
  EXPECT_EQ(st.inputs.front().pending, 0u);  // the inbox itself is empty
  EXPECT_EQ(st.pending, 1u);                 // ... the buffered emit is not
  EXPECT_FALSE(st.held);
  EXPECT_FALSE(st.exhausted);
  EXPECT_FALSE(rig.src_runner().exhausted());
  EXPECT_FALSE(
      durability::ReplayDriver::catch_up(*rig.rt, 50ms).caught_up);

  rig.gate->release(2);
  EXPECT_TRUE(durability::ReplayDriver::catch_up(*rig.rt, 10s).caught_up);
  EXPECT_EQ(rig.seen->size(), 2u);
}

// --- 3. Stop and eviction ---------------------------------------------------

TEST(HandoffTest, StopAndEvictionLoseNoBufferedEmit) {
  for (const bool evict : {true, false}) {
    SCOPED_TRACE(evict ? "eviction" : "clean stop");
    Rig rig;
    rig.drive_to_buffered();
    // Queue input 3 so the emit of input 2 is buffered too when the
    // handler returns into a stopping loop.
    rig.rt->inject_at(rig.in, VirtualTime(2'000'000),
                      Payload(std::int64_t{3}));
    while (status_of(rig.rt->status(), rig.src).inputs.front().pending == 0)
      std::this_thread::sleep_for(100us);

    if (evict) {
      auto sealed = std::async(std::launch::async, [&] {
        // Routed to the sink's engine from now on, which does not host
        // it: later frames for the source are dropped, as on a dead node.
        return rig.rt->evict_component(rig.src, EngineId(1));
      });
      std::this_thread::sleep_for(20ms);  // let the stop request land
      rig.gate->release(2);
      const auto outputs = sealed.get();
      ASSERT_TRUE(rig.seen->wait_for_size(2));
      ASSERT_EQ(outputs.size(), 1u);
      EXPECT_EQ(outputs.front().wire, rig.link);
      // The seal promises exactly what was handed off: both emits, and a
      // horizon that covers no unsent tick.
      EXPECT_EQ(outputs.front().next_seq, 2u);
      EXPECT_GE(outputs.front().horizon, rig.seen->items.back().first);
    } else {
      // The runtime's clean-stop path, for this one runner.
      auto stopped = std::async(std::launch::async,
                                [&] { rig.src_runner().stop(); });
      std::this_thread::sleep_for(20ms);  // let the stop request land
      rig.gate->release(2);
      stopped.get();
      ASSERT_TRUE(rig.seen->wait_for_size(2));
      const ComponentStatus st = status_of(rig.rt->status(), rig.src);
      EXPECT_EQ(st.pending, 1u);  // input 3, never dispatched
    }
    std::vector<std::int64_t> payloads;
    for (const auto& [vt, p] : rig.seen->items) payloads.push_back(p);
    EXPECT_EQ(payloads, (std::vector<std::int64_t>{1, 2}));
    EXPECT_EQ(rig.rt->metrics(rig.sink).gaps_detected, 0u);
  }
}

// --- 4. Calls under backlog -------------------------------------------------

TEST(HandoffTest, CallsUnderBacklogFlushAndNeverBatch) {
  auto gate = std::make_shared<Gate>();
  Topology topo;
  const auto gatekeeper = topo.add("hc-gate", [gate] {
    return std::make_unique<GatedRelay>(gate);
  });
  const auto caller = topo.add("hc-caller", [] {
    return std::make_unique<apps::CallingComponent>();
  });
  const auto service = topo.add("hc-service", [] {
    return std::make_unique<apps::ScalingService>();
  });
  const auto in = topo.external_input(gatekeeper, PortId(0));
  topo.connect(gatekeeper, PortId(0), caller, PortId(0));
  topo.connect_call(caller, PortId(1), service, PortId(0));
  const auto out = topo.external_output(caller, PortId(0));
  Runtime rt(topo,
             {{gatekeeper, EngineId(0)},
              {caller, EngineId(1)},
              {service, EngineId(2)}},
             RuntimeConfig{});
  rt.start();
  ReleaseOnExit guard{gate};

  // A backlog: the gatekeeper releases 400 inputs at once, so the caller
  // runs with input queued behind every dispatch while each one blocks in
  // a call.
  constexpr int kN = 400;
  gate->hold(1);
  for (const auto& r :
       rt.try_inject_batch(requests(in, 1, kN, 10'000, 10'000)))
    ASSERT_EQ(r.status, InjectStatus::kOk);
  ASSERT_TRUE(gate->wait_blocked(1));
  gate->release(1);
  ASSERT_TRUE(rt.drain(30s));

  const auto records = rt.output_records(out);
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kN));
  // ScalingService multiplies by its call count.
  for (int i = 1; i <= kN; ++i)
    EXPECT_EQ(records[static_cast<std::size_t>(i - 1)].payload.as_int(),
              static_cast<std::int64_t>(i) * i);
  // Replies are handed off one by one: never buffered.
  const auto replies = counter(rt, "tart_runner_handoffs_total", "hc-service");
  EXPECT_EQ(replies, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(counter(rt, "tart_runner_handoff_messages_total", "hc-service"),
            replies);
  // Every call and every output reached the router.
  EXPECT_EQ(counter(rt, "tart_runner_handoff_messages_total", "hc-caller"),
            2u * kN);
  rt.stop();
}

/// Tells the service about an input on a data wire, then calls it: the
/// call orders after that data, so the service cannot answer before the
/// data arrives.
class NotifyThenCall : public Component {
 public:
  void on_message(Context& ctx, PortId, const Payload& payload) override {
    ctx.count_block(0);
    ctx.send(PortId(0), payload);
    ctx.send(PortId(2), ctx.call(PortId(1), payload));
  }
  void capture_full(serde::Writer& w) const override { w.write_u8(0); }
  void restore_full(serde::Reader& r) override { (void)r.read_u8(); }
};

/// Sums the data it is told (port 1); a call (port 0) returns the sum.
class TallyService : public Component {
 public:
  void on_message(Context& ctx, PortId, const Payload& payload) override {
    ctx.count_block(0);
    tally_ += payload.as_int();
  }
  Payload on_call(Context& ctx, PortId, const Payload&) override {
    ctx.count_block(0);
    return Payload(tally_);
  }
  void capture_full(serde::Writer& w) const override { w.write_svarint(tally_); }
  void restore_full(serde::Reader& r) override { tally_ = r.read_svarint(); }

 private:
  std::int64_t tally_ = 0;
};

TEST(HandoffTest, CallAfterBufferedDataToTheCalleeDoesNotDeadlock) {
  // The caller's data emit is buffered (input is queued behind it) when
  // the call goes out. The callee holds the call until the data wire's
  // horizon passes it, and that horizon stays below the buffered emit: a
  // call that blocked without flushing first would wait forever.
  auto gate = std::make_shared<Gate>();
  Topology topo;
  const auto gatekeeper = topo.add("hd-gate", [gate] {
    return std::make_unique<GatedRelay>(gate);
  });
  const auto caller = topo.add("hd-caller", [] {
    return std::make_unique<NotifyThenCall>();
  });
  const auto service = topo.add("hd-service", [] {
    return std::make_unique<TallyService>();
  });
  const auto in = topo.external_input(gatekeeper, PortId(0));
  topo.connect(gatekeeper, PortId(0), caller, PortId(0));
  topo.connect(caller, PortId(0), service, PortId(1));
  topo.connect_call(caller, PortId(1), service, PortId(0));
  const auto out = topo.external_output(caller, PortId(2));
  Runtime rt(topo,
             {{gatekeeper, EngineId(0)},
              {caller, EngineId(1)},
              {service, EngineId(2)}},
             RuntimeConfig{});
  rt.start();
  ReleaseOnExit guard{gate};

  constexpr int kN = 200;
  gate->hold(1);
  for (const auto& r :
       rt.try_inject_batch(requests(in, 1, kN, 10'000, 10'000)))
    ASSERT_EQ(r.status, InjectStatus::kOk);
  ASSERT_TRUE(gate->wait_blocked(1));
  gate->release(1);
  ASSERT_TRUE(rt.drain(20s));

  const auto records = rt.output_records(out);
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kN));
  for (int i = 1; i <= kN; ++i)
    EXPECT_EQ(records[static_cast<std::size_t>(i - 1)].payload.as_int(),
              static_cast<std::int64_t>(i) * (i + 1) / 2);
  rt.stop();
}

// --- 5. FIFO across buffered and direct sends ------------------------------

TEST(HandoffTest, FifoHoldsAcrossBufferedAndDirectSends) {
  Rig rig;
  ReleaseOnExit guard{rig.gate};
  std::int64_t next = 1;
  std::int64_t vt = 1000;
  for (int burst = 0; burst < 30; ++burst) {
    // Bursts of 1..9: the head of each is held until the rest is queued,
    // so the burst's emits buffer and its last one (nothing queued) is a
    // direct send behind them. Single-message bursts are direct only.
    const int size = 1 + burst % 9;
    const std::int64_t head = next;
    rig.gate->hold(head);
    const auto batch = requests(rig.in, next, size, vt, 1000);
    next += size;
    vt += size * 1000;
    for (const auto& r : rig.rt->try_inject_batch(batch))
      ASSERT_EQ(r.status, InjectStatus::kOk);
    ASSERT_TRUE(rig.gate->wait_blocked(head));
    rig.gate->release(head);
    ASSERT_TRUE(rig.seen->wait_for_size(static_cast<std::size_t>(next - 1)));
  }
  std::vector<std::int64_t> want, got;
  for (std::int64_t i = 1; i < next; ++i) want.push_back(i);
  for (const auto& [v, p] : rig.seen->items) got.push_back(p);
  EXPECT_EQ(got, want);
  EXPECT_EQ(rig.rt->metrics(rig.sink).gaps_detected, 0u);
  EXPECT_EQ(rig.rt->metrics(rig.sink).duplicates_discarded, 0u);
  // Some runs really were batched.
  EXPECT_GT(counter(*rig.rt, "tart_runner_handoff_messages_total", "hs-src"),
            counter(*rig.rt, "tart_runner_handoffs_total", "hs-src"));
}

// --- 6. Hand-off sizes ------------------------------------------------------

struct Chain {
  std::shared_ptr<Gate> gate = std::make_shared<Gate>();
  Topology topo;
  WireId in, out;
  std::vector<std::string> names;
  std::unique_ptr<Runtime> rt;

  explicit Chain(const std::string& prefix) {
    std::vector<ComponentId> stages;
    for (int i = 0; i < 3; ++i) {
      names.push_back(prefix + std::to_string(i));
      stages.push_back(topo.add(names.back(), [g = gate] {
        return std::make_unique<GatedRelay>(g);
      }));
    }
    in = topo.external_input(stages[0], PortId(0));
    for (int i = 0; i + 1 < 3; ++i)
      topo.connect(stages[i], PortId(0), stages[i + 1], PortId(0));
    out = topo.external_output(stages[2], PortId(0));
    std::map<ComponentId, EngineId> placement;
    for (int i = 0; i < 3; ++i) placement[stages[i]] = EngineId(i);
    rt = std::make_unique<Runtime>(topo, placement, RuntimeConfig{});
    rt->start();
  }
  ~Chain() {
    gate->release_all();
    rt->stop();
  }
  std::uint64_t total(const std::string& name) {
    std::uint64_t n = 0;
    for (const auto& c : names) n += counter(*rt, name, c);
    return n;
  }
};

TEST(HandoffTest, SaturatedChainBatchesAndPacedChainSendsSingly) {
  {
    Chain sat("hz-sat");
    constexpr int kN = 3000;
    sat.gate->hold(1);
    for (const auto& r :
         sat.rt->try_inject_batch(requests(sat.in, 1, kN, 1000, 1000)))
      ASSERT_EQ(r.status, InjectStatus::kOk);
    ASSERT_TRUE(sat.gate->wait_blocked(1));
    sat.gate->release(1);
    ASSERT_TRUE(sat.rt->drain(30s));
    ASSERT_EQ(sat.rt->output_count(sat.out), static_cast<std::size_t>(kN));
    const std::uint64_t handoffs = sat.total("tart_runner_handoffs_total");
    const std::uint64_t messages =
        sat.total("tart_runner_handoff_messages_total");
    EXPECT_EQ(messages, 3u * kN);
    EXPECT_GT(static_cast<double>(messages) / static_cast<double>(handoffs),
              1.0);
  }
  {
    Chain paced("hz-paced");
    constexpr int kN = 100;
    for (int i = 1; i <= kN; ++i) {
      paced.rt->inject_at(paced.in, VirtualTime(i * 1000),
                          Payload(std::int64_t{i}));
      const auto deadline = std::chrono::steady_clock::now() + 10s;
      while (paced.rt->output_count(paced.out) < static_cast<std::size_t>(i)) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(50us);
      }
    }
    for (const auto& c : paced.names) {
      SCOPED_TRACE(c);
      EXPECT_EQ(counter(*paced.rt, "tart_runner_handoffs_total", c),
                static_cast<std::uint64_t>(kN));
      EXPECT_EQ(counter(*paced.rt, "tart_runner_handoff_messages_total", c),
                static_cast<std::uint64_t>(kN));
    }
  }
}

// --- Thread names -----------------------------------------------------------

std::vector<std::string> thread_names() {
  std::vector<std::string> names;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return names;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream comm(std::string("/proc/self/task/") + e->d_name + "/comm");
    std::string name;
    if (std::getline(comm, name)) names.push_back(name);
  }
  closedir(dir);
  return names;
}

TEST(ThreadNamesTest, OneRunnerThreadPerLocalComponent) {
  Topology topo;
  const auto a = topo.add("tn-alpha", [] {
    return std::make_unique<apps::Passthrough>();
  });
  // 24 bytes with the prefix: the kernel keeps the first 15.
  const auto b = topo.add("tn-a-rather-long-name", [] {
    return std::make_unique<apps::Passthrough>();
  });
  topo.external_input(a, PortId(0));
  topo.connect(a, PortId(0), b, PortId(0));
  topo.external_output(b, PortId(0));
  Runtime rt(topo, {{a, EngineId(0)}, {b, EngineId(1)}}, RuntimeConfig{});
  rt.start();
  // A thread names itself as it starts: poll until both have.
  std::vector<std::string> names;
  std::size_t runners = 0;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  do {
    names = thread_names();
    runners = static_cast<std::size_t>(
        std::count_if(names.begin(), names.end(), [](const std::string& n) {
          return n.rfind("rt:", 0) == 0;
        }));
    if (runners >= 2) break;
    std::this_thread::sleep_for(1ms);
  } while (std::chrono::steady_clock::now() < deadline);
  rt.stop();
  EXPECT_EQ(runners, 2u);
  EXPECT_EQ(std::count(names.begin(), names.end(), "rt:tn-alpha"), 1);
  EXPECT_EQ(std::count(names.begin(), names.end(), "rt:tn-a-rather-"), 1);
}

}  // namespace
}  // namespace tart::core
