// Integration tests for the TART core runtime: topology construction, the
// Figure-1 merge application, virtual-time semantics, two-way calls,
// multi-engine deployment (direct and over simulated links), and the
// determinism property that the whole recovery story rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "core/runtime.h"
#include "estimator/estimator.h"
#include "test_components.h"

namespace tart::core {
namespace {

using namespace std::chrono_literals;
namespace testing_ = tart::testing;

// --- Topology ---------------------------------------------------------------

TEST(TopologyTest, WireIdsAssignedInCreationOrder) {
  Topology topo;
  const auto a = topo.add("a", [] {
    return std::make_unique<testing_::Passthrough>();
  });
  const auto b = topo.add("b", [] {
    return std::make_unique<testing_::Passthrough>();
  });
  const WireId w0 = topo.external_input(a, PortId(0));
  const WireId w1 = topo.connect(a, PortId(0), b, PortId(0));
  const WireId w2 = topo.external_output(b, PortId(0));
  EXPECT_EQ(w0, WireId(0));
  EXPECT_EQ(w1, WireId(1));
  EXPECT_EQ(w2, WireId(2));
  EXPECT_EQ(topo.wire(w1).from, a);
  EXPECT_EQ(topo.wire(w1).to, b);
  EXPECT_EQ(topo.inputs_of(b), std::vector<WireId>{w1});
  EXPECT_EQ(topo.outputs_of(b), std::vector<WireId>{w2});
}

TEST(TopologyTest, CallCreatesPairedReplyWire) {
  Topology topo;
  const auto caller = topo.add("caller", [] {
    return std::make_unique<testing_::CallingComponent>();
  });
  const auto service = topo.add("service", [] {
    return std::make_unique<testing_::ScalingService>();
  });
  const WireId call = topo.connect_call(caller, PortId(1), service, PortId(0));
  const WireId reply = topo.wire(call).paired;
  EXPECT_TRUE(reply.is_valid());
  EXPECT_EQ(topo.wire(reply).kind, WireKind::kReply);
  EXPECT_EQ(topo.wire(reply).paired, call);
  EXPECT_EQ(topo.wire(reply).from, service);
  EXPECT_EQ(topo.wire(reply).to, caller);
  // Call wires feed the callee's inbox; reply wires bypass inboxes.
  EXPECT_EQ(topo.inputs_of(service), std::vector<WireId>{call});
  EXPECT_TRUE(topo.inputs_of(caller).empty());
}

TEST(TopologyTest, MulticastFanOut) {
  Topology topo;
  const auto a = topo.add("a", [] {
    return std::make_unique<testing_::Passthrough>();
  });
  const auto b = topo.add("b", [] {
    return std::make_unique<testing_::Passthrough>();
  });
  const auto c = topo.add("c", [] {
    return std::make_unique<testing_::Passthrough>();
  });
  topo.connect(a, PortId(0), b, PortId(0));
  topo.connect(a, PortId(0), c, PortId(0));
  EXPECT_EQ(topo.wires_from_port(a, PortId(0)).size(), 2u);
}

// --- Fixture building the Figure-1 application --------------------------------

struct Fig1App {
  Topology topo;
  ComponentId sender1, sender2, merger;
  WireId in1, in2, out;

  explicit Fig1App(double ticks_per_iter = 61000.0) {
    sender1 = topo.add("sender1", [] {
      return std::make_unique<testing_::WordCountSender>();
    });
    sender2 = topo.add("sender2", [] {
      return std::make_unique<testing_::WordCountSender>();
    });
    merger = topo.add("merger", [] {
      return std::make_unique<testing_::TotalingMerger>();
    });
    topo.set_estimator(sender1, [ticks_per_iter] {
      return estimator::per_iteration_estimator(ticks_per_iter);
    });
    topo.set_estimator(sender2, [ticks_per_iter] {
      return estimator::per_iteration_estimator(ticks_per_iter);
    });
    topo.set_estimator(merger, [] {
      return std::make_unique<estimator::ConstantEstimator>(
          TickDuration::micros(400));
    });
    in1 = topo.external_input(sender1, PortId(0));
    in2 = topo.external_input(sender2, PortId(0));
    topo.connect(sender1, PortId(0), merger, PortId(0));
    topo.connect(sender2, PortId(0), merger, PortId(0));
    out = topo.external_output(merger, PortId(0));
  }

  [[nodiscard]] std::map<ComponentId, EngineId> single_engine() const {
    return {{sender1, EngineId(0)}, {sender2, EngineId(0)},
            {merger, EngineId(0)}};
  }
  [[nodiscard]] std::map<ComponentId, EngineId> two_engines() const {
    return {{sender1, EngineId(0)}, {sender2, EngineId(0)},
            {merger, EngineId(1)}};
  }
};

std::vector<std::pair<std::int64_t, std::int64_t>> vt_payload(
    const std::vector<OutputRecord>& records) {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (const auto& r : records)
    if (!r.stutter) out.emplace_back(r.vt.ticks(), r.payload.as_int());
  return out;
}

/// Runs the paper's worked example and returns the merger's output records.
std::vector<OutputRecord> run_paper_example(
    const std::map<ComponentId, EngineId>& placement, RuntimeConfig config,
    const Fig1App& app) {
  Runtime rt(app.topo, placement, std::move(config));
  rt.start();
  // "messages arrive at Sender1 and Sender2 at times 50000 and 80000" with
  // sentence lengths 3 and 2.
  rt.inject_at(app.in1, VirtualTime(50000),
               testing_::sentence({"the", "cat", "sat"}));
  rt.inject_at(app.in2, VirtualTime(80000),
               testing_::sentence({"dog", "ran"}));
  EXPECT_TRUE(rt.drain());
  auto records = rt.output_records(app.out);
  rt.stop();
  return records;
}

TEST(RuntimeFig1Test, PaperExampleVirtualTimes) {
  Fig1App app;
  const auto records =
      run_paper_example(app.single_engine(), RuntimeConfig{}, app);
  ASSERT_EQ(records.size(), 2u);

  // Sender1 sends at 50000 + 3*61000 (+1 local delay) = 233001;
  // Sender2 at 80000 + 2*61000 (+1) = 202001. The Merger must process
  // Sender2's first even though Sender1's was injected first.
  // All words fresh, so both counts are 0; totals stay 0.
  // Merger outputs at dequeue + 400us (+1); the second message queues in
  // virtual time behind the first (the merger is virtually busy until
  // 602001, past the message's own arrival time of 233001).
  EXPECT_EQ(records[0].vt, VirtualTime(202001 + 400000 + 1));
  EXPECT_EQ(records[1].vt, VirtualTime(602001 + 400000 + 1));
  EXPECT_EQ(records[0].payload.as_int(), 0);
  EXPECT_EQ(records[1].payload.as_int(), 0);
  EXPECT_FALSE(records[0].stutter);
}

TEST(RuntimeFig1Test, OutputsInVirtualTimeOrder) {
  Fig1App app;
  RuntimeConfig config;
  Runtime rt(app.topo, app.single_engine(), config);
  rt.start();
  // Repeated words accumulate counts deterministically.
  for (int i = 0; i < 20; ++i) {
    rt.inject_at(app.in1, VirtualTime(1000 + i * 100000),
                 testing_::sentence({"a", "b", "c"}));
    rt.inject_at(app.in2, VirtualTime(500 + i * 90000),
                 testing_::sentence({"a", "d"}));
  }
  ASSERT_TRUE(rt.drain());
  const auto records = rt.output_records(app.out);
  ASSERT_EQ(records.size(), 40u);
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_GT(records[i].vt, records[i - 1].vt);
  rt.stop();
}

TEST(RuntimeFig1Test, OutputRecordsSliceAtBoundaries) {
  Fig1App app;
  Runtime rt(app.topo, app.single_engine(), RuntimeConfig{});
  rt.start();
  for (int i = 0; i < 3; ++i) {
    rt.inject_at(app.in1, VirtualTime(1000 + i * 100000),
                 testing_::sentence({"a", "b"}));
    rt.inject_at(app.in2, VirtualTime(500 + i * 90000),
                 testing_::sentence({"a"}));
  }
  ASSERT_TRUE(rt.drain());
  const auto all = rt.output_records(app.out);
  const std::size_t n = all.size();
  ASSERT_EQ(n, 6u);
  EXPECT_EQ(rt.output_count(app.out), n);

  constexpr std::size_t kAll = static_cast<std::size_t>(-1);
  for (const std::size_t after : {std::size_t{0}, std::size_t{1}, n - 1, n,
                                  n + 1, kAll}) {
    for (const std::size_t max :
         {std::size_t{0}, std::size_t{1}, n - 1, n, kAll}) {
      const auto got = rt.output_records(app.out, after, max);
      const std::size_t first = std::min(after, n);
      const std::size_t last = first + std::min(max, n - first);
      ASSERT_EQ(got.size(), last - first) << after << "," << max;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].vt, all[first + i].vt) << after << "," << max;
        EXPECT_EQ(got[i].payload, all[first + i].payload);
      }
    }
  }
  EXPECT_TRUE(rt.output_records(WireId(9999), 0, 10).empty());
  EXPECT_EQ(rt.output_count(WireId(9999)), 0u);
  rt.stop();
}

TEST(RuntimeFig1Test, OutputReadyHookRunsOncePerAppendedRecord) {
  const auto run = [](bool clear_before_start) {
    Fig1App app;
    Runtime rt(app.topo, app.single_engine(), RuntimeConfig{});
    std::atomic<std::size_t> calls{0};
    rt.set_output_ready_hook([&calls] { calls.fetch_add(1); });
    if (clear_before_start) rt.set_output_ready_hook(nullptr);
    rt.start();
    for (int i = 0; i < 3; ++i)
      rt.inject_at(app.in1, VirtualTime(1000 + i * 100000),
                   testing_::sentence({"a"}));
    rt.inject_at(app.in2, VirtualTime(2000), testing_::sentence({"b"}));
    EXPECT_TRUE(rt.drain());
    EXPECT_EQ(rt.output_count(app.out), 4u);
    rt.stop();
    return calls.load();
  };
  EXPECT_EQ(run(false), 4u);
  EXPECT_EQ(run(true), 0u) << "a cleared hook is never called";
}

TEST(RuntimeFig1Test, StatusIsSafeToReadWhileRunnersDispatch) {
  // status() runs on operator threads (GET /status) while runners
  // dispatch; each component's virtual position must be safe to read
  // there (ThreadSanitizer checks this) and never move backwards.
  Fig1App app;
  Runtime rt(app.topo, app.single_engine(), RuntimeConfig{});
  rt.start();
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::map<ComponentId, std::int64_t> last;
    while (!done.load()) {
      for (const ComponentStatus& c : rt.status().components) {
        EXPECT_GE(c.vt_ticks, last[c.id]) << c.name;
        last[c.id] = c.vt_ticks;
      }
    }
  });
  for (int i = 0; i < 1000; ++i) {
    rt.inject_at(app.in1, VirtualTime(1000 + i * 100000),
                 testing_::sentence({"a", "b"}));
    rt.inject_at(app.in2, VirtualTime(500 + i * 90000),
                 testing_::sentence({"c"}));
  }
  EXPECT_TRUE(rt.drain());
  done.store(true);
  reader.join();
  EXPECT_EQ(rt.output_count(app.out), 2000u);
  rt.stop();
}

TEST(RuntimeFig1Test, DeterministicAcrossRepeatedRuns) {
  Fig1App app;
  auto reference = vt_payload(
      run_paper_example(app.single_engine(), RuntimeConfig{}, app));
  for (int run = 0; run < 3; ++run) {
    Fig1App fresh;
    const auto again = vt_payload(
        run_paper_example(fresh.single_engine(), RuntimeConfig{}, fresh));
    EXPECT_EQ(again, reference) << "run " << run;
  }
}

TEST(RuntimeFig1Test, PlacementDoesNotChangeBehaviour) {
  Fig1App app;
  const auto one = vt_payload(
      run_paper_example(app.single_engine(), RuntimeConfig{}, app));
  Fig1App app2;
  const auto two = vt_payload(
      run_paper_example(app2.two_engines(), RuntimeConfig{}, app2));
  EXPECT_EQ(one, two);
}

TEST(RuntimeFig1Test, SilenceStrategyDoesNotChangeBehaviour) {
  // §II.G.4: lazy/curiosity/aggressive silence can be mixed freely without
  // affecting virtual times — only hyper-aggressive bias changes them.
  Fig1App app;
  RuntimeConfig curiosity;  // default
  const auto a =
      vt_payload(run_paper_example(app.single_engine(), curiosity, app));

  Fig1App app2;
  RuntimeConfig aggressive;
  aggressive.silence.aggressive_interval = 100us;
  const auto b =
      vt_payload(run_paper_example(app2.single_engine(), aggressive, app2));

  Fig1App app3;
  RuntimeConfig lazy;
  lazy.silence.curiosity = false;
  const auto c =
      vt_payload(run_paper_example(app3.single_engine(), lazy, app3));

  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(RuntimeFig1Test, SimulatedNetworkLinkPreservesBehaviour) {
  Fig1App app;
  const auto reference = vt_payload(
      run_paper_example(app.single_engine(), RuntimeConfig{}, app));

  Fig1App app2;
  RuntimeConfig config;
  transport::LinkConfig link;
  link.base_delay = 200us;
  link.loss_probability = 0.2;
  link.duplicate_probability = 0.1;
  link.seed = 77;
  config.links[{EngineId(0), EngineId(1)}] = link;
  const auto over_network =
      vt_payload(run_paper_example(app2.two_engines(), config, app2));
  EXPECT_EQ(over_network, reference);
}

TEST(RuntimeFig1Test, ArrivalOrderModeProcessesEverything) {
  Fig1App app;
  RuntimeConfig config;
  config.mode = SchedulingMode::kArrivalOrder;
  const auto records = run_paper_example(app.single_engine(), config, app);
  // Non-deterministic order, but nothing lost and totals still 0.
  ASSERT_EQ(records.size(), 2u);
}

TEST(RuntimeFig1Test, MetricsAccountProcessing) {
  Fig1App app;
  Runtime rt(app.topo, app.single_engine(), RuntimeConfig{});
  rt.start();
  rt.inject_at(app.in1, VirtualTime(1000),
               testing_::sentence({"x", "y", "z"}));
  ASSERT_TRUE(rt.drain());
  const auto merger = rt.metrics(app.merger);
  EXPECT_EQ(merger.messages_processed, 1u);
  const auto s1 = rt.metrics(app.sender1);
  EXPECT_EQ(s1.messages_processed, 1u);
  rt.stop();
}

TEST(RuntimeFig1Test, ExternalLogRecordsEverything) {
  Fig1App app;
  Runtime rt(app.topo, app.single_engine(), RuntimeConfig{});
  rt.start();
  rt.inject_at(app.in1, VirtualTime(100), testing_::sentence({"a"}));
  rt.inject_at(app.in1, VirtualTime(200), testing_::sentence({"b"}));
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.external_log().size(app.in1), 2u);
  EXPECT_EQ(rt.external_log().size(app.in2), 0u);
  rt.stop();
}

TEST(RuntimeFig1Test, RealTimeInjectAssignsMonotoneVts) {
  Fig1App app;
  Runtime rt(app.topo, app.single_engine(), RuntimeConfig{});
  rt.start();
  VirtualTime prev(-1);
  for (int i = 0; i < 10; ++i) {
    const VirtualTime vt = rt.inject(app.in1, testing_::sentence({"w"}));
    EXPECT_GT(vt, prev);
    prev = vt;
  }
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.output_records(app.out).size(), 10u);
  rt.stop();
}

// --- Two-way calls --------------------------------------------------------------

struct CallApp {
  Topology topo;
  ComponentId caller, service;
  WireId in, out;

  CallApp() {
    caller = topo.add("caller", [] {
      return std::make_unique<testing_::CallingComponent>();
    });
    service = topo.add("service", [] {
      return std::make_unique<testing_::ScalingService>();
    });
    topo.set_estimator(caller, [] {
      return std::make_unique<estimator::ConstantEstimator>(
          TickDuration::micros(10));
    });
    topo.set_estimator(service, [] {
      return std::make_unique<estimator::ConstantEstimator>(
          TickDuration::micros(50));
    });
    in = topo.external_input(caller, PortId(0));
    topo.connect_call(caller, PortId(1), service, PortId(0));
    out = topo.external_output(caller, PortId(0));
  }
};

TEST(RuntimeCallTest, CallReturnsDeterministicReply) {
  CallApp app;
  Runtime rt(app.topo,
             {{app.caller, EngineId(0)}, {app.service, EngineId(0)}},
             RuntimeConfig{});
  rt.start();
  rt.inject_at(app.in, VirtualTime(1000), Payload(std::int64_t{7}));
  rt.inject_at(app.in, VirtualTime(2000), Payload(std::int64_t{7}));
  rt.inject_at(app.in, VirtualTime(3000), Payload(std::int64_t{7}));
  ASSERT_TRUE(rt.drain());
  const auto records = rt.output_records(app.out);
  ASSERT_EQ(records.size(), 3u);
  // ScalingService multiplies by its call count: 7, 14, 21.
  EXPECT_EQ(records[0].payload.as_int(), 7);
  EXPECT_EQ(records[1].payload.as_int(), 14);
  EXPECT_EQ(records[2].payload.as_int(), 21);
  EXPECT_EQ(rt.metrics(app.service).calls_served, 3u);
  rt.stop();
}

TEST(RuntimeCallTest, CallAcrossEnginesMatchesSingleEngine) {
  auto run = [](const std::map<ComponentId, EngineId>& placement) {
    CallApp app;
    Runtime rt(app.topo, placement, RuntimeConfig{});
    rt.start();
    for (int i = 1; i <= 5; ++i)
      rt.inject_at(app.in, VirtualTime(i * 1000),
                   Payload(std::int64_t{i}));
    EXPECT_TRUE(rt.drain());
    auto records = vt_payload(rt.output_records(app.out));
    rt.stop();
    return records;
  };
  CallApp probe;  // ids are identical across constructions
  const auto local = run(
      {{probe.caller, EngineId(0)}, {probe.service, EngineId(0)}});
  const auto remote = run(
      {{probe.caller, EngineId(0)}, {probe.service, EngineId(1)}});
  EXPECT_EQ(local, remote);
  EXPECT_EQ(local.size(), 5u);
}

TEST(RuntimeCallTest, ReplyVirtualTimeOrdersAfterCall) {
  CallApp app;
  Runtime rt(app.topo,
             {{app.caller, EngineId(0)}, {app.service, EngineId(0)}},
             RuntimeConfig{});
  rt.start();
  rt.inject_at(app.in, VirtualTime(1000), Payload(std::int64_t{1}));
  ASSERT_TRUE(rt.drain());
  const auto records = rt.output_records(app.out);
  ASSERT_EQ(records.size(), 1u);
  // Caller dequeues at 1000, call charge 10us, service 50us, local delays:
  // the emitted output must order after the whole round trip.
  EXPECT_GT(records[0].vt, VirtualTime(1000 + 10000 + 50000));
  rt.stop();
}

// --- Bias (hyper-aggressive silence) --------------------------------------------

TEST(RuntimeBiasTest, BiasRoundsOutputTimes) {
  Fig1App app;
  RuntimeConfig config;
  config.bias[app.sender2] = TickDuration(99999);  // 100000-tick grid
  Runtime rt(app.topo, app.single_engine(), config);
  rt.start();
  rt.inject_at(app.in2, VirtualTime(80000),
               testing_::sentence({"dog", "ran"}));
  ASSERT_TRUE(rt.drain());
  const auto records = rt.output_records(app.out);
  ASSERT_EQ(records.size(), 1u);
  // Sender2's raw output would be 80000+122000+1; the bias rounds it up to
  // the next 100000 boundary (300000). Merger adds 400us (+1).
  EXPECT_EQ(records[0].vt, VirtualTime(300000 + 400000 + 1));
  rt.stop();
}

}  // namespace
}  // namespace tart::core
