// Request-lineage tests (docs/TRACING.md "Request lineage"):
//
//   - hand-built traces with hand-computed latency decompositions (the
//     five post-ack buckets must be exclusive and exhaustive by
//     construction, and sum to exactly t_end - t_ack);
//   - causal-DAG mechanics: fan-out, stall cross-links to forensics
//     episodes, terminal classification (output / opaque wire /
//     incomplete), and (wire, seq) joins across per-node traces the way
//     migration splits a component's streams;
//   - a real lineage-enabled runtime run where every injected input must
//     resolve to a complete DAG with an exact decomposition;
//   - SIGKILL + restart-from-log: the recovered incarnation's replay must
//     reconstruct lineage equivalent to the failure-free reference (same
//     hop identities, same outputs), even though the crashed run's trace
//     file never survived.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "core/runtime.h"
#include "durability/replay.h"
#include "estimator/estimator.h"
#include "test_components.h"
#include "trace/lineage.h"
#include "trace/trace_file.h"

namespace tart::trace {
namespace {

using namespace std::chrono_literals;
namespace testing_ = tart::testing;
using core::kEdgeTraceComponent;

// ---------------------------------------------------------------------------
// Hand-built traces.

TraceEvent ev(std::uint64_t seq, TraceEventKind kind, std::int64_t vt,
              WireId wire, std::uint64_t aux, std::uint64_t payload_hash) {
  TraceEvent e;
  e.seq = seq;
  e.kind = kind;
  e.vt = VirtualTime(vt);
  e.wire = wire;
  e.aux = aux;
  e.payload_hash = payload_hash;
  return e;
}

Trace wrap(std::vector<ComponentTrace> components) {
  Trace t;
  t.categories = static_cast<std::uint32_t>(TraceCategory::kAll);
  for (auto& ct : components) {
    for (auto& e : ct.events) e.component = ct.component;
    t.components.push_back(std::move(ct));
  }
  return t;
}

/// Edge stream for one input on wire 10 seq 0: arrive @100, durable @200,
/// ack @300; plus the final output delivery on wire 30 @800.
ComponentTrace edge_stream() {
  ComponentTrace edge;
  edge.component = kEdgeTraceComponent;
  edge.events = {
      ev(0, TraceEventKind::kIngestArrive, 5, WireId(10), 0, 100),
      ev(1, TraceEventKind::kIngestDurable, 5, WireId(10), 0, 200),
      ev(2, TraceEventKind::kIngestAck, 5, WireId(10), 0, 300),
      ev(3, TraceEventKind::kOutputDeliver, 6, WireId(30), 0, 800),
  };
  return edge;
}

/// Component A consumes the input (dispatch @400, done @500) and emits
/// (wire 20, seq 0).
ComponentTrace comp_a() {
  ComponentTrace a;
  a.component = ComponentId(1);
  a.events = {
      ev(0, TraceEventKind::kDispatch, 5, WireId(10), 0, 0),
      ev(1, TraceEventKind::kHopDispatch, 5, WireId(10), 0, 400),
      ev(2, TraceEventKind::kEmit, 6, WireId(20), 0, 0),
      ev(3, TraceEventKind::kHopDone, 5, WireId(10), 0, 500),
  };
  return a;
}

/// Component B consumes (wire 20, seq 0) (dispatch @600, done @700) and
/// emits the external output (wire 30, seq 0).
ComponentTrace comp_b() {
  ComponentTrace b;
  b.component = ComponentId(2);
  b.events = {
      ev(0, TraceEventKind::kDispatch, 6, WireId(20), 0, 0),
      ev(1, TraceEventKind::kHopDispatch, 6, WireId(20), 0, 600),
      ev(2, TraceEventKind::kEmit, 6, WireId(30), 0, 0),
      ev(3, TraceEventKind::kHopDone, 6, WireId(20), 0, 700),
  };
  return b;
}

TEST(LineageSynthetic, ChainDecomposesExactly) {
  const Trace t = wrap({edge_stream(), comp_a(), comp_b()});
  const LineageReport report = analyze_lineage({t});
  ASSERT_EQ(report.inputs.size(), 1u);
  EXPECT_EQ(report.acked, 1u);
  EXPECT_EQ(report.resolved, 1u);
  EXPECT_DOUBLE_EQ(report.resolved_fraction(), 1.0);

  const InputLineage* in = report.find(WireId(10), 0);
  ASSERT_NE(in, nullptr);
  EXPECT_TRUE(in->acked);
  EXPECT_TRUE(in->complete);
  ASSERT_EQ(in->hops.size(), 2u);
  EXPECT_EQ(in->hops[0].component, ComponentId(1));
  EXPECT_EQ(in->hops[0].depth, 0u);
  EXPECT_EQ(in->hops[1].component, ComponentId(2));
  EXPECT_EQ(in->hops[1].depth, 1u);
  ASSERT_EQ(in->outputs.size(), 1u);
  EXPECT_EQ(in->outputs[0].wire, WireId(30));
  EXPECT_EQ(in->outputs[0].deliver_wall_ns, 800);

  // Hand-computed decomposition: ack@300 .. end@800.
  //   durability  arrive 100 -> ack 300            = 200
  //   ingress     ack 300 -> A dispatch 400        = 100
  //   processing  A 400..500 plus B 600..700       = 200
  //   network     A done 500 -> B dispatch 600     = 100
  //   output lag  B done 700 -> delivery 800       = 100
  const LatencyBreakdown& b = in->breakdown;
  EXPECT_EQ(b.durability_wait_ns, 200);
  EXPECT_EQ(b.ingress_queue_ns, 100);
  EXPECT_EQ(b.stall_wait_ns, 0);
  EXPECT_EQ(b.processing_ns, 200);
  EXPECT_EQ(b.network_ns, 100);
  EXPECT_EQ(b.output_lag_ns, 100);
  EXPECT_EQ(b.ack_to_end_ns, 500);
  EXPECT_EQ(b.total_ns, 700);
  // Exclusive and exhaustive: the five post-ack buckets telescope.
  EXPECT_EQ(b.ingress_queue_ns + b.stall_wait_ns + b.processing_ns +
                b.network_ns + b.output_lag_ns,
            b.ack_to_end_ns);
  EXPECT_EQ(b.durability_wait_ns + b.ack_to_end_ns, b.total_ns);
}

TEST(LineageSynthetic, FanOutReachesEveryBranch) {
  // A emits to both wire 20 (component B) and wire 21 (component C);
  // each branch delivers its own external output.
  ComponentTrace a = comp_a();
  a.events.insert(a.events.begin() + 3,
                  ev(9, TraceEventKind::kEmit, 6, WireId(21), 0, 0));
  ComponentTrace c;
  c.component = ComponentId(3);
  c.events = {
      ev(0, TraceEventKind::kDispatch, 6, WireId(21), 0, 0),
      ev(1, TraceEventKind::kHopDispatch, 6, WireId(21), 0, 610),
      ev(2, TraceEventKind::kEmit, 6, WireId(31), 0, 0),
      ev(3, TraceEventKind::kHopDone, 6, WireId(21), 0, 710),
  };
  ComponentTrace edge = edge_stream();
  edge.events.push_back(
      ev(4, TraceEventKind::kOutputDeliver, 6, WireId(31), 0, 820));

  const Trace t = wrap({edge, a, comp_b(), c});
  const InputLineage in = trace_input({t}, WireId(10), 0);
  EXPECT_TRUE(in.complete);
  ASSERT_EQ(in.hops.size(), 3u);  // A, then B and C at depth 1.
  EXPECT_EQ(in.hops[0].children.size(), 2u);
  EXPECT_EQ(in.hops[1].depth, 1u);
  EXPECT_EQ(in.hops[2].depth, 1u);
  ASSERT_EQ(in.outputs.size(), 2u);
  // t_end is the last delivery (820).
  EXPECT_EQ(in.breakdown.ack_to_end_ns, 520);
}

TEST(LineageSynthetic, StallEpisodesCrossLinkAndCount) {
  // B's head (vt 6 on wire 20) was held 50 ns by a pessimism stall
  // (episode id 3, blocked on wire 10) before its dispatch @600.
  ComponentTrace b = comp_b();
  b.events.insert(b.events.begin(),
                  ev(8, TraceEventKind::kStallBegin, 6, WireId(20), 3, 550));
  b.events.insert(b.events.begin() + 1,
                  ev(9, TraceEventKind::kStallResolved, 6, WireId(10), 3, 50));

  const Trace t = wrap({edge_stream(), comp_a(), b});
  const InputLineage in = trace_input({t}, WireId(10), 0);
  ASSERT_TRUE(in.complete);
  ASSERT_EQ(in.hops.size(), 2u);
  EXPECT_EQ(in.hops[1].stall_ns, 50);

  // The episode is cross-linked by id so `tart-trace explain --episode`
  // can pick it up.
  ASSERT_EQ(in.stalls.size(), 1u);
  EXPECT_EQ(in.stalls[0].component, ComponentId(2));
  EXPECT_EQ(in.stalls[0].episode_id, 3u);
  EXPECT_EQ(in.stalls[0].stall_ns, 50);

  // The 100 ns gap before B's dispatch now splits: 50 stall, 50 network.
  const LatencyBreakdown& br = in.breakdown;
  EXPECT_EQ(br.stall_wait_ns, 50);
  EXPECT_EQ(br.network_ns, 50);
  EXPECT_EQ(br.ingress_queue_ns, 100);
  EXPECT_EQ(br.processing_ns, 200);
  EXPECT_EQ(br.output_lag_ns, 100);
  EXPECT_EQ(br.ack_to_end_ns, 500);  // Still exact.
}

TEST(LineageSynthetic, OpaqueWireTerminatesCleanly) {
  // A also emits on wire 99, which nothing in the loaded traces consumes
  // (a reply wire leaving the deployment): the edge terminates cleanly
  // and the DAG still counts as complete.
  ComponentTrace a = comp_a();
  a.events.insert(a.events.begin() + 3,
                  ev(9, TraceEventKind::kEmit, 6, WireId(99), 0, 0));
  const Trace t = wrap({edge_stream(), a, comp_b()});
  const InputLineage in = trace_input({t}, WireId(10), 0);
  EXPECT_TRUE(in.complete);
  EXPECT_EQ(in.hops.size(), 2u);
}

TEST(LineageSynthetic, MissingConsumerSeqMarksIncomplete) {
  // A emits (wire 20, seq 7). Wire 20 demonstrably has a consumer (B
  // dispatches seq 0 on it), but seq 7 never landed anywhere: the DAG has
  // a dangling edge and must not claim completeness.
  ComponentTrace a = comp_a();
  a.events.insert(a.events.begin() + 3,
                  ev(9, TraceEventKind::kEmit, 6, WireId(20), 7, 0));
  const Trace t = wrap({edge_stream(), a, comp_b()});
  const InputLineage in = trace_input({t}, WireId(10), 0);
  EXPECT_FALSE(in.complete);
  // The resolvable part of the DAG is still walked.
  EXPECT_EQ(in.hops.size(), 2u);
}

TEST(LineageSynthetic, SplitStreamsJoinAcrossTraces) {
  // The same DAG split the way a two-node deployment (or a migration
  // cutover) splits it: ingest + A in node-left's trace, B + the output
  // delivery in node-right's trace. The (wire, seq) join must produce the
  // identical complete DAG.
  ComponentTrace edge_left;
  edge_left.component = kEdgeTraceComponent;
  edge_left.events = {
      ev(0, TraceEventKind::kIngestArrive, 5, WireId(10), 0, 100),
      ev(1, TraceEventKind::kIngestDurable, 5, WireId(10), 0, 200),
      ev(2, TraceEventKind::kIngestAck, 5, WireId(10), 0, 300),
  };
  ComponentTrace edge_right;
  edge_right.component = kEdgeTraceComponent;
  edge_right.events = {
      ev(0, TraceEventKind::kOutputDeliver, 6, WireId(30), 0, 800),
  };
  const Trace left = wrap({edge_left, comp_a()});
  const Trace right = wrap({edge_right, comp_b()});

  const LineageReport report = analyze_lineage({left, right});
  ASSERT_EQ(report.inputs.size(), 1u);
  const InputLineage& in = report.inputs[0];
  EXPECT_TRUE(in.acked);
  EXPECT_TRUE(in.complete);
  ASSERT_EQ(in.hops.size(), 2u);
  EXPECT_EQ(in.hops[0].component, ComponentId(1));
  EXPECT_EQ(in.hops[1].component, ComponentId(2));
  ASSERT_EQ(in.outputs.size(), 1u);
  EXPECT_EQ(in.breakdown.total_ns, 700);
}

// ---------------------------------------------------------------------------
// Real runtime.

/// Figure-1 word-count app (two senders into a totaling merger).
struct App {
  core::Topology topo;
  ComponentId s1, s2, merger;
  WireId in1, in2, out;

  App() {
    s1 = topo.add("sender1", [] {
      return std::make_unique<testing_::WordCountSender>();
    });
    s2 = topo.add("sender2", [] {
      return std::make_unique<testing_::WordCountSender>();
    });
    merger = topo.add("merger", [] {
      return std::make_unique<testing_::TotalingMerger>();
    });
    for (const auto c : {s1, s2}) {
      topo.set_estimator(c, [] {
        return estimator::per_iteration_estimator(61000.0);
      });
    }
    topo.set_estimator(merger, [] {
      return std::make_unique<estimator::ConstantEstimator>(
          TickDuration::micros(400));
    });
    in1 = topo.external_input(s1, PortId(0));
    in2 = topo.external_input(s2, PortId(0));
    topo.connect(s1, PortId(0), merger, PortId(0));
    topo.connect(s2, PortId(0), merger, PortId(0));
    out = topo.external_output(merger, PortId(0));
  }

  [[nodiscard]] std::map<ComponentId, EngineId> placement() const {
    return {{s1, EngineId(0)}, {s2, EngineId(0)}, {merger, EngineId(1)}};
  }

  void inject(core::Runtime& rt, int count) const {
    for (int i = 0; i < count; ++i) {
      rt.inject_at(in1, VirtualTime(1000 + i * 100000),
                   testing_::sentence({"the", "cat", "sat"}));
      rt.inject_at(in2, VirtualTime(500 + i * 90000),
                   testing_::sentence({"dog", "ran"}));
    }
  }
};

core::RuntimeConfig lineage_config(const std::string& trace_path) {
  core::RuntimeConfig config;
  config.trace.enabled = true;
  config.trace.path = trace_path;
  config.trace.categories = static_cast<std::uint32_t>(TraceCategory::kAll);
  return config;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(LineageRuntime, WordCountInputsResolveCompletely) {
  const std::string path = temp_path("tart_lineage_e2e.trc");
  constexpr int kPerSender = 6;
  {
    App app;
    core::Runtime rt(app.topo, app.placement(), lineage_config(path));
    rt.start();
    app.inject(rt, kPerSender);
    ASSERT_TRUE(rt.drain(60s));
    rt.stop();
  }

  const Trace t = TraceReader::read_file(path);
  const LineageReport report = analyze_lineage({t});
  // In-process runs have no gateway ack, so nothing counts as acked and
  // resolution is judged per input through `complete`.
  EXPECT_EQ(report.acked, 0u);
  ASSERT_EQ(report.inputs.size(), 2u * kPerSender);

  std::size_t with_outputs = 0;
  for (const InputLineage& in : report.inputs) {
    EXPECT_TRUE(in.complete)
        << "input " << in.wire.value() << ":" << in.seq;
    EXPECT_GE(in.arrive_wall_ns, 0);
    EXPECT_FALSE(in.hops.empty());
    // The decomposition is exclusive and exhaustive for every input.
    const LatencyBreakdown& b = in.breakdown;
    EXPECT_EQ(b.ingress_queue_ns + b.stall_wait_ns + b.processing_ns +
                  b.network_ns + b.output_lag_ns,
              b.ack_to_end_ns);
    EXPECT_EQ(b.durability_wait_ns + b.ack_to_end_ns, b.total_ns);
    EXPECT_GE(b.ack_to_end_ns, 0);
    if (!in.outputs.empty()) ++with_outputs;
  }
  // The merger emits a running total: the workload demonstrably produced
  // externally visible descendants to trace.
  EXPECT_GT(with_outputs, 0u);
  std::remove(path.c_str());
}

/// Hop identity without the wall stamps: what deterministic replay must
/// reproduce exactly.
using HopIdentity = std::set<std::tuple<std::uint32_t, std::uint32_t,
                                        std::uint64_t, std::int64_t>>;

HopIdentity hop_identity(const InputLineage& in) {
  HopIdentity ids;
  for (const LineageHop& h : in.hops)
    ids.insert({h.component.value(), h.wire.value(), h.seq, h.vt.ticks()});
  return ids;
}

std::multiset<std::tuple<std::uint32_t, std::uint64_t, std::int64_t>>
output_identity(const InputLineage& in) {
  std::multiset<std::tuple<std::uint32_t, std::uint64_t, std::int64_t>> ids;
  for (const LineageOutput& o : in.outputs)
    ids.insert({o.wire.value(), o.seq, o.vt.ticks()});
  return ids;
}

std::string make_temp_dir() {
  char tmpl[] = "/tmp/tart_lineage_crash_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  return dir == nullptr ? std::string() : std::string(dir);
}

core::RuntimeConfig durable_lineage_config(const std::string& log_dir,
                                           const std::string& trace_path) {
  core::RuntimeConfig config = lineage_config(trace_path);
  config.log_dir = log_dir;
  return config;
}

/// Child body for the SIGKILL test: ingest, drain, write the marker, then
/// pause until the parent's SIGKILL. Its trace file is never finalized —
/// the recovered incarnation's replay is what reconstructs lineage.
[[noreturn]] void crashing_child(const std::string& dir, int per_sender,
                                 const std::string& marker) {
  App app;
  core::Runtime rt(app.topo, app.placement(),
                   durable_lineage_config(dir, dir + "/never_finalized.trc"));
  rt.start();
  app.inject(rt, per_sender);
  if (!rt.drain(120s)) _exit(3);
  std::FILE* f = std::fopen(marker.c_str(), "w");
  if (f == nullptr) _exit(4);
  std::fclose(f);
  for (;;) std::this_thread::sleep_for(1s);
}

TEST(LineageRuntime, RecoveryReplayYieldsEquivalentLineage) {
  constexpr int kPerSender = 5;
  const std::string crash_dir = make_temp_dir();
  const std::string ref_dir = make_temp_dir();
  ASSERT_FALSE(crash_dir.empty());
  ASSERT_FALSE(ref_dir.empty());
  const std::string marker = crash_dir + "/ingested";

  // Fork the victim first (before this process grows runtime threads).
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) crashing_child(crash_dir, kPerSender, marker);

  // Failure-free reference run over the identical injection plan.
  const std::string ref_trc = temp_path("tart_lineage_ref.trc");
  {
    App app;
    core::Runtime rt(app.topo, app.placement(),
                     durable_lineage_config(ref_dir, ref_trc));
    rt.start();
    app.inject(rt, kPerSender);
    ASSERT_TRUE(rt.drain(120s));
    rt.stop();
  }

  // Fail-stop the victim once its log is durable.
  const auto deadline = std::chrono::steady_clock::now() + 180s;
  while (!std::filesystem::exists(marker)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "child never finished ingesting";
    std::this_thread::sleep_for(2ms);
  }
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);

  // Restart from the log with lineage tracing on and replay to quiescence.
  const std::string rec_trc = temp_path("tart_lineage_rec.trc");
  {
    App app;
    core::Runtime rt(app.topo, app.placement(),
                     durable_lineage_config(crash_dir, rec_trc));
    rt.start();
    const auto stats = durability::ReplayDriver::catch_up(rt, 120s);
    ASSERT_TRUE(stats.caught_up);
    // Close the inputs so pessimism releases the final held heads — the
    // reference run's drain() did the same.
    ASSERT_TRUE(rt.drain(120s));
    rt.stop();
  }

  const Trace ref = TraceReader::read_file(ref_trc);
  const Trace rec = TraceReader::read_file(rec_trc);

  // Replayed messages keep their original (wire, seq), so the recovered
  // trace must yield, for every input, a DAG with the same hop identities
  // and the same outputs as the failure-free reference. The recovered run
  // has no ingest events (nothing was re-injected), hence the force-walk.
  App app;
  for (const WireId in_wire : {app.in1, app.in2}) {
    for (int i = 0; i < kPerSender; ++i) {
      const auto seq = static_cast<std::uint64_t>(i);
      const InputLineage a = trace_input({ref}, in_wire, seq);
      const InputLineage b = trace_input({rec}, in_wire, seq);
      EXPECT_TRUE(a.complete) << in_wire.value() << ":" << seq;
      EXPECT_TRUE(b.complete) << in_wire.value() << ":" << seq;
      EXPECT_EQ(hop_identity(a), hop_identity(b))
          << "hop DAG diverged for " << in_wire.value() << ":" << seq;
      EXPECT_EQ(output_identity(a), output_identity(b))
          << "outputs diverged for " << in_wire.value() << ":" << seq;
    }
  }

  std::remove(ref_trc.c_str());
  std::remove(rec_trc.c_str());
  std::filesystem::remove_all(crash_dir);
  std::filesystem::remove_all(ref_dir);
}

}  // namespace
}  // namespace tart::trace
