// Flight-recorder determinism harness (the checkable form of §II.A/§II.D):
//
//   - two runs of a random app over the same scripted input log must
//     produce byte-identical trace files, and the differ must agree;
//   - a run with mid-stream engine crashes must replay to a trace that is
//     identical to the failure-free reference modulo documented stutter
//     (recovery-mode diff);
//   - injected nondeterminism (the test-only vt-skew hook) must be caught
//     by the strict differ, naming the offending component;
//   - the recorder must not drop events under the harness workloads
//     (asserted through the tart_trace_events_* registry families).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "obs/exposition.h"
#include "obs/prof.h"
#include "random_app.h"
#include "trace/diff.h"
#include "trace/trace_file.h"

namespace tart::core {
namespace {

using namespace std::chrono_literals;

std::string temp_trace_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("tart_trace_" + tag + ".trc"))
      .string();
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::map<ComponentId, EngineId> two_engine_placement(
    const proptest::GeneratedApp& app) {
  std::map<ComponentId, EngineId> placement;
  for (std::size_t i = 0; i < app.components.size(); ++i)
    placement[app.components[i]] = EngineId(i % 2 == 0 ? 0 : 1);
  return placement;
}

struct PlannedInjection {
  WireId wire;
  VirtualTime vt;
  Payload payload;
};

/// Mirrors proptest::feed_random_workload so it can be chunked.
std::vector<PlannedInjection> plan_workload(const proptest::GeneratedApp& app,
                                            std::uint64_t seed) {
  Rng rng(seed * 31 + 7);
  std::vector<PlannedInjection> plan;
  for (const WireId in : app.inputs) {
    std::int64_t vt = 1000;
    const auto count = rng.uniform_int(20, 60);
    for (int i = 0; i < count; ++i) {
      vt += rng.uniform_int(1000, 200'000);
      plan.push_back({in, VirtualTime(vt),
                      apps::event(rng.uniform_int(0, 6),
                                  rng.uniform_int(-50, 900))});
    }
  }
  return plan;
}

/// Reads a family out of the runtime's registry, harvested now.
std::uint64_t harvested(Runtime& rt, const char* family) {
  rt.harvest_telemetry();
  return obs::family_total(rt.registry().samples(), family);
}

/// Runs the seeded app with tracing to `path`; returns the registry's
/// samples, harvested while the runtime was still live.
std::vector<obs::Sample> run_traced(std::uint64_t seed,
                                    const std::string& path,
                                    RuntimeConfig config) {
  proptest::GeneratedApp app = proptest::generate_app(seed);
  config.trace.enabled = true;
  config.trace.path = path;
  Runtime rt(app.topo, two_engine_placement(app), std::move(config));
  rt.start();
  for (const auto& inj : plan_workload(app, seed))
    rt.inject_at(inj.wire, inj.vt, inj.payload);
  EXPECT_TRUE(rt.drain(60s)) << "seed " << seed;
  rt.harvest_telemetry();
  std::vector<obs::Sample> samples = rt.registry().samples();
  rt.stop();  // finalizes the recorder and writes the file
  return samples;
}

TEST(TraceDeterminism, SameSeedYieldsByteIdenticalTraces) {
  for (const std::uint64_t seed : {3ull, 7ull, 11ull}) {
    const std::string pa = temp_trace_path("a" + std::to_string(seed));
    const std::string pb = temp_trace_path("b" + std::to_string(seed));
    const auto ma = run_traced(seed, pa, RuntimeConfig{});
    const auto mb = run_traced(seed, pb, RuntimeConfig{});

    // The recorder must have kept everything: a dropped event would
    // silently punch a hole in the determinism check.
    EXPECT_GT(obs::family_total(ma, "tart_trace_events_recorded_total"), 0u);
    EXPECT_EQ(obs::family_total(ma, "tart_trace_events_dropped_total"), 0u);
    EXPECT_EQ(obs::family_total(mb, "tart_trace_events_dropped_total"), 0u);

    EXPECT_EQ(file_bytes(pa), file_bytes(pb))
        << "trace files differ for seed " << seed;

    const auto ta = trace::TraceReader::read_file(pa);
    const auto tb = trace::TraceReader::read_file(pb);
    const auto diff = trace::diff_traces(ta, tb);
    EXPECT_TRUE(diff.identical()) << diff.divergence->describe();
    EXPECT_EQ(diff.compared, ta.total_events());

    std::remove(pa.c_str());
    std::remove(pb.c_str());
  }
}

TEST(TraceDeterminism, CrashRecoveryReplaysToPrefixIdenticalTrace) {
  for (const std::uint64_t seed : {2ull, 5ull, 9ull}) {
    RuntimeConfig config;
    config.checkpoint.every_n_messages = 4;

    const std::string ref_path = temp_trace_path("ref" + std::to_string(seed));
    run_traced(seed, ref_path, config);

    // Same workload with a seed-derived crash/recover schedule.
    const std::string crashed_path =
        temp_trace_path("crash" + std::to_string(seed));
    proptest::GeneratedApp app = proptest::generate_app(seed);
    RuntimeConfig crash_config = config;
    crash_config.trace.enabled = true;
    crash_config.trace.path = crashed_path;
    Runtime rt(app.topo, two_engine_placement(app), std::move(crash_config));
    rt.start();
    const auto plan = plan_workload(app, seed);
    Rng chaos(seed ^ 0xC4A5u);
    std::set<std::size_t> crash_points;
    const int crashes = static_cast<int>(chaos.uniform_int(1, 2));
    for (int i = 0; i < crashes; ++i)
      crash_points.insert(chaos.bounded(plan.size()));
    for (std::size_t i = 0; i < plan.size(); ++i) {
      rt.inject_at(plan[i].wire, plan[i].vt, plan[i].payload);
      if (crash_points.contains(i)) {
        std::this_thread::sleep_for(5ms);
        const EngineId victim(static_cast<std::uint32_t>(chaos.bounded(2)));
        rt.crash_engine(victim);
        rt.recover_engine(victim);
      }
    }
    ASSERT_TRUE(rt.drain(60s)) << "seed " << seed;
    EXPECT_EQ(harvested(rt, "tart_trace_events_dropped_total"), 0u);
    rt.stop();

    const auto reference = trace::TraceReader::read_file(ref_path);
    const auto recovered = trace::TraceReader::read_file(crashed_path);

    // Strict comparison must reject the crashed run (it contains at least
    // the crash/recovery markers) ...
    EXPECT_FALSE(trace::diff_traces(reference, recovered).identical())
        << "seed " << seed;

    // ... while the recovery-mode diff must find nothing beyond the
    // documented stutter: every dispatch decision replays identically.
    const auto diff = trace::diff_traces(reference, recovered,
                                         {.allow_stutter = true});
    EXPECT_TRUE(diff.identical())
        << "seed " << seed << "\n" << diff.divergence->describe();
    EXPECT_GT(diff.skipped, 0u);  // crash markers et al. were tallied

    std::remove(ref_path.c_str());
    std::remove(crashed_path.c_str());
  }
}

TEST(TraceDeterminism, InjectedNondeterminismIsCaughtAndNamed) {
  const std::uint64_t seed = 4;
  const std::string pa = temp_trace_path("clean");
  const std::string pb = temp_trace_path("skewed");
  run_traced(seed, pa, RuntimeConfig{});

  proptest::GeneratedApp app = proptest::generate_app(seed);
  const ComponentId victim = app.components[app.components.size() / 2];
  RuntimeConfig skewed;
  skewed.trace.debug_vt_skew[victim] = 1;  // one tick: trace-layer only
  run_traced(seed, pb, skewed);

  const auto ta = trace::TraceReader::read_file(pa);
  const auto tb = trace::TraceReader::read_file(pb);
  const auto diff = trace::diff_traces(ta, tb);
  ASSERT_FALSE(diff.identical());
  EXPECT_EQ(diff.divergence->component, victim);
  // The report names the component and the virtual times that forked.
  const std::string d = diff.divergence->describe();
  EXPECT_NE(d.find('#'), std::string::npos);
  EXPECT_NE(d.find("vt="), std::string::npos);

  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

// The telemetry layer is a read-only observer: a run polled the way
// GET /obs polls it (an aggressive 1ms reader running the scrape-time
// harvest and rendering the JSONL series line from every registry sample)
// with every registry histogram live must trace byte-identically to a bare
// run. If
// any instrumentation path ever feeds back into scheduling (a lock on the
// dispatch path, a wall-clock read that shifts a virtual time), this is
// the test that goes red.
TEST(TraceDeterminism, SamplerAndInstrumentationDoNotPerturbTraces) {
  for (const std::uint64_t seed : {3ull, 8ull}) {
    const std::string bare = temp_trace_path("bare" + std::to_string(seed));
    run_traced(seed, bare, RuntimeConfig{});

    const std::string observed =
        temp_trace_path("obs" + std::to_string(seed));
    {
      proptest::GeneratedApp app = proptest::generate_app(seed);
      RuntimeConfig config;
      config.trace.enabled = true;
      config.trace.path = observed;
      Runtime rt(app.topo, two_engine_placement(app), std::move(config));
      std::atomic<bool> stop{false};
      std::size_t lines = 0;
      std::thread poller([&] {
        do {
          rt.harvest_telemetry();
          const std::string line = obs::render_series_line(
              static_cast<std::int64_t>(lines), rt.registry().samples());
          if (!line.empty()) ++lines;
          std::this_thread::sleep_for(1ms);
        } while (!stop.load());
      });
      rt.start();
      for (const auto& inj : plan_workload(app, seed))
        rt.inject_at(inj.wire, inj.vt, inj.payload);
      const bool drained = rt.drain(60s);
      stop.store(true);
      poller.join();
      ASSERT_TRUE(drained) << "seed " << seed;
      EXPECT_GT(lines, 0u);
      rt.stop();
    }

    EXPECT_EQ(file_bytes(bare), file_bytes(observed))
        << "telemetry perturbed the trace for seed " << seed;

    std::remove(bare.c_str());
    std::remove(observed.c_str());
  }
}

// PR 5's stall-forensics events (kStallResolved/kStallBlame, plus the wall
// stamp riding kSilencePromise's aux) are diagnostic-class: they carry
// real-time measurements, so they may differ between seeded runs — but
// they must never leak into the scheduling stream, and the default
// (scheduling-only) trace must not contain them at all.
TEST(TraceDeterminism, ForensicsEventsStayOutOfTheSchedulingStream) {
  for (const std::uint64_t seed : {3ull, 8ull}) {
    const std::string sched = temp_trace_path("sched" + std::to_string(seed));
    run_traced(seed, sched, RuntimeConfig{});

    RuntimeConfig diag_config;
    diag_config.trace.categories =
        static_cast<std::uint32_t>(trace::TraceCategory::kScheduling) |
        static_cast<std::uint32_t>(trace::TraceCategory::kDiagnostic);
    const std::string diag = temp_trace_path("diag" + std::to_string(seed));
    run_traced(seed, diag, diag_config);

    const auto ts = trace::TraceReader::read_file(sched);
    const auto td = trace::TraceReader::read_file(diag);

    // Scheduling-only trace: no diagnostic kinds at all.
    for (const auto& ct : ts.components)
      for (const auto& e : ct.events)
        EXPECT_EQ(trace::category_of(e.kind),
                  trace::TraceCategory::kScheduling)
            << trace::name_of(e.kind);

    // The differ ignores diagnostics by design, so the diagnostic run must
    // make exactly the scheduling decisions of the bare run. (Lineage is
    // excluded here: enabling it registers the synthetic edge stream, which
    // changes the component set — LineageDoesNotPerturbScheduling covers
    // that case via category projections.)
    const auto diff = trace::diff_traces(ts, td);
    EXPECT_TRUE(diff.identical())
        << "seed " << seed << "\n" << diff.divergence->describe();

    std::remove(sched.c_str());
    std::remove(diag.c_str());
  }
}

// Lineage events carry wall-clock stamps, so two lineage-enabled runs are
// NOT byte-identical — but the scheduling-category projection of each must
// be. This is the acceptance form of "lineage does not perturb
// determinism": filter_categories(t, kScheduling) strips the wall-stamped
// lineage/diagnostic records (and rebases per-component seqs), and the
// projections of two same-seed kAll runs must encode to identical bytes.
TEST(TraceDeterminism, LineageDoesNotPerturbScheduling) {
  for (const std::uint64_t seed : {3ull, 8ull}) {
    RuntimeConfig all_config;
    all_config.trace.categories =
        static_cast<std::uint32_t>(trace::TraceCategory::kAll);

    const std::string pa = temp_trace_path("lina" + std::to_string(seed));
    const std::string pb = temp_trace_path("linb" + std::to_string(seed));
    run_traced(seed, pa, all_config);
    run_traced(seed, pb, all_config);

    const auto ta = trace::TraceReader::read_file(pa);
    const auto tb = trace::TraceReader::read_file(pb);

    // Lineage was actually recorded (otherwise this test proves nothing).
    std::size_t lineage_events = 0;
    for (const auto& ct : ta.components)
      for (const auto& e : ct.events)
        if (trace::category_of(e.kind) == trace::TraceCategory::kLineage)
          ++lineage_events;
    EXPECT_GT(lineage_events, 0u) << "seed " << seed;

    // Scheduling projections are byte-identical across the two runs.
    const auto proj_a = trace::filter_categories(
        ta, static_cast<std::uint32_t>(trace::TraceCategory::kScheduling));
    const auto proj_b = trace::filter_categories(
        tb, static_cast<std::uint32_t>(trace::TraceCategory::kScheduling));
    EXPECT_EQ(trace::encode_trace(proj_a), trace::encode_trace(proj_b))
        << "scheduling projection diverged for seed " << seed;

    // The differ (which itself skips non-scheduling events) agrees on the
    // full traces too: same components, same decisions.
    const auto diff = trace::diff_traces(ta, tb);
    EXPECT_TRUE(diff.identical())
        << "seed " << seed << "\n" << diff.divergence->describe();

    std::remove(pa.c_str());
    std::remove(pb.c_str());
  }
}

// The hot-path span profiler is the same kind of read-only observer as a
// GET /obs poller: it reads wall clocks inside dispatch, decode, and flush paths
// but never feeds a scheduling decision. A run with profiling enabled must
// trace byte-identically to a run with the runtime kill switch off — the
// non-interference contract for TART_PROF_SPAN in the hottest code.
TEST(TraceDeterminism, ProfilingOnVsOffTracesAreByteIdentical) {
  for (const std::uint64_t seed : {3ull, 8ull}) {
    const std::string off = temp_trace_path("profoff" + std::to_string(seed));
    obs::prof::set_enabled(false);
    run_traced(seed, off, RuntimeConfig{});

    const std::string on = temp_trace_path("profon" + std::to_string(seed));
    obs::prof::set_enabled(true);
    run_traced(seed, on, RuntimeConfig{});

    // The profiled run actually recorded spans (otherwise this proves
    // nothing): runner.dispatch fires once per delivered message.
    bool saw_dispatch = false;
    for (const auto& s : obs::prof::snapshot().sites)
      if (s.name == "runner.dispatch" && s.count > 0) saw_dispatch = true;
    EXPECT_TRUE(saw_dispatch) << "seed " << seed;

    EXPECT_EQ(file_bytes(off), file_bytes(on))
        << "profiling perturbed the trace for seed " << seed;

    std::remove(off.c_str());
    std::remove(on.c_str());
  }
}

TEST(TraceDeterminism, DisabledTracingWritesNothing) {
  proptest::GeneratedApp app = proptest::generate_app(1);
  Runtime rt(app.topo, two_engine_placement(app), RuntimeConfig{});
  EXPECT_EQ(rt.trace_recorder(), nullptr);
  rt.start();
  for (const auto& inj : plan_workload(app, 1))
    rt.inject_at(inj.wire, inj.vt, inj.payload);
  ASSERT_TRUE(rt.drain(60s));
  EXPECT_EQ(harvested(rt, "tart_trace_events_recorded_total"), 0u);
  rt.stop();
}

}  // namespace
}  // namespace tart::core
