// Ablation B — checkpoint frequency (§II.F.2: "The checkpoint frequency is
// a tuning parameter: more frequent checkpointing reduces recovery time
// but increases overhead").
//
// Runs the Figure-1 word-count application on the real threaded runtime
// (senders on engine 0, merger on engine 1), sweeping the soft-checkpoint
// interval. For each setting it measures:
//   - failure-free cost: wall time to process the workload, bytes shipped
//     to the passive replica, and sender retention (trimmed by the
//     stability acks the merger's checkpoints generate);
//   - recovery: wall time from merger-engine failover to full catch-up.
//   - durable path (docs/RECOVERY.md): the same workload against a
//     log-dir-backed runtime (always durable checkpoints); one forced
//     checkpoint at the end gates log compaction, so the column pair shows
//     the checkpoint's on-disk size against the log bytes left after the
//     gate reclaimed everything the checkpoint covers.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "apps/wordcount.h"
#include "core/runtime.h"
#include "durability/manager.h"
#include "estimator/estimator.h"
#include "exp_util.h"

namespace {

using namespace std::chrono_literals;
using tart::EngineId;
using tart::PortId;
using tart::core::Topology;
using Clock = std::chrono::steady_clock;

constexpr int kMessagesPerSender = 1500;

struct App {
  Topology topo;
  tart::ComponentId s1, s2, merger;
  tart::WireId in1, in2, out;

  App() {
    s1 = topo.add("sender1", [] {
      return std::make_unique<tart::apps::WordCountSender>();
    });
    s2 = topo.add("sender2", [] {
      return std::make_unique<tart::apps::WordCountSender>();
    });
    merger = topo.add("merger", [] {
      return std::make_unique<tart::apps::TotalingMerger>();
    });
    for (const auto c : {s1, s2}) {
      topo.set_estimator(c, [] {
        return tart::estimator::per_iteration_estimator(61000.0);
      });
    }
    topo.set_estimator(merger, [] {
      return std::make_unique<tart::estimator::ConstantEstimator>(
          tart::TickDuration::micros(400));
    });
    in1 = topo.external_input(s1, PortId(0));
    in2 = topo.external_input(s2, PortId(0));
    topo.connect(s1, PortId(0), merger, PortId(0));
    topo.connect(s2, PortId(0), merger, PortId(0));
    out = topo.external_output(merger, PortId(0));
  }
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(b - a)
                 .count()) /
         1000.0;
}

std::string make_temp_dir() {
  char tmpl[] = "/tmp/tart_ablation_ckpt_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  return dir == nullptr ? std::string() : std::string(dir);
}

void inject_workload(tart::core::Runtime& rt, const App& app) {
  for (int i = 0; i < kMessagesPerSender; ++i) {
    rt.inject_at(app.in1, tart::VirtualTime(1000 + i * 100000),
                 tart::apps::sentence({"the", "cat", "sat"}));
    rt.inject_at(app.in2, tart::VirtualTime(500 + i * 90000),
                 tart::apps::sentence({"dog", "ran"}));
  }
}

}  // namespace

int main() {
  tart::bench::banner("Ablation B: checkpoint frequency",
                      "S II.F.2 (more frequent checkpointing: faster "
                      "recovery, more overhead)");

  tart::bench::Table table({"ckpt every N msgs", "run (ms)",
                            "replica snapshots", "replica KB",
                            "sender retention", "recovery (ms)",
                            "durable run (ms)", "durable ckpt KB",
                            "log KB gated"});

  for (const std::uint64_t every_n : {0ULL, 1ULL, 4ULL, 16ULL, 64ULL}) {
    App app;
    tart::core::RuntimeConfig config;
    config.checkpoint.every_n_messages = every_n;
    config.checkpoint.full_every_k = 8;
    tart::core::Runtime rt(
        app.topo,
        {{app.s1, EngineId(0)}, {app.s2, EngineId(0)},
         {app.merger, EngineId(1)}},
        config);
    rt.start();

    const auto t0 = Clock::now();
    inject_workload(rt, app);
    if (!rt.drain(120s)) {
      std::printf("ERROR: failed to drain at every_n=%llu\n",
                  static_cast<unsigned long long>(every_n));
      return 1;
    }
    const auto t1 = Clock::now();
    const auto retained = rt.retained_messages(app.s1) +
                          rt.retained_messages(app.s2);
    const auto snapshots = rt.replica().snapshots_received();
    const auto bytes = rt.replica().bytes_received();

    // Failover: kill the merger's engine, restore from the replica, and
    // time until the replay has fully caught up (drained again).
    const auto r0 = Clock::now();
    rt.crash_engine(EngineId(1));
    rt.recover_engine(EngineId(1));
    if (!rt.drain(120s)) {
      std::printf("ERROR: failed to re-drain after failover\n");
      return 1;
    }
    const auto r1 = Clock::now();
    rt.stop();

    // Durable path: same workload, log-dir-backed, one forced durable
    // checkpoint at the end (which gates segment compaction).
    const std::string dir = make_temp_dir();
    double durable_ms = 0.0;
    std::uint64_t ckpt_bytes = 0;
    std::uint64_t log_bytes = 0;
    {
      App dapp;
      tart::core::RuntimeConfig dconfig;
      dconfig.checkpoint.every_n_messages = every_n;
      dconfig.checkpoint.full_every_k = 8;
      dconfig.log_dir = dir;
      // Small segments so "log KB gated" shows compaction actually deleting
      // covered files, not just one giant undeletable active segment.
      dconfig.durability.segment_bytes = 16ull << 10;
      tart::core::Runtime drt(
          dapp.topo,
          {{dapp.s1, EngineId(0)}, {dapp.s2, EngineId(0)},
           {dapp.merger, EngineId(1)}},
          dconfig);
      drt.start();
      const auto d0 = Clock::now();
      inject_workload(drt, dapp);
      if (!drt.drain(120s)) {
        std::printf("ERROR: failed to drain durable run\n");
        return 1;
      }
      durable_ms = ms_between(d0, Clock::now());
      const auto stats = drt.checkpoint_manager()->checkpoint_now();
      if (!stats.ok) {
        std::printf("ERROR: durable checkpoint failed: %s\n",
                    stats.error.c_str());
        return 1;
      }
      ckpt_bytes = stats.bytes;
      log_bytes = drt.log_bytes_on_disk();
      drt.stop();
    }
    if (!dir.empty()) std::filesystem::remove_all(dir);

    table.row({
        every_n == 0 ? std::string("off") : tart::bench::fmt("%llu",
                       static_cast<unsigned long long>(every_n)),
        tart::bench::fmt("%.1f", ms_between(t0, t1)),
        tart::bench::fmt("%llu", static_cast<unsigned long long>(snapshots)),
        tart::bench::fmt("%.1f", static_cast<double>(bytes) / 1024.0),
        tart::bench::fmt("%llu", static_cast<unsigned long long>(retained)),
        tart::bench::fmt("%.1f", ms_between(r0, r1)),
        tart::bench::fmt("%.1f", durable_ms),
        tart::bench::fmt("%.1f", static_cast<double>(ckpt_bytes) / 1024.0),
        tart::bench::fmt("%.1f", static_cast<double>(log_bytes) / 1024.0),
    });
  }
  table.print();
  std::printf(
      "\nExpected shape: frequent checkpoints cost replica bandwidth but\n"
      "trim retention aggressively and make failover replay (and hence\n"
      "recovery time) short; with checkpointing off, recovery replays the\n"
      "entire external log.\n");
  return 0;
}
