// Recovery-time-objective (RTO) experiment for tiered fast restart
// (docs/RECOVERY.md; paper §II.F: recovery = checkpoint restore +
// deterministic replay of the external log suffix).
//
// For each workload size the harness fork()s an ingester child that runs
// the Figure-1 word-count application against a log directory, taking one
// durable checkpoint a fixed-size tail before the end (or none, for the
// cold baseline), then pauses. The parent SIGKILLs it mid-pause — a genuine
// fail-stop, no destructors — and measures restart-to-caught-up: runtime
// construction (checkpoint restore + log scan), start, and the suffix
// replay to quiescence with outputs suppressed.
//
// Expected shape: cold RTO grows linearly with log length (the whole log
// replays); checkpointed RTO stays ~flat (only the post-checkpoint suffix
// replays) and the on-disk log stays bounded (compaction is gated by the
// newest durable checkpoint, so covered segments are deleted).
//
// --smoke: one small checkpointed run asserting the restart actually came
// from a checkpoint and replayed only a suffix (scripts/check.sh).
// --json[=FILE]: machine-readable results (BENCH_recovery.json in CI).
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "apps/wordcount.h"
#include "core/runtime.h"
#include "durability/manager.h"
#include "durability/replay.h"
#include "estimator/estimator.h"
#include "exp_util.h"

namespace {

using namespace std::chrono_literals;
using tart::EngineId;
using tart::PortId;
using tart::core::Topology;
using Clock = std::chrono::steady_clock;

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
          tart::TickDuration::micros(50));
    });
    in1 = topo.external_input(s1, PortId(0));
    in2 = topo.external_input(s2, PortId(0));
    topo.connect(s1, PortId(0), merger, PortId(0));
    topo.connect(s2, PortId(0), merger, PortId(0));
    out = topo.external_output(merger, PortId(0));
  }
};

std::string make_temp_dir() {
  char tmpl[] = "/tmp/tart_bench_recovery_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  return dir == nullptr ? std::string() : std::string(dir);
}

tart::core::RuntimeConfig node_config(const std::string& dir) {
  tart::core::RuntimeConfig config;
  config.checkpoint.every_n_messages = 8;
  config.checkpoint.full_every_k = 4;
  config.log_dir = dir;
  return config;
}

tart::core::Runtime make_runtime(App& app,
                                 const tart::core::RuntimeConfig& config) {
  return tart::core::Runtime(
      app.topo,
      {{app.s1, EngineId(0)}, {app.s2, EngineId(0)},
       {app.merger, EngineId(1)}},
      config);
}

/// Child body: ingest `per_sender` messages per sender; when `checkpoint`,
/// take one durable checkpoint with `tail` messages per sender still to
/// come — so the restart always replays a fixed-size suffix no matter how
/// long the covered prefix grew. Writes the marker file, then pauses until
/// SIGKILL.
[[noreturn]] void ingest_child(const std::string& dir, int per_sender,
                               int tail, bool checkpoint,
                               const std::string& marker) {
  {
    App app;
    tart::core::Runtime rt = make_runtime(app, node_config(dir));
    rt.start();
    const int prefix = per_sender > tail ? per_sender - tail : 0;
    const auto inject_one = [&](int i) {
      rt.inject_at(app.in1, tart::VirtualTime(1000 + i * 100000),
                   tart::apps::sentence({"the", "cat", "sat"}));
      rt.inject_at(app.in2, tart::VirtualTime(500 + i * 90000),
                   tart::apps::sentence({"dog", "ran"}));
    };
    for (int i = 0; i < prefix; ++i) inject_one(i);
    if (checkpoint && prefix > 0) {
      // Settle (NOT drain: drain closes the inputs and the tail is still to
      // come) so the checkpoint covers the whole prefix, then persist it.
      if (!tart::durability::ReplayDriver::catch_up(rt, 120s).caught_up)
        _exit(3);
      const auto stats = rt.checkpoint_manager()->checkpoint_now();
      if (!stats.ok) _exit(5);
    }
    for (int i = prefix; i < per_sender; ++i) inject_one(i);
    if (!rt.drain(120s)) _exit(3);
    std::FILE* f = std::fopen(marker.c_str(), "w");
    if (f == nullptr) _exit(4);
    std::fclose(f);
    // Paused, logs durable: the parent's SIGKILL is the crash.
    for (;;) std::this_thread::sleep_for(1s);
  }
}

struct Measurement {
  double rto_ms = 0.0;
  bool from_checkpoint = false;
  std::uint64_t covered = 0;
  std::uint64_t suffix = 0;
  std::uint64_t log_bytes = 0;
  bool ok = false;
};

/// One crash/restart cycle. Returns the restart-side measurement.
Measurement run_cycle(int per_sender, int tail, bool checkpoint) {
  Measurement m;
  const std::string dir = make_temp_dir();
  if (dir.empty()) return m;
  const std::string marker = dir + "/ingested";

  const pid_t pid = fork();
  if (pid < 0) return m;
  if (pid == 0) ingest_child(dir, per_sender, tail, checkpoint, marker);

  // Wait for the child to finish ingesting, then fail-stop it.
  const auto deadline = Clock::now() + 180s;
  while (!std::filesystem::exists(marker)) {
    if (Clock::now() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      std::filesystem::remove_all(dir);
      return m;
    }
    std::this_thread::sleep_for(2ms);
  }
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);

  // Tiered restart: construct (restore + scan) + start + catch-up replay.
  {
    App app;
    const auto t0 = Clock::now();
    tart::core::Runtime rt = make_runtime(app, node_config(dir));
    rt.start();
    const auto stats = tart::durability::ReplayDriver::catch_up(rt, 120s);
    m.rto_ms = static_cast<double>(
                   std::chrono::duration_cast<std::chrono::microseconds>(
                       Clock::now() - t0)
                       .count()) /
               1000.0;
    m.from_checkpoint = rt.recovery_info().from_checkpoint;
    m.covered = rt.recovery_info().covered_records;
    m.suffix = rt.recovery_info().suffix_records;
    m.log_bytes = rt.log_bytes_on_disk();
    m.ok = stats.caught_up;
    rt.stop();
  }
  std::filesystem::remove_all(dir);
  return m;
}

int smoke(bool json, const std::string& json_path) {
  const Measurement m = run_cycle(/*per_sender=*/150, /*tail=*/50,
                                  /*checkpoint=*/true);
  if (!m.ok) {
    std::printf("SMOKE FAIL: restart did not catch up\n");
    return 1;
  }
  if (!m.from_checkpoint || m.covered == 0) {
    std::printf("SMOKE FAIL: restart did not boot from a checkpoint "
                "(covered=%llu)\n",
                static_cast<unsigned long long>(m.covered));
    return 1;
  }
  if (m.suffix >= 300) {
    std::printf("SMOKE FAIL: suffix replay (%llu records) is not shorter "
                "than the full log\n",
                static_cast<unsigned long long>(m.suffix));
    return 1;
  }
  std::printf("bench_recovery smoke OK: rto=%.1fms covered=%llu "
              "suffix=%llu log_bytes=%llu\n",
              m.rto_ms, static_cast<unsigned long long>(m.covered),
              static_cast<unsigned long long>(m.suffix),
              static_cast<unsigned long long>(m.log_bytes));
  if (json) {
    tart::bench::JsonResult results("recovery");
    results.metric("ckpt_rto_ms", m.rto_ms);
    results.metric("covered", m.covered);
    results.metric("suffix", m.suffix);
    results.metric("log_bytes", m.log_bytes);
    if (!results.write(json_path)) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke_mode = false;
  bool json = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke_mode = true;
    } else if (!tart::bench::parse_json_flag(arg, &json, &json_path)) {
      std::fprintf(stderr,
                   "usage: bench_recovery [--smoke] [--json[=FILE]]\n");
      return 2;
    }
  }
  if (smoke_mode) return smoke(json, json_path);

  tart::bench::banner("Recovery time vs log length (tiered fast restart)",
                      "S II.F (checkpoint restore + suffix-only replay; "
                      "docs/RECOVERY.md)");

  tart::bench::Table table({"msgs/sender", "cold RTO (ms)", "cold log KB",
                            "ckpt RTO (ms)", "ckpt log KB", "covered",
                            "suffix"});
  tart::bench::JsonResult results("recovery");
  for (const int n : {250, 500, 1000, 2000}) {
    const Measurement cold = run_cycle(n, /*tail=*/0, /*checkpoint=*/false);
    const Measurement ckpt = run_cycle(n, /*tail=*/100, /*checkpoint=*/true);
    if (!cold.ok || !ckpt.ok) {
      std::printf("ERROR: restart failed to catch up at n=%d\n", n);
      return 1;
    }
    const std::string key = tart::bench::fmt("n%d", n);
    results.metric(key + "_cold_rto_ms", cold.rto_ms);
    results.metric(key + "_ckpt_rto_ms", ckpt.rto_ms);
    results.metric(key + "_cold_log_bytes", cold.log_bytes);
    results.metric(key + "_ckpt_log_bytes", ckpt.log_bytes);
    results.metric(key + "_covered", ckpt.covered);
    results.metric(key + "_suffix", ckpt.suffix);
    table.row({
        tart::bench::fmt("%d", n),
        tart::bench::fmt("%.1f", cold.rto_ms),
        tart::bench::fmt("%.1f", static_cast<double>(cold.log_bytes) / 1024.0),
        tart::bench::fmt("%.1f", ckpt.rto_ms),
        tart::bench::fmt("%.1f", static_cast<double>(ckpt.log_bytes) / 1024.0),
        tart::bench::fmt("%llu", static_cast<unsigned long long>(ckpt.covered)),
        tart::bench::fmt("%llu", static_cast<unsigned long long>(ckpt.suffix)),
    });
  }
  table.print();
  std::printf(
      "\nExpected shape: cold RTO and cold log bytes grow with the log;\n"
      "checkpointed RTO tracks the (fixed-size) suffix and the gated log\n"
      "stays bounded because compaction deletes covered segments.\n");
  if (json && !results.write(json_path)) return 1;
  return 0;
}
