// Live-migration process tests: real tart-node processes over loopback,
// driven through their HTTP gateways.
//
// A three-node wordcount deployment — "left" hosts both senders, "mid"
// starts empty, "right" hosts the merger — exercises the staged VT-barrier
// migration protocol end to end (docs/PLACEMENT.md):
//
//   1. migrating sender2 left->mid under load completes with a bounded
//      blackout, the placement epoch propagates to every node, and the
//      final output stream is byte-for-byte the single-process baseline —
//      AND byte-equivalent to a no-migration run of the same deployment
//      (tart-trace diff --recovery on the downstream node's flight
//      recorder);
//   2. the SIGKILL matrix: killing the source or the target at EVERY stage
//      boundary (--migrate-crash-at) and restarting it over the same
//      log_dir converges to exactly one owner, after which the remaining
//      script drains to the same baseline — no acked input lost, none
//      duplicated. The cutover-commit case doubles as the mixed-epoch
//      reconnect regression: the restarted source comes back at a STALE
//      placement epoch and the HELLO handshake must accept the link
//      (topology fingerprints match) and synchronize placement, not refuse.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <optional>

#include "process_fixture.h"
#include "trace/lineage.h"
#include "trace/trace_file.h"

using namespace tart;
using namespace tart::proc;

namespace {

/// left: sender1 + sender2 (the migration source). mid: empty (the
/// migration target). right: merger (downstream observer, never killed).
Deployment write_three_node(const std::string& dir) {
  return write_deployment(dir, {"left", "mid", "right"},
                          "place sender1 = left\n"
                          "place sender2 = left\n"
                          "place merger = right\n");
}

}  // namespace

TEST(MigrationProcessTest, LiveMigrationUnderLoadMatchesBaseline) {
  const auto steps = make_script(40);
  const OutputStream expected = baseline(steps);
  ASSERT_FALSE(expected.empty());
  const std::size_t half = steps.size() / 2;

  const std::string dir = make_temp_dir();
  const std::string right_ref_trace = dir + "/right_ref.trace";
  const std::string right_mig_trace = dir + "/right_mig.trace";
  const std::string left_mig_trace = dir + "/left_mig.trace";
  const std::string mid_mig_trace = dir + "/mid_mig.trace";

  // --- Reference: same deployment, no migration ---------------------------
  OutputStream ref_out;
  {
    const Deployment d = write_three_node(dir);
    ASSERT_EQ(mkdir((dir + "/ref_left").c_str(), 0755), 0);
    NodeProc left(d, "left", {"--log-dir=" + dir + "/ref_left"});
    NodeProc mid(d, "mid");
    NodeProc right(d, "right", {"--trace=" + right_ref_trace});
    auto left_ctl = connect(d, "left");
    auto right_ctl = connect(d, "right");
    auto mid_ctl = connect(d, "mid");
    for (const auto& s : steps) left_ctl.inject(s);
    ASSERT_TRUE(left_ctl.drain());
    ASSERT_TRUE(right_ctl.drain());
    ref_out = right_ctl.totals();
    left_ctl.shutdown_node();
    mid_ctl.shutdown_node();
    right_ctl.shutdown_node();
    EXPECT_EQ(left.reap(), 0);
    EXPECT_EQ(mid.reap(), 0);
    EXPECT_EQ(right.reap(), 0);
  }
  ASSERT_EQ(ref_out, expected)
      << "three-node deployment diverged from the single-process baseline";

  // --- Migration run ------------------------------------------------------
  OutputStream mig_out;
  {
    const Deployment d = write_three_node(dir);
    ASSERT_EQ(mkdir((dir + "/mig_left").c_str(), 0755), 0);
    ASSERT_EQ(mkdir((dir + "/mig_mid").c_str(), 0755), 0);
    NodeProc left(d, "left",
                  {"--log-dir=" + dir + "/mig_left",
                   "--trace=" + left_mig_trace});
    NodeProc mid(d, "mid",
                 {"--log-dir=" + dir + "/mig_mid",
                  "--trace=" + mid_mig_trace});
    NodeProc right(d, "right", {"--trace=" + right_mig_trace});
    auto left_ctl = connect(d, "left");
    auto mid_ctl = connect(d, "mid");
    auto right_ctl = connect(d, "right");

    for (std::size_t i = 0; i < half; ++i) left_ctl.inject(steps[i]);
    // Let the stream reach the merger so the migration moves real state.
    ASSERT_TRUE(poll_until(10s, [&] {
      return right_ctl.metrics().messages_processed >= half / 2;
    })) << "merger never saw the pre-migration prefix";

    // Migrate sender2 while sender1 keeps injecting: migration under load.
    std::thread load([&] {
      try {
        auto ctl = connect(d, "left");
        for (std::size_t i = half; i < steps.size(); ++i)
          if (steps[i].input == "sender1") ctl.inject(steps[i]);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "load thread: " << e.what();
      }
    });
    MigrateResult res;
    try {
      res = left_ctl.migrate("sender2", "mid");
    } catch (const std::exception& e) {
      res.error = e.what();  // join the load thread before failing
    }
    load.join();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.epoch, 1u);
    EXPECT_GT(res.slice_bytes, 0u);
    // record_count can legitimately be 0: the forced checkpoint covers
    // every consumed input, and sender2 was quiescent when sealed.
    EXPECT_GE(res.transfer_ms, 0.0);
    EXPECT_GT(res.blackout_ms, 0.0);
    EXPECT_LT(res.blackout_ms, 10'000.0) << "cutover blackout unbounded";

    // Ownership moved: mid hosts sender2 now, left does not.
    ASSERT_TRUE(poll_until(10s, [&] {
      return !left_ctl.hosts("sender2") && mid_ctl.hosts("sender2");
    })) << "sender2 did not move to mid";
    // The epoch propagated to a node that took no part in the migration.
    ASSERT_TRUE(poll_until(10s, [&] {
      return right_ctl.status().placement_epoch >= 1;
    })) << "placement update never reached the downstream node";
    // GET /status reports the same placement view as GET /obs.
    const std::string status_json = right_ctl.get("/status").body;
    EXPECT_NE(status_json.find("\"placement_epoch\":1"), std::string::npos)
        << status_json;

    // The rest of sender2's script is served by the new owner.
    for (std::size_t i = half; i < steps.size(); ++i)
      if (steps[i].input == "sender2") mid_ctl.inject(steps[i]);

    ASSERT_TRUE(left_ctl.drain());
    ASSERT_TRUE(mid_ctl.drain());
    ASSERT_TRUE(right_ctl.drain());
    mig_out = right_ctl.totals();

    const auto lm = left_ctl.metrics();
    const auto mm = mid_ctl.metrics();
    EXPECT_EQ(lm.mig_started, 1u);
    EXPECT_EQ(lm.mig_completed, 1u);
    EXPECT_EQ(lm.mig_failed, 0u);
    EXPECT_EQ(lm.mig_evicted, 1u);
    EXPECT_GT(lm.mig_bytes_sent, 0u);
    EXPECT_EQ(mm.mig_adopted, 1u);
    EXPECT_GT(mm.mig_bytes_received, 0u);

    left_ctl.shutdown_node();
    mid_ctl.shutdown_node();
    right_ctl.shutdown_node();
    EXPECT_EQ(left.reap(), 0);
    EXPECT_EQ(mid.reap(), 0);
    EXPECT_EQ(right.reap(), 0);
  }
  EXPECT_EQ(mig_out, expected)
      << "output stream with a live migration diverged from baseline";

  // Determinism across the move: the downstream node cannot tell the
  // migrated run from the stay-put run.
  EXPECT_EQ(run_trace_diff(right_ref_trace, right_mig_trace), 0)
      << "tart-trace diff --recovery flagged divergence after migration";

  // Request lineage across the migration (docs/TRACING.md): joining the
  // three per-node flight recorders must resolve EVERY injected input to
  // a complete causal DAG, even for sender2 inputs acked before the
  // cutover whose descendants executed on a different node afterwards.
  const std::vector<trace::Trace> traces = {
      trace::TraceReader::read_file(left_mig_trace),
      trace::TraceReader::read_file(mid_mig_trace),
      trace::TraceReader::read_file(right_mig_trace),
  };
  const trace::LineageReport lineage = trace::analyze_lineage(traces);
  EXPECT_EQ(lineage.inputs.size(), steps.size());
  for (const trace::InputLineage& in : lineage.inputs) {
    EXPECT_TRUE(in.complete)
        << "input " << in.wire.value() << ":" << in.seq
        << " has a dangling causal edge across the migration";
    EXPECT_FALSE(in.hops.empty());
  }
}

namespace {

struct CrashScenario {
  const char* stage;    ///< --migrate-crash-at value
  bool source_side;     ///< true: left crashes; false: mid crashes
  /// Owner of sender2 after restart + convergence. nullptr = either node
  /// is legal (the crash races message delivery); the test then only
  /// asserts that exactly ONE node owns it.
  const char* expected_owner;
};

void run_crash_scenario(const CrashScenario& sc) {
  SCOPED_TRACE(std::string("crash at ") + sc.stage);
  const auto steps = make_script(24);
  const OutputStream expected = baseline(steps);
  const std::size_t half = steps.size() / 2;

  const std::string dir = make_temp_dir();
  const Deployment d = write_three_node(dir);
  const std::string left_dir = dir + "/left";
  const std::string mid_dir = dir + "/mid";
  ASSERT_EQ(mkdir(left_dir.c_str(), 0755), 0);
  ASSERT_EQ(mkdir(mid_dir.c_str(), 0755), 0);
  const std::string crash_flag = std::string("--migrate-crash-at=") + sc.stage;

  std::vector<std::string> left_flags = {"--log-dir=" + left_dir};
  std::vector<std::string> mid_flags = {"--log-dir=" + mid_dir};
  (sc.source_side ? left_flags : mid_flags).push_back(crash_flag);

  NodeProc right(d, "right");
  auto right_ctl = connect(d, "right");
  std::optional<NodeProc> left(std::in_place, d, "left", left_flags);
  std::optional<NodeProc> mid(std::in_place, d, "mid", mid_flags);

  {
    auto left_ctl = connect(d, "left");
    EXPECT_EQ(connect(d, "mid").get("/healthz").status, 200);
    for (std::size_t i = 0; i < half; ++i) left_ctl.inject(steps[i]);
    ASSERT_TRUE(poll_until(10s, [&] {
      return right_ctl.metrics().messages_processed >= half / 2;
    })) << "merger never saw the pre-crash prefix";
  }

  // Drive the migration from a thread: the injected crash kills one end
  // mid-protocol, and the blocking POST /migrate must not hang the test.
  // Restarting the victim (below, WITHOUT the crash flag) is what lets the
  // surviving side resolve — so the call may only return after that.
  std::thread migrate_thread([&] {
    try {
      (void)connect(d, "left").migrate("sender2", "mid");
    } catch (const std::exception&) {
      // Source death severs the HTTP connection mid-request: expected.
    }
  });

  // The victim _exit(137)s at the stage boundary; reap and restart it over
  // the same stable storage, fault injection off.
  NodeProc* victim = sc.source_side ? &*left : &*mid;
  int victim_code = -1;
  const bool victim_died =
      poll_until(30s, [&] { return victim->try_reap(&victim_code); });
  if (!victim_died) {
    // Tear the cluster down so the blocked migrate() connection severs,
    // THEN join: ASSERT-returning past a joinable thread is std::terminate
    // and orphans every child node.
    left.reset();
    mid.reset();
    migrate_thread.join();
    FAIL() << "migration never reached stage " << sc.stage;
  }
  EXPECT_EQ(victim_code, 137);
  if (sc.source_side) {
    left.emplace(d, "left", std::vector<std::string>{"--log-dir=" + left_dir});
  } else {
    mid.emplace(d, "mid", std::vector<std::string>{"--log-dir=" + mid_dir});
  }
  migrate_thread.join();

  // Convergence: the journal + reconnect HELLOs must leave EXACTLY ONE
  // owner, whichever side died. (For cutover-commit this is the
  // mixed-epoch reconnect: the restarted source boots at a stale epoch and
  // the HELLO must accept the link and synchronize, not refuse it.)
  auto left_ctl = connect(d, "left");
  auto mid_ctl = connect(d, "mid");
  std::string owner;
  ASSERT_TRUE(poll_until(30s, [&] {
    const bool on_left = left_ctl.hosts("sender2");
    const bool on_mid = mid_ctl.hosts("sender2");
    if (on_left == on_mid) return false;  // zero or two owners: not settled
    owner = on_left ? "left" : "mid";
    return true;
  })) << "cluster did not converge to exactly one owner of sender2";
  if (sc.expected_owner != nullptr) {
    EXPECT_EQ(owner, sc.expected_owner);
  }

  // The remaining script drains through whoever owns each input now.
  auto& sender2_ctl = owner == "left" ? left_ctl : mid_ctl;
  for (std::size_t i = half; i < steps.size(); ++i)
    (steps[i].input == "sender2" ? sender2_ctl : left_ctl).inject(steps[i]);
  ASSERT_TRUE(left_ctl.drain()) << "left never quiesced";
  ASSERT_TRUE(mid_ctl.drain()) << "mid never quiesced";
  ASSERT_TRUE(right_ctl.drain()) << "right never quiesced";

  // Exactly-once despite the kill: every acked input appears exactly once
  // in the output stream, byte-for-byte the baseline.
  const OutputStream got = right_ctl.totals();
  if (got != expected) {
    auto dump = [](const char* n, NodeClient& c) {
      const auto m = c.metrics();
      std::fprintf(stderr,
                   "[diag %-5s] processed=%lu dup_discarded=%lu refused=%lu "
                   "msgs_in=%lu msgs_out=%lu mig s/c/f=%lu/%lu/%lu "
                   "adopt=%lu evict=%lu upd=%lu\n",
                   n, m.messages_processed, m.duplicates_discarded,
                   m.net_frames_refused, m.net_msgs_in, m.net_msgs_out,
                   m.mig_started, m.mig_completed, m.mig_failed, m.mig_adopted,
                   m.mig_evicted, m.mig_updates_applied);
      const auto st = c.status();
      std::fprintf(stderr, "[diag %-5s] placement_epoch=%lu components:", n,
                   static_cast<unsigned long>(st.placement_epoch));
      for (const auto& comp : st.components)
        std::fprintf(stderr, " %s", comp.name.c_str());
      std::fprintf(stderr, "\n");
    };
    dump("left", left_ctl);
    dump("mid", mid_ctl);
    dump("right", right_ctl);
  }
  EXPECT_EQ(got, expected)
      << "output stream after crash at " << sc.stage
      << " diverged from baseline";

  // Still exactly one owner after the dust settled.
  EXPECT_NE(left_ctl.hosts("sender2"), mid_ctl.hosts("sender2"));
}

}  // namespace

// Source-side crashes before the seal leave the source owning (the intent
// stays in doubt; nothing was adopted). The cutover-commit crash races the
// commit delivery: the target may or may not have adopted, so either
// single-owner outcome is legal. Target-side: a staged-only target never
// owned; a target that journaled kAdopt owns after its restart.
TEST(MigrationProcessTest, SigkillSourceAtPrepare) {
  run_crash_scenario({"prepare", true, "left"});
}
TEST(MigrationProcessTest, SigkillSourceAtTransfer) {
  run_crash_scenario({"transfer", true, "left"});
}
TEST(MigrationProcessTest, SigkillSourceAtDelta) {
  run_crash_scenario({"delta", true, "left"});
}
TEST(MigrationProcessTest, SigkillSourceAtCutoverCommit) {
  run_crash_scenario({"cutover-commit", true, nullptr});
}
TEST(MigrationProcessTest, SigkillTargetAtStaged) {
  run_crash_scenario({"staged", false, "left"});
}
TEST(MigrationProcessTest, SigkillTargetAtAdopt) {
  run_crash_scenario({"adopt", false, "mid"});
}
