// Two-process deployment soak: real tart-node processes over loopback TCP,
// driven only through their HTTP gateways.
//
// The wordcount topology is split across two nodes — "left" hosts the
// senders (and the external inputs), "right" hosts the merger (and the
// external output). The tests check the paper's end-to-end claim for real
// processes:
//
//   1. a clean two-process run produces exactly the single-process
//      baseline's output stream (placement transparency), with each
//      gateway serving only its own partition's wires;
//   2. freezing the left node trips heartbeat detection, and SIGKILL-ing it
//      mid-run then restarting it over the same log_dir recovers
//      transparently: logged inputs replay, the surviving merger discards
//      the duplicates by timestamp, and the final output stream is STILL
//      byte-for-byte the baseline (§II.F);
//   3. the surviving node's flight-recorder traces from the clean and the
//      killed run are recovery-equivalent (tart-trace diff --recovery);
//   4. durability, transport and telemetry counters surface in GET /obs;
//   5. the same holds through a durable checkpoint and tiered restart;
//   6. `tart-node --push` ships the GET /obs report as POST /obs.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/stat.h>

#include <optional>

#include "gateway/http.h"
#include "process_fixture.h"

using namespace tart;
using namespace tart::proc;

namespace {

Deployment write_two_node(const std::string& dir) {
  return write_deployment(dir, {"left", "right"},
                          "place sender1 = left\n"
                          "place sender2 = left\n"
                          "place merger = right\n");
}

}  // namespace

TEST(NetProcessTest, TwoProcessRunMatchesBaselineAndSurvivesSigkill) {
  const auto steps = make_script(60);
  const OutputStream expected = baseline(steps);
  ASSERT_FALSE(expected.empty());

  const std::string dir = make_temp_dir();
  const std::string right_clean_trace = dir + "/right_clean.trace";
  const std::string right_kill_trace = dir + "/right_kill.trace";

  // --- Run 1: clean two-process run --------------------------------------
  OutputStream clean_out;
  {
    const Deployment d = write_two_node(dir);
    ASSERT_EQ(mkdir((dir + "/clean_left").c_str(), 0755), 0);
    NodeProc left(d, "left", {"--log-dir=" + dir + "/clean_left"});
    NodeProc right(d, "right", {"--trace=" + right_clean_trace});

    auto left_http = connect(d, "left");
    auto right_http = connect(d, "right");
    EXPECT_EQ(left_http.get("/healthz").status, 200);
    EXPECT_EQ(right_http.get("/healthz").status, 200);
    // Each gateway serves only its partition's adaptable wires.
    EXPECT_EQ(left_http.get("/outputs/total").status, 404);
    EXPECT_EQ(right_http.post("/inject/sender1", "x", "text/plain").status,
              404);

    for (const auto& s : steps) left_http.inject(s);
    ASSERT_TRUE(left_http.drain()) << "left never quiesced";
    ASSERT_TRUE(right_http.drain()) << "right never quiesced";
    clean_out = right_http.totals();

    // Durability and the socket transport demonstrably carried the stream.
    const auto lm = left_http.metrics();
    const auto rm = right_http.metrics();
    EXPECT_EQ(lm.store_records_written, steps.size());
    EXPECT_GT(lm.store_flushes, 0u);
    EXPECT_EQ(lm.gw_acked, steps.size());
    EXPECT_GT(lm.net_frames_out, 0u);
    EXPECT_GT(lm.net_bytes_out, 0u);
    EXPECT_GT(rm.net_frames_in, 0u);
    EXPECT_GT(rm.net_bytes_in, 0u);
    EXPECT_EQ(rm.messages_processed, steps.size());

    // Telemetry over GET /obs: the merger node reports its registry samples
    // (per-component labelled counters) and its silence wavefront.
    const auto samples = right_http.obs_samples();
    bool merger_counter_seen = false;
    for (const auto& s : samples) {
      if (s.name != "tart_messages_processed_total") continue;
      for (const auto& l : s.labels)
        if (l.key == "component" && l.value == "merger") {
          EXPECT_EQ(s.counter_value, steps.size());
          merger_counter_seen = true;
        }
    }
    EXPECT_TRUE(merger_counter_seen)
        << "no labelled merger counter in the obs report";

    const auto status = right_http.status();
    ASSERT_EQ(status.components.size(), 1u);  // only the merger is local
    EXPECT_EQ(status.components[0].name, "merger");
    EXPECT_FALSE(status.components[0].crashed);
    EXPECT_FALSE(status.components[0].held);  // drained: nothing pending
    EXPECT_EQ(status.components[0].pending, 0u);
    ASSERT_EQ(status.components[0].inputs.size(), 2u);
    for (const auto& w : status.components[0].inputs)
      EXPECT_FALSE(w.blocking);

    left_http.shutdown_node();
    right_http.shutdown_node();
    EXPECT_EQ(left.reap(), 0);
    EXPECT_EQ(right.reap(), 0);
  }
  EXPECT_EQ(clean_out, expected)
      << "two-process deployment diverged from the single-process baseline";

  // --- Run 2: SIGKILL left mid-run, restart from its log ------------------
  OutputStream kill_out;
  {
    const Deployment d = write_two_node(dir);
    const std::string log_dir = dir + "/kill_left";
    ASSERT_EQ(mkdir(log_dir.c_str(), 0755), 0);
    NodeProc right(d, "right", {"--trace=" + right_kill_trace});
    auto right_http = connect(d, "right");
    const std::size_t half = steps.size() / 2;

    {
      NodeProc left(d, "left", {"--log-dir=" + log_dir});
      auto left_http = connect(d, "left");
      // Every first-half request is ACKED, so each one is durable: the
      // restart below MUST reproduce all of them.
      for (std::size_t i = 0; i < half; ++i) left_http.inject(steps[i]);
      // Let the first half mostly reach the merger — otherwise the kill
      // can land before a single frame flushes and the replay produces no
      // duplicates to discard. "Mostly": the merger's dispatch frontier
      // trails the newest arrival (it cannot process a tick until silence
      // covers it on BOTH sender wires), so the tail stays pending until
      // the post-restart drain. No drain here: the senders' own state (seq
      // counters, retention) is still volatile when the power goes out.
      std::uint64_t seen = 0;
      ASSERT_TRUE(poll_until(10s, [&] {
        return (seen = right_http.metrics().messages_processed) >= half / 2;
      })) << "merger only processed " << seen << "/" << half
          << " before the kill window";
      // Freeze the process before killing it. A SIGKILLed process's kernel
      // sends FIN (the peer sees EOF), but a frozen one keeps its socket
      // open and just goes silent — which is what heartbeat detection is
      // for. The right node must declare the link down by misses alone.
      left.freeze();
      ASSERT_TRUE(poll_until(20s, [&] {
        return right_http.metrics().net_heartbeat_misses > 0;
      })) << "right never noticed the frozen peer";
      left.kill9();
      left.reap();
    }

    // Cold restart over the same stable storage: the node replays its
    // logged inputs; the surviving merger discards the duplicates.
    NodeProc left(d, "left", {"--log-dir=" + log_dir});
    auto left_http = connect(d, "left");
    for (std::size_t i = half; i < steps.size(); ++i)
      left_http.inject(steps[i]);
    ASSERT_TRUE(left_http.drain()) << "restarted left never quiesced";
    ASSERT_TRUE(right_http.drain()) << "right never quiesced after kill";
    kill_out = right_http.totals();

    const auto lm = left_http.metrics();
    const auto rm = right_http.metrics();
    EXPECT_GE(rm.net_reconnects, 1u)
        << "right must have re-accepted the restarted left";
    EXPECT_GT(rm.net_heartbeat_misses, 0u);
    EXPECT_GT(rm.net_frames_in, 0u);
    // The restarted node re-emits every logged tick. Each re-emission races
    // the link coming back up: frames sent once the link is up reach the
    // merger and are discarded as duplicates; frames emitted while the
    // link is still down are refused at the sender (and healed later by
    // seq/silence accounting). Either way the kill must leave a mark.
    EXPECT_GT(rm.duplicates_discarded + lm.net_frames_refused, 0u)
        << "a mid-run kill with replay must surface as duplicate discards "
           "or refused frames";
    EXPECT_EQ(rm.messages_processed, steps.size());

    left_http.shutdown_node();
    right_http.shutdown_node();
    EXPECT_EQ(left.reap(), 0);
    EXPECT_EQ(right.reap(), 0);
  }
  EXPECT_EQ(kill_out, expected)
      << "output stream after SIGKILL + restart diverged from baseline";

  // --- Run 3: the surviving node's traces are recovery-equivalent ---------
  EXPECT_EQ(run_trace_diff(right_clean_trace, right_kill_trace), 0)
      << "tart-trace diff --recovery flagged divergence on the surviving "
         "node";
}

// Durable-checkpoint variant of the kill/restart story: the left node
// checkpoints mid-run (covering + compacting its external log), is
// SIGKILLed, and comes back through the tiered fast path — checkpoint
// restore plus suffix-only replay — instead of a full-log replay. The
// output stream must still be byte-for-byte the single-process baseline,
// and the surviving merger's traces recovery-equivalent (docs/RECOVERY.md).
TEST(NetProcessTest, DurableCheckpointRestartMatchesBaseline) {
  const auto steps = make_script(40);
  const OutputStream expected = baseline(steps);
  ASSERT_FALSE(expected.empty());

  const std::string dir = make_temp_dir();
  const std::string right_clean_trace = dir + "/right_clean.trace";
  const std::string right_ckpt_trace = dir + "/right_ckpt.trace";

  // --- Reference: clean two-process run ------------------------------------
  OutputStream clean_out;
  {
    const Deployment d = write_two_node(dir);
    ASSERT_EQ(mkdir((dir + "/clean_left").c_str(), 0755), 0);
    NodeProc left(d, "left", {"--log-dir=" + dir + "/clean_left"});
    NodeProc right(d, "right", {"--trace=" + right_clean_trace});
    auto left_http = connect(d, "left");
    auto right_http = connect(d, "right");
    for (const auto& s : steps) left_http.inject(s);
    ASSERT_TRUE(left_http.drain());
    ASSERT_TRUE(right_http.drain());
    clean_out = right_http.totals();
    left_http.shutdown_node();
    right_http.shutdown_node();
    EXPECT_EQ(left.reap(), 0);
    EXPECT_EQ(right.reap(), 0);
  }
  ASSERT_EQ(clean_out, expected);

  // --- Durable run: checkpoint, SIGKILL, tiered restart --------------------
  OutputStream ckpt_out;
  {
    const Deployment d = write_two_node(dir);
    const std::string log_dir = dir + "/ckpt_left";
    ASSERT_EQ(mkdir(log_dir.c_str(), 0755), 0);
    // Tiny segments so the mid-run checkpoint demonstrably reclaims
    // wholly-covered ones (log stays bounded, not just covered).
    const std::vector<std::string> durable_flags = {
        "--log-dir=" + log_dir, "--durable", "--segment-bytes=512"};
    NodeProc right(d, "right", {"--trace=" + right_ckpt_trace});
    auto right_http = connect(d, "right");
    const std::size_t half = steps.size() / 2;
    const std::size_t kill_at = steps.size() * 3 / 4;

    {
      NodeProc left(d, "left", durable_flags);
      auto left_http = connect(d, "left");
      for (std::size_t i = 0; i < half; ++i) left_http.inject(steps[i]);
      // The senders consume their logged inputs almost immediately; wait
      // until they have, so the forced checkpoint covers the whole prefix.
      ASSERT_TRUE(poll_until(10s, [&] {
        return left_http.metrics().messages_processed >= half;
      })) << "left never consumed the pre-checkpoint prefix";
      const auto ck = left_http.checkpoint();
      ASSERT_TRUE(ck.ok) << ck.error;
      EXPECT_EQ(ck.covered_records, half);
      EXPECT_GT(ck.bytes, 0u);
      EXPECT_GT(ck.reclaimed_records, 0u)
          << "gated compaction reclaimed nothing despite tiny segments";

      // A post-checkpoint suffix the restart will have to replay.
      for (std::size_t i = half; i < kill_at; ++i) left_http.inject(steps[i]);
      // log-before-ack: every acked injection above is already durable, so
      // the kill can land immediately.
      left.kill9();
      left.reap();
    }

    // Tiered restart over the same stable storage.
    NodeProc left(d, "left", durable_flags);
    auto left_http = connect(d, "left");
    ASSERT_TRUE(poll_until(10s, [&] {
      return left_http.metrics().restart_covered_records != 0;
    })) << "restarted left never reported a checkpoint-covered restart";
    const auto lm = left_http.metrics();
    EXPECT_EQ(lm.restart_covered_records, half)
        << "restart should skip exactly the checkpoint-covered prefix";
    EXPECT_EQ(lm.restart_suffix_records, kill_at - half)
        << "restart should replay exactly the post-checkpoint suffix";

    for (std::size_t i = kill_at; i < steps.size(); ++i)
      left_http.inject(steps[i]);
    ASSERT_TRUE(left_http.drain()) << "restarted left never quiesced";
    ASSERT_TRUE(right_http.drain()) << "right never quiesced";
    ckpt_out = right_http.totals();

    // The restarted node checkpoints again: durability survives recovery.
    const auto ck2 = left_http.checkpoint();
    EXPECT_TRUE(ck2.ok) << ck2.error;
    EXPECT_EQ(ck2.covered_records, steps.size());

    left_http.shutdown_node();
    right_http.shutdown_node();
    EXPECT_EQ(left.reap(), 0);
    EXPECT_EQ(right.reap(), 0);
  }
  EXPECT_EQ(ckpt_out, expected)
      << "output stream after checkpointed restart diverged from baseline";

  // The surviving merger cannot tell a tiered restart from a full replay.
  EXPECT_EQ(run_trace_diff(right_clean_trace, right_ckpt_trace), 0)
      << "tart-trace diff --recovery flagged divergence after tiered restart";
}

// Push-based remote write: a node started with --push POSTs its GET /obs
// report to the collector address every interval. A minimal HTTP listener
// stands in for `tart-obs --listen`.
TEST(NetProcessTest, PushShipsObsReportOverHttp) {
  // The collector binds first, so the deployment's ports cannot reuse it.
  std::string err;
  net::Fd listener =
      net::listen_tcp(*net::SockAddr::parse("127.0.0.1:0"), &err);
  ASSERT_TRUE(listener.valid()) << err;
  const std::string collector =
      "127.0.0.1:" + std::to_string(net::local_port(listener.get()));
  const std::string dir = make_temp_dir();
  const Deployment d =
      write_deployment(dir, {"solo"},
                       "place sender1 = solo\n"
                       "place sender2 = solo\n"
                       "place merger = solo\n");

  NodeProc node(d, "solo", {"--push=" + collector + ",200"});
  auto http = connect(d, "solo");
  for (const auto& s : make_script(4)) http.inject(s);

  // Serve pushes on one connection until a report carries the processed
  // counter (the first pushes may precede the injections).
  pollfd p{listener.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&p, 1, 10000), 1) << "the node never dialed the collector";
  net::Fd conn = net::accept_tcp(listener.get());
  ASSERT_TRUE(conn.valid());
  gateway::HttpParser parser(gateway::HttpLimits{.max_body = 16u << 20});
  std::optional<obs::NodeReport> report;
  bool counter_seen = false;
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (!counter_seen && std::chrono::steady_clock::now() < deadline) {
    pollfd c{conn.get(), POLLIN, 0};
    if (::poll(&c, 1, 200) <= 0) continue;
    char buf[65536];
    const ssize_t n = ::read(conn.get(), buf, sizeof(buf));
    ASSERT_GT(n, 0) << "the node closed the push connection";
    parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    while (auto req = parser.next()) {
      EXPECT_EQ(req->method, "POST");
      EXPECT_EQ(req->path, "/obs");
      report = obs::NodeReport::decode(req->body);
      for (const auto& s : report->samples)
        counter_seen |= s.name == "tart_messages_processed_total";
      const std::string resp = gateway::http_response(200, {}, "ok\n", true);
      ASSERT_EQ(::write(conn.get(), resp.data(), resp.size()),
                static_cast<ssize_t>(resp.size()));
    }
  }
  ASSERT_TRUE(report.has_value()) << "no push arrived";
  EXPECT_EQ(report->node, "solo");
  EXPECT_TRUE(counter_seen)
      << "no tart_messages_processed_total sample in the pushed report";

  http.shutdown_node();
  EXPECT_EQ(node.reap(), 0);
}
