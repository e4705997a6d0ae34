// HTTP-only end-to-end over real processes: the ingress gateway's two big
// promises, checked against forked tart-node / tart-gateway binaries.
//
//   1. Placement transparency through the HTTP face: a two-node wordcount
//      deployment driven ONLY over HTTP (inject, drain, fetch outputs, the
//      Prometheus /metrics text) produces byte-for-byte the single-process
//      in-process baseline — including after SIGKILL-ing the ingress node
//      mid-run and cold restarting it over the same log directory (§II.F).
//   2. Log-before-ack under a crash DURING ingest: concurrent clients blast
//      unique tokens at a tart-gateway while it is SIGKILLed mid-load.
//      After restart + replay, every acked token is present exactly once
//      and every un-acked token is absent or present once — never
//      duplicated, because the ack is issued only after the fsync.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <mutex>

#include "process_fixture.h"

using namespace tart;
using namespace tart::proc;
using gateway::BlockingHttpClient;

namespace {

/// Sums every sample of a Prometheus family in a /metrics body — labelled
/// ("tart_<name>{component=\"x\"} 3") and unlabelled ("tart_<name> 3")
/// lines alike; HELP/TYPE comment lines are skipped.
std::uint64_t metric(const std::string& body, const std::string& name) {
  const std::string family = "tart_" + name;
  std::uint64_t total = 0;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(family, 0) != 0) continue;
    const char next = line.size() > family.size() ? line[family.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    total += static_cast<std::uint64_t>(
        std::strtoull(line.c_str() + sp + 1, nullptr, 10));
  }
  return total;
}

std::uint64_t metric(NodeClient& http, const std::string& name) {
  const auto resp = http.get("/metrics");
  EXPECT_EQ(resp.status, 200);
  return metric(resp.body, name);
}

Deployment write_two_node(const std::string& dir) {
  return write_deployment(dir, {"left", "right"},
                          "place sender1 = left\n"
                          "place sender2 = left\n"
                          "place merger = right\n");
}

}  // namespace

// --- 1: HTTP-only wordcount vs in-process baseline ---------------------------

TEST(GatewayProcessTest, HttpOnlyWordcountMatchesBaselineAndSurvivesSigkill) {
  const auto steps = make_script(60);
  const OutputStream expected = baseline(steps);
  ASSERT_FALSE(expected.empty());
  const std::string dir = make_temp_dir();

  // --- Run 1: clean two-node run, driven entirely over HTTP ----------------
  OutputStream clean_out;
  {
    const Deployment d = write_two_node(dir);
    ASSERT_EQ(mkdir((dir + "/clean_left").c_str(), 0755), 0);
    NodeProc left(d, "left", {"--log-dir=" + dir + "/clean_left"});
    NodeProc right(d, "right");

    auto left_http = connect(d, "left");
    auto right_http = connect(d, "right");
    EXPECT_EQ(left_http.get("/healthz").status, 200);
    EXPECT_EQ(right_http.get("/healthz").status, 200);
    // The gateway serves only its partition's adaptable wires.
    EXPECT_EQ(left_http.get("/outputs/total").status, 404);
    EXPECT_EQ(right_http.post("/inject/sender1", "x", "text/plain").status,
              404);

    for (const auto& s : steps) left_http.inject(s);
    ASSERT_TRUE(left_http.drain()) << "left never quiesced";
    ASSERT_TRUE(right_http.drain()) << "right never quiesced";
    clean_out = right_http.totals();

    // Durability and transport demonstrably happened, as the Prometheus
    // exposition reports them.
    EXPECT_EQ(metric(left_http, "store_records_written_total"), steps.size());
    EXPECT_GT(metric(left_http, "store_flushes_total"), 0u);
    EXPECT_EQ(metric(left_http, "gw_acked_total"), steps.size());
    EXPECT_GT(metric(left_http, "net_frames_out_total"), 0u);

    left_http.shutdown_node();
    right_http.shutdown_node();
    EXPECT_EQ(left.reap(), 0);
    EXPECT_EQ(right.reap(), 0);
  }
  EXPECT_EQ(clean_out, expected)
      << "HTTP-driven two-node run diverged from the in-process baseline";

  // --- Run 2: SIGKILL the ingress node mid-run, restart from its log ------
  OutputStream kill_out;
  {
    const Deployment d = write_two_node(dir);
    const std::string log_dir = dir + "/kill_left";
    ASSERT_EQ(mkdir(log_dir.c_str(), 0755), 0);
    NodeProc right(d, "right");
    auto right_http = connect(d, "right");
    const std::size_t half = steps.size() / 2;

    {
      NodeProc left(d, "left", {"--log-dir=" + log_dir});
      auto left_http = connect(d, "left");
      for (std::size_t i = 0; i < half; ++i) left_http.inject(steps[i]);
      // Every first-half request was ACKED over HTTP, so each one is
      // durable: the restart below MUST reproduce all of them. Let the
      // merger see some of the stream first so replay produces duplicates
      // for it to discard, then pull the plug with no warning.
      std::uint64_t seen = 0;
      ASSERT_TRUE(poll_until(10s, [&] {
        return (seen = metric(right_http, "messages_processed_total")) >=
               half / 2;
      })) << "merger only processed " << seen << "/" << half
          << " before the kill window";
      left.kill9();
      left.reap();
    }

    NodeProc left(d, "left", {"--log-dir=" + log_dir});
    auto left_http = connect(d, "left");
    for (std::size_t i = half; i < steps.size(); ++i)
      left_http.inject(steps[i]);
    ASSERT_TRUE(left_http.drain()) << "restarted left never quiesced";
    ASSERT_TRUE(right_http.drain()) << "right never quiesced after kill";
    kill_out = right_http.totals();

    left_http.shutdown_node();
    right_http.shutdown_node();
    EXPECT_EQ(left.reap(), 0);
    EXPECT_EQ(right.reap(), 0);
  }
  EXPECT_EQ(kill_out, expected)
      << "HTTP-driven output after SIGKILL + restart diverged from baseline";
}

// --- 2: crash DURING ingest — acked exactly once, un-acked absent-or-once ---

TEST(GatewayProcessTest, CrashDuringIngestKeepsAckedExactlyOnce) {
  const std::string dir = make_temp_dir();
  const std::string log_dir = dir + "/log";
  ASSERT_EQ(mkdir(log_dir.c_str(), 0755), 0);
  const std::string addr = "127.0.0.1:" + std::to_string(free_port());
  const std::vector<std::string> args = {"chain", "stages=2",
                                         "--http=" + addr,
                                         "--log-dir=" + log_dir};

  std::mutex mu;
  std::vector<std::string> acked;  // tokens whose 200 arrived
  std::vector<std::string> sent;   // every token that left a client
  std::atomic<std::uint64_t> ack_count{0};
  std::atomic<bool> stop{false};

  {
    Proc gw(TART_GATEWAY_BIN, args);
    ASSERT_EQ(NodeClient::connect(addr).get("/healthz").status, 200);

    // Concurrent clients blast unique tokens until the server dies under
    // them. A request is "acked" only if its 200 was read off the socket.
    constexpr int kClients = 6;
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        auto http = BlockingHttpClient::connect(addr, 5s);
        if (!http) return;
        for (int i = 0; !stop.load(); ++i) {
          const std::string token =
              "tok-" + std::to_string(t) + "-" + std::to_string(i);
          {
            std::lock_guard<std::mutex> lk(mu);
            sent.push_back(token);
          }
          try {
            const auto resp =
                http->post("/inject/in", token, "application/x-tart-string");
            if (resp.status != 200) break;
            std::lock_guard<std::mutex> lk(mu);
            acked.push_back(token);
            ack_count.fetch_add(1);
          } catch (const std::exception&) {
            break;  // connection died mid-request: token is un-acked
          }
        }
      });
    }

    // Let a healthy chunk of load through, then SIGKILL with requests in
    // flight — this is the crash-during-ingest window the log-before-ack
    // discipline exists for. The clients are joined before any assertion
    // can return from the test.
    const bool loaded = poll_until(15s, [&] { return ack_count >= 200; });
    gw.kill9();
    gw.reap();
    stop.store(true);
    for (auto& c : clients) c.join();
    ASSERT_TRUE(loaded) << "only " << ack_count.load()
                        << " acks before the kill window";
  }
  ASSERT_GE(acked.size(), 200u);
  EXPECT_GT(sent.size(), acked.size())
      << "the kill should have caught at least one request un-acked";

  // Cold restart over the same log: replay everything, then read outputs.
  Proc gw(TART_GATEWAY_BIN, args);
  auto http = NodeClient::connect(addr);
  ASSERT_TRUE(http.drain());
  std::vector<OutputRecord> lines = http.outputs("out");
  std::erase_if(lines, [](const OutputRecord& l) { return l.stutter; });

  std::map<std::string, int> times_seen;
  for (const auto& l : lines) ++times_seen[l.payload];

  // Every acked token survived the crash, exactly once.
  for (const auto& token : acked)
    EXPECT_EQ(times_seen[token], 1) << "acked token lost or duplicated: "
                                    << token;
  // Every token — acked or not — appears at most once (absent-or-once).
  for (const auto& [token, n] : times_seen)
    EXPECT_EQ(n, 1) << "token duplicated after replay: " << token;
  for (const auto& token : sent)
    EXPECT_LE(times_seen[token], 1) << token;
  // Output vts are strictly monotone: one wire, one record per tick.
  for (std::size_t i = 1; i < lines.size(); ++i)
    EXPECT_GT(lines[i].vt, lines[i - 1].vt);

  // The restarted process REPLAYS the log rather than re-writing it, so
  // store_records_written stays 0 — the proof of durability is the output
  // stream itself covering every ack.
  EXPECT_GE(lines.size(), acked.size());
  http.shutdown_node();
  EXPECT_EQ(gw.reap(), 0);
}
