// HTTP ingress gateway tests: the incremental parser (incl. truncation and
// mutation fuzz, mirroring tests/net_frame_test.cc), the non-throwing
// Runtime::try_inject* surface, and the live Gateway endpoints over real
// sockets — ack-implies-durable, typed rejections, admission control,
// long-poll output drain, and pipelining.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/wordcount.h"
#include "common/rng.h"
#include "core/runtime.h"
#include "gateway/gateway.h"
#include "gateway/http.h"
#include "obs/exposition.h"
#include "obs/node_report.h"
#include "gateway/http_client.h"
#include "net/topologies.h"

using namespace tart;
using namespace std::chrono_literals;
using gateway::HttpError;
using gateway::HttpParser;
using gateway::HttpRequest;

namespace {

// --- HttpParser basics ------------------------------------------------------

std::optional<HttpRequest> parse_one(std::string_view bytes) {
  HttpParser p;
  p.feed(bytes);
  return p.next();
}

TEST(HttpParserTest, SimpleGet) {
  const auto req = parse_one("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->path, "/healthz");
  EXPECT_TRUE(req->query.empty());
  EXPECT_TRUE(req->keep_alive);
  ASSERT_NE(req->header("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*req->header("HOST"), "x");
}

TEST(HttpParserTest, PostWithBodyAndQuery) {
  const auto req = parse_one(
      "POST /inject/in?vt=42&x=a%20b HTTP/1.1\r\n"
      "Content-Length: 5\r\n\r\nhello");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->path, "/inject/in");
  EXPECT_EQ(req->body, "hello");
  const auto params = gateway::parse_query(req->query);
  EXPECT_EQ(gateway::query_param(params, "vt"), "42");
  EXPECT_EQ(gateway::query_param(params, "x"), "a b");
  EXPECT_FALSE(gateway::query_param(params, "absent").has_value());
}

TEST(HttpParserTest, IncrementalByteByByteFeeding) {
  const std::string wire =
      "POST /p HTTP/1.1\r\nContent-Length: 3\r\nA: b\r\n\r\nxyz";
  HttpParser p;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    p.feed(std::string_view(wire).substr(i, 1));
    EXPECT_FALSE(p.next().has_value()) << "completed early at byte " << i;
  }
  p.feed(std::string_view(wire).substr(wire.size() - 1));
  const auto req = p.next();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->body, "xyz");
}

TEST(HttpParserTest, PipelinedRequestsParseInOrder) {
  HttpParser p;
  p.feed(
      "POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nAA"
      "GET /b HTTP/1.1\r\n\r\n"
      "POST /c HTTP/1.1\r\nContent-Length: 1\r\n\r\nC");
  EXPECT_EQ(p.next()->path, "/a");
  EXPECT_EQ(p.next()->path, "/b");
  EXPECT_EQ(p.next()->body, "C");
  EXPECT_FALSE(p.next().has_value());
}

TEST(HttpParserTest, KeepAliveDefaults) {
  EXPECT_TRUE(parse_one("GET / HTTP/1.1\r\n\r\n")->keep_alive);
  EXPECT_FALSE(parse_one("GET / HTTP/1.0\r\n\r\n")->keep_alive);
  EXPECT_FALSE(
      parse_one("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")->keep_alive);
  EXPECT_TRUE(
      parse_one("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
          ->keep_alive);
}

TEST(HttpParserTest, LfOnlyLineEndingsAccepted) {
  const auto req = parse_one("GET /x HTTP/1.1\nHost: y\n\n");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->path, "/x");
}

int error_status(std::string_view bytes) {
  HttpParser p;
  p.feed(bytes);
  try {
    (void)p.next();
  } catch (const HttpError& e) {
    return e.status();
  }
  return 0;
}

TEST(HttpParserTest, TypedErrors) {
  EXPECT_EQ(error_status("NOT A REQUEST LINE\r\n\r\n"), 400);
  EXPECT_EQ(error_status("GET /x HTTP/2.0\r\n\r\n"), 505);
  EXPECT_EQ(error_status("GET /x SPDY/1\r\n\r\n"), 400);
  EXPECT_EQ(error_status("GET /x HTTP/1.1\r\nBad Header\r\n\r\n"), 400);
  EXPECT_EQ(error_status("GET /x HTTP/1.1\r\n: novalue\r\n\r\n"), 400);
  EXPECT_EQ(
      error_status("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
      501);
  EXPECT_EQ(error_status("POST /x HTTP/1.1\r\nContent-Length: nan\r\n\r\n"),
            400);
  EXPECT_EQ(error_status("POST /x HTTP/1.1\r\nContent-Length: 99999999999999"
                         "\r\n\r\n"),
            413);
  EXPECT_EQ(error_status("GET /%zz HTTP/1.1\r\n\r\n"), 400);
  EXPECT_EQ(error_status("GET /x HTTP/1.1\r\nA: b\r\n  folded\r\n\r\n"), 400);
}

TEST(HttpParserTest, OversizedBodyRefused413) {
  gateway::HttpLimits limits;
  limits.max_body = 16;
  HttpParser p(limits);
  p.feed("POST /x HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
  EXPECT_THROW((void)p.next(), HttpError);
}

TEST(HttpParserTest, OversizedHeadersRefused431) {
  gateway::HttpLimits limits;
  limits.max_header_bytes = 64;
  HttpParser p(limits);
  std::string req = "GET /x HTTP/1.1\r\n";
  req += "A: " + std::string(100, 'x') + "\r\n\r\n";
  p.feed(req);
  try {
    (void)p.next();
    FAIL() << "oversized headers must throw";
  } catch (const HttpError& e) {
    EXPECT_EQ(e.status(), 431);
  }
}

TEST(HttpParserTest, OversizedRequestLineRefusedEvenWithoutNewline) {
  gateway::HttpLimits limits;
  limits.max_request_line = 32;
  HttpParser p(limits);
  // No terminator ever arrives: the parser must still bound its buffer.
  p.feed("GET /" + std::string(100, 'a'));
  EXPECT_THROW((void)p.next(), HttpError);
}

TEST(HttpParserTest, PoisonedAfterThrow) {
  HttpParser p;
  p.feed("BAD\r\n\r\n");
  EXPECT_THROW((void)p.next(), HttpError);
  EXPECT_THROW((void)p.next(), HttpError);
  EXPECT_THROW(p.feed("GET / HTTP/1.1\r\n\r\n"), HttpError);
}

// --- Fuzz: truncation prefixes and random mutations (ASan-backed) -----------

TEST(HttpParserFuzzTest, EveryTruncationPrefixWaitsOrFailsTyped) {
  const std::string wire =
      "POST /inject/in?vt=7 HTTP/1.1\r\n"
      "Host: gw\r\nContent-Type: text/plain\r\nContent-Length: 11\r\n"
      "\r\nhello world";
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    HttpParser p;
    p.feed(std::string_view(wire).substr(0, cut));
    // A prefix of a valid request is never an error — it just waits.
    EXPECT_FALSE(p.next().has_value()) << "prefix " << cut;
    // And the remainder completes it.
    p.feed(std::string_view(wire).substr(cut));
    const auto req = p.next();
    ASSERT_TRUE(req.has_value()) << "prefix " << cut;
    EXPECT_EQ(req->body, "hello world");
  }
}

TEST(HttpParserFuzzTest, RandomByteMutationsNeverCrash) {
  const std::string wire =
      "POST /inject/in?vt=7 HTTP/1.1\r\n"
      "Host: gw\r\nContent-Type: text/plain\r\nContent-Length: 11\r\n"
      "\r\nhello world";
  Rng rng(0xF00DF00D);
  int parsed = 0, waited = 0, refused = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string mutated = wire;
    const int flips = static_cast<int>(rng.uniform_int(1, 5));
    for (int f = 0; f < flips; ++f) {
      const auto pos = rng.bounded(mutated.size());
      mutated[pos] = static_cast<char>(rng.bounded(256));
    }
    HttpParser p;
    try {
      p.feed(mutated);
      int spins = 0;
      while (p.next().has_value() && ++spins < 8) {
      }
      if (spins > 0)
        ++parsed;
      else
        ++waited;
    } catch (const HttpError& e) {
      // Every refusal must carry a mappable HTTP status.
      EXPECT_GE(e.status(), 400);
      EXPECT_LT(e.status(), 600);
      ++refused;
    }
  }
  // The mutation space must actually exercise all three outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(refused, 0);
  EXPECT_GT(parsed + waited + refused, 3999);
}

// --- Payload codec ----------------------------------------------------------

HttpRequest with_body(std::string body, std::string content_type) {
  HttpRequest req;
  req.body = std::move(body);
  if (!content_type.empty())
    req.headers.emplace_back("Content-Type", std::move(content_type));
  return req;
}

TEST(PayloadCodecTest, ContentTypesMapToPayloadShapes) {
  EXPECT_EQ(gateway::payload_from_body(with_body("a b  c", "")),
            apps::sentence({"a", "b", "c"}));
  EXPECT_EQ(gateway::payload_from_body(
                with_body("a b", "text/plain; charset=utf-8")),
            apps::sentence({"a", "b"}));
  EXPECT_EQ(gateway::payload_from_body(
                with_body("-42", "application/x-tart-int")),
            Payload(std::int64_t{-42}));
  EXPECT_EQ(gateway::payload_from_body(
                with_body("2.5", "application/x-tart-double")),
            Payload(2.5));
  EXPECT_EQ(gateway::payload_from_body(
                with_body("hi there", "application/x-tart-string")),
            Payload(std::string("hi there")));
  const Payload bytes = gateway::payload_from_body(
      with_body(std::string("\x01\x02", 2), "application/octet-stream"));
  EXPECT_EQ(gateway::render_payload(bytes), "0102");
}

TEST(PayloadCodecTest, BadBodiesRefusedTyped) {
  EXPECT_THROW(
      (void)gateway::payload_from_body(
          with_body("xyz", "application/x-tart-int")),
      HttpError);
  try {
    (void)gateway::payload_from_body(with_body("x", "application/json"));
    FAIL() << "unknown content type must throw";
  } catch (const HttpError& e) {
    EXPECT_EQ(e.status(), 415);
  }
}

// --- Runtime::try_inject* ----------------------------------------------------

struct ChainApp {
  net::BuiltTopology built;
  std::map<ComponentId, EngineId> placement;

  ChainApp() : built(net::build_topology("chain", {{"stages", "2"}})) {
    for (const auto& [name, id] : built.components)
      placement[id] = EngineId(0);
  }
  [[nodiscard]] WireId in() const { return built.inputs.at("in"); }
  [[nodiscard]] WireId out() const { return built.outputs.at("out"); }
};

TEST(TryInjectTest, TypedStatusesInsteadOfThrows) {
  ChainApp app;
  core::Runtime rt(app.built.topology, app.placement, core::RuntimeConfig{});
  rt.start();

  const auto ok = rt.try_inject_at(app.in(), VirtualTime(1000), Payload("x"));
  EXPECT_EQ(ok.status, core::InjectStatus::kOk);
  EXPECT_EQ(ok.vt, VirtualTime(1000));

  // Scripted vt not strictly after the last logged vt: REFUSED, not
  // clamped (unlike inject_at) — and NOT logged.
  const auto regressed =
      rt.try_inject_at(app.in(), VirtualTime(1000), Payload("y"));
  EXPECT_EQ(regressed.status, core::InjectStatus::kVtRegressed);
  EXPECT_EQ(rt.external_log().size(app.in()), 1u);

  const auto unknown = rt.try_inject(WireId(9999), Payload("z"));
  EXPECT_EQ(unknown.status, core::InjectStatus::kUnknownWire);

  rt.close_input(app.in());
  const auto closed = rt.try_inject(app.in(), Payload("w"));
  EXPECT_EQ(closed.status, core::InjectStatus::kClosed);

  ASSERT_TRUE(rt.drain());
  rt.stop();
}

TEST(TryInjectTest, BatchStampsMonotonelyAndLogsEverything) {
  ChainApp app;
  core::Runtime rt(app.built.topology, app.placement, core::RuntimeConfig{});
  rt.start();

  std::vector<core::InjectRequest> requests;
  for (int i = 0; i < 8; ++i)
    requests.push_back({app.in(), -1, Payload(std::int64_t{i})});
  const auto results = rt.try_inject_batch(requests);
  ASSERT_EQ(results.size(), 8u);
  VirtualTime prev(-1);
  for (const auto& r : results) {
    EXPECT_EQ(r.status, core::InjectStatus::kOk);
    EXPECT_GT(r.vt, prev);  // strictly monotone per wire, in batch order
    prev = r.vt;
  }
  EXPECT_EQ(rt.external_log().size(app.in()), 8u);

  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.output_records(app.out()).size(), 8u);
  rt.stop();
}

// --- Live gateway over real sockets -----------------------------------------

/// Finds the /outputs line carrying `payload` and checks its shape:
/// "vt\tstutter\torigin\tpayload" with a fresh (stutter=0) flag and a
/// well-formed WIRE:SEQ origin tag (gateway-injected inputs are always
/// stamped). Returns false when the line is missing or malformed.
bool fresh_output_with_origin(const std::string& body,
                              const std::string& payload) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    const auto t1 = line.find('\t');
    const auto t2 = line.find('\t', t1 + 1);
    const auto t3 = line.find('\t', t2 + 1);
    if (t3 == std::string::npos) return false;
    if (line.substr(t3 + 1) != payload) continue;
    const std::string origin = line.substr(t2 + 1, t3 - t2 - 1);
    const auto colon = origin.find(':');
    return line.substr(t1 + 1, t2 - t1 - 1) == "0" &&
           colon != std::string::npos && colon > 0 &&
           colon + 1 < origin.size();
  }
  return false;
}

class GatewayTest : public ::testing::Test {
 protected:
  void start(gateway::Gateway::Options options = {},
             gateway::Gateway::Host host = {}) {
    rt_ = std::make_unique<core::Runtime>(app_.built.topology, app_.placement,
                                          core::RuntimeConfig{});
    rt_->start();
    gw_ = std::make_unique<gateway::Gateway>(
        rt_.get(), std::move(options), app_.built.inputs, app_.built.outputs,
        std::move(host));
    addr_ = "127.0.0.1:" + std::to_string(gw_->port());
  }

  void TearDown() override {
    if (gw_) gw_->shutdown();
    if (rt_) rt_->stop();
  }

  [[nodiscard]] gateway::BlockingHttpClient client() {
    auto c = gateway::BlockingHttpClient::connect(addr_);
    EXPECT_TRUE(c.has_value());
    return std::move(*c);
  }

  ChainApp app_;
  std::unique_ptr<core::Runtime> rt_;
  std::unique_ptr<gateway::Gateway> gw_;
  std::string addr_;
};

TEST_F(GatewayTest, InjectAcksWithAssignedVt) {
  start();
  auto c = client();
  const auto resp = c.post("/inject/in?vt=5000", "hello", "text/plain");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "vt=5000\n");
  ASSERT_NE(resp.header("X-Tart-Vt"), nullptr);
  EXPECT_EQ(*resp.header("X-Tart-Vt"), "5000");
  // Realtime stamping: returned vt is strictly after the scripted 5000.
  const auto rt_resp = c.post("/inject/in", "more", "text/plain");
  EXPECT_EQ(rt_resp.status, 200);
  EXPECT_GT(std::stoll(*rt_resp.header("X-Tart-Vt")), 5000);
}

TEST_F(GatewayTest, TypedRejections) {
  start();
  auto c = client();
  EXPECT_EQ(c.post("/inject/nosuch", "x", "text/plain").status, 404);
  EXPECT_EQ(c.post("/inject/in?vt=abc", "x", "text/plain").status, 400);
  EXPECT_EQ(c.post("/inject/in", "x", "application/json").status, 415);
  EXPECT_EQ(c.get("/inject/in").status, 405);
  EXPECT_EQ(c.get("/nosuch").status, 404);

  ASSERT_EQ(c.post("/inject/in?vt=9000", "x", "text/plain").status, 200);
  EXPECT_EQ(c.post("/inject/in?vt=9000", "y", "text/plain").status, 409)
      << "vt regression must be refused";

  EXPECT_EQ(c.post("/close/in", "").status, 200);
  EXPECT_EQ(c.post("/inject/in?vt=99999", "z", "text/plain").status, 409)
      << "closed input must be refused";

  EXPECT_EQ(c.get("/checkpoint").status, 405);
  EXPECT_EQ(c.post("/checkpoint", "").status, 503)
      << "this fixture runs without durability; /checkpoint must say so";

  const auto counters = gw_->counters();
  EXPECT_GT(counters.errors, 0u);
  EXPECT_EQ(counters.acked, 1u);
}

TEST_F(GatewayTest, AdmissionControlReturns429WithRetryAfter) {
  gateway::Gateway::Options options;
  options.max_inflight_per_wire = 0;  // everything overflows
  options.retry_after_seconds = 7;
  start(options);
  auto c = client();
  const auto resp = c.post("/inject/in", "x", "text/plain");
  EXPECT_EQ(resp.status, 429);
  ASSERT_NE(resp.header("Retry-After"), nullptr);
  EXPECT_EQ(*resp.header("Retry-After"), "7");
  EXPECT_EQ(gw_->counters().rejected, 1u);
}

TEST_F(GatewayTest, OutputsDrainAndLongPoll) {
  start();
  auto c = client();
  ASSERT_EQ(c.post("/inject/in?vt=1000", "alpha", "text/plain").status, 200);
  ASSERT_EQ(c.post("/inject/in?vt=2000", "beta", "text/plain").status, 200);
  ASSERT_EQ(c.post("/drain", "").status, 200);

  // Output vts are input vts shifted by the stages' latency, so match on
  // shape: two fresh records, in order, payloads intact.
  auto resp = c.get("/outputs/out");
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(fresh_output_with_origin(resp.body, "alpha")) << resp.body;
  EXPECT_TRUE(fresh_output_with_origin(resp.body, "beta")) << resp.body;
  EXPECT_LT(resp.body.find("alpha"), resp.body.find("beta"));
  ASSERT_NE(resp.header("X-Tart-Next"), nullptr);
  EXPECT_EQ(*resp.header("X-Tart-Next"), "2");

  // Incremental drain from a cursor.
  resp = c.get("/outputs/out?after=1");
  EXPECT_EQ(resp.body.find("alpha"), std::string::npos) << resp.body;
  EXPECT_TRUE(fresh_output_with_origin(resp.body, "beta")) << resp.body;

  // Long-poll with nothing new: returns empty at the deadline.
  const auto t0 = std::chrono::steady_clock::now();
  resp = c.get("/outputs/out?after=2&wait_ms=120");
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(resp.body.empty());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 100ms);

  EXPECT_EQ(c.get("/outputs/nosuch").status, 404);
}

TEST_F(GatewayTest, LongPollWakesOnNewOutput) {
  start();
  auto c = client();
  std::thread feeder([this] {
    std::this_thread::sleep_for(80ms);
    auto c2 = gateway::BlockingHttpClient::connect(addr_);
    ASSERT_TRUE(c2.has_value());
    ASSERT_EQ(c2->post("/inject/in?vt=1000", "late", "text/plain").status,
              200);
    ASSERT_EQ(c2->post("/close/in", "").status, 200);
  });
  const auto resp = c.get("/outputs/out?wait_ms=5000");
  feeder.join();
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(fresh_output_with_origin(resp.body, "late")) << resp.body;
}

TEST_F(GatewayTest, PipelinedRequestsAnswerInOrder) {
  start();
  auto c = client();
  // Two injects and a healthz in one write; responses must come back in
  // request order with correct framing.
  c.send_raw(
      "POST /inject/in?vt=100 HTTP/1.1\r\nContent-Length: 1\r\n\r\na"
      "POST /inject/in?vt=200 HTTP/1.1\r\nContent-Length: 1\r\n\r\nb"
      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  const std::string all = c.read_until_close();
  const auto first = all.find("vt=100");
  const auto second = all.find("vt=200");
  const auto third = all.find("ok");
  ASSERT_NE(first, std::string::npos) << all;
  ASSERT_NE(second, std::string::npos) << all;
  ASSERT_NE(third, std::string::npos) << all;
  EXPECT_LT(first, second);
  EXPECT_LT(second, third);
  EXPECT_EQ(rt_->external_log().size(app_.in()), 2u);
}

TEST_F(GatewayTest, MalformedRequestGetsTypedStatusThenClose) {
  start();
  auto c = client();
  c.send_raw("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  const std::string all = c.read_until_close();
  EXPECT_NE(all.find("HTTP/1.1 501"), std::string::npos) << all;

  auto c2 = client();
  c2.send_raw("GARBAGE\r\n\r\n");
  const std::string all2 = c2.read_until_close();
  EXPECT_NE(all2.find("HTTP/1.1 400"), std::string::npos) << all2;
}

TEST_F(GatewayTest, MetricsAndHealthz) {
  start();
  auto c = client();
  ASSERT_EQ(c.post("/inject/in?vt=1000", "m", "text/plain").status, 200);
  EXPECT_EQ(c.get("/healthz").status, 200);
  const auto resp = c.get("/metrics");
  EXPECT_EQ(resp.status, 200);
  const std::string* ct = resp.header("Content-Type");
  ASSERT_NE(ct, nullptr);
  EXPECT_EQ(*ct, tart::obs::kPrometheusContentType);
  EXPECT_NE(resp.body.find("tart_gw_acked_total 1"), std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("tart_gw_requests_total"), std::string::npos);
  // The ack-latency histogram renders as a summary with quantile children.
  EXPECT_NE(resp.body.find("tart_gw_ack_latency_seconds{quantile=\"0.5\"}"),
            std::string::npos)
      << resp.body;
  // The unified exposition must satisfy its own lint (same check
  // scripts/check.sh runs against a live node).
  const auto lint = tart::obs::lint_exposition(resp.body);
  EXPECT_FALSE(lint.has_value()) << *lint;
}

TEST_F(GatewayTest, StatusReportsSilenceWavefront) {
  start();
  auto c = client();
  const auto resp = c.get("/status");
  EXPECT_EQ(resp.status, 200);
  const std::string* ct = resp.header("Content-Type");
  ASSERT_NE(ct, nullptr);
  EXPECT_EQ(*ct, "application/json");
  EXPECT_NE(resp.body.find("\"components\":["), std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("\"inputs\":["), std::string::npos) << resp.body;
}

TEST_F(GatewayTest, ObsReportAgreesWithStatusAndMetrics) {
  gateway::Gateway::Host host;
  host.node = "n1";
  host.status = [this] {
    core::StatusReport report = rt_->status();
    report.placement_epoch = 7;
    report.placement.push_back({0, 0, 7});
    return report;
  };
  start({}, std::move(host));
  auto c = client();
  ASSERT_EQ(c.post("/inject/in?vt=1000", "m", "text/plain").status, 200);

  const auto resp = c.get("/obs");
  ASSERT_EQ(resp.status, 200);
  ASSERT_NE(resp.header("Content-Type"), nullptr);
  EXPECT_EQ(*resp.header("Content-Type"), obs::kNodeReportContentType);
  const obs::NodeReport report = obs::NodeReport::decode(resp.body);
  EXPECT_EQ(report.node, "n1");
  EXPECT_EQ(report.metrics.gw_acked, 1u);
  EXPECT_EQ(report.status.placement_epoch, 7u);
  ASSERT_EQ(report.status.placement.size(), 1u);
  EXPECT_EQ(report.status.components.size(), 2u);
  bool ack_histogram = false;
  for (const auto& s : report.samples)
    ack_histogram |= s.name == "tart_gw_ack_latency_seconds" && s.hist &&
                     s.hist->count() == 1;
  EXPECT_TRUE(ack_histogram) << "full histograms travel in GET /obs";

  // GET /status renders the same (hooked) report.
  const std::string status = c.get("/status").body;
  EXPECT_NE(status.find("\"placement_epoch\":7"), std::string::npos)
      << status;
  EXPECT_NE(status.find("\"placement\":[{\"component\":0,\"engine\":0,"
                        "\"epoch\":7}]"),
            std::string::npos)
      << status;
  EXPECT_EQ(c.post("/obs", "").status, 405);
}

TEST_F(GatewayTest, ConcurrentClientsGroupCommitAndAllAck) {
  start();
  constexpr int kClients = 8;
  constexpr int kPerClient = 25;
  std::vector<std::thread> threads;
  std::atomic<int> acked{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([this, &acked, t] {
      auto c = gateway::BlockingHttpClient::connect(addr_);
      ASSERT_TRUE(c.has_value());
      for (int i = 0; i < kPerClient; ++i) {
        const auto resp =
            c->post("/inject/in", "w" + std::to_string(t), "text/plain");
        if (resp.status == 200) acked.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(acked.load(), kClients * kPerClient);
  EXPECT_EQ(rt_->external_log().size(app_.in()),
            static_cast<std::uint64_t>(kClients * kPerClient));
  const auto counters = gw_->counters();
  EXPECT_EQ(counters.acked, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_LE(counters.commit_batches, counters.commit_records);
}

}  // namespace
