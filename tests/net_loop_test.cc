// In-process exercises of the socket transport: the event loop's timer /
// post / fd plumbing, and pairs of ConnectionManagers talking over
// loopback TCP — handshake, frame exchange, link-down on shutdown,
// reconnect with a replacement peer, heartbeat-miss detection against a
// silent fake peer, and backpressure accounting.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/virtual_time.h"
#include "net/connection_manager.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/wire_format.h"
#include "transport/frame.h"

using namespace tart;
using namespace tart::net;
using namespace std::chrono_literals;

namespace {

/// Waits until `pred` holds, polling; the net layer is asynchronous by
/// nature, so tests assert on eventually-visible state.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(2ms);
  }
  return true;
}

transport::Frame probe(std::uint32_t wire) {
  return transport::ProbeFrame{WireId(wire)};
}

/// Tracks link + frame arrivals for one manager under test.
struct Sink {
  std::mutex mu;
  std::vector<std::uint32_t> wires;  // frame_wire of every arrival
  int ups = 0;
  int downs = 0;

  ConnectionManager::FrameHandler frame_handler() {
    return [this](const std::string&, transport::Frame f) {
      const std::lock_guard<std::mutex> lk(mu);
      wires.push_back(transport::frame_wire(f).value());
    };
  }
  ConnectionManager::LinkHandler link_handler() {
    return [this](const std::string&, bool up) {
      const std::lock_guard<std::mutex> lk(mu);
      (up ? ups : downs)++;
    };
  }
  int up_count() {
    const std::lock_guard<std::mutex> lk(mu);
    return ups;
  }
  int down_count() {
    const std::lock_guard<std::mutex> lk(mu);
    return downs;
  }
  std::vector<std::uint32_t> seen() {
    const std::lock_guard<std::mutex> lk(mu);
    return wires;
  }
};

NetTuning fast_tuning() {
  NetTuning t;
  t.heartbeat_interval = 30ms;
  t.heartbeat_miss_limit = 3;
  t.reconnect_min = 10ms;
  t.reconnect_max = 100ms;
  return t;
}

}  // namespace

// --- EventLoop ---------------------------------------------------------------

TEST(EventLoopTest, PostRunsOnLoopThreadAndStopReturns) {
  EventLoop loop;
  std::thread t([&] { loop.run(); });
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) loop.post([&] { ran.fetch_add(1); });
  ASSERT_TRUE(eventually([&] { return ran.load() == 10; }));
  loop.stop();
  t.join();
}

TEST(EventLoopTest, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::thread t([&] { loop.run(); });
  std::mutex mu;
  std::vector<int> order;
  std::atomic<bool> done{false};
  loop.post([&] {
    const auto now = EventLoop::Clock::now();
    loop.add_timer(now + 30ms, [&] {
      const std::lock_guard<std::mutex> lk(mu);
      order.push_back(2);
      done.store(true);
    });
    loop.add_timer(now + 10ms, [&] {
      const std::lock_guard<std::mutex> lk(mu);
      order.push_back(1);
    });
  });
  ASSERT_TRUE(eventually([&] { return done.load(); }));
  loop.stop();
  t.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoopTest, CancelledTimerNeverFires) {
  EventLoop loop;
  std::thread t([&] { loop.run(); });
  std::atomic<bool> fired{false};
  std::atomic<bool> sentinel{false};
  loop.post([&] {
    const auto id = loop.add_timer(EventLoop::Clock::now() + 20ms,
                                   [&] { fired.store(true); });
    loop.cancel_timer(id);
    loop.add_timer(EventLoop::Clock::now() + 60ms,
                   [&] { sentinel.store(true); });
  });
  ASSERT_TRUE(eventually([&] { return sentinel.load(); }));
  EXPECT_FALSE(fired.load());
  loop.stop();
  t.join();
}

// --- ConnectionManager pairs -------------------------------------------------

TEST(ConnectionManagerTest, PairConnectsAndExchangesFrames) {
  Sink sink_a, sink_b;
  // Smaller name dials: a dials b, b accepts. b still lists a as a peer —
  // inbound HELLOs are validated against the peer table.
  ConnectionManager::Options bo;
  bo.node = "b";
  bo.listen = "127.0.0.1:0";
  bo.peers["a"] = "127.0.0.1:1";  // never dialed from b's side
  bo.tuning = fast_tuning();
  obs::Registry reg_b;
  ConnectionManager b(bo, reg_b, sink_b.frame_handler(),
                      sink_b.link_handler());
  ASSERT_NE(b.listen_port(), 0);

  ConnectionManager::Options ao;
  ao.node = "a";
  ao.listen = "127.0.0.1:0";
  ao.peers["b"] = "127.0.0.1:" + std::to_string(b.listen_port());
  ao.tuning = fast_tuning();
  obs::Registry reg_a;
  ConnectionManager a(ao, reg_a, sink_a.frame_handler(),
                      sink_a.link_handler());
  ASSERT_TRUE(eventually([&] { return a.peer_up("b"); }))
      << "dialer never saw link-up";

  for (std::uint32_t i = 0; i < 100; ++i) ASSERT_TRUE(a.send("b", probe(i)));
  ASSERT_TRUE(eventually([&] { return sink_b.seen().size() == 100; }));
  const auto seen = sink_b.seen();
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(seen[i], i);  // FIFO

  const auto ca = reg_a.samples();
  EXPECT_EQ(obs::family_total(ca, "tart_net_frames_out_total"), 100u);
  EXPECT_GT(obs::family_total(ca, "tart_net_bytes_out_total"), 0u);
  EXPECT_EQ(obs::family_total(ca, "tart_net_connects_total"), 1u);
  EXPECT_EQ(obs::family_total(ca, "tart_net_reconnects_total"), 0u);

  a.shutdown();
  b.shutdown();
}

TEST(ConnectionManagerTest, AcceptorValidatesHelloFromKnownPeer) {
  Sink sink_a, sink_b;
  ConnectionManager::Options bo;
  bo.node = "b";
  bo.listen = "127.0.0.1:0";
  bo.tuning = fast_tuning();
  obs::Registry reg_b_wrong;
  ConnectionManager b_wrong(bo, reg_b_wrong, sink_b.frame_handler(),
                            sink_b.link_handler());
  // b has no peer "a" in its table: the inbound HELLO must be refused,
  // so a never reaches link-up.
  ConnectionManager::Options ao;
  ao.node = "a";
  ao.peers["b"] = "127.0.0.1:" + std::to_string(b_wrong.listen_port());
  ao.tuning = fast_tuning();
  obs::Registry reg_a;
  ConnectionManager a(ao, reg_a, sink_a.frame_handler(),
                      sink_a.link_handler());
  std::this_thread::sleep_for(300ms);
  EXPECT_FALSE(a.peer_up("b"));
  EXPECT_FALSE(a.send("b", probe(1)));
  EXPECT_GT(obs::family_total(reg_a.samples(), "tart_net_frames_refused_total"),
            0u);
  a.shutdown();
  b_wrong.shutdown();
}

TEST(ConnectionManagerTest, FingerprintMismatchIsRefused) {
  Sink sink_a, sink_b;
  ConnectionManager::Options bo;
  bo.node = "b";
  bo.listen = "127.0.0.1:0";
  bo.deployment_fp = 1111;
  bo.tuning = fast_tuning();
  obs::Registry reg_b;
  ConnectionManager b(bo, reg_b, sink_b.frame_handler(),
                      sink_b.link_handler());
  bo.peers["a"] = "unused";

  ConnectionManager::Options ao;
  ao.node = "a";
  ao.peers["b"] = "127.0.0.1:" + std::to_string(b.listen_port());
  ao.deployment_fp = 2222;  // different config build
  ao.tuning = fast_tuning();
  obs::Registry reg_a;
  ConnectionManager a(ao, reg_a, sink_a.frame_handler(),
                      sink_a.link_handler());
  std::this_thread::sleep_for(300ms);
  EXPECT_FALSE(a.peer_up("b"));
  a.shutdown();
  b.shutdown();
}

TEST(ConnectionManagerTest, DialerReconnectsAfterPeerRestart) {
  Sink sink_a;
  ConnectionManager::Options ao;
  ao.node = "a";
  ao.tuning = fast_tuning();

  std::uint16_t port = 0;
  {
    Sink sink_b;
    ConnectionManager::Options bo;
    bo.node = "b";
    bo.listen = "127.0.0.1:0";
    bo.peers["a"] = "127.0.0.1:1";  // never dialed (b > a accepts)
    bo.tuning = fast_tuning();
    obs::Registry reg_b;
    ConnectionManager b(bo, reg_b,
                        sink_b.frame_handler(), sink_b.link_handler());
    port = b.listen_port();

    ao.peers["b"] = "127.0.0.1:" + std::to_string(port);
    // (a constructed below, after b's port is known)
  }
  // First incarnation of b is gone; a dials into the void, backing off.
  ConnectionManager::Options bo2;
  bo2.node = "b";
  bo2.listen = "127.0.0.1:" + std::to_string(port);
  bo2.peers["a"] = "127.0.0.1:1";
  bo2.tuning = fast_tuning();

  Sink sink_a2;
  obs::Registry reg_a;
  ConnectionManager a(ao, reg_a,
                      sink_a2.frame_handler(), sink_a2.link_handler());
  std::this_thread::sleep_for(100ms);  // let a fail a few dials
  EXPECT_FALSE(a.peer_up("b"));

  Sink sink_b2;
  obs::Registry reg_b2;
  ConnectionManager b2(bo2, reg_b2,
                       sink_b2.frame_handler(), sink_b2.link_handler());
  ASSERT_TRUE(eventually([&] { return a.peer_up("b"); }))
      << "dialer never recovered after peer came (back) up";
  // The link callback runs on the net thread just after peer_up() flips,
  // so the sink may trail the flag by a moment.
  EXPECT_TRUE(eventually([&] { return sink_a2.up_count() >= 1; }));

  // Kill and restart the acceptor: a must notice the drop and redial.
  b2.shutdown();
  ASSERT_TRUE(eventually([&] { return !a.peer_up("b"); }));
  EXPECT_TRUE(eventually([&] { return sink_a2.down_count() >= 1; }));

  Sink sink_b3;
  obs::Registry reg_b3;
  ConnectionManager b3(bo2, reg_b3,
                       sink_b3.frame_handler(), sink_b3.link_handler());
  ASSERT_TRUE(eventually([&] { return a.peer_up("b"); }));
  EXPECT_GE(obs::family_total(reg_a.samples(), "tart_net_reconnects_total"), 1u)
      << "second link-up must count as a reconnect";
  ASSERT_TRUE(a.send("b", probe(42)));
  ASSERT_TRUE(eventually([&] { return sink_b3.seen().size() == 1; }));

  a.shutdown();
  b3.shutdown();
}

TEST(ConnectionManagerTest, HeartbeatMissAgainstSilentPeer) {
  // A fake peer that completes the HELLO handshake, then goes silent
  // forever (reads but never writes): the manager must declare the link
  // down via heartbeat misses, not hang.
  std::string err;
  Fd listener = listen_tcp(*SockAddr::parse("127.0.0.1:0"), &err);
  ASSERT_TRUE(listener.valid()) << err;
  const std::uint16_t port = local_port(listener.get());

  std::atomic<bool> stop{false};
  std::thread fake([&] {
    Fd conn;
    while (!stop.load() && !conn.valid()) {
      conn = accept_tcp(listener.get());
      std::this_thread::sleep_for(5ms);
    }
    if (!conn.valid()) return;
    // Send a valid HELLO, then nothing — not even heartbeats.
    HelloBody body;
    body.node = "b";
    const auto hello = encode_message(NetMsgType::kHello, body.encode());
    (void)::write(conn.get(), hello.data(), hello.size());
    while (!stop.load()) {
      std::byte buf[4096];
      (void)::read(conn.get(), buf, sizeof(buf));  // drain, stay silent
      std::this_thread::sleep_for(5ms);
    }
  });

  Sink sink;
  ConnectionManager::Options ao;
  ao.node = "a";
  ao.peers["b"] = "127.0.0.1:" + std::to_string(port);
  ao.tuning = fast_tuning();
  obs::Registry reg_a;
  ConnectionManager a(ao, reg_a, sink.frame_handler(), sink.link_handler());
  ASSERT_TRUE(eventually([&] { return sink.up_count() >= 1; }));
  ASSERT_TRUE(eventually([&] { return sink.down_count() >= 1; }, 10s))
      << "silent peer never declared down";
  EXPECT_GE(
      obs::family_total(reg_a.samples(), "tart_net_heartbeat_misses_total"),
      1u);

  stop.store(true);
  a.shutdown();
  fake.join();
}

TEST(ConnectionManagerTest, SendToDownPeerRefusesAndCounts) {
  Sink sink;
  ConnectionManager::Options ao;
  ao.node = "a";
  ao.peers["b"] = "127.0.0.1:1";  // nothing listens there
  ao.tuning = fast_tuning();
  obs::Registry reg_a;
  ConnectionManager a(ao, reg_a, sink.frame_handler(), sink.link_handler());
  EXPECT_FALSE(a.send("b", probe(1)));
  EXPECT_FALSE(a.send("nonexistent", probe(2)));
  EXPECT_GE(obs::family_total(reg_a.samples(), "tart_net_frames_refused_total"),
            2u);
  a.shutdown();
  EXPECT_FALSE(a.send("b", probe(3)));  // after shutdown: still safe
}

TEST(ConnectionManagerTest, MalformedInboundBytesDropConnectionNotProcess) {
  // Connect a raw socket to the acceptor and write garbage: the manager
  // must count a decode error and drop the connection; the process lives.
  Sink sink;
  ConnectionManager::Options bo;
  bo.node = "b";
  bo.listen = "127.0.0.1:0";
  bo.peers["a"] = "127.0.0.1:1";
  bo.tuning = fast_tuning();
  obs::Registry reg_b;
  ConnectionManager b(bo, reg_b, sink.frame_handler(), sink.link_handler());

  bool in_progress = false;
  std::string err;
  Fd raw = connect_tcp(*SockAddr::parse("127.0.0.1:" +
                                        std::to_string(b.listen_port())),
                       &in_progress, &err);
  ASSERT_TRUE(raw.valid()) << err;
  std::this_thread::sleep_for(50ms);
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  (void)::write(raw.get(), garbage, sizeof(garbage));
  ASSERT_TRUE(eventually([&] {
    return obs::family_total(reg_b.samples(), "tart_net_decode_errors_total") >=
           1;
  }))
      << "garbage never surfaced as a decode error";
  b.shutdown();
}

// ---------------------------------------------------------------------------
// Address parsing + resolution: numeric IPv4, bracketed IPv6, hostnames.

TEST(SockAddrTest, ParsesNumericIPv4) {
  const auto a = SockAddr::parse("10.0.0.2:7100");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->host, "10.0.0.2");
  EXPECT_EQ(a->port, 7100);
  EXPECT_EQ(a->to_string(), "10.0.0.2:7100");
}

TEST(SockAddrTest, ParsesBracketedIPv6AndRoundTripsBrackets) {
  const auto a = SockAddr::parse("[::1]:9000");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->host, "::1");  // brackets stripped internally
  EXPECT_EQ(a->port, 9000);
  EXPECT_EQ(a->to_string(), "[::1]:9000");

  const auto b = SockAddr::parse("[fe80::2:1]:7101");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->host, "fe80::2:1");
  EXPECT_EQ(b->port, 7101);
}

TEST(SockAddrTest, ParsesHostnames) {
  const auto a = SockAddr::parse("db-2.rack1:7101");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->host, "db-2.rack1");
  EXPECT_EQ(a->port, 7101);

  // localhost normalizes to the v4 loopback literal so single-machine
  // deployments never depend on resolver configuration.
  const auto l = SockAddr::parse("localhost:80");
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(l->host, "127.0.0.1");
}

TEST(SockAddrTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(SockAddr::parse("::1:9000"));       // bare v6: ambiguous
  EXPECT_FALSE(SockAddr::parse("[not-v6]:9000"));  // brackets imply v6
  EXPECT_FALSE(SockAddr::parse("[::1]9000"));      // missing separator
  EXPECT_FALSE(SockAddr::parse("host.example"));   // no port
  EXPECT_FALSE(SockAddr::parse("host:"));          // empty port
  EXPECT_FALSE(SockAddr::parse(":7100"));          // empty host
  EXPECT_FALSE(SockAddr::parse("host:99999"));     // port overflow
  EXPECT_FALSE(SockAddr::parse("host:7x1"));       // non-numeric port
  EXPECT_FALSE(SockAddr::parse("ba d.host:7100")); // bad hostname charset
}

TEST(SockAddrTest, HostnameListenAndConnectOverLoopback) {
  // End-to-end through getaddrinfo: listen on the v4 loopback, dial it by
  // hostname ("localhost" pre-normalizes, so use the literal for listen
  // and the name for connect).
  std::string err;
  Fd lfd = listen_tcp(*SockAddr::parse("127.0.0.1:0"), &err);
  ASSERT_TRUE(lfd.valid()) << err;
  const std::uint16_t port = local_port(lfd.get());
  ASSERT_NE(port, 0);

  bool in_progress = false;
  Fd cfd = connect_tcp(*SockAddr::parse("localhost:" + std::to_string(port)),
                       &in_progress, &err);
  ASSERT_TRUE(cfd.valid()) << err;
  ASSERT_TRUE(eventually([&] { return accept_tcp(lfd.get()).valid(); }));
}

TEST(SockAddrTest, IPv6LoopbackListenAndConnect) {
  // Bind the v6 loopback if the kernel offers it (skip otherwise: minimal
  // containers sometimes ship v4-only network namespaces).
  std::string err;
  Fd lfd = listen_tcp(*SockAddr::parse("[::1]:0"), &err);
  if (!lfd.valid()) GTEST_SKIP() << "no IPv6 loopback: " << err;
  const std::uint16_t port = local_port(lfd.get());
  ASSERT_NE(port, 0);

  bool in_progress = false;
  Fd cfd = connect_tcp(*SockAddr::parse("[::1]:" + std::to_string(port)),
                       &in_progress, &err);
  ASSERT_TRUE(cfd.valid()) << err;
  ASSERT_TRUE(eventually([&] { return accept_tcp(lfd.get()).valid(); }));
}
