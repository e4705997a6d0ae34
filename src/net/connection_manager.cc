#include "net/connection_manager.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/logging.h"
#include "common/thread_name.h"
#include "obs/prof.h"

namespace tart::net {

namespace {
/// A pending (pre-HELLO) inbound connection older than this is dropped.
constexpr std::chrono::seconds kPendingHelloTimeout{5};
}  // namespace

ConnectionManager::Metrics::Metrics(obs::Registry& registry)
    : bytes_in(registry.counter("tart_net_bytes_in_total",
                                "Bytes received from peer nodes")),
      bytes_out(registry.counter("tart_net_bytes_out_total",
                                 "Bytes sent to peer nodes")),
      frames_in(registry.counter("tart_net_frames_in_total",
                                 "Transport frames received from peer nodes")),
      frames_out(registry.counter("tart_net_frames_out_total",
                                  "Transport frames sent to peer nodes")),
      msgs_in(registry.counter(
          "tart_net_msgs_in_total",
          "Non-frame peer messages received (placement/stream/cover)")),
      msgs_out(registry.counter(
          "tart_net_msgs_out_total",
          "Non-frame peer messages sent (placement/stream/cover)")),
      connects(registry.counter(
          "tart_net_connects_total",
          "Peer link-up transitions, the first included")),
      reconnects(registry.counter("tart_net_reconnects_total",
                                  "Peer connection re-establishments")),
      heartbeat_misses(registry.counter("tart_net_heartbeat_misses_total",
                                        "Peer liveness timeouts")),
      frames_refused(registry.counter(
          "tart_net_frames_refused_total",
          "Frames dropped by backpressure or link-down")),
      decode_errors(registry.counter(
          "tart_net_decode_errors_total",
          "Malformed inbound peer data (the connection is dropped)")),
      queue_high_water(registry.gauge(
          "tart_net_queue_high_water",
          "Max frames ever queued to any one peer")) {}

ConnectionManager::ConnectionManager(Options options, obs::Registry& registry,
                                     FrameHandler on_frame,
                                     LinkHandler on_link,
                                     MessageHandler on_message,
                                     HelloInfoHandler on_hello,
                                     HelloFn hello_fn)
    : options_(std::move(options)),
      on_frame_(std::move(on_frame)),
      on_link_(std::move(on_link)),
      on_message_(std::move(on_message)),
      on_hello_(std::move(on_hello)),
      hello_fn_(std::move(hello_fn)),
      jitter_(options_.tuning.jitter_seed),
      metrics_(registry) {
  for (const auto& [name, addr_spec] : options_.peers) {
    if (name == options_.node) continue;
    auto peer = std::make_unique<Peer>();
    peer->name = name;
    const auto addr = SockAddr::parse(addr_spec);
    if (!addr)
      throw NetError("bad peer address '" + addr_spec + "' for " + name);
    peer->addr = *addr;
    // One connection per pair: the smaller name dials, the larger accepts.
    peer->we_dial = options_.node < name;
    peers_.emplace(name, std::move(peer));
  }

  // Bind before the loop starts so listen_port() is valid on return.
  if (!options_.listen.empty()) {
    const auto addr = SockAddr::parse(options_.listen);
    if (!addr) throw NetError("bad listen address '" + options_.listen + "'");
    std::string error;
    listener_ = listen_tcp(*addr, &error);
    if (!listener_.valid()) throw NetError("listen failed: " + error);
    listen_port_ = local_port(listener_.get());
  }

  thread_ = std::thread([this] {
    set_thread_name("net-loop");
    loop_.post([this] {
      start_listening();
      for (auto& [name, peer] : peers_)
        if (peer->we_dial) start_dial(*peer);
      heartbeat_tick();
    });
    loop_.run();
  });
}

ConnectionManager::~ConnectionManager() { shutdown(); }

void ConnectionManager::shutdown() {
  if (shut_down_.exchange(true)) return;
  loop_.stop();
  if (thread_.joinable()) thread_.join();
  // Loop thread is gone; closing fds here is race-free.
  for (auto& [name, peer] : peers_) {
    peer->up.store(false);
    peer->fd.reset();
  }
  pending_.clear();
  listener_.reset();
}

bool ConnectionManager::queue_toward(const std::string& peer_name,
                                     std::vector<std::byte> bytes,
                                     Peer::OutKind kind) {
  if (shut_down_.load()) return false;
  const auto it = peers_.find(peer_name);
  if (it == peers_.end()) {
    metrics_.frames_refused.inc();
    return false;
  }
  Peer* peer = it->second.get();
  if (!peer->up.load() ||
      peer->queued_frames.load() >= options_.tuning.max_queued_frames) {
    metrics_.frames_refused.inc();
    return false;
  }
  peer->queued_frames.fetch_add(1);
  loop_.post([this, peer, kind, bytes = std::move(bytes)]() mutable {
    if (!peer->fd.valid() || !peer->up.load()) {
      peer->queued_frames.fetch_sub(1);
      metrics_.frames_refused.inc();
      return;
    }
    enqueue_bytes(*peer, std::move(bytes), kind);
  });
  return true;
}

bool ConnectionManager::send(const std::string& peer_name,
                             const transport::Frame& frame) {
  // Serialize on the caller's thread (cheap parallelism); the loop thread
  // only moves bytes.
  return queue_toward(peer_name, encode_frame_message(frame),
                      Peer::OutKind::kFrame);
}

bool ConnectionManager::send_message(const std::string& peer_name,
                                     const NetMessage& msg) {
  return queue_toward(peer_name, encode_message(msg.type, msg.payload),
                      Peer::OutKind::kMessage);
}

bool ConnectionManager::peer_up(const std::string& peer_name) const {
  const auto it = peers_.find(peer_name);
  return it != peers_.end() && it->second->up.load();
}

// --- loop-thread machinery ---------------------------------------------------

void ConnectionManager::start_listening() {
  if (!listener_.valid()) return;
  loop_.set_fd(listener_.get(), /*want_read=*/true, /*want_write=*/false,
               [this](unsigned) { on_listener_ready(); });
}

void ConnectionManager::on_listener_ready() {
  for (;;) {
    Fd fd = accept_tcp(listener_.get());
    if (!fd.valid()) return;
    const int raw = fd.get();
    PendingConn pending;
    pending.fd = std::move(fd);
    pending.since = EventLoop::Clock::now();
    pending_.emplace(raw, std::move(pending));
    loop_.set_fd(raw, /*want_read=*/true, /*want_write=*/false,
                 [this, raw](unsigned events) { on_pending_ready(raw, events); });
  }
}

void ConnectionManager::on_pending_ready(int fd, unsigned events) {
  const auto it = pending_.find(fd);
  if (it == pending_.end()) return;
  PendingConn& conn = it->second;
  const auto close_pending = [&] {
    loop_.remove_fd(fd);
    pending_.erase(fd);
  };
  if (events & EventLoop::kError) {
    close_pending();
    return;
  }
  std::byte buf[16 * 1024];
  for (;;) {
    const auto n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      metrics_.bytes_in.inc(static_cast<std::uint64_t>(n));
      conn.decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_pending();  // EOF or hard error before HELLO
    return;
  }
  std::optional<NetMessage> msg;
  try {
    msg = conn.decoder.next();
  } catch (const std::exception&) {
    metrics_.decode_errors.inc();
    close_pending();
    return;
  }
  if (!msg) return;  // need more bytes
  if (msg->type != NetMsgType::kHello) {
    metrics_.decode_errors.inc();
    close_pending();
    return;
  }
  HelloBody hello;
  try {
    hello = HelloBody::decode(msg->payload);
  } catch (const std::exception&) {
    metrics_.decode_errors.inc();
    close_pending();
    return;
  }
  const auto peer_it = peers_.find(hello.node);
  if (peer_it == peers_.end() ||
      hello.deployment_fp != options_.deployment_fp || peer_it->second->we_dial) {
    TART_WARN_EVERY_N(100) << "net: refusing connection from '" << hello.node
                           << "' (unknown peer, fingerprint mismatch, or "
                              "wrong side dialing)";
    close_pending();
    return;
  }
  Fd adopted = std::move(conn.fd);
  StreamDecoder decoder = std::move(conn.decoder);
  close_pending();
  adopt_connection(*peer_it->second, std::move(adopted), std::move(decoder),
                   EventLoop::Clock::now(), std::move(hello));
}

void ConnectionManager::adopt_connection(Peer& peer, Fd fd,
                                         StreamDecoder decoder,
                                         EventLoop::Clock::time_point last_recv,
                                         HelloBody peer_hello) {
  // A replacement from a restarted peer kicks the stale socket.
  if (peer.fd.valid()) drop_connection(peer, "replaced by new connection");
  if (peer.reconnect_timer != 0) {
    loop_.cancel_timer(peer.reconnect_timer);
    peer.reconnect_timer = 0;
  }
  peer.fd = std::move(fd);
  peer.connecting = false;
  peer.decoder = std::move(decoder);
  peer.last_recv = last_recv;
  peer.hello_received = true;  // acceptor path: HELLO already consumed
  peer.hello_sent = false;
  const int raw = peer.fd.get();
  loop_.set_fd(raw, /*want_read=*/true, /*want_write=*/false,
               [this, p = &peer](unsigned events) { on_peer_ready(*p, events); });
  send_hello(peer);
  mark_up(peer);
  if (on_hello_) on_hello_(peer.name, peer_hello);
}

void ConnectionManager::send_hello(Peer& peer) {
  HelloBody hello;
  hello.node = options_.node;
  hello.deployment_fp = options_.deployment_fp;
  if (hello_fn_) hello_fn_(hello);
  enqueue_bytes(peer, encode_message(NetMsgType::kHello, hello.encode()),
                Peer::OutKind::kControl);
  peer.hello_sent = true;
}

void ConnectionManager::start_dial(Peer& peer) {
  peer.reconnect_timer = 0;
  bool in_progress = false;
  std::string error;
  Fd fd = connect_tcp(peer.addr, &in_progress, &error);
  if (!fd.valid()) {
    schedule_redial(peer);
    return;
  }
  peer.fd = std::move(fd);
  peer.connecting = in_progress;
  peer.decoder = StreamDecoder();
  peer.hello_sent = false;
  peer.hello_received = false;
  peer.last_recv = EventLoop::Clock::now();
  const int raw = peer.fd.get();
  loop_.set_fd(raw, /*want_read=*/!in_progress, /*want_write=*/in_progress,
               [this, p = &peer](unsigned events) { on_peer_ready(*p, events); });
  if (!in_progress) finish_connect(peer);
}

void ConnectionManager::schedule_redial(Peer& peer) {
  if (shut_down_.load() || peer.reconnect_timer != 0) return;
  // Exponential backoff with jitter in [base/2, base): synchronized herds
  // of redials spread out, and the cap keeps recovery under reconnect_max.
  const long long cap = options_.tuning.reconnect_max.count();
  long long base = options_.tuning.reconnect_min.count();
  for (int i = 0; i < peer.backoff_exp && base < cap; ++i) base *= 2;
  base = std::min(base, cap);
  const long long delay =
      base / 2 + static_cast<long long>(
                     jitter_.bounded(static_cast<std::uint64_t>(base / 2 + 1)));
  if (peer.backoff_exp < 16) ++peer.backoff_exp;
  peer.reconnect_timer = loop_.add_timer(
      EventLoop::Clock::now() + std::chrono::milliseconds(delay),
      [this, p = &peer] { start_dial(*p); });
}

void ConnectionManager::finish_connect(Peer& peer) {
  peer.connecting = false;
  const int err = connect_error(peer.fd.get());
  if (err != 0) {
    drop_connection(peer, "connect failed");
    return;
  }
  send_hello(peer);
  update_interest(peer);
}

void ConnectionManager::mark_up(Peer& peer) {
  if (peer.up.load()) return;
  peer.up.store(true);
  peer.backoff_exp = 0;
  metrics_.connects.inc();
  if (peer.ever_up) metrics_.reconnects.inc();
  peer.ever_up = true;
  if (on_link_) on_link_(peer.name, /*up=*/true);
}

void ConnectionManager::drop_connection(Peer& peer, const char* reason) {
  if (!peer.fd.valid()) return;
  const bool was_up = peer.up.exchange(false);
  loop_.remove_fd(peer.fd.get());
  peer.fd.reset();
  peer.connecting = false;
  peer.hello_sent = false;
  peer.hello_received = false;
  peer.decoder = StreamDecoder();
  if (!peer.outq.empty()) {
    std::size_t frames = 0;
    for (const auto& buf : peer.outq)
      frames += buf.kind != Peer::OutKind::kControl ? 1 : 0;
    peer.queued_frames.fetch_sub(frames);
    peer.outq.clear();
  }
  if (was_up) {
    TART_INFO << "net: link to '" << peer.name << "' down (" << reason
                   << ")";
    if (on_link_) on_link_(peer.name, /*up=*/false);
  }
  if (peer.we_dial) schedule_redial(peer);
}

void ConnectionManager::on_peer_ready(Peer& peer, unsigned events) {
  if (!peer.fd.valid()) return;
  if (peer.connecting) {
    if (events & (EventLoop::kWritable | EventLoop::kError)) {
      finish_connect(peer);
    }
    return;
  }
  if (events & EventLoop::kReadable) {
    handle_readable(peer);
    if (!peer.fd.valid()) return;  // dropped while reading
  }
  if (events & EventLoop::kWritable) {
    flush_writes(peer);
    if (!peer.fd.valid()) return;
  }
  if (events & EventLoop::kError) {
    drop_connection(peer, "socket error");
  }
}

void ConnectionManager::handle_readable(Peer& peer) {
  std::byte buf[64 * 1024];
  for (;;) {
    const auto n = ::read(peer.fd.get(), buf, sizeof(buf));
    if (n > 0) {
      metrics_.bytes_in.inc(static_cast<std::uint64_t>(n));
      // feed() copies the kernel's bytes into the decoder's staging buffer
      // — the inbound copy the zero-copy refactor wants to erase.
      TART_PROF_BYTES("net.envelope_in", n);
      peer.last_recv = EventLoop::Clock::now();
      peer.decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    drop_connection(peer, n == 0 ? "peer closed" : "read error");
    return;
  }
  TART_PROF_SPAN("net.decode");
  for (;;) {
    std::optional<NetMessage> msg;
    try {
      msg = peer.decoder.next();
    } catch (const std::exception& e) {
      metrics_.decode_errors.inc();
      TART_WARN_EVERY_N(100) << "net: dropping '" << peer.name
                             << "': malformed inbound data: " << e.what();
      drop_connection(peer, "decode error");
      return;
    }
    if (!msg) return;
    handle_message(peer, std::move(*msg));
    if (!peer.fd.valid()) return;
  }
}

void ConnectionManager::handle_message(Peer& peer, NetMessage msg) {
  switch (msg.type) {
    case NetMsgType::kHello: {
      HelloBody hello;
      try {
        hello = HelloBody::decode(msg.payload);
      } catch (const std::exception&) {
        metrics_.decode_errors.inc();
        drop_connection(peer, "bad hello");
        return;
      }
      if (hello.node != peer.name ||
          hello.deployment_fp != options_.deployment_fp) {
        TART_WARN_EVERY_N(100) << "net: hello mismatch from '" << hello.node
                               << "' (expected '" << peer.name << "')";
        drop_connection(peer, "hello mismatch");
        return;
      }
      peer.hello_received = true;
      if (peer.hello_sent) mark_up(peer);
      if (on_hello_) on_hello_(peer.name, hello);
      return;
    }
    case NetMsgType::kHeartbeat:
      return;  // liveness already noted via last_recv
    case NetMsgType::kFrame: {
      transport::Frame frame;
      try {
        frame = decode_frame_payload(msg.payload);
      } catch (const std::exception& e) {
        metrics_.decode_errors.inc();
        TART_WARN_EVERY_N(100) << "net: bad frame from '" << peer.name
                               << "': " << e.what();
        drop_connection(peer, "bad frame");
        return;
      }
      metrics_.frames_in.inc();
      if (on_frame_) on_frame_(peer.name, std::move(frame));
      return;
    }
    default:
      // Placement, migration-stream and cover traffic rides the peer
      // connection as opaque messages; without a handler installed the type
      // is unexpected and connection-fatal (the pre-placement behavior).
      if (on_message_) {
        metrics_.msgs_in.inc();
        on_message_(peer.name, std::move(msg));
        return;
      }
      metrics_.decode_errors.inc();
      drop_connection(peer, "unexpected message type");
  }
}

void ConnectionManager::enqueue_bytes(Peer& peer, std::vector<std::byte> bytes,
                                      Peer::OutKind kind) {
  Peer::OutBuf buf;
  // The serialized envelope was built on the sender's thread and moved
  // here; count it as one outbound envelope staging on the wire path.
  TART_PROF_BYTES("net.envelope_out", bytes.size());
  buf.bytes = std::move(bytes);
  buf.kind = kind;
  peer.outq.push_back(std::move(buf));
  if (kind != Peer::OutKind::kControl) {
    metrics_.queue_high_water.max_with(
        static_cast<std::int64_t>(peer.queued_frames.load()));
  }
  flush_writes(peer);
}

void ConnectionManager::flush_writes(Peer& peer) {
  if (peer.outq.empty()) {
    update_interest(peer);
    return;
  }
  TART_PROF_SPAN("net.send_flush");
  while (!peer.outq.empty() && peer.fd.valid()) {
    Peer::OutBuf& front = peer.outq.front();
    // MSG_NOSIGNAL: a peer that died mid-write must surface as EPIPE (the
    // link drops and redials), not as a SIGPIPE that kills this node.
    const auto n =
        ::send(peer.fd.get(), front.bytes.data() + front.offset,
               front.bytes.size() - front.offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      drop_connection(peer, "write error");
      return;
    }
    metrics_.bytes_out.inc(static_cast<std::uint64_t>(n));
    front.offset += static_cast<std::size_t>(n);
    if (front.offset < front.bytes.size()) break;  // kernel buffer full
    if (front.kind != Peer::OutKind::kControl) {
      if (front.kind == Peer::OutKind::kFrame) {
        metrics_.frames_out.inc();
      } else {
        metrics_.msgs_out.inc();
      }
      peer.queued_frames.fetch_sub(1);
    }
    peer.outq.pop_front();
  }
  update_interest(peer);
}

void ConnectionManager::update_interest(Peer& peer) {
  if (!peer.fd.valid()) return;
  loop_.set_interest(peer.fd.get(), /*want_read=*/!peer.connecting,
                     /*want_write=*/peer.connecting || !peer.outq.empty());
}

void ConnectionManager::heartbeat_tick() {
  loop_.add_timer(EventLoop::Clock::now() + options_.tuning.heartbeat_interval,
                  [this] { heartbeat_tick(); });
  const auto now = EventLoop::Clock::now();
  const auto dead_after =
      options_.tuning.heartbeat_interval * options_.tuning.heartbeat_miss_limit;
  for (auto& [name, peer] : peers_) {
    if (!peer->fd.valid() || peer->connecting) continue;
    if (now - peer->last_recv > dead_after) {
      metrics_.heartbeat_misses.inc();
      TART_WARN_EVERY_N(10) << "net: peer '" << name << "' silent for "
                            << options_.tuning.heartbeat_miss_limit
                            << " heartbeat intervals; declaring link down";
      drop_connection(*peer, "heartbeat timeout");
      continue;
    }
    enqueue_bytes(*peer, encode_message(NetMsgType::kHeartbeat),
                  Peer::OutKind::kControl);
  }
  // Inbound connections that never said HELLO eventually expire.
  std::vector<int> stale;
  for (const auto& [fd, conn] : pending_)
    if (now - conn.since > kPendingHelloTimeout) stale.push_back(fd);
  for (const int fd : stale) {
    loop_.remove_fd(fd);
    pending_.erase(fd);
  }
}

}  // namespace tart::net
