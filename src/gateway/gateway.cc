#include "gateway/gateway.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "durability/manager.h"
#include "net/partition_config.h"
#include "obs/exposition.h"
#include "obs/node_report.h"
#include "obs/prof.h"

namespace tart::gateway {

namespace {

using Clock = std::chrono::steady_clock;

/// Media type without parameters, lowercased ("Text/Plain; charset=utf-8"
/// -> "text/plain").
std::string media_type(const HttpRequest& req) {
  const std::string* ct = req.header("Content-Type");
  if (ct == nullptr) return "text/plain";
  std::string_view v = *ct;
  const std::size_t semi = v.find(';');
  if (semi != std::string_view::npos) v = v.substr(0, semi);
  while (!v.empty() && v.back() == ' ') v.remove_suffix(1);
  while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
  std::string out(v);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::optional<std::int64_t> parse_i64(std::string_view s) {
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace

Payload payload_from_body(const HttpRequest& req) {
  const std::string type = media_type(req);
  if (type == "text/plain" || type.empty()) {
    std::vector<std::string> words;
    std::istringstream in(req.body);
    std::string word;
    while (in >> word) words.push_back(std::move(word));
    return Payload(std::move(words));
  }
  if (type == "application/x-tart-int") {
    const auto v = parse_i64(req.body);
    if (!v) throw HttpError(400, "body is not an integer");
    return Payload(*v);
  }
  if (type == "application/x-tart-double") {
    char* end = nullptr;
    const double v = std::strtod(req.body.c_str(), &end);
    if (req.body.empty() || end != req.body.c_str() + req.body.size())
      throw HttpError(400, "body is not a number");
    return Payload(v);
  }
  if (type == "application/x-tart-string") return Payload(req.body);
  if (type == "application/octet-stream") {
    std::vector<std::byte> bytes(req.body.size());
    std::memcpy(bytes.data(), req.body.data(), req.body.size());
    return Payload(std::move(bytes));
  }
  throw HttpError(415, "unsupported Content-Type '" + type + "'");
}

std::string render_payload(const Payload& payload) {
  struct Visitor {
    std::string operator()(std::monostate) const { return ""; }
    std::string operator()(std::int64_t v) const { return std::to_string(v); }
    std::string operator()(double v) const {
      std::ostringstream os;
      os << v;
      return os.str();
    }
    std::string operator()(const std::string& v) const { return v; }
    std::string operator()(const std::vector<std::int64_t>& v) const {
      std::string out;
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out += ' ';
        out += std::to_string(v[i]);
      }
      return out;
    }
    std::string operator()(const std::vector<std::string>& v) const {
      std::string out;
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out += ' ';
        out += v[i];
      }
      return out;
    }
    std::string operator()(const std::vector<std::byte>& v) const {
      static constexpr char kHex[] = "0123456789abcdef";
      std::string out;
      out.reserve(v.size() * 2);
      for (const std::byte b : v) {
        out += kHex[std::to_integer<unsigned>(b) >> 4];
        out += kHex[std::to_integer<unsigned>(b) & 0xF];
      }
      return out;
    }
  };
  return std::visit(Visitor{}, payload.value());
}

// --- Construction / teardown ------------------------------------------------

Gateway::Gateway(core::Runtime* runtime, Options options,
                 std::map<std::string, WireId> inputs,
                 std::map<std::string, WireId> outputs, Host host)
    : runtime_(runtime),
      options_(std::move(options)),
      inputs_(std::move(inputs)),
      outputs_(std::move(outputs)),
      host_(std::move(host)),
      // Ack latencies: 50us buckets to 250ms, overflow above (fsync-bound
      // tails on loaded disks land in the overflow bucket, still counted).
      ack_latency_(runtime->registry().histogram(
          "tart_gw_ack_latency_seconds",
          "Client-observed inject latency: enqueue to durable commit.", {},
          50e-6, 5000)),
      batch_size_(runtime->registry().histogram(
          "tart_gw_commit_batch_size",
          "Injections stamped and logged per group-commit flush.", {}, 1.0,
          options_.max_batch + 1)) {
  for (const auto& [name, wire] : inputs_) {
    (void)name;
    inflight_[wire].store(0);
  }

  const auto addr = net::SockAddr::parse(options_.listen);
  if (!addr) throw net::ConfigError("gateway: bad listen address '" +
                                    options_.listen + "'");
  std::string err;
  listener_ = net::listen_tcp(*addr, &err);
  if (!listener_.valid())
    throw net::ConfigError("gateway: listen on " + options_.listen +
                           " failed: " + err);
  port_ = net::local_port(listener_.get());

  committer_ = std::thread([this] { committer_main(); });
  loop_.post([this] {
    loop_.set_fd(listener_.get(), true, false,
                 [this](unsigned) { on_accept(); });
  });
  loop_thread_ = std::thread([this] { loop_.run(); });
  runtime_->set_output_ready_hook([this] {
    if (!wake_posted_.exchange(true)) loop_.post([this] { wake_parked(); });
  });
}

Gateway::~Gateway() { shutdown(); }

void Gateway::shutdown() {
  if (stopping_.exchange(true)) return;
  // From here on no delivery can post a wake to the loop or this object.
  runtime_->set_output_ready_hook(nullptr);

  // Committer first: it finishes the in-flight round, then every queued
  // injection is failed 503 (never silently acked — the contract is that
  // an un-acked request is absent-or-once after recovery, so refusing is
  // always safe).
  commit_cv_.notify_all();
  if (committer_.joinable()) committer_.join();

  {
    const std::lock_guard<std::mutex> lk(workers_mu_);
    for (auto& t : workers_)
      if (t.joinable()) t.join();
    workers_.clear();
  }

  // Tear sockets down on the loop thread, then stop from within so every
  // completion posted above runs before the loop exits.
  loop_.post([this] {
    loop_.remove_fd(listener_.get());
    for (auto& [id, conn] : conns_) loop_.remove_fd(conn->fd.get());
    conns_.clear();
    parked_.clear();
    loop_.stop();
  });
  if (loop_thread_.joinable()) loop_thread_.join();
  listener_.reset();
}

GatewayCounters Gateway::counters() const {
  GatewayCounters c;
  c.requests = requests_.load();
  c.acked = acked_.load();
  c.rejected = rejected_.load();
  c.errors = errors_.load();
  c.redirects = redirects_.load();
  c.commit_batches = commit_batches_.load();
  c.commit_records = commit_records_.load();
  c.commit_batch_max = commit_batch_max_.load();
  return c;
}

void Gateway::fill(core::MetricsSnapshot& snapshot) const {
  const GatewayCounters c = counters();
  snapshot.gw_requests = c.requests;
  snapshot.gw_acked = c.acked;
  snapshot.gw_rejected = c.rejected;
  snapshot.gw_errors = c.errors;
  snapshot.gw_redirects = c.redirects;
  snapshot.gw_commit_batches = c.commit_batches;
  snapshot.gw_commit_records = c.commit_records;
  snapshot.gw_commit_batch_max = c.commit_batch_max;
}

// --- Loop thread: connections ----------------------------------------------

void Gateway::on_accept() {
  for (;;) {
    net::Fd fd = net::accept_tcp(listener_.get());
    if (!fd.valid()) return;
    const std::uint64_t id = next_conn_++;
    auto conn = std::make_unique<Conn>();
    conn->parser = HttpParser(options_.limits);
    const int raw = fd.get();
    conn->fd = std::move(fd);
    conns_[id] = std::move(conn);
    loop_.set_fd(raw, true, false,
                 [this, id](unsigned events) { on_conn_event(id, events); });
  }
}

void Gateway::on_conn_event(std::uint64_t id, unsigned events) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn* c = it->second.get();

  if ((events & net::EventLoop::kError) != 0) {
    drop_conn(id);
    return;
  }
  if ((events & net::EventLoop::kWritable) != 0) {
    flush_out(id);
    if (!conns_.contains(id)) return;
  }
  if ((events & net::EventLoop::kReadable) != 0) {
    std::byte buf[16384];
    for (;;) {
      const ssize_t n = ::read(c->fd.get(), buf, sizeof(buf));
      if (n > 0) {
        TART_PROF_SPAN("gw.parse");
        TART_PROF_BYTES("gw.http_in", n);
        try {
          c->parser.feed(buf, static_cast<std::size_t>(n));
        } catch (const HttpError&) {
          // Poisoned earlier; the error response is already queued.
          drop_conn(id);
          return;
        }
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) {
        drop_conn(id);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      drop_conn(id);
      return;
    }
    serve_next(id);
  }
}

void Gateway::serve_next(std::uint64_t id) {
  for (;;) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn* c = it->second.get();
    if (c->awaiting || c->close_after_write) return;
    std::optional<HttpRequest> req;
    try {
      req = c->parser.next();
    } catch (const HttpError& e) {
      // Typed protocol violation: answer with its status and close (the
      // byte stream cannot be re-synchronized).
      errors_.fetch_add(1);
      respond(id, e.status(), {}, std::string(e.what()) + "\n", false);
      return;
    }
    if (!req) return;
    requests_.fetch_add(1);
    try {
      handle_request(id, std::move(*req));
    } catch (const HttpError& e) {
      // Bad query string etc. — request-scoped, but simplest to close
      // (the handler had not responded yet when it threw).
      errors_.fetch_add(1);
      respond(id, e.status(), {}, std::string(e.what()) + "\n", false);
      return;
    } catch (const std::exception& e) {
      errors_.fetch_add(1);
      respond(id, 500, {}, std::string(e.what()) + "\n", false);
      return;
    }
  }
}

void Gateway::handle_request(std::uint64_t id, HttpRequest req) {
  const std::string& path = req.path;
  const auto strip = [&](std::string_view prefix) -> std::string_view {
    return std::string_view(path).substr(prefix.size());
  };

  if (path.rfind("/inject/", 0) == 0) {
    if (req.method != "POST") {
      errors_.fetch_add(1);
      respond(id, 405, {{"Allow", "POST"}}, "POST only\n", req.keep_alive);
      return;
    }
    handle_inject(id, req, strip("/inject/"));
    return;
  }
  if (path.rfind("/close/", 0) == 0) {
    if (req.method != "POST") {
      errors_.fetch_add(1);
      respond(id, 405, {{"Allow", "POST"}}, "POST only\n", req.keep_alive);
      return;
    }
    const std::string name(strip("/close/"));
    const auto it = inputs_.find(name);
    if (it == inputs_.end()) {
      errors_.fetch_add(1);
      respond(id, 404, {}, "unknown input\n", req.keep_alive);
      return;
    }
    if (maybe_redirect(id, req, name)) return;
    runtime_->close_input(it->second);
    respond(id, 200, {}, "closed\n", req.keep_alive);
    return;
  }
  if (path.rfind("/outputs/", 0) == 0) {
    if (req.method != "GET") {
      errors_.fetch_add(1);
      respond(id, 405, {{"Allow", "GET"}}, "GET only\n", req.keep_alive);
      return;
    }
    handle_outputs(id, req, strip("/outputs/"));
    return;
  }
  if (path == "/drain") {
    if (req.method != "POST") {
      errors_.fetch_add(1);
      respond(id, 405, {{"Allow", "POST"}}, "POST only\n", req.keep_alive);
      return;
    }
    const auto params = parse_query(req.query);
    std::int64_t timeout_ms = 30000;
    if (const auto t = query_param(params, "timeout_ms")) {
      const auto v = parse_i64(*t);
      if (!v || *v < 0) {
        errors_.fetch_add(1);
        respond(id, 400, {}, "bad timeout_ms\n", req.keep_alive);
        return;
      }
      timeout_ms = *v;
    }
    // drain() blocks up to the timeout — never on the loop thread.
    const auto conn_it = conns_.find(id);
    Conn* c = conn_it->second.get();
    c->awaiting = true;
    loop_.set_interest(c->fd.get(), false, c->out_off < c->outbuf.size());
    const bool keep = req.keep_alive;
    const std::lock_guard<std::mutex> lk(workers_mu_);
    workers_.emplace_back([this, id, timeout_ms, keep] {
      const bool ok =
          runtime_->drain(std::chrono::milliseconds(timeout_ms));
      loop_.post([this, id, ok, keep] {
        if (!conns_.contains(id)) return;
        if (ok) {
          respond(id, 200, {}, "drained\n", keep);
        } else {
          errors_.fetch_add(1);
          respond(id, 503, {}, "drain timeout\n", keep);
        }
        serve_next(id);
      });
    });
    return;
  }
  if (path == "/checkpoint") {
    if (req.method != "POST") {
      errors_.fetch_add(1);
      respond(id, 405, {{"Allow", "POST"}}, "POST only\n", req.keep_alive);
      return;
    }
    durability::CheckpointManager* mgr = runtime_->checkpoint_manager();
    if (mgr == nullptr) {
      errors_.fetch_add(1);
      respond(id, 503, {}, "this node has no log directory\n",
              req.keep_alive);
      return;
    }
    // checkpoint_now() blocks on the component barrier + fsyncs — never
    // on the loop thread (same pattern as /drain).
    const auto conn_it = conns_.find(id);
    Conn* c = conn_it->second.get();
    c->awaiting = true;
    loop_.set_interest(c->fd.get(), false, c->out_off < c->outbuf.size());
    const bool keep = req.keep_alive;
    const std::lock_guard<std::mutex> lk(workers_mu_);
    workers_.emplace_back([this, id, mgr, keep] {
      const durability::CheckpointStats stats = mgr->checkpoint_now();
      loop_.post([this, id, stats, keep] {
        if (!conns_.contains(id)) return;
        std::ostringstream body;
        body << "{\"ok\":" << (stats.ok ? "true" : "false")
             << ",\"id\":" << stats.id << ",\"bytes\":" << stats.bytes
             << ",\"covered_records\":" << stats.covered_records
             << ",\"reclaimed_records\":" << stats.reclaimed_records;
        if (!stats.ok) body << ",\"error\":\"" << stats.error << "\"";
        body << "}\n";
        if (!stats.ok) errors_.fetch_add(1);
        respond(id, stats.ok ? 200 : 500,
                {{"Content-Type", "application/json"}}, body.str(), keep);
        serve_next(id);
      });
    });
    return;
  }
  if (path == "/migrate") {
    if (req.method != "POST") {
      errors_.fetch_add(1);
      respond(id, 405, {{"Allow", "POST"}}, "POST only\n", req.keep_alive);
      return;
    }
    handle_migrate(id, req);
    return;
  }
  if (path == "/shutdown") {
    if (req.method != "POST") {
      errors_.fetch_add(1);
      respond(id, 405, {{"Allow", "POST"}}, "POST only\n", req.keep_alive);
      return;
    }
    respond(id, 200, {}, "shutting down\n", req.keep_alive);
    if (host_.shutdown) host_.shutdown();
    return;
  }
  if (path == "/metrics") {
    if (req.method != "GET") {
      errors_.fetch_add(1);
      respond(id, 405, {{"Allow", "GET"}}, "GET only\n", req.keep_alive);
      return;
    }
    // One exposition path for the whole node: the global (snapshot)
    // families plus every registry sample — per-component counters,
    // pessimism-stall and probe-RTT histograms, and the gateway's own
    // latency/batch cells.
    respond(id, 200, {{"Content-Type", obs::kPrometheusContentType}},
            obs::render_prometheus(snapshot(), &runtime_->registry(),
                                   options_.exemplars),
            req.keep_alive);
    return;
  }
  if (path == "/status") {
    if (req.method != "GET") {
      errors_.fetch_add(1);
      respond(id, 405, {{"Allow", "GET"}}, "GET only\n", req.keep_alive);
      return;
    }
    const auto samples = runtime_->registry().samples();
    respond(id, 200, {{"Content-Type", "application/json"}},
            obs::render_status_json(status(), &samples), req.keep_alive);
    return;
  }
  if (path == "/obs") {
    if (req.method != "GET") {
      errors_.fetch_add(1);
      respond(id, 405, {{"Allow", "GET"}}, "GET only\n", req.keep_alive);
      return;
    }
    const obs::NodeReport report{host_.node, snapshot(),
                                 runtime_->registry().samples(), status()};
    const std::vector<std::byte> body = report.encode();
    respond(id, 200, {{"Content-Type", obs::kNodeReportContentType}},
            std::string_view(reinterpret_cast<const char*>(body.data()),
                             body.size()),
            req.keep_alive);
    return;
  }
  if (path == "/profile") {
    if (req.method != "GET") {
      errors_.fetch_add(1);
      respond(id, 405, {{"Allow", "GET"}}, "GET only\n", req.keep_alive);
      return;
    }
    respond(id, 200, {{"Content-Type", "application/json"}},
            obs::prof::render_json(), req.keep_alive);
    return;
  }
  if (path == "/healthz") {
    respond(id, 200, {}, "ok\n", req.keep_alive);
    return;
  }
  errors_.fetch_add(1);
  respond(id, 404, {}, "unknown endpoint\n", req.keep_alive);
}

void Gateway::handle_inject(std::uint64_t id, const HttpRequest& req,
                            std::string_view name) {
  const auto input = inputs_.find(std::string(name));
  if (input == inputs_.end()) {
    errors_.fetch_add(1);
    respond(id, 404, {}, "unknown input\n", req.keep_alive);
    return;
  }
  if (maybe_redirect(id, req, input->first)) return;
  const WireId wire = input->second;

  std::int64_t vt = -1;
  const auto params = parse_query(req.query);
  if (const auto v = query_param(params, "vt")) {
    const auto parsed = parse_i64(*v);
    if (!parsed || *parsed < 0) {
      errors_.fetch_add(1);
      respond(id, 400, {}, "bad vt\n", req.keep_alive);
      return;
    }
    vt = *parsed;
  }

  Payload payload;
  try {
    payload = payload_from_body(req);
  } catch (const HttpError& e) {
    errors_.fetch_add(1);
    respond(id, e.status(), {}, std::string(e.what()) + "\n", req.keep_alive);
    return;
  }

  // Admission control: beyond the per-wire bound the honest answer is
  // "try again later", not an ever-growing commit queue.
  auto& inflight = inflight_.at(wire);
  if (inflight.load(std::memory_order_relaxed) >=
      options_.max_inflight_per_wire) {
    rejected_.fetch_add(1);
    respond(id, 429,
            {{"Retry-After", std::to_string(options_.retry_after_seconds)}},
            "input queue full\n", req.keep_alive);
    return;
  }
  inflight.fetch_add(1, std::memory_order_relaxed);

  Conn* c = conns_.find(id)->second.get();
  c->awaiting = true;
  loop_.set_interest(c->fd.get(), false, c->out_off < c->outbuf.size());

  PendingInject pending;
  pending.conn_id = id;
  pending.wire = wire;
  pending.request = core::InjectRequest{wire, vt, std::move(payload)};
  pending.keep_alive = req.keep_alive;
  pending.enqueued = Clock::now();
  // Lineage arrival stamp: the kIngestArrive event (and the ingress-queue
  // stage of the decomposition) measures from HTTP arrival, so the time a
  // request waits for its group-commit slot is charged to the edge, not
  // hidden inside the commit.
  pending.request.arrival_wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          pending.enqueued.time_since_epoch())
          .count();
  {
    const std::lock_guard<std::mutex> lk(commit_mu_);
    pending_.push_back(std::move(pending));
  }
  commit_cv_.notify_one();
}

void Gateway::handle_outputs(std::uint64_t id, const HttpRequest& req,
                             std::string_view name) {
  const auto output = outputs_.find(std::string(name));
  if (output == outputs_.end()) {
    errors_.fetch_add(1);
    respond(id, 404, {}, "unknown output\n", req.keep_alive);
    return;
  }
  if (maybe_redirect(id, req, output->first)) return;
  const auto params = parse_query(req.query);
  std::size_t after = 0;
  std::size_t max = 100000;
  std::int64_t wait_ms = 0;
  if (const auto v = query_param(params, "after")) {
    const auto parsed = parse_i64(*v);
    if (!parsed || *parsed < 0) {
      errors_.fetch_add(1);
      respond(id, 400, {}, "bad after\n", req.keep_alive);
      return;
    }
    after = static_cast<std::size_t>(*parsed);
  }
  if (const auto v = query_param(params, "max")) {
    const auto parsed = parse_i64(*v);
    if (!parsed || *parsed <= 0) {
      errors_.fetch_add(1);
      respond(id, 400, {}, "bad max\n", req.keep_alive);
      return;
    }
    max = static_cast<std::size_t>(*parsed);
  }
  if (const auto v = query_param(params, "wait_ms")) {
    const auto parsed = parse_i64(*v);
    if (!parsed || *parsed < 0) {
      errors_.fetch_add(1);
      respond(id, 400, {}, "bad wait_ms\n", req.keep_alive);
      return;
    }
    wait_ms = *parsed;
  }
  const WireId wire = output->second;
  if (serve_outputs(id, wire, after, max, req.keep_alive, wait_ms == 0))
    return;
  // Long-poll with nothing new yet: park until a delivery wakes it
  // (wake_parked) or the deadline answers it empty. The connection stays
  // read-paused so pipelined requests wait their turn.
  Conn* c = conns_.find(id)->second.get();
  c->awaiting = true;
  c->parked_on = wire;
  loop_.set_interest(c->fd.get(), false, c->out_off < c->outbuf.size());
  const auto deadline = loop_.add_timer(
      Clock::now() + std::chrono::milliseconds(wait_ms), [this, id, wire] {
        const ParkedPoll p = parked_.at(wire).at(id);
        serve_outputs(id, wire, p.after, p.max, p.keep_alive, true);
      });
  parked_[wire][id] = ParkedPoll{after, max, req.keep_alive, deadline};
}

bool Gateway::maybe_redirect(std::uint64_t id, const HttpRequest& req,
                             const std::string& name) {
  if (!host_.redirect) return false;
  const auto owner = host_.redirect(name);
  if (!owner) return false;  // wire is served here
  if (owner->empty()) {
    // Owner is another partition with no advertised http address: nothing
    // to redirect to, and the wire is not observable from this node.
    errors_.fetch_add(1);
    respond(id, 404, {}, "served by another partition\n", req.keep_alive);
    return true;
  }
  // 307 preserves method and body, so a redirected POST /inject retries
  // verbatim at the owner; clients that already sit at the right node
  // never see one. The target address is the owner's ADVERTISED http
  // address (deployment `http` directive), tracked live as migrations
  // re-home the wire.
  std::string target = "http://" + *owner + req.path;
  if (!req.query.empty()) target += "?" + req.query;
  redirects_.fetch_add(1);
  respond(id, 307, {{"Location", std::move(target)}},
          "moved: input is served by " + *owner + "\n", req.keep_alive);
  return true;
}

void Gateway::handle_migrate(std::uint64_t id, const HttpRequest& req) {
  if (!host_.migrate) {
    errors_.fetch_add(1);
    respond(id, 503, {}, "placement control is not enabled on this node\n",
            req.keep_alive);
    return;
  }
  const auto params = parse_query(req.query);
  const auto component = query_param(params, "component");
  const auto to = query_param(params, "to");
  if (!component || component->empty() || !to || to->empty()) {
    errors_.fetch_add(1);
    respond(id, 400, {}, "need component= and to= query parameters\n",
            req.keep_alive);
    return;
  }

  // migrate blocks through checkpoint + transfer + cutover — never on the
  // loop thread (same pattern as /drain and /checkpoint).
  const auto conn_it = conns_.find(id);
  Conn* c = conn_it->second.get();
  c->awaiting = true;
  loop_.set_interest(c->fd.get(), false, c->out_off < c->outbuf.size());
  const bool keep = req.keep_alive;
  const std::string comp(*component);
  const std::string node(*to);
  const std::lock_guard<std::mutex> lk(workers_mu_);
  workers_.emplace_back([this, id, comp, node, keep] {
    MigrateOutcome r;
    try {
      r = host_.migrate(comp, node);
    } catch (const std::exception& e) {
      r.ok = false;
      r.error = e.what();
    }
    loop_.post([this, id, r = std::move(r), keep] {
      if (!conns_.contains(id)) return;
      std::ostringstream body;
      body << "{\"ok\":" << (r.ok ? "true" : "false")
           << ",\"epoch\":" << r.epoch << ",\"slice_bytes\":" << r.slice_bytes
           << ",\"delta_bytes\":" << r.delta_bytes
           << ",\"record_count\":" << r.record_count
           << ",\"transfer_ms\":" << r.transfer_ms
           << ",\"blackout_ms\":" << r.blackout_ms;
      if (!r.ok) body << ",\"error\":\"" << r.error << "\"";
      body << "}\n";
      if (!r.ok) errors_.fetch_add(1);
      respond(id, r.ok ? 200 : 409, {{"Content-Type", "application/json"}},
              body.str(), keep);
      serve_next(id);
    });
  });
}

bool Gateway::serve_outputs(std::uint64_t id, WireId wire, std::size_t after,
                            std::size_t max, bool keep_alive,
                            bool must_answer) {
  std::vector<core::OutputRecord> records;
  std::size_t next = 0;
  {
    TART_PROF_SPAN("gw.outputs");
    records = runtime_->output_records(wire, after, max);
    if (records.empty()) {
      if (!must_answer) return false;
      // A cursor past the end answers with the record count.
      next = std::min(after, runtime_->output_count(wire));
    } else {
      next = after + records.size();
    }
  }

  std::string body;
  for (const core::OutputRecord& record : records) {
    body += std::to_string(record.vt.ticks());
    body += '\t';
    body += record.stutter ? '1' : '0';
    body += '\t';
    // Lineage tag: the originating input as WIRE:SEQ ("-" when unknown),
    // so external clients can correlate acked injections to outputs
    // without reading trace files (`tart-trace lineage --input WIRE:SEQ`).
    if (record.origin_wire.is_valid()) {
      body += std::to_string(record.origin_wire.value());
      body += ':';
      body += std::to_string(record.origin_seq);
    } else {
      body += '-';
    }
    body += '\t';
    body += render_payload(record.payload);
    body += '\n';
  }
  Conn* c = conns_.at(id).get();
  unpark(id, *c);
  const bool was_awaiting = c->awaiting;
  respond(id, 200,
          {{"Content-Type", "text/plain"},
           {"X-Tart-Next", std::to_string(next)}},
          body, keep_alive);
  if (was_awaiting) serve_next(id);
  return true;
}

void Gateway::unpark(std::uint64_t id, Conn& c) {
  if (!c.parked_on.is_valid()) return;
  const auto polls = parked_.find(c.parked_on);
  loop_.cancel_timer(polls->second.at(id).deadline);
  polls->second.erase(id);
  if (polls->second.empty()) parked_.erase(polls);
  c.parked_on = WireId::invalid();
}

void Gateway::wake_parked() {
  // Cleared before the sink reads, so a delivery from here on posts the
  // next wake; an exchange, so the deliveries that set it are visible.
  wake_posted_.exchange(false);
  std::vector<std::pair<WireId, std::uint64_t>> polls;
  for (const auto& [wire, by_conn] : parked_)
    for (const auto& [id, poll] : by_conn) polls.emplace_back(wire, id);
  // Answering a poll touches only its own connection, which a pipelined
  // request may park again; every listed poll is still parked at its turn.
  for (const auto& [wire, id] : polls) {
    const ParkedPoll p = parked_.at(wire).at(id);
    serve_outputs(id, wire, p.after, p.max, p.keep_alive, false);
  }
}

void Gateway::respond(std::uint64_t id, int status,
                      std::vector<std::pair<std::string, std::string>> extra,
                      std::string_view body, bool keep_alive) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn* c = it->second.get();
  c->awaiting = false;
  if (!keep_alive) c->close_after_write = true;
  c->outbuf += http_response(status, extra, body, keep_alive);
  flush_out(id);
}

void Gateway::flush_out(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn* c = it->second.get();
  while (c->out_off < c->outbuf.size()) {
    // MSG_NOSIGNAL: a client gone mid-response is EPIPE, never SIGPIPE.
    const ssize_t n = ::send(c->fd.get(), c->outbuf.data() + c->out_off,
                             c->outbuf.size() - c->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    drop_conn(id);
    return;
  }
  if (c->out_off >= c->outbuf.size()) {
    c->outbuf.clear();
    c->out_off = 0;
    if (c->close_after_write) {
      drop_conn(id);
      return;
    }
    loop_.set_interest(c->fd.get(), !c->awaiting, false);
  } else {
    // Reads stay paused while a response is queued behind a slow client
    // that is also closing: nothing it sends can matter anymore.
    loop_.set_interest(c->fd.get(), !c->awaiting && !c->close_after_write,
                       true);
  }
}

void Gateway::drop_conn(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  unpark(id, *it->second);
  loop_.remove_fd(it->second->fd.get());
  conns_.erase(it);
}

// --- Committer thread -------------------------------------------------------

void Gateway::committer_main() {
  for (;;) {
    std::vector<PendingInject> batch;
    {
      std::unique_lock<std::mutex> lk(commit_mu_);
      commit_cv_.wait(lk,
                      [this] { return !pending_.empty() || stopping_.load(); });
      if (pending_.empty() && stopping_.load()) return;
      if (pending_.size() <= options_.max_batch) {
        batch.swap(pending_);
      } else {
        batch.assign(std::make_move_iterator(pending_.begin()),
                     std::make_move_iterator(pending_.begin() +
                                             options_.max_batch));
        pending_.erase(pending_.begin(),
                       pending_.begin() + options_.max_batch);
      }
    }

    std::vector<core::InjectResult> results;
    if (stopping_.load()) {
      // Refuse instead of racing runtime teardown: un-acked implies
      // absent-or-once, so a 503 here never breaks the contract.
      results.assign(batch.size(),
                     core::InjectResult{core::InjectStatus::kStoreFailed,
                                        VirtualTime(-1)});
    } else if (options_.group_commit) {
      TART_PROF_SPAN("gw.group_commit");
      std::vector<core::InjectRequest> requests;
      requests.reserve(batch.size());
      for (const auto& p : batch) requests.push_back(p.request);
      results = runtime_->try_inject_batch(requests);
    } else {
      // Baseline mode: identical durability, one flush per request.
      TART_PROF_SPAN("gw.group_commit");
      results.reserve(batch.size());
      for (const auto& p : batch) {
        results.push_back(runtime_->try_inject_batch({p.request}).front());
      }
    }

    commit_batches_.fetch_add(1);
    commit_records_.fetch_add(batch.size());
    std::uint64_t prev = commit_batch_max_.load();
    while (prev < batch.size() &&
           !commit_batch_max_.compare_exchange_weak(prev, batch.size())) {
    }
    batch_size_.record(static_cast<double>(batch.size()));
    for (const auto& p : batch) {
      inflight_.at(p.wire).fetch_sub(1, std::memory_order_relaxed);
    }

    auto shared = std::make_shared<std::pair<std::vector<PendingInject>,
                                             std::vector<core::InjectResult>>>(
        std::move(batch), std::move(results));
    loop_.post([this, shared] {
      complete_commits(std::move(shared->first), std::move(shared->second));
    });
  }
}

void Gateway::complete_commits(std::vector<PendingInject> batch,
                               std::vector<core::InjectResult> results) {
  const auto now = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const PendingInject& p = batch[i];
    const core::InjectResult& r = results[i];
    const double latency_s =
        std::chrono::duration<double>(now - p.enqueued).count();

    if (r.status == core::InjectStatus::kOk) {
      acked_.fetch_add(1);
      ack_latency_.record(latency_s);
      // Close the ingest triple: arrive -> durable -> ACK. Recorded here,
      // not in the committer, because the ack is released to the client
      // from this (loop-thread) completion.
      if (auto* tracer = runtime_->trace_recorder();
          tracer != nullptr &&
          tracer->wants(trace::TraceEventKind::kIngestAck))
        tracer->record(core::kEdgeTraceComponent,
                       trace::TraceEventKind::kIngestAck, r.vt, p.wire,
                       r.seq,
                       static_cast<std::uint64_t>(
                           std::chrono::duration_cast<
                               std::chrono::nanoseconds>(
                               now.time_since_epoch())
                               .count()));
    } else {
      errors_.fetch_add(1);
    }
    if (!conns_.contains(p.conn_id)) continue;

    switch (r.status) {
      case core::InjectStatus::kOk:
        respond(p.conn_id, 200,
                {{"X-Tart-Vt", std::to_string(r.vt.ticks())}},
                "vt=" + std::to_string(r.vt.ticks()) + "\n", p.keep_alive);
        break;
      case core::InjectStatus::kUnknownWire:
        respond(p.conn_id, 404, {}, "unknown input\n", p.keep_alive);
        break;
      case core::InjectStatus::kClosed:
        respond(p.conn_id, 409, {}, "input closed\n", p.keep_alive);
        break;
      case core::InjectStatus::kVtRegressed:
        respond(p.conn_id, 409, {}, "vt not after last logged vt\n",
                p.keep_alive);
        break;
      case core::InjectStatus::kStoreFailed:
        // Delivered but NOT durable: acking would claim replayability the
        // log cannot honor, so the ack is refused (client must retry).
        respond(p.conn_id, 503, {}, "stable store append failed\n",
                p.keep_alive);
        break;
    }
    serve_next(p.conn_id);
  }
}

// --- Metrics ----------------------------------------------------------------

core::MetricsSnapshot Gateway::snapshot() const {
  core::MetricsSnapshot m =
      host_.metrics ? host_.metrics() : runtime_->total_metrics();
  fill(m);
  return m;
}

core::StatusReport Gateway::status() const {
  return host_.status ? host_.status() : runtime_->status();
}

}  // namespace tart::gateway
