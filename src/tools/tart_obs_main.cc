// tart-obs: cluster-wide observability console.
//
//   tart-obs [--once] [--interval-ms=N] [--series=FILE] [--strict]
//            [--listen=ADDR|PORT] [<http-addr>...]
//   tart-obs top [--once] [--interval-ms=N] <http-addr>...
//   tart-obs --scrape <http-addr>...
//
// Every mode talks to the nodes' HTTP gateways (tart-node --http), the one
// operator surface a node has.
//
// `top` mode is the hot-path profiler's live view (src/obs/prof.h): one
// line per node with event-loop busy %, loop-lag p99, and profiled thread
// count, then the top spans by self-time aggregated across the fleet —
// where wall-clock time actually goes, refreshed in place. The data rides
// the same GET /obs report as the main console (the registry sweep
// harvests tart_prof_* cells).
//
// The default mode polls every node's GET /obs (obs/node_report.h): its
// merged MetricsSnapshot, its telemetry registry samples (labelled counters
// and full histograms), and its silence wavefront with placement, then
// prints one aggregated per-component table: messages processed, pessimism
// events, stall percentiles (all input wires of the component merged),
// curiosity probes, and the estimator-error median. Components currently
// *held* by the pessimistic merge are listed below the table with the
// wires blocking them — the operator's answer to "why is nothing
// happening?". A `placement:` section follows when the nodes run a
// placement plane: component -> owning node, the placement epoch, and any
// live migration in flight (docs/PLACEMENT.md).
//
// Counters SUM across nodes, gauges take the max (high-water semantics),
// and histograms merge bucketwise (obs::merge_samples), so the table reads
// the same whether the deployment is one process or ten.
//
// An unreachable node is a per-round `down` row, not a fatal error: a
// console must keep rendering the nodes that ARE up while one restarts.
// Exit status reflects down nodes only under --strict (for scripts).
//
// --listen=ADDR accepts push-based remote writes (tart-node --push): nodes
// that cannot be dialed POST /obs the same report instead, and it enters
// the very same SUM/MAX/bucketwise merge as polled nodes. Polling and
// pushing can be mixed freely; a node heard from both ways would be
// double-counted, so point --push at nodes the console does not poll.
//
// --series=FILE appends one JSONL line per poll round of GET /obs
// (obs::render_series_line: merged scalars plus every series, histograms
// as count/p50/p99/max/sum) for offline plotting — the one file exporter.
//
// --scrape mode is a health gate: GET /metrics must lint clean against the
// Prometheus conventions (obs::lint_exposition) and contain the per-wire
// stall-attribution family; GET /status must parse. scripts/net_soak.sh
// runs this against live nodes mid-soak. Exit is nonzero on any failure.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gateway/http.h"
#include "gateway/http_client.h"
#include "net/socket.h"
#include "obs/exposition.h"
#include "obs/node_report.h"
#include "obs/registry.h"

namespace {

using tart::core::ComponentStatus;
using tart::core::MetricsSnapshot;
using tart::core::StatusReport;
using tart::core::WireStatus;
using tart::obs::NodeReport;

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

int usage() {
  std::fprintf(stderr,
               "usage: tart-obs [--once] [--interval-ms=N] [--series=FILE] "
               "[--strict] [--listen=ADDR|PORT] [<http-addr>...]\n"
               "       tart-obs top [--once] [--interval-ms=N] "
               "<http-addr>...\n"
               "       tart-obs --scrape <http-addr>...\n");
  return 2;
}

/// GET /obs from one node; nullopt (reported on stderr) when it is down.
std::optional<NodeReport> poll_node(const std::string& addr) {
  auto client = tart::gateway::BlockingHttpClient::connect(
      addr, std::chrono::seconds(2));
  if (!client) return std::nullopt;
  try {
    const auto resp = client->get("/obs");
    if (resp.status != 200)
      throw std::runtime_error("GET /obs -> " + std::to_string(resp.status));
    return NodeReport::decode(resp.body);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tart-obs: %s: %s\n", addr.c_str(), e.what());
    return std::nullopt;
  }
}

/// Collector side of push-based remote write: serves POST /obs for
/// `tart-node --push` and keeps the latest report per node. One thread
/// accepts; each connection gets its own thread. All of them stop once
/// g_stop is set and are joined by the destructor.
class PushServer {
 public:
  PushServer() = default;
  PushServer(const PushServer&) = delete;
  PushServer& operator=(const PushServer&) = delete;
  ~PushServer() {
    g_stop.store(true);
    if (accept_thread_.joinable()) accept_thread_.join();
  }

  struct Shipment {
    std::chrono::steady_clock::time_point received;
    NodeReport report;
  };

  bool start(const std::string& spec) {
    const std::string full =
        spec.find(':') == std::string::npos ? "0.0.0.0:" + spec : spec;
    const auto addr = tart::net::SockAddr::parse(full);
    if (!addr) {
      std::fprintf(stderr, "tart-obs: bad --listen address '%s'\n",
                   spec.c_str());
      return false;
    }
    std::string err;
    listener_ = tart::net::listen_tcp(*addr, &err);
    if (!listener_.valid()) {
      std::fprintf(stderr, "tart-obs: listen on %s failed: %s\n",
                   full.c_str(), err.c_str());
      return false;
    }
    port_ = tart::net::local_port(listener_.get());
    accept_thread_ = std::thread([this] { accept_loop(); });
    return true;
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Latest shipment per node, dropping nodes silent longer than max_age.
  [[nodiscard]] std::map<std::string, Shipment> fresh(
      std::chrono::milliseconds max_age) const {
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> lk(mu_);
    std::map<std::string, Shipment> out;
    for (const auto& [node, shipment] : by_node_)
      if (now - shipment.received <= max_age) out.emplace(node, shipment);
    return out;
  }

 private:
  void accept_loop() {
    std::vector<std::thread> conns;
    while (!g_stop.load()) {
      pollfd p{listener_.get(), POLLIN, 0};
      if (::poll(&p, 1, 200) <= 0) continue;
      tart::net::Fd fd = tart::net::accept_tcp(listener_.get());
      if (!fd.valid()) continue;
      conns.emplace_back([this, shared = std::make_shared<tart::net::Fd>(
                                    std::move(fd))]() mutable {
        serve(std::move(*shared));
      });
    }
    for (auto& t : conns) t.join();
  }

  static void write_all(int fd, std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd p{fd, POLLOUT, 0};
        (void)::poll(&p, 1, 1000);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("push: write failed");
    }
  }

  /// Answers one request; only POST /obs carrying a NodeReport is stored.
  std::pair<int, std::string> handle(const tart::gateway::HttpRequest& req) {
    if (req.path != "/obs") return {404, "unknown endpoint\n"};
    if (req.method != "POST") return {405, "POST only\n"};
    NodeReport report;
    try {
      report = NodeReport::decode(req.body);
    } catch (const std::exception& e) {
      return {400, std::string(e.what()) + "\n"};
    }
    const std::lock_guard<std::mutex> lk(mu_);
    Shipment& s = by_node_[report.node];
    s.received = std::chrono::steady_clock::now();
    s.report = std::move(report);
    return {200, "ok\n"};
  }

  void serve(tart::net::Fd fd) {
    // A report carries every histogram of the node; allow bodies as large
    // as a peer envelope.
    tart::gateway::HttpLimits limits;
    limits.max_body = 16u * 1024 * 1024;
    tart::gateway::HttpParser parser(limits);
    try {
      while (!g_stop.load()) {
        while (auto req = parser.next()) {
          const auto [status, body] = handle(*req);
          write_all(fd.get(), tart::gateway::http_response(
                                  status, {}, body, req->keep_alive));
          if (!req->keep_alive) return;
        }
        pollfd p{fd.get(), POLLIN, 0};
        if (::poll(&p, 1, 200) <= 0) continue;
        std::byte buf[16384];
        const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
        if (n == 0) return;
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
            continue;
          return;
        }
        parser.feed(buf, static_cast<std::size_t>(n));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tart-obs: push connection dropped: %s\n",
                   e.what());
    }
  }

  tart::net::Fd listener_;
  std::uint16_t port_ = 0;
  mutable std::mutex mu_;
  std::map<std::string, Shipment> by_node_;
  std::thread accept_thread_;
};

const std::string* label_of(const tart::obs::Sample& s, const char* key) {
  for (const auto& l : s.labels)
    if (l.key == key) return &l.value;
  return nullptr;
}

/// Everything tart-obs shows about one component, pulled out of the merged
/// sample set.
struct ComponentRow {
  std::uint64_t messages = 0;
  std::uint64_t pessimism_events = 0;
  std::uint64_t probes = 0;
  std::optional<tart::stats::Histogram> stall;    // all wires merged
  std::optional<tart::stats::Histogram> est_err;  // estimator |error|
};

std::map<std::string, ComponentRow> build_rows(
    const std::vector<tart::obs::Sample>& samples) {
  std::map<std::string, ComponentRow> rows;
  for (const auto& s : samples) {
    const std::string* component = label_of(s, "component");
    if (component == nullptr) continue;
    ComponentRow& row = rows[*component];
    if (s.name == "tart_messages_processed_total") {
      row.messages += s.counter_value;
    } else if (s.name == "tart_pessimism_events_total") {
      row.pessimism_events += s.counter_value;
    } else if (s.name == "tart_probes_sent_total") {
      row.probes += s.counter_value;
    } else if (s.name == "tart_pessimism_stall_seconds" && s.hist) {
      if (!row.stall) {
        row.stall = *s.hist;
      } else if (!row.stall->merge(*s.hist)) {
        std::fprintf(stderr, "tart-obs: stall bucket-shape mismatch for %s\n",
                     component->c_str());
      }
    } else if (s.name == "tart_estimator_error_seconds" && s.hist) {
      if (!row.est_err) {
        row.est_err = *s.hist;
      } else if (!row.est_err->merge(*s.hist)) {
        std::fprintf(stderr, "tart-obs: est-err bucket-shape mismatch\n");
      }
    }
  }
  return rows;
}

void print_rows(const std::map<std::string, ComponentRow>& rows) {
  std::printf("%-16s %10s %8s %8s | %9s %9s %9s | %9s\n", "component", "msgs",
              "pessim", "probes", "stall p50", "stall p99", "stall max",
              "esterr p50");
  std::printf("%-16s %10s %8s %8s | %9s %9s %9s | %9s\n", "", "", "", "",
              "(ms)", "(ms)", "(ms)", "(us)");
  for (const auto& [name, row] : rows) {
    double p50 = 0, p99 = 0, mx = 0, err50 = 0;
    if (row.stall && row.stall->count() > 0) {
      p50 = row.stall->percentile(50) * 1e3;
      p99 = row.stall->percentile(99) * 1e3;
      mx = row.stall->max_seen() * 1e3;
    }
    if (row.est_err && row.est_err->count() > 0)
      err50 = row.est_err->percentile(50) * 1e6;
    std::printf("%-16s %10llu %8llu %8llu | %9.3f %9.3f %9.3f | %9.2f\n",
                name.c_str(),
                static_cast<unsigned long long>(row.messages),
                static_cast<unsigned long long>(row.pessimism_events),
                static_cast<unsigned long long>(row.probes), p50, p99, mx,
                err50);
  }
}

std::string horizon_str(std::int64_t ticks) {
  if (ticks == std::numeric_limits<std::int64_t>::max()) return "inf";
  return std::to_string(ticks);
}

void print_wavefront(
    const std::vector<std::pair<std::string, StatusReport>>& reports) {
  bool any = false;
  for (const auto& [addr, report] : reports) {
    (void)addr;
    for (const ComponentStatus& c : report.components) {
      if (c.crashed) {
        std::printf("  %-16s CRASHED\n", c.name.c_str());
        any = true;
        continue;
      }
      if (!c.held) continue;
      any = true;
      std::printf("  %-16s vt=%lld holding message @vt=%lld on w%u; waiting:",
                  c.name.c_str(), static_cast<long long>(c.vt_ticks),
                  static_cast<long long>(c.held_vt), c.held_wire.value());
      for (const WireStatus& ws : c.inputs) {
        if (!ws.blocking) continue;
        std::printf(" %s(w%u horizon=%s pending=%llu)", ws.sender.c_str(),
                    ws.wire.value(), horizon_str(ws.horizon_ticks).c_str(),
                    static_cast<unsigned long long>(ws.pending));
      }
      std::printf("\n");
    }
  }
  if (!any) std::printf("  (no component is held; no node crashed)\n");
}

/// Live placement: where every component runs right now and any migration
/// in flight. The table comes from the freshest node view (highest
/// placement epoch — per-component epochs are synchronized, so any
/// up-to-date node can speak for the deployment); the serving node of a
/// component is inferred from which report lists it as local. Prints
/// nothing for single-process runs where no placement plane exists.
void print_placement(
    const std::vector<std::pair<std::string, StatusReport>>& reports) {
  const StatusReport* best = nullptr;
  const std::string* best_addr = nullptr;
  for (const auto& [addr, r] : reports) {
    if (r.placement.empty() && r.migrations.empty()) continue;
    if (best == nullptr || r.placement_epoch > best->placement_epoch) {
      best = &r;
      best_addr = &addr;
    }
  }
  if (best == nullptr) return;

  std::map<std::uint32_t, std::string> names;    // component id -> name
  std::map<std::uint32_t, std::string> node_of;  // component id -> addr
  for (const auto& [addr, r] : reports)
    for (const ComponentStatus& c : r.components) {
      names.emplace(c.id.value(), c.name);
      node_of.emplace(c.id.value(), addr);
    }

  std::printf("placement: epoch=%llu (view of %s)\n",
              static_cast<unsigned long long>(best->placement_epoch),
              best_addr->c_str());
  for (const auto& e : best->placement) {
    const auto name_it = names.find(e.component);
    const std::string name = name_it != names.end()
                                 ? name_it->second
                                 : "c" + std::to_string(e.component);
    const auto node_it = node_of.find(e.component);
    const std::string node =
        node_it != node_of.end() ? node_it->second : "(not polled)";
    std::string suffix;
    if (e.epoch != 0)
      suffix = "  moved @epoch " + std::to_string(e.epoch);
    std::printf("  %-16s engine=%u  node=%s%s\n", name.c_str(), e.engine,
                node.c_str(), suffix.c_str());
  }
  for (const auto& [addr, r] : reports)
    for (const auto& m : r.migrations) {
      const auto name_it = names.find(m.component);
      const std::string name = name_it != names.end()
                                   ? name_it->second
                                   : "c" + std::to_string(m.component);
      std::printf(
          "  migrating %-16s engine %u -> %u  @epoch %llu  stage=%s "
          "(seen by %s)\n",
          name.c_str(), m.from_engine, m.to_engine,
          static_cast<unsigned long long>(m.epoch), m.stage.c_str(),
          addr.c_str());
    }
}

/// One fleet-wide durability line: checkpoints taken, checkpoint-gated
/// compaction progress, and what the last restarts skipped vs replayed.
/// Prints nothing while every counter is zero (durability off everywhere).
void print_durability(const MetricsSnapshot& m) {
  if (m.ckpt_written + m.ckpt_failed + m.ckpt_skipped_invalid +
          m.log_segments + m.restart_covered_records +
          m.restart_suffix_records ==
      0)
    return;
  std::printf(
      "durability: ckpts=%llu (failed=%llu skipped=%llu, %.1f KB) "
      "log=%llu segs/%.1f KB reclaimed=%llu | restart covered=%llu "
      "suffix=%llu\n",
      static_cast<unsigned long long>(m.ckpt_written),
      static_cast<unsigned long long>(m.ckpt_failed),
      static_cast<unsigned long long>(m.ckpt_skipped_invalid),
      static_cast<double>(m.ckpt_bytes) / 1024.0,
      static_cast<unsigned long long>(m.log_segments),
      static_cast<double>(m.log_bytes_on_disk) / 1024.0,
      static_cast<unsigned long long>(m.log_records_reclaimed),
      static_cast<unsigned long long>(m.restart_covered_records),
      static_cast<unsigned long long>(m.restart_suffix_records));
}

/// Ingest-to-output latency rollup (docs/TRACING.md "Request lineage"):
/// the edge-measured e2e histogram, the gateway's durability-ack latency,
/// and per-component ingress queueing, all merged across nodes. Exemplars
/// on the e2e family carry the originating (wire, seq) — the id to feed
/// `tart-trace lineage --input` for the full causal breakdown. Prints
/// nothing when no lineage-instrumented traffic has flowed.
void print_latency(const std::vector<tart::obs::Sample>& samples) {
  const tart::obs::Sample* e2e = nullptr;
  const tart::obs::Sample* ack = nullptr;
  std::map<std::string, const tart::obs::Sample*> ingress;
  for (const auto& s : samples) {
    if (!s.hist || s.hist->count() == 0) continue;
    if (s.name == "tart_lineage_e2e_seconds") {
      e2e = &s;
    } else if (s.name == "tart_gw_ack_latency_seconds") {
      ack = &s;
    } else if (s.name == "tart_lineage_ingress_queue_seconds") {
      if (const std::string* c = label_of(s, "component")) ingress[*c] = &s;
    }
  }
  if (e2e == nullptr && ack == nullptr && ingress.empty()) return;

  std::printf("latency:\n");
  const auto line = [](const char* what, const tart::stats::Histogram& h) {
    std::printf("  %-22s p50=%8.3f p99=%8.3f max=%8.3f ms  n=%llu\n", what,
                h.percentile(50) * 1e3, h.percentile(99) * 1e3,
                h.max_seen() * 1e3,
                static_cast<unsigned long long>(h.count()));
  };
  if (ack != nullptr) line("ingest->ack", *ack->hist);
  if (e2e != nullptr) line("ingest->output (e2e)", *e2e->hist);
  for (const auto& [name, s] : ingress)
    line(("ingress queue " + name).c_str(), *s->hist);
  if (e2e != nullptr && !e2e->exemplars.empty()) {
    // Newest exemplars last; show the slowest few so a fat tail bucket
    // points at concrete request ids.
    std::vector<tart::obs::BucketExemplar> exs = e2e->exemplars;
    std::sort(exs.begin(), exs.end(),
              [](const tart::obs::BucketExemplar& a,
                 const tart::obs::BucketExemplar& b) {
                return a.ex.value > b.ex.value;
              });
    if (exs.size() > 4) exs.resize(4);
    std::printf("  slow exemplars:");
    for (const auto& bex : exs)
      std::printf("  %.3fms input=%u:%llu", bex.ex.value * 1e3, bex.ex.wire,
                  static_cast<unsigned long long>(bex.ex.episode));
    std::printf("   (tart-trace lineage --input WIRE:SEQ)\n");
  }
}

// --- `top` mode: hot-path profiler live view --------------------------------

/// The tart_prof_* slice of one node's sample shipment, decoded into the
/// three numbers the per-node header shows.
struct NodeProfile {
  std::int64_t busy_percent = -1;  // -1: gauge not present (no sweep yet)
  std::int64_t threads = 0;
  double lag_p99_ms = 0;
  std::uint64_t lag_count = 0;
};

NodeProfile node_profile(const std::vector<tart::obs::Sample>& samples) {
  NodeProfile np;
  for (const auto& s : samples) {
    if (s.name == "tart_prof_loop_busy_percent") {
      np.busy_percent = s.gauge_value;
    } else if (s.name == "tart_prof_threads") {
      np.threads = s.gauge_value;
    } else if (s.name == "tart_prof_span_seconds" && s.hist &&
               s.hist->count() > 0) {
      if (const std::string* span = label_of(s, "span");
          span != nullptr && *span == "loop.lag") {
        np.lag_p99_ms = s.hist->percentile(99) * 1e3;
        np.lag_count = s.hist->count();
      }
    }
  }
  return np;
}

/// One row of the fleet-wide span table, summed across nodes.
struct SpanRow {
  std::uint64_t calls = 0;
  double self_seconds = 0;
  double p99_ms = 0;
};

void print_top(const std::vector<std::pair<std::string, NodeProfile>>& nodes,
               const std::vector<tart::obs::Sample>& merged) {
  for (const auto& [addr, np] : nodes) {
    if (np.busy_percent >= 0)
      std::printf("%-24s busy=%3lld%%  loop-lag p99=%8.3f ms (n=%llu)  "
                  "threads=%lld\n",
                  addr.c_str(), static_cast<long long>(np.busy_percent),
                  np.lag_p99_ms,
                  static_cast<unsigned long long>(np.lag_count),
                  static_cast<long long>(np.threads));
    else
      std::printf("%-24s (no profiler samples yet)\n", addr.c_str());
  }

  std::map<std::string, SpanRow> rows;
  for (const auto& s : merged) {
    const std::string* span = label_of(s, "span");
    if (span == nullptr) continue;
    SpanRow& row = rows[*span];
    if (s.name == "tart_prof_span_calls_total") {
      row.calls = s.counter_value;
    } else if (s.name == "tart_prof_span_seconds_total") {
      // Raw value is integral ns; scale carries the ns->s conversion.
      row.self_seconds = static_cast<double>(s.counter_value) * s.scale;
    } else if (s.name == "tart_prof_span_seconds" && s.hist &&
               s.hist->count() > 0) {
      row.p99_ms = s.hist->percentile(99) * 1e3;
    }
  }
  if (rows.empty()) {
    std::printf("  (no spans recorded; is the build TART_PROF=OFF?)\n");
    return;
  }

  std::vector<std::pair<std::string, SpanRow>> sorted(rows.begin(),
                                                      rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_seconds > b.second.self_seconds;
  });
  std::printf("%-20s %12s %12s %10s\n", "span", "self-time(s)", "calls",
              "p99(ms)");
  std::size_t shown = 0;
  for (const auto& [name, row] : sorted) {
    if (++shown > 16) break;
    std::printf("%-20s %12.3f %12llu %10.3f\n", name.c_str(),
                row.self_seconds,
                static_cast<unsigned long long>(row.calls), row.p99_ms);
  }
}

int run_top_mode(const std::vector<std::string>& addrs, bool once,
                 int interval_ms, bool strict) {
  const bool tty = ::isatty(1) != 0;
  bool any_down = false;
  while (!g_stop.load()) {
    std::vector<std::vector<tart::obs::Sample>> per_node;
    std::vector<std::pair<std::string, NodeProfile>> nodes;
    std::vector<std::string> down;
    for (const std::string& addr : addrs) {
      auto report = poll_node(addr);
      if (!report) {
        down.push_back(addr);
        continue;
      }
      nodes.emplace_back(addr, node_profile(report->samples));
      per_node.push_back(std::move(report->samples));
    }
    if (!down.empty()) any_down = true;

    if (tty && !once) std::printf("\033[H\033[2J");
    std::printf("== tart-obs top: %zu/%zu node%s ==\n", nodes.size(),
                addrs.size(), addrs.size() == 1 ? "" : "s");
    for (const std::string& addr : down)
      std::printf("%-24s down\n", addr.c_str());
    print_top(nodes, tart::obs::merge_samples(std::move(per_node)));
    std::fflush(stdout);

    if (once) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return strict && any_down ? 1 : 0;
}

int run_console_mode(const std::vector<std::string>& addrs, bool once,
                     int interval_ms, const std::string& series_path,
                     bool strict, PushServer* push) {
  std::FILE* series = nullptr;
  if (!series_path.empty()) {
    series = std::fopen(series_path.c_str(), "ae");
    if (series == nullptr) {
      std::fprintf(stderr, "tart-obs: cannot open %s\n", series_path.c_str());
      return 1;
    }
  }

  bool any_down = false;
  bool first = true;
  while (!g_stop.load()) {
    if (!first) std::printf("\n");
    first = false;

    MetricsSnapshot total;
    std::vector<std::vector<tart::obs::Sample>> per_node;
    std::vector<std::pair<std::string, StatusReport>> reports;
    std::vector<std::string> down;
    std::size_t reachable = 0;
    // Each node is labelled by its partition name (its address when it
    // reports none).
    const auto add = [&](NodeReport report, const std::string& addr) {
      total += report.metrics;
      per_node.push_back(std::move(report.samples));
      reports.emplace_back(report.node.empty() ? addr : report.node,
                           std::move(report.status));
    };
    for (const std::string& addr : addrs) {
      auto report = poll_node(addr);
      if (!report) {
        down.push_back(addr);
        continue;
      }
      add(std::move(*report), addr);
      ++reachable;
    }
    if (!down.empty()) any_down = true;

    // Pushed nodes join the round exactly like polled ones (fresh within
    // 3 display intervals, floor 5 s, so one missed push is not a flap).
    std::size_t pushed = 0;
    if (push != nullptr) {
      const auto max_age = std::chrono::milliseconds(
          std::max(3 * interval_ms, 5000));
      for (auto& [node, shipment] : push->fresh(max_age)) {
        add(std::move(shipment.report), node);
        ++pushed;
      }
    }

    if (reachable + pushed == 0) {
      std::printf("== 0/%zu nodes ==\n", addrs.size());
      for (const std::string& addr : down)
        std::printf("  %-24s down\n", addr.c_str());
      if (once) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      continue;
    }

    const auto merged = tart::obs::merge_samples(std::move(per_node));
    if (pushed > 0)
      std::printf("== %zu/%zu node%s polled, %zu pushed ==\n", reachable,
                  addrs.size(), addrs.size() == 1 ? "" : "s", pushed);
    else
      std::printf("== %zu/%zu node%s ==\n", reachable, addrs.size(),
                  addrs.size() == 1 ? "" : "s");
    for (const std::string& addr : down)
      std::printf("  %-24s down\n", addr.c_str());
    print_rows(build_rows(merged));
    print_durability(total);
    print_latency(merged);
    std::printf("wavefront:\n");
    print_wavefront(reports);
    print_placement(reports);

    if (series != nullptr) {
      const auto ts_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::system_clock::now().time_since_epoch())
                             .count();
      const std::string line =
          tart::obs::render_series_line(ts_ms, total, merged);
      std::fwrite(line.data(), 1, line.size(), series);
      std::fflush(series);
    }

    if (once) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  if (series != nullptr) std::fclose(series);
  return strict && any_down ? 1 : 0;
}

/// Scrape gate for scripts: both endpoints must answer, /metrics must lint
/// clean and carry the stall-attribution family, /status must look like
/// the wavefront document.
int run_scrape_mode(const std::vector<std::string>& addrs) {
  int rc = 0;
  for (const std::string& addr : addrs) {
    auto client = tart::gateway::BlockingHttpClient::connect(
        addr, std::chrono::seconds(5));
    if (!client) {
      std::fprintf(stderr, "tart-obs: scrape %s: connect failed\n",
                   addr.c_str());
      rc = 1;
      continue;
    }
    try {
      const auto metrics = client->get("/metrics");
      if (metrics.status != 200) {
        std::fprintf(stderr, "tart-obs: scrape %s: /metrics -> %d\n",
                     addr.c_str(), metrics.status);
        rc = 1;
      } else {
        const std::string* ct = metrics.header("Content-Type");
        if (ct == nullptr || *ct != tart::obs::kPrometheusContentType) {
          std::fprintf(stderr,
                       "tart-obs: scrape %s: /metrics Content-Type '%s'\n",
                       addr.c_str(), ct ? ct->c_str() : "(none)");
          rc = 1;
        }
        if (const auto lint = tart::obs::lint_exposition(metrics.body)) {
          std::fprintf(stderr, "tart-obs: scrape %s: lint: %s\n", addr.c_str(),
                       lint->c_str());
          rc = 1;
        }
        if (metrics.body.find("tart_pessimism_stall_seconds") ==
            std::string::npos) {
          std::fprintf(stderr,
                       "tart-obs: scrape %s: no stall-attribution series\n",
                       addr.c_str());
          rc = 1;
        }
      }
      const auto status = client->get("/status");
      if (status.status != 200 ||
          status.body.find("\"components\"") == std::string::npos) {
        std::fprintf(stderr, "tart-obs: scrape %s: /status -> %d\n",
                     addr.c_str(), status.status);
        rc = 1;
      }
      if (rc == 0)
        std::printf("tart-obs: scrape %s ok (%zu bytes of metrics)\n",
                    addr.c_str(), metrics.body.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tart-obs: scrape %s: %s\n", addr.c_str(),
                   e.what());
      rc = 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool once = false;
  bool scrape = false;
  bool strict = false;
  bool top = false;
  int interval_ms = 2000;
  std::string series_path;
  std::string listen_spec;
  std::vector<std::string> addrs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i == 1 && (arg == "top" || arg == "--top")) {
      top = true;
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--scrape") {
      scrape = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg.rfind("--interval-ms=", 0) == 0) {
      interval_ms = std::atoi(arg.c_str() + std::strlen("--interval-ms="));
      if (interval_ms <= 0) return usage();
    } else if (arg.rfind("--series=", 0) == 0) {
      series_path = arg.substr(std::strlen("--series="));
    } else if (arg.rfind("--listen=", 0) == 0) {
      listen_spec = arg.substr(std::strlen("--listen="));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "tart-obs: unknown argument '%s'\n", arg.c_str());
      return usage();
    } else {
      addrs.push_back(arg);
    }
  }
  if (scrape && (addrs.empty() || !listen_spec.empty() || top))
    return usage();
  if (top && (addrs.empty() || !listen_spec.empty())) return usage();
  if (addrs.empty() && listen_spec.empty()) return usage();

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  if (scrape) return run_scrape_mode(addrs);
  if (top) return run_top_mode(addrs, once, interval_ms, strict);

  std::optional<PushServer> push;
  if (!listen_spec.empty()) {
    push.emplace();
    if (!push->start(listen_spec)) return 1;
    std::printf("tart-obs: accepting pushes on :%u\n", push->port());
  }
  return run_console_mode(addrs, once, interval_ms, series_path, strict,
                          push ? &*push : nullptr);
}
