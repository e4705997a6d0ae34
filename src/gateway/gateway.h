// Production HTTP ingress for external inputs (§II.E over real sockets).
//
// The paper's external-input contract is that a message is "(a) given a
// timestamp, and then (b) logged" before it may affect the system; this
// gateway adds the operational half of that contract: the client's 200 is
// sent only AFTER the injection is durable in the node's stable store, so
// "acked" always implies "replayable after a crash" (log-before-ack).
// Un-acked requests carry no promise — after a crash they are absent or
// present-once, never duplicated, because the client retries only what it
// never saw acked.
//
// Durability costs an fsync, so concurrent requests are group-committed: a
// committer thread drains every injection that arrived while the previous
// flush was in flight and stamps + logs them with ONE batched append
// (Runtime::try_inject_batch -> FileStableStore::append_batch). Latency of
// one flush, throughput of many.
//
// Endpoints (docs/GATEWAY.md):
//   POST /inject/<input>[?vt=N]   body = payload (Content-Type-typed)
//   POST /close/<input>           promise silence forever
//   POST /drain[?timeout_ms=N]    quiesce the runtime
//   POST /checkpoint              force a durable checkpoint (RECOVERY.md)
//   POST /migrate?component=C&to=NODE   live-migrate C (docs/PLACEMENT.md)
//   POST /shutdown                ask the host process to exit
//   GET  /outputs/<output>[?after=N&wait_ms=M&max=K]   drain/long-poll;
//        a long-poll with nothing to return parks until an output
//        delivery wakes it (or wait_ms passes), and a response copies
//        only the records it returns
//   GET  /metrics                 Prometheus text exposition (obs registry)
//   GET  /status                  silence-wavefront + placement JSON
//   GET  /obs                     binary NodeReport (obs/node_report.h)
//   GET  /profile                 span-profiler snapshot JSON
//   GET  /healthz
//
// Threading: one event-loop thread owns every socket (accept/read/write,
// same net::EventLoop as the peer transport) and the parked long-polls,
// the committer thread owns the injection batch, and blocking operations
// (drain) run on transient worker threads; results are post()ed back to
// the loop. Output delivery (runner threads) post()s one wake at a time
// through the runtime's output-ready hook, so a parked long-poll costs no
// work until a record arrives, and a GET /outputs response costs
// O(records returned). While a request awaits its commit or a parked poll
// its records, the connection's reads are paused, which makes pipelining
// safe: parsed-but-unserved requests simply wait their turn.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "gateway/http.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "obs/registry.h"

namespace tart::gateway {

/// Result of a gateway-driven live migration (POST /migrate); mirrors
/// placement::MigrationResult without making the gateway depend on the
/// placement subsystem.
struct MigrateOutcome {
  bool ok = false;
  std::uint64_t epoch = 0;
  std::uint64_t slice_bytes = 0;
  std::uint64_t delta_bytes = 0;
  std::uint64_t record_count = 0;
  double transfer_ms = 0;
  double blackout_ms = 0;
  std::string error;
};

class Gateway {
 public:
  struct Options {
    std::string listen = "127.0.0.1:0";
    HttpLimits limits;
    /// Admission bound: injections queued-or-committing per input wire.
    /// Beyond it the gateway answers 429 + Retry-After instead of buying
    /// unbounded memory (backpressure to the outside world).
    std::size_t max_inflight_per_wire = 1024;
    std::size_t max_batch = 256;  ///< cap on one group-commit round
    int retry_after_seconds = 1;  ///< advertised in 429 responses
    /// OpenMetrics mode for GET /metrics: histogram buckets that captured
    /// a stall exemplar render `# {...}` suffixes. Off by default — plain
    /// Prometheus 0.0.4 scrapers do not expect them.
    bool exemplars = false;
  };

  /// Wavefront report behind GET /status and GET /obs.
  using StatusFn = std::function<core::StatusReport()>;

  /// Where an external input/output named `name` is served RIGHT NOW, when
  /// that is not here: the advertised http address ("host:port") of the
  /// current owner node, or nullopt to serve locally. Consulted per
  /// request, so the answer tracks live migration — the host backs it
  /// with the placement table.
  using RedirectFn =
      std::function<std::optional<std::string>(const std::string& name)>;

  /// Executes a live migration (blocking; called off the loop thread).
  using MigrateFn = std::function<MigrateOutcome(
      const std::string& component, const std::string& to_node)>;

  /// What the hosting process lends the gateway. Every member is optional;
  /// the defaults suit a single-process deployment.
  struct Host {
    std::string node;  ///< name GET /obs attributes the report to
    /// null = Runtime::status(); a tart-node adds its placement epoch,
    /// placement table and in-flight migrations.
    StatusFn status;
    std::function<void()> shutdown;  ///< runs on POST /shutdown
    RedirectFn redirect;  ///< null = every wire is served here
    MigrateFn migrate;    ///< null = placement control is not enabled
  };

  /// Binds and serves immediately. `inputs`/`outputs` map external names
  /// to wires. In partitioned deployments pass EVERY external wire plus a
  /// `host.redirect`: requests for wires owned elsewhere answer 307 toward
  /// the current owner (live migration moves ownership mid-run). Throws
  /// ConfigError when the listen address is bad or taken.
  Gateway(core::Runtime* runtime, Options options,
          std::map<std::string, WireId> inputs,
          std::map<std::string, WireId> outputs, Host host = {});
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Stops accepting, fails pending commits' connections, joins threads.
  /// Idempotent. Call before stopping the runtime.
  void shutdown();

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  struct Conn {
    net::Fd fd;
    HttpParser parser;
    std::string outbuf;
    std::size_t out_off = 0;
    bool close_after_write = false;
    /// A response for the current request is still being produced
    /// elsewhere (committer, drain worker, parked long-poll); reads stay
    /// paused and no further pipelined request is started until it lands.
    bool awaiting = false;
    /// Output wire this connection's long-poll is parked on, if any.
    WireId parked_on = WireId::invalid();
  };

  /// A GET /outputs long-poll that found nothing to return. It is answered
  /// when a delivery wakes it with records in [after, after + max), or
  /// empty at its deadline.
  struct ParkedPoll {
    std::size_t after = 0;
    std::size_t max = 0;
    bool keep_alive = true;
    net::EventLoop::TimerId deadline = 0;
  };

  /// One injection waiting for the committer.
  struct PendingInject {
    std::uint64_t conn_id = 0;
    WireId wire;
    core::InjectRequest request;
    bool keep_alive = true;
    std::chrono::steady_clock::time_point enqueued;
  };

  // Loop-thread only.
  void on_accept();
  void on_conn_event(std::uint64_t id, unsigned events);
  void serve_next(std::uint64_t id);
  void handle_request(std::uint64_t id, HttpRequest req);
  void handle_inject(std::uint64_t id, const HttpRequest& req,
                     std::string_view name);
  void handle_outputs(std::uint64_t id, const HttpRequest& req,
                      std::string_view name);
  void handle_migrate(std::uint64_t id, const HttpRequest& req);
  /// Answers 307 toward the current owner when `name` is served elsewhere
  /// (host_.redirect says so); returns true when a redirect was sent.
  bool maybe_redirect(std::uint64_t id, const HttpRequest& req,
                      const std::string& name);
  /// Answers with the records in [after, after + max) and returns true.
  /// With none there, answers only when `must_answer` and otherwise
  /// returns false (the caller parks or keeps the poll parked).
  bool serve_outputs(std::uint64_t id, WireId wire, std::size_t after,
                     std::size_t max, bool keep_alive, bool must_answer);
  /// Re-serves every parked long-poll; runs once per posted wake.
  void wake_parked();
  /// Forgets the connection's parked poll, if any, and cancels its timer.
  void unpark(std::uint64_t id, Conn& c);
  void respond(std::uint64_t id, int status,
               std::vector<std::pair<std::string, std::string>> extra,
               std::string_view body, bool keep_alive);
  void flush_out(std::uint64_t id);
  void drop_conn(std::uint64_t id);
  [[nodiscard]] core::StatusReport status() const;

  // Committer thread.
  void committer_main();
  void complete_commits(std::vector<PendingInject> batch,
                        std::vector<core::InjectResult> results);

  core::Runtime* runtime_;
  Options options_;
  std::map<std::string, WireId> inputs_;
  std::map<std::string, WireId> outputs_;
  Host host_;

  net::Fd listener_;
  std::uint16_t port_ = 0;

  net::EventLoop loop_;
  std::thread loop_thread_;

  std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;  // loop thread
  std::uint64_t next_conn_ = 1;                           // loop thread
  /// Parked long-polls by output wire, then connection (loop thread).
  std::map<WireId, std::map<std::uint64_t, ParkedPoll>> parked_;
  /// A wake_parked() is posted and has not started yet: the runtime's
  /// output-ready hook posts at most one at a time.
  std::atomic<bool> wake_posted_{false};

  // Committer queue. `pending_` is swapped out whole each round; per-wire
  // in-flight counts implement the admission bound (incremented on the
  // loop thread at enqueue, decremented by the committer at completion).
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::vector<PendingInject> pending_;
  std::thread committer_;
  std::map<WireId, std::atomic<std::size_t>> inflight_;

  // Blocking-operation workers (drain); joined at shutdown.
  std::mutex workers_mu_;
  std::vector<std::thread> workers_;

  std::atomic<bool> stopping_{false};

  // Registry cells (runtime's obs::Registry); lock-free record path.
  obs::Counter& requests_;
  obs::Counter& acked_;
  obs::Counter& rejected_;  ///< 429 admission rejections
  obs::Counter& errors_;    ///< other 4xx/5xx
  obs::Counter& redirects_;  ///< 307s to an input's post-migration owner
  obs::Counter& commit_batches_;
  obs::Counter& commit_records_;
  obs::Gauge& commit_batch_max_;
  obs::Histogram& ack_latency_;
  obs::Histogram& batch_size_;
};

/// Parses an HTTP request body into a Payload according to Content-Type
/// (text/plain whitespace-split words, application/x-tart-{int,double,
/// string}, application/octet-stream). Throws HttpError(400/415).
[[nodiscard]] Payload payload_from_body(const HttpRequest& req);

/// Renders a payload as one line of text (inverse-ish of the above; used
/// by GET /outputs and the tools).
[[nodiscard]] std::string render_payload(const Payload& payload);

}  // namespace tart::gateway
