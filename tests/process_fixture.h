// Shared fixture for the process tests: forked tart-node / tart-gateway /
// tart-trace children, wordcount deployments over fresh loopback ports, the
// single-process baseline they are compared with, and a typed client for a
// node's HTTP gateway — the only way to operate a node.
//
// Children never outlive the test: each runs in its own process group with
// PR_SET_PDEATHSIG(SIGKILL), and Proc's destructor kills and reaps the
// group. Failures that cannot continue (a node that never comes up, a
// request a node refuses) throw ProcessError instead of aborting, so gtest
// records the failure and RAII teardown still kills every child.
#pragma once

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/wordcount.h"
#include "core/runtime.h"
#include "gateway/http_client.h"
#include "net/socket.h"
#include "net/topologies.h"
#include "obs/node_report.h"

namespace tart::proc {

using namespace std::chrono_literals;

/// A step the test cannot continue past; gtest reports it as a failure.
class ProcessError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `n` distinct loopback ports that were free a moment ago. Each test
/// process cycles through its own block of ports, picked by PID from below
/// the kernel's ephemeral range (32768 and up by default), so neither a
/// parallel test nor an outgoing connection can take a port between this
/// check and the node's bind.
inline std::vector<std::uint16_t> free_ports(std::size_t n) {
  constexpr int kBlock = 16;
  static const int base = 20000 + static_cast<int>(getpid() % 750) * kBlock;
  static int next = 0;
  std::vector<net::Fd> held;  // bound until all n are chosen: no repeats
  std::vector<std::uint16_t> ports;
  for (int attempt = 0; ports.size() < n; ++attempt) {
    if (attempt == 4 * kBlock) throw ProcessError("no free loopback port");
    const auto port = static_cast<std::uint16_t>(base + next++ % kBlock);
    std::string err;
    net::Fd fd = net::listen_tcp(
        *net::SockAddr::parse("127.0.0.1:" + std::to_string(port)), &err);
    if (!fd.valid()) continue;  // still taken: try the next one
    held.push_back(std::move(fd));
    ports.push_back(port);
  }
  return ports;
}

inline std::uint16_t free_port() { return free_ports(1).front(); }

inline std::string make_temp_dir() {
  char tmpl[] = "/tmp/tart_proc_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr) throw ProcessError("mkdtemp failed");
  return dir;
}

inline void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Polls until `pred` or `timeout`; returns whether it held.
inline bool poll_until(std::chrono::milliseconds timeout,
                       const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(20ms);
  }
  return pred();
}

/// One forked child running `binary args...` as the leader of its own
/// process group. Create it on the test's main thread: PR_SET_PDEATHSIG
/// fires when the forking THREAD exits.
class Proc {
 public:
  Proc(const char* binary, std::vector<std::string> args) {
    args.insert(args.begin(), binary);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ == 0) {
      setpgid(0, 0);
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);  // parent died before prctl
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(binary, argv.data());
      _exit(127);
    }
    if (pid_ < 0) throw ProcessError("fork failed");
    setpgid(pid_, pid_);  // also from here: no window before the child runs
  }

  ~Proc() {
    if (pid_ > 0) {
      ::kill(-pid_, SIGKILL);
      (void)reap();
    }
  }

  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  void kill9() const { signal_group(SIGKILL); }
  void freeze() const { signal_group(SIGSTOP); }

  /// Waits and returns the exit code (-1: signaled, or nothing to reap).
  int reap() {
    if (pid_ <= 0) return -1;
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// Non-blocking reap. A dead child stays a zombie until waitpid, so
  /// `kill(pid, 0)` keeps succeeding — this is the only reliable death
  /// probe. Returns true once the child exited; *code gets the exit code
  /// (-1: signaled).
  bool try_reap(int* code) {
    if (pid_ <= 0) return false;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) != pid_) return false;
    pid_ = -1;
    *code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return true;
  }

 private:
  void signal_group(int sig) const {
    ASSERT_GT(pid_, 0) << "child already reaped";
    ASSERT_EQ(::kill(-pid_, sig), 0);
  }

  pid_t pid_ = -1;
};

/// `tart-trace diff a b --recovery` exit code (0: recovery-equivalent).
inline int run_trace_diff(const std::string& a, const std::string& b) {
  return Proc(TART_TRACE_BIN, {"diff", a, b, "--recovery"}).reap();
}

// --- Deterministic wordcount script and its single-process baseline --------

struct Step {
  std::string input;  ///< "sender1" / "sender2"
  std::int64_t vt;
  std::vector<std::string> words;
};

inline std::vector<Step> make_script(int n) {
  const std::vector<std::string> vocab = {"stream", "replay", "virtual",
                                          "time",   "socket", "engine"};
  std::vector<Step> steps;
  for (int i = 0; i < n; ++i) {
    Step s;
    s.input = (i % 2 == 0) ? "sender1" : "sender2";
    s.vt = 1000 * (i + 1);
    const int len = (i % 4) + 1;
    for (int w = 0; w < len; ++w)
      s.words.push_back(vocab[static_cast<std::size_t>((i + w) % 6)]);
    steps.push_back(std::move(s));
  }
  return steps;
}

/// Fresh (non-stutter) records of the wordcount `total` output: (vt, total).
using OutputStream = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// Single-process ground truth over the identical topology + script.
inline OutputStream baseline(const std::vector<Step>& steps) {
  auto built = net::build_topology("wordcount", {{"senders", "2"}});
  std::map<ComponentId, EngineId> placement;
  for (const auto& [name, id] : built.components) placement[id] = EngineId(0);
  core::Runtime rt(built.topology, placement, core::RuntimeConfig{});
  rt.start();
  for (const auto& s : steps)
    rt.inject_at(built.inputs.at(s.input), VirtualTime(s.vt),
                 apps::sentence(s.words));
  EXPECT_TRUE(rt.drain());
  OutputStream out;
  for (const auto& rec : rt.output_records(built.outputs.at("total")))
    if (!rec.stutter) out.emplace_back(rec.vt.ticks(), rec.payload.as_int());
  rt.stop();
  return out;
}

// --- Deployments and nodes ---------------------------------------------------

/// A wordcount deployment file over fresh loopback data ports, plus the
/// HTTP address each partition's gateway will listen on.
struct Deployment {
  std::string config_path;
  std::map<std::string, std::string> http;  ///< partition -> host:port
};

/// Writes `dir`/deploy.conf: two senders, one partition per name in
/// `partitions`, and the given `place` lines.
inline Deployment write_deployment(const std::string& dir,
                                   const std::vector<std::string>& partitions,
                                   const std::string& placement) {
  Deployment d;
  d.config_path = dir + "/deploy.conf";
  std::string text = "topology = wordcount\nparam senders = 2\n";
  const auto ports = free_ports(2 * partitions.size());
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const std::string& p = partitions[i];
    text += "partition " + p + " = 127.0.0.1:" +
            std::to_string(ports[2 * i]) + "\n";
    d.http[p] = "127.0.0.1:" + std::to_string(ports[2 * i + 1]);
  }
  write_file(d.config_path, text + placement);
  return d;
}

/// One tart-node hosting `partition`, serving HTTP on its deployment
/// address.
class NodeProc : public Proc {
 public:
  NodeProc(const Deployment& d, const std::string& partition,
           std::vector<std::string> extra = {})
      : Proc(TART_NODE_BIN, args(d, partition, std::move(extra))) {}

 private:
  static std::vector<std::string> args(const Deployment& d,
                                       const std::string& partition,
                                       std::vector<std::string> extra) {
    std::vector<std::string> a = {d.config_path, partition,
                                  "--http=" + d.http.at(partition)};
    a.insert(a.end(), extra.begin(), extra.end());
    return a;
  }
};

// --- Typed client for a node's HTTP gateway ----------------------------------

/// One GET /outputs line: "vt\tstutter\torigin\tpayload".
struct OutputRecord {
  std::int64_t vt = 0;
  bool stutter = false;
  std::string payload;
};

/// POST /checkpoint result (durability::CheckpointStats).
struct CheckpointResult {
  bool ok = false;
  std::uint64_t bytes = 0;
  std::uint64_t covered_records = 0;
  std::uint64_t reclaimed_records = 0;
  std::string error;
};

/// POST /migrate result (placement::MigrationResult).
struct MigrateResult {
  bool ok = false;
  std::uint64_t epoch = 0;
  std::uint64_t slice_bytes = 0;
  double transfer_ms = 0;
  double blackout_ms = 0;
  std::string error;
};

/// Raw token of `"key":<value>` in a flat JSON object; strings unquoted.
inline std::string json_field(const std::string& body, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const auto at = body.find(tag);
  if (at == std::string::npos) return "";
  std::size_t begin = at + tag.size();
  if (begin < body.size() && body[begin] == '"')
    return body.substr(begin + 1, body.find('"', begin + 1) - begin - 1);
  const std::size_t end = body.find_first_of(",}", begin);
  return body.substr(begin, end - begin);
}

inline std::uint64_t json_u64(const std::string& body, const std::string& key) {
  return std::strtoull(json_field(body, key).c_str(), nullptr, 10);
}

class NodeClient {
 public:
  /// Connects to a gateway, retrying while the node boots.
  static NodeClient connect(const std::string& addr,
                            std::chrono::milliseconds timeout = 20s) {
    auto http = gateway::BlockingHttpClient::connect(addr, timeout);
    if (!http) throw ProcessError("http connect to " + addr + " timed out");
    return NodeClient(std::move(*http));
  }

  gateway::HttpResponse get(const std::string& target) {
    return http_.get(target);
  }
  gateway::HttpResponse post(const std::string& target,
                             const std::string& body = "",
                             const std::string& content_type = "") {
    return http_.post(target, body, content_type);
  }

  /// POST /inject/<input>?vt=; returns the virtual time the node assigned.
  std::int64_t inject(const std::string& input, std::int64_t vt,
                      const std::vector<std::string>& words) {
    std::string body;
    for (const auto& w : words) body += (body.empty() ? "" : " ") + w;
    const auto resp = ok(post("/inject/" + input + "?vt=" + std::to_string(vt),
                              body, "text/plain"),
                         "inject " + input);
    if (resp.body.rfind("vt=", 0) != 0 || resp.body.back() != '\n')
      throw ProcessError("inject " + input + ": bad ack '" + resp.body + "'");
    return std::stoll(resp.body.substr(3));
  }
  void inject(const Step& s) {
    EXPECT_EQ(inject(s.input, s.vt, s.words), s.vt);
  }

  /// POST /drain: true once quiesced, false on the node's drain timeout.
  bool drain() {
    const auto resp = post("/drain?timeout_ms=30000");
    if (resp.status == 503) return false;
    ok(resp, "drain");
    return true;
  }

  /// Every record of an external output (GET /outputs). The origin column
  /// (the originating ingest's WIRE:SEQ lineage tag, "-" when unstamped)
  /// must be well-formed but is dropped: origins name gateway log
  /// positions, which differ between a live run and its recovery replay
  /// while vt/payload must not.
  std::vector<OutputRecord> outputs(const std::string& output) {
    const auto resp = ok(get("/outputs/" + output + "?max=1000000"), "outputs");
    std::vector<OutputRecord> records;
    std::istringstream in(resp.body);
    std::string line;
    while (std::getline(in, line)) {
      const auto t1 = line.find('\t');
      const auto t2 = line.find('\t', t1 + 1);
      const auto t3 = line.find('\t', t2 + 1);
      if (t3 == std::string::npos)
        throw ProcessError("outputs: bad line '" + line + "'");
      const std::string origin = line.substr(t2 + 1, t3 - t2 - 1);
      EXPECT_TRUE(origin == "-" || origin.find(':') != std::string::npos)
          << line;
      records.push_back({std::stoll(line.substr(0, t1)),
                         line.substr(t1 + 1, t2 - t1 - 1) == "1",
                         line.substr(t3 + 1)});
    }
    return records;
  }

  /// Fresh records of the wordcount `total` output.
  OutputStream totals() {
    OutputStream out;
    for (const auto& rec : outputs("total"))
      if (!rec.stutter) out.emplace_back(rec.vt, std::stoll(rec.payload));
    return out;
  }

  /// GET /obs, decoded.
  obs::NodeReport report() {
    return obs::NodeReport::decode(ok(get("/obs"), "obs").body);
  }
  core::MetricsSnapshot metrics() { return report().metrics; }
  core::StatusReport status() { return report().status; }
  std::vector<obs::Sample> obs_samples() { return report().samples; }

  /// Whether this node runs `component` right now.
  bool hosts(const std::string& component) {
    for (const auto& c : status().components)
      if (c.name == component) return true;
    return false;
  }

  CheckpointResult checkpoint() {
    const auto resp = post("/checkpoint");
    if (resp.status != 200 && resp.status != 500) ok(resp, "checkpoint");
    CheckpointResult r;
    r.ok = json_field(resp.body, "ok") == "true";
    r.bytes = json_u64(resp.body, "bytes");
    r.covered_records = json_u64(resp.body, "covered_records");
    r.reclaimed_records = json_u64(resp.body, "reclaimed_records");
    r.error = json_field(resp.body, "error");
    return r;
  }

  /// Live-migrates `component` to `to_node`; blocks until cutover or
  /// failure. A refused migration comes back with ok=false.
  MigrateResult migrate(const std::string& component,
                        const std::string& to_node) {
    const auto resp =
        post("/migrate?component=" + component + "&to=" + to_node);
    if (resp.status != 200 && resp.status != 409) ok(resp, "migrate");
    MigrateResult r;
    r.ok = json_field(resp.body, "ok") == "true";
    r.epoch = json_u64(resp.body, "epoch");
    r.slice_bytes = json_u64(resp.body, "slice_bytes");
    r.transfer_ms = std::strtod(json_field(resp.body, "transfer_ms").c_str(),
                                nullptr);
    r.blackout_ms = std::strtod(json_field(resp.body, "blackout_ms").c_str(),
                                nullptr);
    r.error = json_field(resp.body, "error");
    return r;
  }

  void shutdown_node() { ok(post("/shutdown"), "shutdown"); }

 private:
  explicit NodeClient(gateway::BlockingHttpClient http)
      : http_(std::move(http)) {}

  static const gateway::HttpResponse& ok(const gateway::HttpResponse& resp,
                                         const std::string& what) {
    if (resp.status != 200)
      throw ProcessError(what + " -> " + std::to_string(resp.status) + ": " +
                         resp.body);
    return resp;
  }

  gateway::BlockingHttpClient http_;
};

/// Client for `partition`'s gateway in deployment `d`.
inline NodeClient connect(const Deployment& d, const std::string& partition) {
  return NodeClient::connect(d.http.at(partition));
}

}  // namespace tart::proc
