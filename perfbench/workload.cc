// perfbench-workload: runs one workload of the TART benchmark and writes its
// raw measurements (sample arrays, counters and per-layer readings) as one
// JSON object. perfbench/run.py builds this binary, runs it, and turns the
// raw measurements into the reported metrics (perfbench/stats.py).
//
//   perfbench-workload <chain-hop|fanin-2node|restart-replay>
//       --seed N --seconds S --trace 0|1 --scratch DIR --out FILE
//       [--node-bin PATH] [--smoke]
//
// Every layer is measured from outside, through public surfaces only:
// core::Runtime, durability::ReplayDriver, obs::prof::snapshot(), and real
// tart-node processes over HTTP (GET /metrics, GET /profile). This program
// adds no span to the library; its own per-message spans (due, call start,
// call end, ack, output seen) live in memory and are written at the end.
//
// Child processes (tart-node, the restart-replay ingester) share one
// process group, die with this program (PR_SET_PDEATHSIG), and are killed and
// reaped on every exit path: normal return, error, SIGINT/SIGTERM and the
// run watchdog (SIGALRM).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/wordcount.h"
#include "common/logging.h"
#include "core/runtime.h"
#include "durability/manager.h"
#include "durability/replay.h"
#include "net/topologies.h"
#include "obs/prof.h"

namespace {

namespace fs = std::filesystem;
namespace apps = tart::apps;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;
using tart::EngineId;
using tart::VirtualTime;
using tart::WireId;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double us_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1000.0;
}

/// Waits for a due time: sleeps while it is far off, so a slow open loop
/// leaves the cores to the system under test, then yields until it comes
/// (a sleep alone wakes tens of microseconds late).
void wait_until(std::int64_t t_ns) {
  constexpr std::int64_t kSpinNs = 250'000;
  const std::int64_t gap = t_ns - now_ns();
  if (gap > 2 * kSpinNs)
    std::this_thread::sleep_for(std::chrono::nanoseconds(gap - kSpinNs));
  while (now_ns() < t_ns) sched_yield();
}

// --- Child processes: one group, reaped on every exit path -----------------

/// The children's process group (0 = none yet) and its live members: an
/// emptied group ceases to exist, so the next child founds a new one.
std::atomic<pid_t> g_pgid{0};
int g_live = 0;

void kill_children() {
  const pid_t pgid = g_pgid.exchange(0);
  if (pgid <= 0) return;
  kill(-pgid, SIGKILL);
  while (waitpid(-pgid, nullptr, 0) > 0) {
  }
}

extern "C" void on_fatal_signal(int sig) {
  kill_children();  // kill(2) and waitpid(2) are async-signal-safe
  _exit(128 + sig);
}

/// fork()s into the children's process group; returns 0 in the child.
/// The child dies with this process even if it is SIGKILLed.
pid_t fork_into_group() {
  const pid_t pgid = g_pgid.load();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    setpgid(0, pgid);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    return 0;
  }
  setpgid(pid, pgid == 0 ? pid : pgid);  // the child races to do the same
  if (pgid == 0) g_pgid.store(pid);
  ++g_live;
  return pid;
}

/// Runs `argv` as a child in the children's process group, its stdout and
/// stderr appended to `log`.
pid_t spawn(const std::vector<std::string>& argv, const std::string& log) {
  const pid_t pid = fork_into_group();
  if (pid == 0) {
    const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      dup2(fd, 1);
      dup2(fd, 2);
      close(fd);
    }
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    execv(args[0], args.data());
    _exit(127);
  }
  return pid;
}

/// Waits up to `grace` for one child to exit, then kills it; reaps it.
void reap(pid_t pid, std::chrono::milliseconds grace) {
  const auto deadline = Clock::now() + grace;
  bool reaped = false;
  while (!reaped && Clock::now() < deadline) {
    reaped = waitpid(pid, nullptr, WNOHANG) != 0;  // -1: reaped already
    if (!reaped) std::this_thread::sleep_for(1ms);
  }
  if (!reaped) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  if (--g_live == 0) g_pgid.store(0);
}

// --- Process accounting ----------------------------------------------------

struct Usage {
  double cpu_s = 0;
  std::uint64_t ctx_switches = 0;
};

Usage usage_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

Usage operator-(const Usage& a, const Usage& b) {
  return {a.cpu_s - b.cpu_s, a.ctx_switches - b.ctx_switches};
}

Usage operator+(const Usage& a, const Usage& b) {
  return {a.cpu_s + b.cpu_s, a.ctx_switches + b.ctx_switches};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A "Key:   N kB" field of /proc/<pid>/status (0 when absent).
std::uint64_t status_field(const std::string& status, const char* key) {
  const auto at = status.find(std::string(key) + ":");
  if (at == std::string::npos) return 0;
  return std::strtoull(status.c_str() + at + std::strlen(key) + 1, nullptr,
                       10);
}

std::uint64_t peak_rss_kb(const std::string& pid) {
  return status_field(read_file("/proc/" + pid + "/status"), "VmHWM");
}

/// User + system CPU of every thread of a live process.
double proc_cpu_s(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && in >> field; ++i)
    if (i == 14 || i == 15) ticks += std::strtod(field.c_str(), nullptr);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Voluntary + involuntary context switches summed over a process's threads.
std::uint64_t proc_ctx_switches(pid_t pid) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& task : fs::directory_iterator(
           "/proc/" + std::to_string(pid) + "/task", ec)) {
    const std::string s = read_file(task.path().string() + "/status");
    total += status_field(s, "voluntary_ctxt_switches") +
             status_field(s, "nonvoluntary_ctxt_switches");
  }
  return total;
}

// --- Profiler spans (in-process) -------------------------------------------

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total = 0;  ///< ns for spans, bytes for byte counters
};

std::map<std::string, SpanTotals> prof_totals() {
  std::map<std::string, SpanTotals> out;
  for (const auto& s : tart::obs::prof::snapshot().sites)
    out[s.name] = {s.count, s.total};
  return out;
}

SpanTotals prof_delta(const std::map<std::string, SpanTotals>& before,
                      const std::map<std::string, SpanTotals>& after,
                      const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return {};
  const auto b = before.find(name);
  if (b == before.end()) return a->second;
  return {a->second.count - b->second.count,
          a->second.total - b->second.total};
}

// --- Output ----------------------------------------------------------------

/// Minimal JSON object writer (numbers, strings, number arrays, objects).
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    else
      std::snprintf(buf, sizeof(buf), "null");
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return raw(key, q + "\"");
  }
  Json& arr(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[32];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  Json& obj(const std::string& key, const Json& child) {
    return raw(key, child.dump());
  }
  [[nodiscard]] std::string dump() const {
    std::string s = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) s += ",";
      s += "\"" + fields_[i].first + "\":" + fields_[i].second;
    }
    return s + "}";
  }

 private:
  Json& raw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string scratch;
  std::string out;
  std::string node_bin;
};

/// Failure accounting shared by every workload.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void error(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
  void fill(Json& j) const {
    j.num("attempted", static_cast<double>(attempted));
    j.num("failed", static_cast<double>(failed));
    std::string all;
    for (const auto& e : errors) all += (all.empty() ? "" : "; ") + e;
    j.str("errors", all);
  }
};

/// Seeded word-count sentences: 1-8 words from a 64-word vocabulary.
class SentenceGen {
 public:
  explicit SentenceGen(std::uint64_t seed) : rng_(seed) {}
  std::vector<std::string> next() {
    std::vector<std::string> words(1 + rng_() % 8);
    for (auto& w : words) w = "w" + std::to_string(rng_() % 64);
    return words;
  }

 private:
  std::mt19937_64 rng_;
};

std::string join_words(const std::vector<std::string>& words) {
  std::string s;
  for (const auto& w : words) s += (s.empty() ? "" : " ") + w;
  return s;
}

// --- chain-hop ---------------------------------------------------------------
//
// In-process `chain` stages=3, one engine per stage. Each episode builds a
// fresh runtime (so memory stays bounded and every episode is alike), runs
// a warm-up, a paced open loop at kPacedRate, then saturated rounds of
// back-to-back inject_at calls that each wait for all of their outputs.

struct ChainSizes {
  int setups = 15;  ///< per episode, so they spread over the run
  int warmup = 2000;
  int paced = 10000;
  int rounds = 4;
  int round_batch = 20000;
};

constexpr double kPacedRate = 20000.0;  // msgs/s

void run_chain_hop(const Args& args, Json& out) {
  ChainSizes sz;
  if (args.smoke) sz = {3, 100, 500, 2, 500};
  const auto built = tart::net::build_topology("chain", {{"stages", "3"}});
  std::map<tart::ComponentId, EngineId> placement;
  for (int i = 1; i <= 3; ++i)
    placement[built.components.at("stage" + std::to_string(i))] =
        EngineId(static_cast<std::uint32_t>(i - 1));
  const WireId in = built.inputs.at("in");
  const WireId out_wire = built.outputs.at("out");

  Tally tally;
  std::vector<double> setup_s;
  std::mt19937_64 rng(args.seed);
  std::vector<double> lat_us, ack_us, late_us, inject_us, round_rate, cpu_us;
  Usage paced_use, sat_use;
  std::uint64_t paced_msgs = 0, sat_msgs = 0;
  std::uint64_t pessimism_ns = 0, stalls = 0, probes = 0, dups = 0;
  std::uint64_t processed = 0;
  const auto prof0 = prof_totals();
  // The benchmark's own spans for the last episode: due, call start, call
  // end, output seen — kept in memory, written at the end.
  std::vector<std::int64_t> span_due, span_start, span_end, span_out;

  const int total = sz.warmup + sz.paced + sz.rounds * sz.round_batch;
  const auto run_deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  int episodes = 0;
  while (episodes == 0 || (now_ns() < run_deadline && !args.smoke)) {
    ++episodes;
    for (int i = 0; i < sz.setups; ++i) {
      tart::core::Topology topo = built.topology;
      const auto t0 = now_ns();
      tart::core::Runtime rt(std::move(topo), placement, {});
      rt.start();
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      rt.stop();
    }
    std::vector<std::int64_t> out_ns(static_cast<std::size_t>(total), 0);
    std::atomic<std::int64_t> delivered{0};
    std::atomic<std::int64_t> next_expected{0};
    std::atomic<std::uint64_t> order_errors{0};

    tart::core::Runtime rt(built.topology, placement, {});
    rt.subscribe(out_wire, [&](VirtualTime, const tart::Payload& p,
                               bool stutter) {
      const std::int64_t id = p.as_int();
      if (stutter || id != next_expected.load(std::memory_order_relaxed) ||
          id < 0 || id >= total) {
        order_errors.fetch_add(1);
      } else {
        out_ns[static_cast<std::size_t>(id)] = now_ns();
      }
      next_expected.store(id + 1, std::memory_order_relaxed);
      delivered.fetch_add(1, std::memory_order_release);
    });
    rt.start();

    std::int64_t vt = 0;
    std::int64_t id = 0;
    const auto inject = [&] {
      vt += 1 + static_cast<std::int64_t>(rng() % 1000);
      rt.inject_at(in, VirtualTime(vt), tart::Payload(id));
      ++id;
    };
    const auto wait_for = [&](std::int64_t n) {
      const auto deadline = now_ns() + 10'000'000'000;
      while (delivered.load(std::memory_order_acquire) < n) {
        if (now_ns() > deadline) return false;
      }
      return true;
    };

    // Warm-up (not timed): threads running, allocator and caches warm.
    for (int i = 0; i < sz.warmup; ++i) inject();
    bool ok = wait_for(id);

    // Paced open loop, each message timed from its due time.
    const std::int64_t first = id;
    std::vector<std::int64_t> due(static_cast<std::size_t>(sz.paced));
    std::vector<std::int64_t> call_start(static_cast<std::size_t>(sz.paced));
    std::vector<std::int64_t> call_end(static_cast<std::size_t>(sz.paced));
    const auto period = static_cast<std::int64_t>(1e9 / kPacedRate);
    const Usage self0 = usage_of(RUSAGE_SELF);
    const Usage gen0 = usage_of(RUSAGE_THREAD);
    const std::int64_t start = now_ns() + 1'000'000;
    for (int i = 0; ok && i < sz.paced; ++i) {
      const auto k = static_cast<std::size_t>(i);
      due[k] = start + i * period;
      wait_until(due[k]);
      if (args.trace) call_start[k] = now_ns();
      inject();
      call_end[k] = now_ns();
    }
    ok = ok && wait_for(id);
    const Usage episode_use = (usage_of(RUSAGE_SELF) - self0) -
                              (usage_of(RUSAGE_THREAD) - gen0);
    if (ok) {
      paced_use = paced_use + episode_use;
      paced_msgs += static_cast<std::uint64_t>(sz.paced);
      cpu_us.push_back(episode_use.cpu_s * 1e6 / sz.paced);
      for (int i = 0; i < sz.paced; ++i) {
        const auto k = static_cast<std::size_t>(i);
        const auto o = out_ns[static_cast<std::size_t>(first) + k];
        if (o == 0) continue;  // counted by order_errors
        lat_us.push_back(us_between(due[k], o));
        ack_us.push_back(us_between(due[k], call_end[k]));
        if (args.trace) {
          late_us.push_back(us_between(due[k], call_start[k]));
          inject_us.push_back(us_between(call_start[k], call_end[k]));
        }
      }
      if (args.trace) {
        span_due = due;
        span_start = call_start;
        span_end = call_end;
        span_out.assign(out_ns.begin() + first,
                        out_ns.begin() + first + sz.paced);
      }
    }

    // Saturated rounds: inject a batch back to back, wait for all of it.
    const Usage sat0 = usage_of(RUSAGE_SELF);
    const Usage sgen0 = usage_of(RUSAGE_THREAD);
    for (int r = 0; ok && r < sz.rounds; ++r) {
      const auto t0 = now_ns();
      for (int i = 0; i < sz.round_batch; ++i) inject();
      ok = wait_for(id);
      const auto t1 = now_ns();
      if (ok)
        round_rate.push_back(sz.round_batch /
                             (static_cast<double>(t1 - t0) / 1e9));
    }
    if (ok) {
      sat_use = sat_use + ((usage_of(RUSAGE_SELF) - sat0) -
                           (usage_of(RUSAGE_THREAD) - sgen0));
      sat_msgs += static_cast<std::uint64_t>(sz.rounds * sz.round_batch);
    }

    const auto m = rt.total_metrics();
    pessimism_ns += m.pessimism_wait_ns;
    stalls += m.pessimism_events;
    probes += m.probes_sent;
    dups += m.duplicates_discarded;
    processed += m.messages_processed;
    rt.stop();

    tally.attempted += static_cast<std::uint64_t>(id);
    const auto got = delivered.load();
    const auto errs = order_errors.load();
    const std::uint64_t missing =
        got < id ? static_cast<std::uint64_t>(id - got) : 0;
    tally.failed += errs + missing;
    if (errs > 0)
      tally.error(std::to_string(errs) + " outputs out of order, "
                  "duplicated or stuttered");
    if (missing > 0)
      tally.error(std::to_string(missing) + " outputs missing");
    if (!ok) break;
  }
  const auto prof1 = prof_totals();

  out.str("workload", "chain-hop");
  tally.fill(out);
  out.num("episodes", episodes);
  out.arr("setup_s", setup_s);
  out.arr("lat_us", lat_us);
  out.arr("ack_us", ack_us);
  out.arr("throughput", round_rate);
  out.arr("cpu_us", cpu_us);
  out.num("peak_rss_kb", static_cast<double>(peak_rss_kb("self")));
  if (args.trace) {
    const auto dispatch = prof_delta(prof0, prof1, "runner.dispatch");
    const auto serde = prof_delta(prof0, prof1, "serde.archive");
    const double in_msgs = static_cast<double>(tally.attempted);
    Json layers;
    layers.arr("core.inject_us", inject_us);
    layers.arr("generator_late_us", late_us);
    layers.num("core.dispatch_us",
               dispatch.count ? static_cast<double>(dispatch.total) / 1e3 /
                                    static_cast<double>(dispatch.count)
                              : 0.0);
    layers.num("core.dispatches_per_msg",
               static_cast<double>(dispatch.count) / in_msgs);
    layers.num("core.ctx_switches_per_msg",
               static_cast<double>(paced_use.ctx_switches) /
                   static_cast<double>(paced_msgs));
    layers.num("core.ctx_switches_per_msg_saturated",
               static_cast<double>(sat_use.ctx_switches) /
                   static_cast<double>(sat_msgs));
    layers.num("core.cpu_us_per_msg_saturated",
               sat_use.cpu_s * 1e6 / static_cast<double>(sat_msgs));
    layers.num("core.merge_stall_us_per_msg",
               static_cast<double>(pessimism_ns) / 1e3 / in_msgs);
    layers.num("core.merge_stalls_per_msg",
               static_cast<double>(stalls) / in_msgs);
    layers.num("core.probes_per_msg", static_cast<double>(probes) / in_msgs);
    layers.num("core.dup_discard_frac",
               processed ? static_cast<double>(dups) /
                               static_cast<double>(processed)
                         : 0.0);
    layers.num("serde.bytes_per_msg",
               static_cast<double>(serde.total) / in_msgs);
    out.obj("layers", layers);

    // The benchmark's per-message spans, written after the timed work.
    std::ofstream spans(args.scratch + "/chain-hop.spans.tsv");
    spans << "id\tdue_ns\tcall_start_ns\tcall_end_ns\toutput_ns\n";
    for (std::size_t i = 0; i < span_due.size(); ++i)
      spans << i << '\t' << span_due[i] << '\t' << span_start[i] << '\t'
            << span_end[i] << '\t' << span_out[i] << '\n';
  }
}

// --- Minimal HTTP/1.1 client -------------------------------------------------
//
// tart's BlockingHttpClient retries connect on a 20 ms timer, which would
// dominate a set-up measurement; this one fails fast and lets the caller
// poll at 0.5 ms.

class Http {
 public:
  /// One connect attempt; false if nothing listens yet.
  bool connect(std::uint16_t port) {
    close_fd();
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      close_fd();
      return false;
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{30, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    buf_.clear();
    return true;
  }
  ~Http() { close_fd(); }

  struct Response {
    int status = 0;
    std::string next;  ///< X-Tart-Next header (GET /outputs)
    std::string body;
  };

  /// One request/response on the kept-alive connection; status 0 on a
  /// transport failure (the caller reconnects).
  Response request(const std::string& method, const std::string& target,
                   const std::string& body = {},
                   const std::string& content_type = {}) {
    Response r;
    if (fd_ < 0) return r;
    std::string req = method + " " + target + " HTTP/1.1\r\nHost: bench\r\n";
    if (!content_type.empty()) req += "Content-Type: " + content_type + "\r\n";
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    req += body;
    for (std::size_t off = 0; off < req.size();) {
      const ssize_t n = ::send(fd_, req.data() + off, req.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return fail();
      off += static_cast<std::size_t>(n);
    }
    std::size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos)
      if (!fill()) return fail();
    const std::string head = buf_.substr(0, head_end);
    r.status = std::atoi(head.c_str() + head.find(' ') + 1);
    const auto len = static_cast<std::size_t>(
        std::atoll(header(head, "Content-Length").c_str()));
    r.next = header(head, "X-Tart-Next");
    while (buf_.size() < head_end + 4 + len)
      if (!fill()) return fail();
    r.body = buf_.substr(head_end + 4, len);
    buf_.erase(0, head_end + 4 + len);
    return r;
  }

 private:
  static std::string header(const std::string& head, const char* name) {
    const auto at = head.find(std::string("\r\n") + name + ": ");
    if (at == std::string::npos) return "0";
    const auto v = at + std::strlen(name) + 4;
    return head.substr(v, head.find("\r\n", v) - v);
  }
  bool fill() {
    char tmp[65536];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<std::size_t>(n));
    return true;
  }
  Response fail() {
    close_fd();
    return {};
  }
  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd_ = -1;
  std::string buf_;
};

/// Picks `n` distinct free loopback ports (held open together while picked).
std::vector<std::uint16_t> free_ports(int n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < n; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd < 0 || bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      throw std::runtime_error("cannot pick a free port");
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) close(fd);
  return ports;
}

/// Sum of every sample of a Prometheus family (any labels).
double prom_value(const std::string& text, const std::string& name) {
  double total = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name, 0) != 0) continue;
    const char next = line.size() > name.size() ? line[name.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    total += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return total;
}

/// The quantile="q" sample of a summary family (histograms render as
/// summaries over the process lifetime).
double prom_quantile(const std::string& text, const std::string& name,
                     const std::string& q) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(name + "{", 0) == 0 &&
        line.find("quantile=\"" + q + "\"") != std::string::npos)
      return std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  return 0;
}

/// A span of GET /profile: count and total_ns (0s when absent).
SpanTotals profile_span(const std::string& json, const std::string& name) {
  const auto at = json.find("{\"name\":\"" + name + "\"");
  if (at == std::string::npos) return {};
  const auto field = [&](const char* key) -> std::uint64_t {
    const auto k = json.find(std::string("\"") + key + "\":", at);
    return k == std::string::npos
               ? 0
               : std::strtoull(json.c_str() + k + std::strlen(key) + 3,
                               nullptr, 10);
  };
  return {field("count"), field("total_ns")};
}

/// A byte counter of GET /profile: events and bytes.
SpanTotals profile_counter(const std::string& json, const std::string& name) {
  const auto at = json.find("{\"name\":\"" + name + "\",\"events\"");
  if (at == std::string::npos) return {};
  const auto field = [&](const char* key) -> std::uint64_t {
    const auto k = json.find(std::string("\"") + key + "\":", at);
    return std::strtoull(json.c_str() + k + std::strlen(key) + 3, nullptr,
                         10);
  };
  return {field("events"), field("bytes")};
}

/// Loop busy/idle ns of GET /profile.
std::pair<double, double> profile_loop(const std::string& json) {
  const auto num = [&](const char* key) {
    const auto k = json.find(std::string("\"") + key + "\":");
    return k == std::string::npos
               ? 0.0
               : std::strtod(json.c_str() + k + std::strlen(key) + 3, nullptr);
  };
  return {num("busy_ns"), num("idle_ns")};
}

// --- fanin-2node ------------------------------------------------------------
//
// The paper's Figure-1 wordcount over two real tart-node processes: senders
// on `left` (durable, group-committed HTTP ingress), the merger on `right`.
// Open-loop POSTs at kFaninRate over one connection per input wire; a third
// connection long-polls GET /outputs/total on `right`.

constexpr double kFaninRate = 500.0;  // POST/s, split over the two wires

/// Confines this process, and so every thread and child it starts later,
/// to the first two CPUs it may use. Each fanin-2node request crosses five
/// or more thread wakeups in two processes; spread over every vCPU, each
/// can wait for the hypervisor to schedule an idle vCPU, which on a shared
/// host doubled the run-to-run spread (8 interleaved pairs: lat_p50_us
/// 0.16 vs 0.09, ack 0.44 vs 0.13).
void pin_to_two_cpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) <= 2)
    return;
  cpu_set_t two;
  CPU_ZERO(&two);
  for (int cpu = 0, n = 0; cpu < CPU_SETSIZE && n < 2; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &two);
    ++n;
  }
  sched_setaffinity(0, sizeof(two), &two);
}

struct Pair {
  pid_t left = -1;
  pid_t right = -1;
  std::uint16_t left_http = 0;
  std::uint16_t right_http = 0;
  std::string dir;
};

void stop_pair(Pair& p) {
  for (const auto port : {p.left_http, p.right_http}) {
    Http h;
    if (h.connect(port)) (void)h.request("POST", "/shutdown");
  }
  if (p.left > 0) reap(p.left, 5s);
  if (p.right > 0) reap(p.right, 5s);
  p.left = p.right = -1;
  std::error_code ec;
  fs::remove_all(p.dir, ec);
}

/// Spawns both nodes and waits until both gateways answer and the peer
/// link carries frames both ways. Returns seconds from spawn to ready, or
/// a negative value on timeout.
double start_pair(const Args& args, const std::string& dir, Pair& p) {
  fs::create_directories(dir + "/left-log");
  p.dir = dir;
  const auto ports = free_ports(6);
  p.left_http = ports[4];
  p.right_http = ports[5];
  const std::string lo = "127.0.0.1:";
  {
    std::ofstream conf(dir + "/deploy.conf");
    conf << "topology = wordcount\nparam senders = 2\n"
         << "partition left = " << lo << ports[0] << "\n"
         << "control left = " << lo << ports[1] << "\n"
         << "partition right = " << lo << ports[2] << "\n"
         << "control right = " << lo << ports[3] << "\n"
         << "place sender1 = left\nplace sender2 = left\n"
         << "place merger = right\n";
  }
  // The acceptor (right) comes up first: `left` dials, and a dial that
  // finds no listener backs off 25-50 ms, which set-up would then measure.
  const auto t0 = now_ns();
  const auto deadline = t0 + 20'000'000'000;
  const auto wait_healthy = [&](Http& h, std::uint16_t port, pid_t pid) {
    while (now_ns() < deadline) {
      if (h.connect(port) && h.request("GET", "/healthz").status == 200)
        return true;
      if (waitpid(pid, nullptr, WNOHANG) == pid) return false;  // it died
      std::this_thread::sleep_for(500us);
    }
    return false;
  };
  Http l, r;
  p.right = spawn({args.node_bin, dir + "/deploy.conf", "right",
                   "--http=" + std::to_string(p.right_http)},
                  dir + "/right.stderr");
  if (!wait_healthy(r, p.right_http, p.right)) return -1;
  p.left = spawn({args.node_bin, dir + "/deploy.conf", "left",
                  "--http=" + std::to_string(p.left_http),
                  "--log-dir=" + dir + "/left-log", "--durable"},
                 dir + "/left.stderr");
  if (!wait_healthy(l, p.left_http, p.left)) return -1;
  while (now_ns() < deadline) {
    if (prom_value(l.request("GET", "/metrics").body,
                   "tart_net_frames_in_total") > 0 &&
        prom_value(r.request("GET", "/metrics").body,
                   "tart_net_frames_in_total") > 0)
      return static_cast<double>(now_ns() - t0) / 1e9;
    std::this_thread::sleep_for(500us);
  }
  return -1;
}

struct NodeScrape {
  std::string metrics;
  std::string profile;
};

NodeScrape scrape(std::uint16_t port) {
  Http h;
  NodeScrape s;
  if (!h.connect(port)) return s;
  s.metrics = h.request("GET", "/metrics").body;
  s.profile = h.request("GET", "/profile").body;
  return s;
}

struct Post {
  std::int64_t due = 0;
  std::int64_t start = 0;
  std::int64_t ack = 0;
  int status = 0;
  std::vector<std::string> words;
};

void run_fanin_2node(const Args& args, Json& out) {
  if (args.node_bin.empty() || access(args.node_bin.c_str(), X_OK) != 0)
    throw std::runtime_error("--node-bin must name the tart-node binary");
  pin_to_two_cpus();
  const int setups = args.smoke ? 2 : 30;
  Tally tally;
  std::vector<double> setup_s;
  Pair pair;
  for (int i = 0; i < setups; ++i) {
    // A node that dies at start (say, a port taken between picking and
    // binding it) gets two more tries on fresh ports.
    double s = -1;
    for (int attempt = 0; attempt < 3 && s < 0; ++attempt) {
      if (attempt > 0) stop_pair(pair);
      s = start_pair(args, args.scratch + "/pair" + std::to_string(i), pair);
    }
    if (s < 0) {
      stop_pair(pair);
      throw std::runtime_error("tart-node pair did not come up");
    }
    setup_s.push_back(s);
    if (i + 1 < setups) stop_pair(pair);
  }

  const auto built = tart::net::build_topology("wordcount", {{"senders", "2"}});
  const std::vector<std::string> inputs = {"sender1", "sender2"};
  std::map<std::uint64_t, int> wire_index;  // wire id -> sender index
  for (int s = 0; s < 2; ++s)
    wire_index[built.inputs.at(inputs[static_cast<std::size_t>(s)]).value()] =
        s;

  const double seconds = args.smoke ? 0.5 : args.seconds;
  const auto per_wire = static_cast<std::size_t>(seconds * kFaninRate / 2);
  const auto period = static_cast<std::int64_t>(2e9 / kFaninRate);
  std::vector<std::vector<Post>> posts(2, std::vector<Post>(per_wire));
  for (int s = 0; s < 2; ++s) {
    SentenceGen gen(args.seed * 2 + static_cast<std::uint64_t>(s));
    for (auto& p : posts[static_cast<std::size_t>(s)]) p.words = gen.next();
  }

  const NodeScrape l0 = scrape(pair.left_http);
  const NodeScrape r0 = scrape(pair.right_http);
  const double cpu0 = proc_cpu_s(pair.left) + proc_cpu_s(pair.right);
  const std::uint64_t ctx0 =
      proc_ctx_switches(pair.left) + proc_ctx_switches(pair.right);

  // Consumer: long-polls the merger's output, stamping when each record
  // became visible, keyed by its lineage origin (wire, seq).
  std::mutex seen_mu;
  std::map<std::pair<int, std::uint64_t>, std::int64_t> seen;
  std::uint64_t dup_outputs = 0, bad_lines = 0;
  std::int64_t last_total = -1;
  std::atomic<bool> consumer_stop{false};
  std::thread consumer([&] {
    Http h;
    std::size_t after = 0;
    while (!consumer_stop.load()) {
      if (!h.connect(pair.right_http)) return;
      while (!consumer_stop.load()) {
        const auto r = h.request("GET", "/outputs/total?after=" +
                                            std::to_string(after) +
                                            "&wait_ms=100");
        const auto t = now_ns();
        if (r.status != 200) break;
        after = static_cast<std::size_t>(std::atoll(r.next.c_str()));
        std::istringstream lines(r.body);
        std::string line;
        const std::lock_guard<std::mutex> lk(seen_mu);
        while (std::getline(lines, line)) {
          // vt \t stutter \t wire:seq \t payload
          const auto t1 = line.find('\t');
          const auto t2 = line.find('\t', t1 + 1);
          const auto t3 = line.find('\t', t2 + 1);
          const auto colon = line.find(':', t2);
          if (t3 == std::string::npos || colon > t3) {
            ++bad_lines;
            continue;
          }
          if (line.substr(t1 + 1, t2 - t1 - 1) == "1") continue;  // stutter
          const auto wire = std::strtoull(line.c_str() + t2 + 1, nullptr, 10);
          const auto seq = std::strtoull(line.c_str() + colon + 1, nullptr, 10);
          const auto w = wire_index.find(wire);
          if (w == wire_index.end()) {
            ++bad_lines;
            continue;
          }
          if (!seen.emplace(std::make_pair(w->second, seq), t).second)
            ++dup_outputs;
          last_total = std::atoll(line.c_str() + t3 + 1);
        }
      }
    }
  });

  // Senders: one connection per input wire, open loop from a shared start.
  const std::int64_t start = now_ns() + 5'000'000;
  std::vector<std::thread> senders;
  for (int s = 0; s < 2; ++s) {
    senders.emplace_back([&, s] {
      Http h;
      bool connected = h.connect(pair.left_http);
      const std::string target =
          "/inject/" + inputs[static_cast<std::size_t>(s)];
      auto& mine = posts[static_cast<std::size_t>(s)];
      for (std::size_t i = 0; i < mine.size(); ++i) {
        Post& p = mine[i];
        p.due = start + static_cast<std::int64_t>(i) * period + s * period / 2;
        wait_until(p.due);
        if (!connected) connected = h.connect(pair.left_http);
        p.start = now_ns();
        p.status = h.request("POST", target, join_words(p.words),
                             "text/plain").status;
        p.ack = now_ns();
        if (p.status == 0) connected = false;
      }
    });
  }
  for (auto& t : senders) t.join();
  const std::int64_t load_end = now_ns();

  // Wait (bounded) until every acked request's output was seen.
  std::size_t acked = 0;
  for (const auto& v : posts)
    for (const auto& p : v) acked += p.status == 200 ? 1 : 0;
  const auto wait_deadline = now_ns() + 10'000'000'000;
  while (now_ns() < wait_deadline) {
    {
      const std::lock_guard<std::mutex> lk(seen_mu);
      if (seen.size() >= acked) break;
    }
    std::this_thread::sleep_for(1ms);
  }
  const double cpu1 = proc_cpu_s(pair.left) + proc_cpu_s(pair.right);
  const std::uint64_t ctx1 =
      proc_ctx_switches(pair.left) + proc_ctx_switches(pair.right);
  consumer_stop.store(true);
  consumer.join();

  // Non-waiting GET /outputs at the run's cursor, timed here.
  std::vector<double> outputs_get_us;
  if (args.trace) {
    Http h;
    if (h.connect(pair.right_http)) {
      const std::string target =
          "/outputs/total?after=" + std::to_string(seen.size() + dup_outputs);
      for (int i = 0; i < 20; ++i) {
        const auto t0 = now_ns();
        (void)h.request("GET", target);
        outputs_get_us.push_back(us_between(t0, now_ns()));
      }
    }
  }
  const NodeScrape l1 = scrape(pair.left_http);
  const NodeScrape r1 = scrape(pair.right_http);
  const std::uint64_t rss_kb = peak_rss_kb(std::to_string(pair.left)) +
                               peak_rss_kb(std::to_string(pair.right));
  stop_pair(pair);

  // Accounting: every 200-acked (wire, seq) exactly once as an output.
  std::vector<double> lat_us, ack_us, late_us, call_us;
  std::uint64_t non_ok = 0, unseen = 0;
  for (int s = 0; s < 2; ++s) {
    std::uint64_t seq = 0;
    for (const auto& p : posts[static_cast<std::size_t>(s)]) {
      ++tally.attempted;
      if (p.status != 200) {
        ++non_ok;
        continue;
      }
      ack_us.push_back(us_between(p.due, p.ack));
      late_us.push_back(us_between(p.due, p.start));
      call_us.push_back(us_between(p.start, p.ack));
      const auto it = seen.find({s, seq++});
      if (it == seen.end()) {
        ++unseen;
        continue;
      }
      lat_us.push_back(us_between(p.due, it->second));
    }
  }
  if (seen.size() > acked) {
    tally.error(std::to_string(seen.size() - acked) +
                " outputs with no acked request");
    tally.failed += seen.size() - acked;
  }
  tally.failed += non_ok + unseen + dup_outputs + bad_lines;
  if (non_ok) tally.error(std::to_string(non_ok) + " POSTs not acked 200");
  if (unseen)
    tally.error(std::to_string(unseen) + " acked requests never output");
  if (dup_outputs)
    tally.error(std::to_string(dup_outputs) + " duplicate outputs");
  if (bad_lines) tally.error(std::to_string(bad_lines) + " unparsable outputs");

  // The final total must equal an in-process run of the acked inputs.
  {
    std::map<tart::ComponentId, EngineId> placement;
    for (const auto& [name, id] : built.components) placement[id] = EngineId(0);
    tart::core::Runtime ref(built.topology, placement, {});
    ref.start();
    for (int s = 0; s < 2; ++s) {
      std::int64_t vt = 1000 + s;
      for (const auto& p : posts[static_cast<std::size_t>(s)]) {
        if (p.status != 200) continue;
        ref.inject_at(built.inputs.at(inputs[static_cast<std::size_t>(s)]),
                      VirtualTime(vt), tart::apps::sentence(p.words));
        vt += 1000;
      }
    }
    if (!ref.drain(60s)) {
      ++tally.failed;
      tally.error("reference run did not drain");
    }
    const auto recs = ref.output_records(built.outputs.at("total"));
    const std::int64_t want = recs.empty() ? -1 : recs.back().payload.as_int();
    ref.stop();
    if (want != last_total) {
      ++tally.failed;
      tally.error("final total " + std::to_string(last_total) +
                  " != in-process reference " + std::to_string(want));
    }
  }

  const double msgs = static_cast<double>(acked);
  out.str("workload", "fanin-2node");
  tally.fill(out);
  out.arr("setup_s", setup_s);
  out.arr("lat_us", lat_us);
  out.arr("ack_us", ack_us);
  // Open loop: outputs made visible per second of offered load.
  out.arr("throughput",
          {static_cast<double>(seen.size()) /
           (static_cast<double>(load_end - start) / 1e9)});
  out.arr("cpu_us", {(cpu1 - cpu0) * 1e6 / msgs});
  out.num("peak_rss_kb", static_cast<double>(rss_kb));
  if (args.trace) {
    const auto delta = [](const std::string& a, const std::string& b,
                          const char* name) {
      return prom_value(b, name) - prom_value(a, name);
    };
    const auto span_mean_us = [](SpanTotals a, SpanTotals b) {
      return b.count > a.count ? static_cast<double>(b.total - a.total) /
                                     1e3 /
                                     static_cast<double>(b.count - a.count)
                               : 0.0;
    };
    const auto both_span = [&](const std::string& name) {
      SpanTotals a = profile_span(l0.profile, name);
      SpanTotals b = profile_span(l1.profile, name);
      const SpanTotals c = profile_span(r0.profile, name);
      const SpanTotals d = profile_span(r1.profile, name);
      a.count += c.count;
      a.total += c.total;
      b.count += d.count;
      b.total += d.total;
      return span_mean_us(a, b);
    };
    const auto counter_bytes = [&](const std::string& name) {
      double bytes = 0;
      for (const auto& [a, b] : {std::make_pair(&l0, &l1),
                                 std::make_pair(&r0, &r1)})
        bytes += static_cast<double>(profile_counter(b->profile, name).total) -
                 static_cast<double>(profile_counter(a->profile, name).total);
      return bytes;
    };
    const auto both = [&](const char* name) {
      return delta(l0.metrics, l1.metrics, name) +
             delta(r0.metrics, r1.metrics, name);
    };
    const auto loop_pct = [](const NodeScrape& a, const NodeScrape& b) {
      const auto [b0, i0] = profile_loop(a.profile);
      const auto [b1, i1] = profile_loop(b.profile);
      const double busy = b1 - b0, idle = i1 - i0;
      return busy + idle > 0 ? 100.0 * busy / (busy + idle) : 0.0;
    };
    const double batches = delta(l0.metrics, l1.metrics,
                                 "tart_gw_commit_batches_total");
    const double records = delta(l0.metrics, l1.metrics,
                                 "tart_gw_commit_records_total");
    Json layers;
    layers.arr("generator_late_us", late_us);
    layers.arr("client_call_us", call_us);
    layers.arr("gateway.outputs_get_us", outputs_get_us);
    layers.num("core.dispatch_us", both_span("runner.dispatch"));
    layers.num("core.dispatches_per_msg",
               static_cast<double>(
                   profile_span(l1.profile, "runner.dispatch").count -
                   profile_span(l0.profile, "runner.dispatch").count +
                   profile_span(r1.profile, "runner.dispatch").count -
                   profile_span(r0.profile, "runner.dispatch").count) /
                   msgs);
    layers.num("core.ctx_switches_per_msg",
               static_cast<double>(ctx1 - ctx0) / msgs);
    layers.num("core.merge_stall_us_per_msg",
               both("tart_pessimism_wait_seconds_total") * 1e6 / msgs);
    layers.num("core.merge_stalls_per_msg",
               both("tart_pessimism_events_total") / msgs);
    layers.num("core.probes_per_msg", both("tart_probes_sent_total") / msgs);
    layers.num("core.dup_discard_frac",
               both("tart_duplicates_discarded_total") /
                   std::max(1.0, both("tart_messages_processed_total")));
    layers.num("gateway.ack_server_us",
               prom_quantile(l1.metrics, "tart_gw_ack_latency_seconds",
                             "0.5") * 1e6);
    layers.num("gateway.parse_us", both_span("gw.parse"));
    layers.num("gateway.commit_batch", batches > 0 ? records / batches : 0.0);
    layers.num("log.commit_us", both_span("gw.group_commit"));
    layers.num("log.flushes_per_msg",
               delta(l0.metrics, l1.metrics, "tart_store_flushes_total") /
                   msgs);
    layers.num("log.bytes_per_msg",
               (prom_value(l1.metrics, "tart_log_disk_bytes") -
                prom_value(l0.metrics, "tart_log_disk_bytes")) /
                   msgs);
    layers.num("net.frames_per_msg",
               both("tart_net_frames_out_total") / msgs);
    layers.num("net.bytes_per_msg", counter_bytes("net.envelope_out") / msgs);
    layers.num("net.encode_us", both_span("net.send_flush"));
    layers.num("net.decode_us", both_span("net.decode"));
    layers.num("net.loop_busy_pct_left", loop_pct(l0, l1));
    layers.num("net.loop_busy_pct_right", loop_pct(r0, r1));
    layers.num("serde.bytes_per_msg", counter_bytes("serde.archive") / msgs);
    out.obj("layers", layers);

    std::ofstream spans(args.scratch + "/fanin-2node.spans.tsv");
    spans << "wire\tseq\tdue_ns\tcall_start_ns\tack_ns\tstatus\toutput_ns\n";
    for (int s = 0; s < 2; ++s) {
      std::uint64_t seq = 0;
      for (const auto& p : posts[static_cast<std::size_t>(s)]) {
        const auto it = seen.find({s, seq});
        spans << inputs[static_cast<std::size_t>(s)] << '\t' << seq << '\t'
              << p.due << '\t' << p.start << '\t' << p.ack << '\t'
              << p.status << '\t' << (it == seen.end() ? 0 : it->second)
              << '\n';
        if (p.status == 200) ++seq;
      }
    }
  }
}

// --- restart-replay --------------------------------------------------------
//
// A forked ingester runs wordcount senders=2 in durable mode, takes one
// durable checkpoint halfway through the log, settles, and is SIGKILLed.
// Each cycle restarts from a pristine copy of that directory: construct
// (restore + log scan), start, ReplayDriver::catch_up, then one fresh input
// pair whose ack and output time the restart from the outside.

struct ReplayApp {
  tart::net::BuiltTopology built;
  std::map<tart::ComponentId, EngineId> placement;
  WireId in1, in2, out;
  tart::ComponentId merger;

  ReplayApp() : built(tart::net::build_topology("wordcount", {})) {
    placement[built.components.at("sender1")] = EngineId(0);
    placement[built.components.at("sender2")] = EngineId(0);
    placement[built.components.at("merger")] = EngineId(1);
    in1 = built.inputs.at("sender1");
    in2 = built.inputs.at("sender2");
    out = built.outputs.at("total");
    merger = built.components.at("merger");
  }
};

/// Durable mode with the one forced checkpoint only: periodic soft
/// checkpoints (checkpoint.every_n_messages) cost more per message the
/// longer the history, which at this log length would swamp the replay
/// being measured (see README.md, "Noise and traps").
tart::core::RuntimeConfig replay_config(const std::string& dir) {
  tart::core::RuntimeConfig config;
  if (!dir.empty()) {
    config.log_dir = dir;
    config.durability.enabled = true;
  }
  return config;
}

std::int64_t replay_vt(int sender, std::int64_t i) {
  return 1000 + i * 100000 + (sender == 0 ? 0 : 500);
}

/// Ingests `per_sender` records per sender, group-committed in batches of
/// 1000 (one log flush each); the durable checkpoint covers the first half.
void ingest(tart::core::Runtime& rt, const ReplayApp& app,
            std::uint64_t seed, std::int64_t per_sender, bool checkpoint) {
  SentenceGen g1(seed * 2), g2(seed * 2 + 1);
  std::vector<tart::core::InjectRequest> batch;
  const auto commit = [&] {
    for (const auto& r : rt.try_inject_batch(batch))
      if (r.status != tart::core::InjectStatus::kOk)
        throw std::runtime_error("replay ingest: injection refused");
    batch.clear();
  };
  for (std::int64_t i = 0; i < per_sender; ++i) {
    if (checkpoint && i == per_sender / 2) {
      commit();
      if (!tart::durability::ReplayDriver::catch_up(rt, 60s).caught_up)
        throw std::runtime_error("replay ingest: did not settle");
      if (!rt.checkpoint_manager()->checkpoint_now().ok)
        throw std::runtime_error("replay ingest: checkpoint failed");
    }
    batch.push_back({app.in1, replay_vt(0, i), apps::sentence(g1.next())});
    batch.push_back({app.in2, replay_vt(1, i), apps::sentence(g2.next())});
    if (batch.size() >= 1000) commit();
  }
  commit();
}

void run_restart_replay(const Args& args, Json& out) {
  const std::int64_t per_sender = args.smoke ? 2000 : 100000;
  const std::string tmpl = args.scratch + "/replay-template";
  const std::string marker = args.scratch + "/replay-template.done";
  fs::create_directories(tmpl);
  fs::remove(marker);
  Tally tally;

  // Template: the ingester is forked before this process starts a thread,
  // ingests, checkpoints halfway, settles, and is SIGKILLed mid-pause.
  const pid_t ingester = fork_into_group();
  if (ingester == 0) {
    try {
      ReplayApp app;
      tart::core::Runtime rt(app.built.topology, app.placement,
                             replay_config(tmpl));
      rt.start();
      ingest(rt, app, args.seed, per_sender, /*checkpoint=*/true);
      if (!tart::durability::ReplayDriver::catch_up(rt, 60s).caught_up)
        _exit(3);
      std::ofstream(marker) << "ingested\n";
      for (;;) std::this_thread::sleep_for(1s);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench-workload: %s\n", e.what());
      _exit(3);
    }
  }
  const auto ingest_deadline = Clock::now() + 60s;
  while (!fs::exists(marker)) {
    if (Clock::now() > ingest_deadline ||
        waitpid(ingester, nullptr, WNOHANG) == ingester)
      throw std::runtime_error("replay template ingester failed");
    std::this_thread::sleep_for(2ms);
  }
  reap(ingester, 0ms);  // SIGKILL: a fail-stop crash, no destructors

  // Reference: the same inputs through a runtime that never restarts.
  ReplayApp app;
  std::uint64_t want_fp = 0;
  {
    tart::core::Runtime ref(app.built.topology, app.placement,
                            replay_config(""));
    ref.start();
    ingest(ref, app, args.seed, per_sender, /*checkpoint=*/false);
    if (!tart::durability::ReplayDriver::catch_up(ref, 60s).caught_up)
      throw std::runtime_error("reference run did not settle");
    want_fp = ref.state_fingerprint(app.merger);
    ref.stop();
  }

  const std::uint64_t want_covered = static_cast<std::uint64_t>(per_sender);
  const std::uint64_t want_suffix = static_cast<std::uint64_t>(per_sender);
  std::vector<double> setup_s, restore_ms, catch_up_ms, rate, ack_us, lat_us;
  std::vector<double> cpu_us;
  std::uint64_t log_bytes = 0, covered = 0, suffix = 0;
  std::uint64_t dups = 0, processed = 0, stalls = 0, probes = 0;
  std::uint64_t pessimism_ns = 0;
  Usage use;
  std::uint64_t replayed = 0;
  const auto prof0 = prof_totals();
  const std::string dir = args.scratch + "/replay-cycle";
  const auto run_deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  const int min_cycles = args.smoke ? 2 : 5;
  int cycles = 0;
  while (cycles < min_cycles || (now_ns() < run_deadline && !args.smoke)) {
    ++cycles;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::copy(tmpl, dir, fs::copy_options::recursive);

    std::mutex cb_mu;
    std::vector<std::pair<std::int64_t, std::int64_t>> fresh;  // vt, seen
    const auto u0 = usage_of(RUSAGE_SELF);
    const auto t0 = now_ns();
    tart::core::Runtime rt(app.built.topology, app.placement,
                           replay_config(dir));
    const auto t_built = now_ns();
    rt.subscribe(app.out, [&](VirtualTime vt, const tart::Payload&, bool) {
      const auto t = now_ns();
      const std::lock_guard<std::mutex> lk(cb_mu);
      fresh.emplace_back(vt.ticks(), t);
    });
    rt.start();
    const auto t_started = now_ns();
    const auto stats = tart::durability::ReplayDriver::catch_up(rt, 60s);
    const auto t_caught = now_ns();
    const auto u1 = usage_of(RUSAGE_SELF);

    // One fresh input per wire, past the log: when is the first acked,
    // and when is its output visible?
    const std::int64_t vt1 = replay_vt(0, per_sender);
    const auto r1 =
        rt.try_inject_at(app.in1, VirtualTime(vt1), tart::Payload(
            std::vector<std::string>{"fresh"}));
    const auto t_ack = now_ns();
    const auto r2 = rt.try_inject_at(
        app.in2, VirtualTime(replay_vt(1, per_sender)),
        tart::Payload(std::vector<std::string>{"fresh"}));
    std::int64_t t_out = 0;
    const auto out_deadline = now_ns() + 10'000'000'000;
    while (t_out == 0 && now_ns() < out_deadline) {
      {
        const std::lock_guard<std::mutex> lk(cb_mu);
        for (const auto& [vt, t] : fresh)
          if (vt >= vt1) t_out = t;
      }
      if (t_out == 0) std::this_thread::sleep_for(20us);
    }

    const auto& info = rt.recovery_info();
    const std::uint64_t fp = stats.caught_up ? rt.state_fingerprint(app.merger)
                                             : 0;
    const auto m = rt.total_metrics();
    log_bytes = rt.log_bytes_on_disk();
    rt.stop();

    ++tally.attempted;
    std::string bad;
    if (!stats.caught_up) bad += " catch_up timed out;";
    if (!info.from_checkpoint) bad += " did not restore a checkpoint;";
    if (info.covered_records != want_covered ||
        info.suffix_records != want_suffix)
      bad += " covered/suffix " + std::to_string(info.covered_records) + "/" +
             std::to_string(info.suffix_records) + " != " +
             std::to_string(want_covered) + "/" + std::to_string(want_suffix) +
             ";";
    if (fp != want_fp)
      bad += " merger state differs from a never-restarted run;";
    if (r1.status != tart::core::InjectStatus::kOk ||
        r2.status != tart::core::InjectStatus::kOk)
      bad += " fresh input refused;";
    if (t_out == 0) bad += " fresh output never seen;";
    if (!bad.empty()) {
      ++tally.failed;
      tally.error("cycle " + std::to_string(cycles) + ":" + bad);
      continue;
    }
    covered = info.covered_records;
    suffix = info.suffix_records;
    setup_s.push_back(static_cast<double>(t_started - t0) / 1e9);
    restore_ms.push_back(static_cast<double>(t_built - t0) / 1e6);
    catch_up_ms.push_back(static_cast<double>(t_caught - t_started) / 1e6);
    rate.push_back(static_cast<double>(suffix) /
                   (static_cast<double>(t_caught - t_started) / 1e9));
    ack_us.push_back(us_between(t0, t_ack));
    lat_us.push_back(us_between(t0, t_out));
    use = use + (u1 - u0);
    cpu_us.push_back((u1 - u0).cpu_s * 1e6 / static_cast<double>(suffix));
    replayed += suffix;
    dups += m.duplicates_discarded;
    processed += m.messages_processed;
    stalls += m.pessimism_events;
    probes += m.probes_sent;
    pessimism_ns += m.pessimism_wait_ns;
  }
  const auto prof1 = prof_totals();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::remove_all(tmpl, ec);

  out.str("workload", "restart-replay");
  tally.fill(out);
  out.num("cycles", cycles);
  out.arr("setup_s", setup_s);
  out.arr("lat_us", lat_us);
  out.arr("ack_us", ack_us);
  out.arr("throughput", rate);
  out.arr("cpu_us", cpu_us);
  out.num("peak_rss_kb", static_cast<double>(peak_rss_kb("self")));
  if (args.trace) {
    const auto dispatch = prof_delta(prof0, prof1, "runner.dispatch");
    const auto serde = prof_delta(prof0, prof1, "serde.archive");
    const double msgs =
        static_cast<double>(std::max<std::uint64_t>(1, replayed));
    Json layers;
    layers.arr("durability.restore_ms", restore_ms);
    layers.arr("durability.catch_up_ms", catch_up_ms);
    layers.num("core.dispatch_us",
               dispatch.count ? static_cast<double>(dispatch.total) / 1e3 /
                                    static_cast<double>(dispatch.count)
                              : 0.0);
    layers.num("core.dispatches_per_msg",
               static_cast<double>(dispatch.count) / msgs);
    layers.num("core.ctx_switches_per_msg",
               static_cast<double>(use.ctx_switches) / msgs);
    layers.num("core.dup_discard_frac",
               processed ? static_cast<double>(dups) /
                               static_cast<double>(processed)
                         : 0.0);
    layers.num("core.merge_stall_us_per_msg",
               static_cast<double>(pessimism_ns) / 1e3 / msgs);
    layers.num("core.merge_stalls_per_msg", static_cast<double>(stalls) / msgs);
    layers.num("core.probes_per_msg", static_cast<double>(probes) / msgs);
    layers.num("durability.covered_records", static_cast<double>(covered));
    layers.num("durability.suffix_records", static_cast<double>(suffix));
    layers.num("log.bytes_per_msg",
               static_cast<double>(log_bytes) /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, covered + suffix)));
    layers.num("serde.bytes_per_msg", static_cast<double>(serde.total) / msgs);
    out.obj("layers", layers);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench-workload WORKLOAD --seed N "
                         "--seconds S --trace 0|1 --scratch DIR --out FILE "
                         "[--node-bin PATH] [--smoke]\n");
    return 2;
  }
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--seed") args.seed = std::stoull(value());
      else if (a == "--seconds") args.seconds = std::stod(value());
      else if (a == "--trace") args.trace = value() == "1";
      else if (a == "--scratch") args.scratch = value();
      else if (a == "--out") args.out = value();
      else if (a == "--node-bin") args.node_bin = value();
      else if (a == "--smoke") args.smoke = true;
      else throw std::runtime_error("unknown argument " + a);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench-workload: %s\n", e.what());
      return 2;
    }
  }
  if (args.scratch.empty() || args.out.empty()) {
    std::fprintf(stderr, "perfbench-workload: --scratch and --out required\n");
    return 2;
  }
  tart::set_log_level(tart::LogLevel::kError);
  std::signal(SIGINT, on_fatal_signal);
  std::signal(SIGTERM, on_fatal_signal);
  std::signal(SIGALRM, on_fatal_signal);
  alarm(static_cast<unsigned>(args.seconds) + 55);  // run watchdog

  Json out;
  int rc = 0;
  try {
    fs::create_directories(args.scratch);
    if (args.workload == "chain-hop") {
      run_chain_hop(args, out);
    } else if (args.workload == "fanin-2node") {
      run_fanin_2node(args, out);
    } else if (args.workload == "restart-replay") {
      run_restart_replay(args, out);
    } else {
      throw std::runtime_error("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench-workload: %s\n", e.what());
    rc = 1;
  }
  kill_children();
  if (rc != 0) return rc;
  std::ofstream f(args.out);
  f << out.dump() << "\n";
  return f.good() ? 0 : 1;
}
