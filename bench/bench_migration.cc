// Live-migration experiment (docs/PLACEMENT.md): what does moving a
// stateful component between engines cost, and how long is the blackout?
//
// Three NetHosts share this process over real loopback sockets — "left"
// (sender1 + sender2), "mid" (empty), "right" (merger) — the same shape
// the migration process tests use. The harness grows sender2's state by
// injecting sentences over an N-word vocabulary, then ping-pongs the
// component left<->mid, reading the coordinator's own measurements:
//
//   - slice bytes + transfer ms: the bulk round, while the component is
//     STILL SERVING on the source (so its duration is rent, not blackout);
//   - blackout ms: seal -> commit-ack, the only window where the
//     component serves nowhere. The claim under test is that blackout
//     stays flat as state grows, because the delta round ships only what
//     arrived during the bulk transfer (here: nothing).
//
// --smoke: one small round trip asserting the migration completes, the
// blackout is bounded, and ownership actually moved (scripts/check.sh).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "apps/wordcount.h"
#include "exp_util.h"
#include "net/host.h"
#include "net/socket.h"

namespace {

using namespace std::chrono_literals;
using tart::ComponentId;
using tart::EngineId;
using tart::Payload;
using tart::VirtualTime;
using tart::net::DeploymentConfig;
using tart::net::HostOptions;
using tart::net::NetHost;
using tart::placement::MigrationResult;

std::string free_addr() {
  std::string err;
  tart::net::Fd fd =
      tart::net::listen_tcp(*tart::net::SockAddr::parse("127.0.0.1:0"), &err);
  return "127.0.0.1:" + std::to_string(tart::net::local_port(fd.get()));
}

std::string make_temp_dir() {
  char tmpl[] = "/tmp/tart_bench_mig_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  return dir == nullptr ? "/tmp" : dir;
}

/// One hosted deployment; hosts run until the struct is destroyed.
struct Cluster {
  DeploymentConfig deploy;
  std::vector<std::unique_ptr<NetHost>> hosts;  // left, mid, right
  std::vector<std::thread> runners;

  explicit Cluster(const std::string& dir) {
    std::string text = "topology = wordcount\nparam senders = 2\n";
    for (const char* n : {"left", "mid", "right"}) {
      text += std::string("partition ") + n + " = " + free_addr() + "\n";
    }
    text +=
        "place sender1 = left\n"
        "place sender2 = left\n"
        "place merger = right\n";
    deploy = DeploymentConfig::parse(text);
    for (const char* n : {"left", "mid", "right"}) {
      HostOptions options;
      options.log_dir = dir + std::string("/") + n;
      std::filesystem::create_directories(options.log_dir);
      options.gauge_interval_ms = 0;
      hosts.push_back(std::make_unique<NetHost>(deploy, n, options));
    }
    for (auto& h : hosts) h->start();
    for (auto& h : hosts)
      runners.emplace_back([host = h.get()] { (void)host->run_until_shutdown(); });
  }

  ~Cluster() {
    for (auto& h : hosts) h->request_shutdown();
    for (auto& t : runners) t.join();
  }

  NetHost& left() { return *hosts[0]; }
  NetHost& mid() { return *hosts[1]; }
  NetHost& right() { return *hosts[2]; }
  EngineId engine(const char* name) const {
    return deploy.find_partition(name)->engine;
  }
};

/// Grows sender2's table to `vocab` distinct words, eight per sentence.
void grow_state(Cluster& c, int vocab) {
  const tart::WireId in = c.left().built().inputs.at("sender2");
  std::int64_t vt = 1000;
  std::vector<std::string> words;
  for (int w = 0; w < vocab; ++w) {
    words.push_back("w" + std::to_string(w));
    if (words.size() == 8 || w + 1 == vocab) {
      c.left().runtime().inject_at(in, VirtualTime(vt), tart::apps::sentence(words));
      words.clear();
      vt += 1000;
    }
  }
  (void)c.left().runtime().drain();
  (void)c.right().runtime().drain();
}

struct CaseResult {
  MigrationResult out;   // left -> mid
  MigrationResult back;  // mid -> left
};

CaseResult run_case(int vocab) {
  const std::string dir = make_temp_dir();
  Cluster c(dir);
  grow_state(c, vocab);
  const ComponentId sender2 = c.left().built().components.at("sender2");
  CaseResult r;
  r.out = c.left().coordinator().migrate(sender2, c.engine("mid"));
  if (r.out.ok) r.back = c.mid().coordinator().migrate(sender2, c.engine("left"));
  std::filesystem::remove_all(dir);
  return r;
}

std::string cell(const MigrationResult& r) {
  if (!r.ok) return "FAILED: " + r.error;
  return tart::bench::fmt("%.1f", r.blackout_ms);
}

int run_smoke() {
  const CaseResult r = run_case(/*vocab=*/64);
  if (!r.out.ok || !r.back.ok) {
    std::fprintf(stderr, "SMOKE FAIL: migration did not complete (%s%s)\n",
                 r.out.error.c_str(), r.back.error.c_str());
    return 1;
  }
  if (r.out.slice_bytes == 0 || r.back.epoch <= r.out.epoch) {
    std::fprintf(stderr, "SMOKE FAIL: slice empty or epoch did not advance\n");
    return 1;
  }
  if (r.out.blackout_ms > 5000 || r.back.blackout_ms > 5000) {
    std::fprintf(stderr, "SMOKE FAIL: blackout exceeded 5s\n");
    return 1;
  }
  std::printf("SMOKE PASS: round trip ok, slice=%llu B, blackout %.1f / %.1f ms\n",
              static_cast<unsigned long long>(r.out.slice_bytes),
              r.out.blackout_ms, r.back.blackout_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();

  tart::bench::banner(
      "Live migration: transfer cost vs. cutover blackout",
      "Strom et al., ICDCS 2009 (migration as recovery, §II.F); "
      "docs/PLACEMENT.md");
  tart::bench::Table table({"vocab words", "slice KiB", "transfer ms",
                            "xfer MiB/s", "blackout ms", "blackout back ms"});
  for (const int vocab : {64, 512, 4096, 16384}) {
    const CaseResult r = run_case(vocab);
    if (!r.out.ok) {
      table.row({std::to_string(vocab), cell(r.out), "-", "-", "-", "-"});
      continue;
    }
    const double kib = static_cast<double>(r.out.slice_bytes) / 1024.0;
    const double mib_s = r.out.transfer_ms > 0
                             ? kib / 1024.0 / (r.out.transfer_ms / 1000.0)
                             : 0.0;
    table.row({std::to_string(vocab), tart::bench::fmt("%.1f", kib),
               tart::bench::fmt("%.1f", r.out.transfer_ms),
               tart::bench::fmt("%.1f", mib_s), cell(r.out), cell(r.back)});
  }
  table.print();
  std::printf(
      "\nReading: slice/transfer grow with state; blackout should stay "
      "flat (delta round ships only what arrived during the bulk round).\n");
  return 0;
}
