#include "obs/prof.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

#include "obs/registry.h"

namespace tart::obs::prof {

namespace {

/// One site's accumulators inside a thread block. Plain relaxed atomics:
/// the owning thread is the only writer, the harvester the only other
/// reader, and observational skew between fields is acceptable.
struct SiteAccum {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total{0};
  std::atomic<std::uint64_t> max{0};
  std::array<std::atomic<std::uint64_t>, kLog2Buckets> log2{};
};

struct ThreadBlock {
  std::array<SiteAccum, kMaxSites> sites;
  ThreadBlock();
  ~ThreadBlock();
};

/// Plain (non-atomic) mirror used for retired threads and merging.
struct PlainAccum {
  std::uint64_t count = 0;
  std::uint64_t total = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kLog2Buckets> log2{};
};

struct Global {
  std::mutex mu;
  // Site table: registration order; names are stable for process life.
  std::array<std::string, kMaxSites> names;
  std::array<SiteKind, kMaxSites> kinds{};
  std::atomic<std::uint32_t> num_sites{0};
  // Live thread blocks plus the folded totals of exited threads.
  std::vector<ThreadBlock*> live;
  std::array<PlainAccum, kMaxSites> retired;
  std::uint64_t threads_ever = 0;
  std::uint64_t epoch_ns = 0;  ///< now_ns() at first touch.
};

std::atomic<bool> g_enabled{true};

/// Leaked on purpose: worker threads may exit after main()'s static
/// destructors have run, and their ThreadBlock destructors touch this.
Global& global() {
  static Global* g = [] {
    auto* made = new Global();
    made->epoch_ns = now_ns();
    return made;
  }();
  return *g;
}

ThreadBlock::ThreadBlock() {
  Global& g = global();
  const std::lock_guard<std::mutex> lk(g.mu);
  g.live.push_back(this);
  ++g.threads_ever;
}

ThreadBlock::~ThreadBlock() {
  Global& g = global();
  const std::lock_guard<std::mutex> lk(g.mu);
  for (std::size_t s = 0; s < kMaxSites; ++s) {
    PlainAccum& dst = g.retired[s];
    const SiteAccum& src = sites[s];
    dst.count += src.count.load(std::memory_order_relaxed);
    dst.total += src.total.load(std::memory_order_relaxed);
    dst.max = std::max(dst.max, src.max.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < kLog2Buckets; ++b)
      dst.log2[b] += src.log2[b].load(std::memory_order_relaxed);
  }
  g.live.erase(std::remove(g.live.begin(), g.live.end(), this), g.live.end());
}

ThreadBlock& this_thread_block() {
  static thread_local ThreadBlock block;
  return block;
}

SiteId register_site(const char* name, SiteKind kind) {
  Global& g = global();
  const std::lock_guard<std::mutex> lk(g.mu);
  const std::uint32_t n = g.num_sites.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < n; ++i)
    if (g.names[i] == name) return i;
  if (n >= kMaxSites) return kInvalidSite;  // table full: site is silent
  g.names[n] = name;
  g.kinds[n] = kind;
  g.num_sites.store(n + 1, std::memory_order_release);
  return n;
}

std::size_t log2_bucket(std::uint64_t ns) {
  std::size_t b = 0;
  while (ns != 0 && b + 1 < kLog2Buckets) {
    ns >>= 1;
    ++b;
  }
  return b;
}

/// Geometric midpoint of a log2 bucket, in ns.
double log2_midpoint_ns(std::size_t bucket) {
  if (bucket == 0) return 0.5;
  return 1.5 * static_cast<double>(1ull << (bucket - 1));
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SiteId register_span(const char* name) {
  return register_site(name, SiteKind::kSpan);
}

SiteId register_bytes(const char* name) {
  return register_site(name, SiteKind::kBytes);
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void record_span_ns(SiteId site, std::uint64_t ns) {
  if (site >= kMaxSites || !enabled()) return;
  SiteAccum& a = this_thread_block().sites[site];
  a.count.fetch_add(1, std::memory_order_relaxed);
  a.total.fetch_add(ns, std::memory_order_relaxed);
  if (ns > a.max.load(std::memory_order_relaxed))
    a.max.store(ns, std::memory_order_relaxed);  // single writer per thread
  a.log2[log2_bucket(ns)].fetch_add(1, std::memory_order_relaxed);
}

void add(SiteId site, std::uint64_t count_delta, std::uint64_t total_delta) {
  if (site >= kMaxSites || !enabled()) return;
  SiteAccum& a = this_thread_block().sites[site];
  a.count.fetch_add(count_delta, std::memory_order_relaxed);
  a.total.fetch_add(total_delta, std::memory_order_relaxed);
}

double SiteStats::percentile_ns(double p) const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : log2) n += c;
  if (n == 0) return 0.0;
  const double rank = (p / 100.0) * static_cast<double>(n);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kLog2Buckets; ++b) {
    seen += log2[b];
    if (static_cast<double>(seen) >= rank) return log2_midpoint_ns(b);
  }
  return log2_midpoint_ns(kLog2Buckets - 1);
}

Snapshot snapshot() {
  Global& g = global();
  const std::lock_guard<std::mutex> lk(g.mu);
  Snapshot snap;
  snap.uptime_ns = now_ns() - g.epoch_ns;
  snap.threads = g.threads_ever;
  const std::uint32_t n = g.num_sites.load(std::memory_order_acquire);
  snap.sites.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    SiteStats st;
    st.name = g.names[s];
    st.kind = g.kinds[s];
    const PlainAccum& r = g.retired[s];
    st.count = r.count;
    st.total = r.total;
    st.max = r.max;
    st.log2 = r.log2;
    for (const ThreadBlock* block : g.live) {
      const SiteAccum& a = block->sites[s];
      st.count += a.count.load(std::memory_order_relaxed);
      st.total += a.total.load(std::memory_order_relaxed);
      st.max = std::max(st.max, a.max.load(std::memory_order_relaxed));
      for (std::size_t b = 0; b < kLog2Buckets; ++b)
        st.log2[b] += a.log2[b].load(std::memory_order_relaxed);
    }
    snap.sites.push_back(std::move(st));
  }
  return snap;
}

// --- Harvest into the registry ----------------------------------------------

namespace {

/// Per-registry harvest memory so the span histograms receive each
/// observation exactly once (deltas between sweeps). Keyed by registry
/// address; never pruned — registries outlive their harvests in production
/// and tests call reset_for_tests().
struct HarvestPrev {
  std::map<std::string, std::array<std::uint64_t, kLog2Buckets>> log2;
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
};

std::mutex g_harvest_mu;
std::map<Registry*, HarvestPrev>& harvest_map() {
  static auto* m = new std::map<Registry*, HarvestPrev>();
  return *m;
}

bool is_loop_work_span(const std::string& name) {
  for (const char* w : detail::kLoopWorkSpans)
    if (name == w) return true;
  return false;
}

}  // namespace

void harvest_into(Registry& registry) {
  const Snapshot snap = snapshot();
  const std::lock_guard<std::mutex> lk(g_harvest_mu);
  HarvestPrev& prev = harvest_map()[&registry];

  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  for (const SiteStats& s : snap.sites) {
    if (s.kind == SiteKind::kSpan) {
      registry
          .counter("tart_prof_span_seconds_total",
                   "Cumulative wall-clock time inside the named hot-path "
                   "span (self-time; spans are disjoint).",
                   {{"span", s.name}}, 1e-9)
          .set(s.total);
      registry
          .counter("tart_prof_span_calls_total",
                   "Entries into the named hot-path span.",
                   {{"span", s.name}})
          .set(s.count);
      // Distribution: deltas since the last sweep, recorded at log2-bucket
      // midpoints (factor-of-two resolution; totals above stay exact).
      Histogram& hist = registry.histogram(
          "tart_prof_span_seconds",
          "Hot-path span durations (log2-resolution observations).",
          {{"span", s.name}}, 200e-6, 500);
      auto& seen = prev.log2[s.name];
      for (std::size_t b = 0; b < kLog2Buckets; ++b) {
        if (s.log2[b] > seen[b])
          hist.record_n(log2_midpoint_ns(b) * 1e-9, s.log2[b] - seen[b]);
        seen[b] = s.log2[b];
      }
      if (s.name == detail::kPollWaitSpan) idle_ns += s.total;
      if (is_loop_work_span(s.name)) busy_ns += s.total;
    } else {
      registry
          .counter("tart_prof_copied_bytes_total",
                   "Bytes copied or allocated on the named wire path.",
                   {{"path", s.name}})
          .set(s.total);
      registry
          .counter("tart_prof_copies_total",
                   "Copy/allocation events on the named wire path.",
                   {{"path", s.name}})
          .set(s.count);
    }
  }

  // Event-loop saturation over the sweep window: share of loop wall time
  // spent working (posted closures, timers, fd dispatch) rather than
  // parked in poll. Aggregated over every EventLoop thread in the process.
  const std::uint64_t d_busy = busy_ns - std::min(busy_ns, prev.busy_ns);
  const std::uint64_t d_idle = idle_ns - std::min(idle_ns, prev.idle_ns);
  prev.busy_ns = busy_ns;
  prev.idle_ns = idle_ns;
  if (d_busy + d_idle > 0) {
    registry
        .gauge("tart_prof_loop_busy_percent",
               "Event-loop saturation: percent of loop time spent working "
               "(not in poll) over the last sweep window.")
        .set(static_cast<std::int64_t>((100 * d_busy) / (d_busy + d_idle)));
  }
  registry
      .gauge("tart_prof_threads",
             "Threads that have recorded into the span profiler.")
      .set(static_cast<std::int64_t>(snap.threads));
}

std::string render_json() {
  const Snapshot snap = snapshot();
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  for (const SiteStats& s : snap.sites) {
    if (s.kind != SiteKind::kSpan) continue;
    if (s.name == detail::kPollWaitSpan) idle_ns += s.total;
    if (is_loop_work_span(s.name)) busy_ns += s.total;
  }
  char buf[64];
  std::string out = "{\"enabled\":";
  out += enabled() ? "true" : "false";
  out += ",\"uptime_ns\":" + std::to_string(snap.uptime_ns);
  out += ",\"threads\":" + std::to_string(snap.threads);
  out += ",\"loop\":{\"busy_ns\":" + std::to_string(busy_ns);
  out += ",\"idle_ns\":" + std::to_string(idle_ns);
  out += ",\"saturation\":";
  const double denom = static_cast<double>(busy_ns + idle_ns);
  std::snprintf(buf, sizeof(buf), "%.6f",
                denom > 0 ? static_cast<double>(busy_ns) / denom : 0.0);
  out += buf;
  out += "},\"spans\":[";
  bool first = true;
  for (const SiteStats& s : snap.sites) {
    if (s.kind != SiteKind::kSpan) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, s.name);
    out += "\",\"count\":" + std::to_string(s.count);
    out += ",\"total_ns\":" + std::to_string(s.total);
    out += ",\"max_ns\":" + std::to_string(s.max);
    std::snprintf(buf, sizeof(buf), "%.0f", s.percentile_ns(50.0));
    out += ",\"p50_ns\":";
    out += buf;
    std::snprintf(buf, sizeof(buf), "%.0f", s.percentile_ns(99.0));
    out += ",\"p99_ns\":";
    out += buf;
    out += '}';
  }
  out += "],\"counters\":[";
  first = true;
  for (const SiteStats& s : snap.sites) {
    if (s.kind != SiteKind::kBytes) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, s.name);
    out += "\",\"events\":" + std::to_string(s.count);
    out += ",\"bytes\":" + std::to_string(s.total);
    out += '}';
  }
  out += "]}";
  return out;
}

void reset_for_tests() {
  Global& g = global();
  const std::lock_guard<std::mutex> lk(g.mu);
  for (std::size_t s = 0; s < kMaxSites; ++s) {
    g.retired[s] = PlainAccum{};
    for (ThreadBlock* block : g.live) {
      SiteAccum& a = block->sites[s];
      a.count.store(0, std::memory_order_relaxed);
      a.total.store(0, std::memory_order_relaxed);
      a.max.store(0, std::memory_order_relaxed);
      for (auto& b : a.log2) b.store(0, std::memory_order_relaxed);
    }
  }
  const std::lock_guard<std::mutex> hlk(g_harvest_mu);
  harvest_map().clear();
}

}  // namespace tart::obs::prof
