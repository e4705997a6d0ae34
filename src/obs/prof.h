// Always-on hot-path span profiler.
//
// TART_PROF_SPAN("net.decode") drops a scoped wall-clock timer into a hot
// path; TART_PROF_BYTES / TART_PROF_COUNT account memory traffic (copies,
// allocations) on the wire path. Every record is a thread-local relaxed
// atomic update — no lock, no allocation, no branch on shared state — so
// the profiler can stay on in production; set_enabled(false) turns it off.
// A background sweep (NetHost::gauge_sweep) harvests the accumulators into
// `tart_prof_*` registry cells; GET /profile and `tart-obs top` read the
// same snapshot.
//
// Design constraints, in order:
//
//   1. Determinism-neutral. Spans only *read* wall clocks and write
//      observational accumulators; nothing here ever feeds a scheduling
//      decision. Two seeded runs with profiling on or off produce
//      byte-identical flight-recorder traces
//      (tests/trace_determinism_test.cc pins this).
//   2. Fixed memory. Sites are registered once per call site into a fixed
//      table (kMaxSites); each thread owns a flat accumulator block.
//      Registration past the cap is silently ignored (never a crash).
//
// Span durations also feed a per-site log2 histogram (bucket i covers
// [2^(i-1), 2^i) ns), cheap enough for the hot path and good enough for
// the p50/p99 shown by `tart-obs top` and /profile.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace tart::obs {
class Registry;
}  // namespace tart::obs

namespace tart::obs::prof {

using SiteId = std::uint32_t;
inline constexpr SiteId kInvalidSite = 0xFFFFFFFFu;
inline constexpr std::size_t kMaxSites = 64;
/// log2-ns buckets: bucket 0 is [0,1) ns, bucket i is [2^(i-1), 2^i) ns;
/// 40 buckets reach ~9 minutes, far past any span we time.
inline constexpr std::size_t kLog2Buckets = 40;

enum class SiteKind : std::uint8_t { kSpan = 0, kBytes = 1 };

/// Find-or-create a site. Thread-safe; same name returns the same id.
/// Returns kInvalidSite when the table is full (records then no-op).
SiteId register_span(const char* name);
SiteId register_bytes(const char* name);

/// The kill switch: while off, every span and counter is a no-op.
/// Used by the determinism tests to compare on-vs-off traces in one build.
void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Current profiling clock, nanoseconds from an arbitrary epoch.
/// std::chrono::steady_clock.
[[nodiscard]] std::uint64_t now_ns();

/// Record one completed span / one byte-counter delta. Relaxed atomics on
/// the calling thread's accumulator block; wait-free.
void record_span_ns(SiteId site, std::uint64_t ns);
void add(SiteId site, std::uint64_t count_delta, std::uint64_t total_delta);

/// RAII span: stamps now_ns() at construction, records on destruction.
class SpanTimer {
 public:
  explicit SpanTimer(SiteId site)
      : site_(enabled() ? site : kInvalidSite),
        t0_(site_ != kInvalidSite ? now_ns() : 0) {}
  ~SpanTimer() {
    if (site_ != kInvalidSite) record_span_ns(site_, now_ns() - t0_);
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  SiteId site_;
  std::uint64_t t0_;
};

/// Merged per-site totals (all live threads + retired threads).
struct SiteStats {
  std::string name;
  SiteKind kind = SiteKind::kSpan;
  std::uint64_t count = 0;  ///< Span entries / copy events.
  std::uint64_t total = 0;  ///< Nanoseconds (spans) or bytes (counters).
  std::uint64_t max = 0;    ///< Largest single span, ns (spans only).
  std::array<std::uint64_t, kLog2Buckets> log2{};  ///< Spans only.

  /// Percentile (p in [0,100]) from the log2 buckets, in ns. Resolution is
  /// the bucket's geometric midpoint — a factor-of-two estimate, which is
  /// what a live "top" view needs, not what a bench reports.
  [[nodiscard]] double percentile_ns(double p) const;
};

struct Snapshot {
  std::uint64_t uptime_ns = 0;  ///< Since process first touched the profiler.
  std::uint64_t threads = 0;    ///< Accumulator blocks ever registered.
  std::vector<SiteStats> sites;  ///< Registration order.
};

[[nodiscard]] Snapshot snapshot();

/// Writes the snapshot into registry cells (absolute counters; per-window
/// deltas for the span histograms and the loop-saturation gauge). Called
/// from the periodic gauge sweep; safe from any thread.
void harvest_into(Registry& registry);

/// GET /profile body: the full snapshot plus derived loop saturation, as
/// one JSON object (schema in docs/OBSERVABILITY.md).
[[nodiscard]] std::string render_json();

/// Test hook: zero every accumulator and forget harvest windows (site
/// registrations survive — call sites hold their ids). Not thread-safe
/// against concurrent recording; tests only.
void reset_for_tests();

namespace detail {
/// Loop-saturation inputs by convention: these span names, recorded by
/// net::EventLoop, split every loop iteration into waiting vs. working.
inline constexpr const char* kPollWaitSpan = "loop.poll_wait";
inline constexpr const char* kLoopWorkSpans[] = {"loop.posted", "loop.timers",
                                                 "loop.dispatch"};
}  // namespace detail

}  // namespace tart::obs::prof

// --- Macros -----------------------------------------------------------------

#define TART_PROF_INTERNAL_CAT2(a, b) a##b
#define TART_PROF_INTERNAL_CAT(a, b) TART_PROF_INTERNAL_CAT2(a, b)

/// Scoped span: times from here to the end of the enclosing scope.
#define TART_PROF_SPAN(name)                                             \
  static const ::tart::obs::prof::SiteId TART_PROF_INTERNAL_CAT(         \
      tart_prof_site_, __LINE__) = ::tart::obs::prof::register_span(name); \
  const ::tart::obs::prof::SpanTimer TART_PROF_INTERNAL_CAT(             \
      tart_prof_timer_, __LINE__)(                                       \
      TART_PROF_INTERNAL_CAT(tart_prof_site_, __LINE__))

/// Span recorded from an already-measured duration (no extra clock reads).
#define TART_PROF_SPAN_NS(name, ns)                                      \
  do {                                                                   \
    if (::tart::obs::prof::enabled()) {                                  \
      static const ::tart::obs::prof::SiteId tart_prof_site_ =           \
          ::tart::obs::prof::register_span(name);                        \
      ::tart::obs::prof::record_span_ns(                                 \
          tart_prof_site_, static_cast<std::uint64_t>(ns));              \
    }                                                                    \
  } while (0)

/// One copy event of `nbytes` on the named path.
#define TART_PROF_BYTES(name, nbytes)                                    \
  do {                                                                   \
    if (::tart::obs::prof::enabled()) {                                  \
      static const ::tart::obs::prof::SiteId tart_prof_site_ =           \
          ::tart::obs::prof::register_bytes(name);                       \
      ::tart::obs::prof::add(tart_prof_site_, 1,                         \
                             static_cast<std::uint64_t>(nbytes));        \
    }                                                                    \
  } while (0)

/// `n` events with no byte payload (e.g. allocations).
#define TART_PROF_COUNT(name, n)                                         \
  do {                                                                   \
    if (::tart::obs::prof::enabled()) {                                  \
      static const ::tart::obs::prof::SiteId tart_prof_site_ =           \
          ::tart::obs::prof::register_bytes(name);                       \
      ::tart::obs::prof::add(tart_prof_site_,                            \
                             static_cast<std::uint64_t>(n), 0);          \
    }                                                                    \
  } while (0)
