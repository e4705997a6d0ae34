// Unified telemetry registry: named counters / gauges / histograms with
// low-cardinality labels (component, wire, sender).
//
// Design constraints, in order:
//
//   1. Lock-free hot path. Instrumented code holds a handle (Counter&,
//      Histogram&) obtained once at construction; every inc()/record() is
//      a relaxed atomic op on a stable cell — no lookup, no lock, no
//      allocation. The registry mutex is taken only at registration and
//      when an observer snapshots.
//   2. Deterministic non-interference. The registry only *observes* wall
//      time and counts; nothing in the deterministic protocol (virtual
//      times, scheduling decisions) ever reads it. Two seeded runs with
//      telemetry on or off produce byte-identical flight-recorder traces
//      (tests/trace_determinism_test.cc holds this line).
//   3. One counting path. The per-component scheduler counters that used
//      to live in ad-hoc atomics (core::RunnerMetrics) are registry cells
//      now; MetricsSnapshot is derived *from* the registry, never
//      maintained beside it.
//
// Naming follows Prometheus conventions (docs/OBSERVABILITY.md): `tart_`
// prefix, `_total` on counters, `_seconds` base units. Cells registered in
// other units carry an exposition scale (e.g. nanosecond counters expose
// as seconds).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "stats/histogram.h"

namespace tart::serde {
class Writer;
class Reader;
}  // namespace tart::serde

namespace tart::obs {

struct Label {
  std::string key;
  std::string value;

  auto operator<=>(const Label&) const = default;
};
/// Sorted by key at registration; order-insensitive lookup.
using Labels = std::vector<Label>;

enum class Kind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

/// Monotone (except for checkpoint restore, see set()) 64-bit counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Checkpoint restore only: a recovered component resumes its count from
  /// the restored snapshot instead of re-counting replayed work.
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  /// Raise-to-maximum (high-water marks).
  void max_with(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// One exemplar: a concrete observation annotated with the stall episode
/// it came from, so a fat histogram bucket links back to the flight
/// recorder's kStallResolved/kStallBlame records for that episode
/// (`tart-trace explain --episode`).
struct Exemplar {
  double value = 0;           ///< Observed value, base units.
  std::uint64_t episode = 0;  ///< Per-component stall episode id.
  std::uint32_t component = 0;
  std::uint32_t wire = 0;

  bool operator==(const Exemplar&) const = default;
};

/// An exemplar as read out of a histogram snapshot: the ring entry plus
/// the bucket it landed in.
struct BucketExemplar {
  std::uint32_t bucket = 0;
  Exemplar ex;

  bool operator==(const BucketExemplar&) const = default;
};

/// Lock-free fixed-bucket histogram cell. record() is wait-free per bucket
/// (relaxed fetch_add) plus a CAS loop for the max; snapshot() produces a
/// stats::Histogram for percentile math, merging, and serde.
class Histogram {
 public:
  Histogram(double width, std::size_t num_buckets);

  void record(double x);
  /// Bulk form: `n` observations of value `x` in one update per field —
  /// lets the profiler harvest fold a whole log2 bucket's worth of spans
  /// into the registry histogram without an O(events) loop.
  void record_n(double x, std::uint64_t n);
  /// record() plus stash the exemplar in the target bucket's ring (newest
  /// evicts oldest). No-op attachment unless enable_exemplars was called.
  /// Cold path only (stall release, not per-message); relaxed atomics, so
  /// a reader racing a writer may observe a torn exemplar — observational
  /// data, never fed back into scheduling.
  void record(double x, const Exemplar& ex);

  /// Opt in to exemplar capture with a per-bucket ring of `ring_capacity`
  /// slots. Idempotent (first capacity wins); safe to race with record().
  void enable_exemplars(std::uint32_t ring_capacity);
  [[nodiscard]] bool exemplars_enabled() const {
    return ex_capacity_.load(std::memory_order_acquire) != 0;
  }
  /// Occupied exemplar slots, bucket-ordered (oldest-first within a ring).
  [[nodiscard]] std::vector<BucketExemplar> exemplars() const;

  [[nodiscard]] double bucket_width() const { return width_; }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Relaxed snapshot: buckets read while writers run may be off by the
  /// in-flight few — observational, never used for scheduling.
  [[nodiscard]] stats::Histogram snapshot() const;

 private:
  /// All-atomic so record() and exemplars() never lock.
  struct ExemplarSlot {
    std::atomic<bool> used{false};
    std::atomic<double> value{0};
    std::atomic<std::uint64_t> episode{0};
    std::atomic<std::uint32_t> component{0};
    std::atomic<std::uint32_t> wire{0};
  };

  [[nodiscard]] std::size_t bucket_index(double x) const;

  double width_;
  std::size_t size_;  // buckets incl. overflow
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
  // Exemplar rings: size_ * capacity slots, one write cursor per bucket.
  // capacity is published last (release) so racing record()s see fully
  // constructed arrays.
  std::atomic<std::uint32_t> ex_capacity_{0};
  std::unique_ptr<ExemplarSlot[]> ex_slots_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> ex_cursor_;
  std::mutex ex_enable_mu_;
};

/// One plain-value sample, as read out of the registry (and as shipped in
/// the GET /obs report, obs/node_report.h).
struct Sample {
  std::string name;
  std::string help;
  Kind kind = Kind::kCounter;
  /// Multiplier applied at exposition (e.g. 1e-9 for ns-unit counters
  /// exposed under a `_seconds_total` name). Raw values stay integral so
  /// cross-node aggregation is exact.
  double scale = 1.0;
  Labels labels;
  std::uint64_t counter_value = 0;
  std::int64_t gauge_value = 0;
  std::optional<stats::Histogram> hist;
  /// Histogram exemplars (empty unless the cell opted in). Travel with the
  /// sample through serde and cross-node merges.
  std::vector<BucketExemplar> exemplars;
};

/// Process-local metric registry. One per core::Runtime (NOT a global:
/// tests run several runtimes in one process and their components share
/// names). Find-or-create semantics: re-registering the same name+labels
/// returns the existing cell — a recovered component re-attaches to its
/// counters, so counts survive engine crash/recover the way the trace
/// streams do.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Throws std::logic_error if the name+labels is already
  /// registered as a different kind.
  Counter& counter(const std::string& name, const std::string& help,
                   Labels labels = {}, double scale = 1.0);
  Gauge& gauge(const std::string& name, const std::string& help,
               Labels labels = {});
  /// Width/bucket shape is fixed by the first registration; later calls
  /// with a different shape return the existing cell.
  Histogram& histogram(const std::string& name, const std::string& help,
                       Labels labels, double width, std::size_t num_buckets);

  /// Plain-value readout, sorted by (name, labels) so exposition and serde
  /// are deterministic given the same registration set.
  [[nodiscard]] std::vector<Sample> samples() const;

 private:
  struct Cell {
    std::string name;
    std::string help;
    Kind kind;
    double scale = 1.0;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> hist;
  };

  [[nodiscard]] Cell* find_locked(const std::string& name,
                                  const Labels& labels);

  mutable std::mutex mu_;
  /// unique_ptr cells: handle addresses stay stable across vector growth.
  std::vector<std::unique_ptr<Cell>> cells_;
};

/// Serde for a sample set (part of the GET /obs report). Deterministic byte
/// encoding given the same samples.
void encode_samples(serde::Writer& w, const std::vector<Sample>& samples);
[[nodiscard]] std::vector<Sample> decode_samples(serde::Reader& r);

/// Aggregates samples across nodes by (name, labels): counters sum, gauges
/// take the max (high-water semantics), histograms merge bucketwise
/// (bound-mismatched histograms keep the first seen — see
/// stats::Histogram::merge). Used by tart-obs.
[[nodiscard]] std::vector<Sample> merge_samples(
    std::vector<std::vector<Sample>> per_node);

}  // namespace tart::obs
