#include "obs/registry.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "serde/archive.h"

namespace tart::obs {

// --- Histogram cell ---------------------------------------------------------

Histogram::Histogram(double width, std::size_t num_buckets)
    : width_(width),
      size_(num_buckets + 1),
      buckets_(new std::atomic<std::uint64_t>[size_]) {
  for (std::size_t i = 0; i < size_; ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
}

std::size_t Histogram::bucket_index(double x) const {
  if (x < 0) x = 0;
  auto idx = static_cast<std::size_t>(x / width_);
  if (idx >= size_ - 1) idx = size_ - 1;
  return idx;
}

void Histogram::record(double x) {
  if (x < 0) x = 0;
  buckets_[bucket_index(x)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
  double cur = max_.load(std::memory_order_relaxed);
  while (x > cur &&
         !max_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void Histogram::record_n(double x, std::uint64_t n) {
  if (n == 0) return;
  if (x < 0) x = 0;
  buckets_[bucket_index(x)].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(x * static_cast<double>(n), std::memory_order_relaxed);
  double cur = max_.load(std::memory_order_relaxed);
  while (x > cur &&
         !max_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void Histogram::record(double x, const Exemplar& ex) {
  record(x);
  const std::uint32_t cap = ex_capacity_.load(std::memory_order_acquire);
  if (cap == 0) return;
  const std::size_t bucket = bucket_index(x);
  // Ring write: the per-bucket cursor only ever grows, so modulo capacity
  // the newest exemplar evicts the oldest. Fields are individually relaxed
  // (a concurrent reader may see a torn mix of two exemplars — benign for
  // observational data; writes are rare, one per stall episode).
  const std::uint32_t pos =
      ex_cursor_[bucket].fetch_add(1, std::memory_order_relaxed) % cap;
  ExemplarSlot& slot = ex_slots_[bucket * cap + pos];
  slot.value.store(ex.value, std::memory_order_relaxed);
  slot.episode.store(ex.episode, std::memory_order_relaxed);
  slot.component.store(ex.component, std::memory_order_relaxed);
  slot.wire.store(ex.wire, std::memory_order_relaxed);
  slot.used.store(true, std::memory_order_release);
}

void Histogram::enable_exemplars(std::uint32_t ring_capacity) {
  if (ring_capacity == 0) return;
  const std::lock_guard<std::mutex> lk(ex_enable_mu_);
  if (ex_capacity_.load(std::memory_order_relaxed) != 0) return;  // first wins
  ex_slots_ = std::make_unique<ExemplarSlot[]>(size_ * ring_capacity);
  ex_cursor_ = std::make_unique<std::atomic<std::uint32_t>[]>(size_);
  for (std::size_t i = 0; i < size_; ++i)
    ex_cursor_[i].store(0, std::memory_order_relaxed);
  ex_capacity_.store(ring_capacity, std::memory_order_release);
}

std::vector<BucketExemplar> Histogram::exemplars() const {
  std::vector<BucketExemplar> out;
  const std::uint32_t cap = ex_capacity_.load(std::memory_order_acquire);
  if (cap == 0) return out;
  for (std::size_t b = 0; b < size_; ++b) {
    const std::uint32_t cursor =
        ex_cursor_[b].load(std::memory_order_relaxed);
    if (cursor == 0) continue;
    // Oldest-first: the ring holds writes [cursor - cap, cursor).
    const std::uint32_t live = cursor < cap ? cursor : cap;
    for (std::uint32_t i = 0; i < live; ++i) {
      const std::uint32_t pos = (cursor - live + i) % cap;
      const ExemplarSlot& slot = ex_slots_[b * cap + pos];
      if (!slot.used.load(std::memory_order_acquire)) continue;
      BucketExemplar be;
      be.bucket = static_cast<std::uint32_t>(b);
      be.ex.value = slot.value.load(std::memory_order_relaxed);
      be.ex.episode = slot.episode.load(std::memory_order_relaxed);
      be.ex.component = slot.component.load(std::memory_order_relaxed);
      be.ex.wire = slot.wire.load(std::memory_order_relaxed);
      out.push_back(be);
    }
  }
  return out;
}

stats::Histogram Histogram::snapshot() const {
  std::vector<std::uint64_t> buckets(size_);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    total += buckets[i];
  }
  // The bucket total is the self-consistent count for this snapshot (the
  // count_ cell may be a few in-flight records ahead or behind).
  return stats::Histogram::from_parts(
      width_, std::move(buckets), total, sum_.load(std::memory_order_relaxed),
      max_.load(std::memory_order_relaxed));
}

// --- Registry ---------------------------------------------------------------

namespace {
Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}
}  // namespace

Registry::Cell* Registry::find_locked(const std::string& name,
                                      const Labels& labels) {
  for (const auto& cell : cells_)
    if (cell->name == name && cell->labels == labels) return cell.get();
  return nullptr;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           Labels labels, double scale) {
  Labels canon = canonical(std::move(labels));
  const std::lock_guard<std::mutex> lk(mu_);
  if (Cell* cell = find_locked(name, canon)) {
    if (cell->kind != Kind::kCounter)
      throw std::logic_error("metric '" + name +
                             "' already registered with another kind");
    return *cell->counter;
  }
  auto cell = std::make_unique<Cell>();
  cell->name = name;
  cell->help = help;
  cell->kind = Kind::kCounter;
  cell->scale = scale;
  cell->labels = std::move(canon);
  cell->counter = std::make_unique<Counter>();
  Counter& out = *cell->counter;
  cells_.push_back(std::move(cell));
  return out;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       Labels labels) {
  Labels canon = canonical(std::move(labels));
  const std::lock_guard<std::mutex> lk(mu_);
  if (Cell* cell = find_locked(name, canon)) {
    if (cell->kind != Kind::kGauge)
      throw std::logic_error("metric '" + name +
                             "' already registered with another kind");
    return *cell->gauge;
  }
  auto cell = std::make_unique<Cell>();
  cell->name = name;
  cell->help = help;
  cell->kind = Kind::kGauge;
  cell->labels = std::move(canon);
  cell->gauge = std::make_unique<Gauge>();
  Gauge& out = *cell->gauge;
  cells_.push_back(std::move(cell));
  return out;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help, Labels labels,
                               double width, std::size_t num_buckets) {
  Labels canon = canonical(std::move(labels));
  const std::lock_guard<std::mutex> lk(mu_);
  if (Cell* cell = find_locked(name, canon)) {
    if (cell->kind != Kind::kHistogram)
      throw std::logic_error("metric '" + name +
                             "' already registered with another kind");
    return *cell->hist;
  }
  auto cell = std::make_unique<Cell>();
  cell->name = name;
  cell->help = help;
  cell->kind = Kind::kHistogram;
  cell->labels = std::move(canon);
  cell->hist = std::make_unique<Histogram>(width, num_buckets);
  Histogram& out = *cell->hist;
  cells_.push_back(std::move(cell));
  return out;
}

std::vector<Sample> Registry::samples() const {
  std::vector<Sample> out;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    out.reserve(cells_.size());
    for (const auto& cell : cells_) {
      Sample s;
      s.name = cell->name;
      s.help = cell->help;
      s.kind = cell->kind;
      s.scale = cell->scale;
      s.labels = cell->labels;
      switch (cell->kind) {
        case Kind::kCounter:
          s.counter_value = cell->counter->value();
          break;
        case Kind::kGauge:
          s.gauge_value = cell->gauge->value();
          break;
        case Kind::kHistogram:
          s.hist = cell->hist->snapshot();
          if (cell->hist->exemplars_enabled())
            s.exemplars = cell->hist->exemplars();
          break;
      }
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  });
  return out;
}

// --- Serde ------------------------------------------------------------------

void encode_samples(serde::Writer& w, const std::vector<Sample>& samples) {
  w.write_varint(samples.size());
  for (const Sample& s : samples) {
    w.write_string(s.name);
    w.write_string(s.help);
    w.write_u8(static_cast<std::uint8_t>(s.kind));
    w.write_double(s.scale);
    w.write_varint(s.labels.size());
    for (const Label& l : s.labels) {
      w.write_string(l.key);
      w.write_string(l.value);
    }
    switch (s.kind) {
      case Kind::kCounter:
        w.write_varint(s.counter_value);
        break;
      case Kind::kGauge:
        w.write_svarint(s.gauge_value);
        break;
      case Kind::kHistogram:
        s.hist.value().encode(w);
        break;
    }
    w.write_varint(s.exemplars.size());
    for (const BucketExemplar& be : s.exemplars) {
      w.write_u32(be.bucket);
      w.write_double(be.ex.value);
      w.write_varint(be.ex.episode);
      w.write_u32(be.ex.component);
      w.write_u32(be.ex.wire);
    }
  }
}

std::vector<Sample> decode_samples(serde::Reader& r) {
  const std::uint64_t n = r.read_count();
  std::vector<Sample> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Sample s;
    s.name = r.read_string();
    s.help = r.read_string();
    const std::uint8_t kind = r.read_u8();
    if (kind > static_cast<std::uint8_t>(Kind::kHistogram))
      throw serde::DecodeError("obs sample: bad kind");
    s.kind = static_cast<Kind>(kind);
    s.scale = r.read_double();
    const std::uint64_t nlabels = r.read_count();
    for (std::uint64_t j = 0; j < nlabels; ++j) {
      Label l;
      l.key = r.read_string();
      l.value = r.read_string();
      s.labels.push_back(std::move(l));
    }
    switch (s.kind) {
      case Kind::kCounter:
        s.counter_value = r.read_varint();
        break;
      case Kind::kGauge:
        s.gauge_value = r.read_svarint();
        break;
      case Kind::kHistogram:
        s.hist = stats::Histogram::decode(r);
        break;
    }
    const std::uint64_t nex = r.read_count();
    s.exemplars.reserve(nex);
    for (std::uint64_t j = 0; j < nex; ++j) {
      BucketExemplar be;
      be.bucket = r.read_u32();
      be.ex.value = r.read_double();
      be.ex.episode = r.read_varint();
      be.ex.component = r.read_u32();
      be.ex.wire = r.read_u32();
      s.exemplars.push_back(be);
    }
    out.push_back(std::move(s));
  }
  return out;
}

// --- Cross-node aggregation -------------------------------------------------

std::vector<Sample> merge_samples(std::vector<std::vector<Sample>> per_node) {
  // Key = name + canonical label string (labels are already sorted).
  std::map<std::pair<std::string, std::string>, Sample> merged;
  for (auto& node : per_node) {
    for (auto& s : node) {
      std::string label_key;
      for (const Label& l : s.labels)
        label_key += l.key + "\x1f" + l.value + "\x1e";
      const auto key = std::make_pair(s.name, std::move(label_key));
      const auto it = merged.find(key);
      if (it == merged.end()) {
        merged.emplace(key, std::move(s));
        continue;
      }
      Sample& dst = it->second;
      if (dst.kind != s.kind) continue;  // disagreeing nodes: keep first
      switch (s.kind) {
        case Kind::kCounter:
          dst.counter_value += s.counter_value;
          break;
        case Kind::kGauge:
          dst.gauge_value = std::max(dst.gauge_value, s.gauge_value);
          break;
        case Kind::kHistogram:
          if (dst.hist && s.hist) (void)dst.hist->merge(*s.hist);
          break;
      }
      // Exemplars accumulate across nodes, bounded so a long-lived
      // aggregator cannot grow without limit.
      constexpr std::size_t kMaxMergedExemplars = 64;
      for (const BucketExemplar& be : s.exemplars) {
        if (dst.exemplars.size() >= kMaxMergedExemplars) break;
        dst.exemplars.push_back(be);
      }
    }
  }
  std::vector<Sample> out;
  out.reserve(merged.size());
  for (auto& [key, s] : merged) out.push_back(std::move(s));
  return out;
}

}  // namespace tart::obs
