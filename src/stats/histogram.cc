#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "serde/archive.h"

namespace tart::stats {

Histogram::Histogram(double width, std::size_t num_buckets)
    : width_(width), buckets_(num_buckets + 1, 0) {}

void Histogram::add(double x) {
  if (x < 0) x = 0;
  auto idx = static_cast<std::size_t>(x / width_);
  if (idx >= buckets_.size() - 1) idx = buckets_.size() - 1;
  ++buckets_[idx];
  ++count_;
  sum_ += x;
  max_seen_ = std::max(max_seen_, x);
}

bool Histogram::merge(const Histogram& other) {
  if (other.width_ != width_ || other.buckets_.size() != buckets_.size())
    return false;
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  max_seen_ = std::max(max_seen_, other.max_seen_);
  return true;
}

void Histogram::encode(serde::Writer& w) const {
  w.write_double(width_);
  w.write_varint(buckets_.size());
  for (const std::uint64_t b : buckets_) w.write_varint(b);
  w.write_varint(count_);
  w.write_double(sum_);
  w.write_double(max_seen_);
}

Histogram Histogram::decode(serde::Reader& r) {
  const double width = r.read_double();
  const std::uint64_t n = r.read_count();
  if (n == 0 || n > (1u << 24))
    throw serde::DecodeError("histogram: bad bucket count");
  std::vector<std::uint64_t> buckets;
  buckets.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) buckets.push_back(r.read_varint());
  const std::uint64_t count = r.read_varint();
  const double sum = r.read_double();
  const double max_seen = r.read_double();
  return from_parts(width, std::move(buckets), count, sum, max_seen);
}

Histogram Histogram::from_parts(double width,
                                std::vector<std::uint64_t> buckets,
                                std::uint64_t count, double sum,
                                double max_seen) {
  Histogram h(width, buckets.empty() ? 1 : buckets.size() - 1);
  h.buckets_ = std::move(buckets);
  if (h.buckets_.empty()) h.buckets_.assign(2, 0);
  h.count_ = count;
  h.sum_ = sum;
  h.max_seen_ = max_seen;
  return h;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t next = cum + buckets_[i];
    if (static_cast<double>(next) >= target) {
      const double inside =
          buckets_[i] == 0
              ? 0.0
              : (target - static_cast<double>(cum)) /
                    static_cast<double>(buckets_[i]);
      if (i == buckets_.size() - 1) return max_seen_;
      return (static_cast<double>(i) + inside) * width_;
    }
    cum = next;
  }
  return max_seen_;
}

std::string Histogram::render(std::size_t max_rows) const {
  std::ostringstream os;
  // Find the densest region to display.
  std::size_t last_nonzero = 0;
  std::uint64_t peak = 1;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] > 0) last_nonzero = i;
    peak = std::max(peak, buckets_[i]);
  }
  const std::size_t rows = std::min(max_rows, last_nonzero + 1);
  const std::size_t group = (last_nonzero + rows) / std::max<std::size_t>(rows, 1);
  for (std::size_t r = 0; r * group <= last_nonzero; ++r) {
    std::uint64_t sum = 0;
    for (std::size_t i = r * group;
         i < std::min((r + 1) * group, buckets_.size()); ++i)
      sum += buckets_[i];
    const auto bar_len = static_cast<std::size_t>(
        40.0 * static_cast<double>(sum) /
        static_cast<double>(peak * std::max<std::size_t>(group, 1)));
    os << "  [" << static_cast<double>(r * group) * width_ << ", "
       << static_cast<double>((r + 1) * group) * width_ << ") "
       << std::string(bar_len, '#') << ' ' << sum << '\n';
  }
  return os.str();
}

}  // namespace tart::stats
