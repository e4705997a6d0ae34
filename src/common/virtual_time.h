// Virtual time: the discretized logical clock that drives deterministic
// scheduling in TART. One tick == one (virtual) nanosecond, matching the
// paper's convention ("In our implementation, a tick is a nanosecond").
//
// Virtual time is intended to approximate real time, but correctness only
// requires that (a) causally later events have later virtual times and
// (b) all virtual-time computations are deterministic.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <optional>
#include <ostream>
#include <string>

namespace tart {

/// A duration measured in virtual ticks (nanoseconds of virtual time).
class TickDuration {
 public:
  constexpr TickDuration() = default;
  constexpr explicit TickDuration(std::int64_t ticks) : ticks_(ticks) {}

  [[nodiscard]] constexpr std::int64_t ticks() const { return ticks_; }

  /// Convenience constructors mirroring common units used in the paper.
  [[nodiscard]] static constexpr TickDuration nanos(std::int64_t n) {
    return TickDuration(n);
  }
  [[nodiscard]] static constexpr TickDuration micros(std::int64_t us) {
    return TickDuration(us * 1000);
  }
  [[nodiscard]] static constexpr TickDuration millis(std::int64_t ms) {
    return TickDuration(ms * 1'000'000);
  }
  [[nodiscard]] static constexpr TickDuration seconds(std::int64_t s) {
    return TickDuration(s * 1'000'000'000);
  }

  [[nodiscard]] constexpr double to_micros() const {
    return static_cast<double>(ticks_) / 1000.0;
  }

  constexpr auto operator<=>(const TickDuration&) const = default;

  constexpr TickDuration& operator+=(TickDuration other) {
    ticks_ += other.ticks_;
    return *this;
  }
  constexpr TickDuration& operator-=(TickDuration other) {
    ticks_ -= other.ticks_;
    return *this;
  }

  friend constexpr TickDuration operator+(TickDuration a, TickDuration b) {
    return TickDuration(a.ticks_ + b.ticks_);
  }
  friend constexpr TickDuration operator-(TickDuration a, TickDuration b) {
    return TickDuration(a.ticks_ - b.ticks_);
  }
  friend constexpr TickDuration operator*(TickDuration a, std::int64_t k) {
    return TickDuration(a.ticks_ * k);
  }
  friend constexpr TickDuration operator*(std::int64_t k, TickDuration a) {
    return TickDuration(a.ticks_ * k);
  }

 private:
  std::int64_t ticks_ = 0;
};

/// A point in virtual time. Totally ordered; arithmetic with TickDuration.
class VirtualTime {
 public:
  constexpr VirtualTime() = default;
  constexpr explicit VirtualTime(std::int64_t ticks) : ticks_(ticks) {}

  [[nodiscard]] constexpr std::int64_t ticks() const { return ticks_; }

  [[nodiscard]] static constexpr VirtualTime zero() { return VirtualTime(0); }
  /// Sentinel: later than any reachable virtual time. Used as the silence
  /// horizon of a closed (finished) wire.
  [[nodiscard]] static constexpr VirtualTime infinity() {
    return VirtualTime(std::numeric_limits<std::int64_t>::max());
  }
  [[nodiscard]] constexpr bool is_infinite() const {
    return ticks_ == std::numeric_limits<std::int64_t>::max();
  }

  constexpr auto operator<=>(const VirtualTime&) const = default;

  friend constexpr VirtualTime operator+(VirtualTime t, TickDuration d) {
    return VirtualTime(t.ticks_ + d.ticks());
  }
  friend constexpr VirtualTime operator-(VirtualTime t, TickDuration d) {
    return VirtualTime(t.ticks_ - d.ticks());
  }
  friend constexpr TickDuration operator-(VirtualTime a, VirtualTime b) {
    return TickDuration(a.ticks_ - b.ticks_);
  }

  VirtualTime& operator+=(TickDuration d) {
    ticks_ += d.ticks();
    return *this;
  }

  /// Predecessor / successor ticks (saturating at infinity).
  [[nodiscard]] constexpr VirtualTime prev() const {
    return is_infinite() ? *this : VirtualTime(ticks_ - 1);
  }
  [[nodiscard]] constexpr VirtualTime next() const {
    return is_infinite() ? *this : VirtualTime(ticks_ + 1);
  }

 private:
  std::int64_t ticks_ = 0;
};

[[nodiscard]] constexpr VirtualTime max(VirtualTime a, VirtualTime b) {
  return a < b ? b : a;
}
[[nodiscard]] constexpr VirtualTime min(VirtualTime a, VirtualTime b) {
  return a < b ? a : b;
}

/// `t + d`, or nullopt when the sum has no tick to name (it would overflow
/// past infinity). A horizon offset from an infinite lower bound lands here.
[[nodiscard]] constexpr std::optional<VirtualTime> checked_add(
    VirtualTime t, TickDuration d) {
  std::int64_t sum = 0;
  if (__builtin_add_overflow(t.ticks(), d.ticks(), &sum)) return std::nullopt;
  return VirtualTime(sum);
}

inline std::ostream& operator<<(std::ostream& os, VirtualTime t) {
  if (t.is_infinite()) return os << "VT(+inf)";
  return os << "VT(" << t.ticks() << ")";
}
inline std::ostream& operator<<(std::ostream& os, TickDuration d) {
  return os << d.ticks() << "t";
}

[[nodiscard]] inline std::string to_string(VirtualTime t) {
  return t.is_infinite() ? "+inf" : std::to_string(t.ticks());
}

}  // namespace tart
