// Unit tests for virtual time, strong ids, and the deterministic RNG.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/ids.h"
#include "common/rng.h"
#include "common/virtual_time.h"

namespace tart {
namespace {

// --- VirtualTime / TickDuration ------------------------------------------

TEST(VirtualTimeTest, DefaultIsZero) {
  EXPECT_EQ(VirtualTime().ticks(), 0);
  EXPECT_EQ(VirtualTime::zero(), VirtualTime(0));
}

TEST(VirtualTimeTest, UnitConversions) {
  EXPECT_EQ(TickDuration::micros(1).ticks(), 1000);
  EXPECT_EQ(TickDuration::millis(1).ticks(), 1'000'000);
  EXPECT_EQ(TickDuration::seconds(1).ticks(), 1'000'000'000);
  EXPECT_DOUBLE_EQ(TickDuration::micros(400).to_micros(), 400.0);
}

TEST(VirtualTimeTest, PaperExampleArithmetic) {
  // "messages sent to Merger will have respective virtual times of
  // 50000+3*61000 = 233000, and 80000+2*61000 = 202000"
  const VirtualTime in1(50000);
  const VirtualTime in2(80000);
  const TickDuration per_iter(61000);
  EXPECT_EQ((in1 + per_iter * 3).ticks(), 233000);
  EXPECT_EQ((in2 + per_iter * 2).ticks(), 202000);
  EXPECT_LT(in1 + per_iter * 3, VirtualTime(233001));
  EXPECT_GT(in1 + per_iter * 3, in2 + per_iter * 2);
}

TEST(VirtualTimeTest, OrderingAndMinMax) {
  const VirtualTime a(5), b(9);
  EXPECT_EQ(max(a, b), b);
  EXPECT_EQ(min(a, b), a);
  EXPECT_EQ(max(a, a), a);
}

TEST(VirtualTimeTest, InfinitySaturates) {
  const VirtualTime inf = VirtualTime::infinity();
  EXPECT_TRUE(inf.is_infinite());
  EXPECT_EQ(inf.next(), inf);
  EXPECT_EQ(inf.prev(), inf);
  EXPECT_GT(inf, VirtualTime(1'000'000'000'000));
}

// An idle runner whose non-self wires are all closed offsets its silence
// horizon from an infinite lower bound; the sum must not wrap.
static_assert(!checked_add(VirtualTime::infinity(), TickDuration(10'000)));
static_assert(checked_add(VirtualTime(5), TickDuration(10)) == VirtualTime(15));

TEST(VirtualTimeTest, CheckedAddRefusesOverflow) {
  const VirtualTime inf = VirtualTime::infinity();
  EXPECT_EQ(checked_add(inf, TickDuration(10'000)), std::nullopt);
  EXPECT_EQ(checked_add(inf, TickDuration(0)), inf);
  EXPECT_EQ(checked_add(inf, TickDuration(-1)),
            VirtualTime(inf.ticks() - 1));
  EXPECT_EQ(checked_add(VirtualTime(7), TickDuration::micros(1)),
            VirtualTime(1007));
}

TEST(VirtualTimeTest, PrevNext) {
  EXPECT_EQ(VirtualTime(7).next(), VirtualTime(8));
  EXPECT_EQ(VirtualTime(7).prev(), VirtualTime(6));
  EXPECT_EQ(VirtualTime(-1).next(), VirtualTime(0));
}

TEST(VirtualTimeTest, DurationArithmetic) {
  TickDuration d = TickDuration::micros(60);
  d += TickDuration::micros(40);
  EXPECT_EQ(d, TickDuration::micros(100));
  d -= TickDuration::micros(100);
  EXPECT_EQ(d.ticks(), 0);
  EXPECT_EQ(TickDuration(10) * 3, TickDuration(30));
  EXPECT_EQ(3 * TickDuration(10), TickDuration(30));
}

TEST(VirtualTimeTest, DifferenceOfPoints) {
  EXPECT_EQ(VirtualTime(500) - VirtualTime(200), TickDuration(300));
  EXPECT_EQ(VirtualTime(500) - TickDuration(100), VirtualTime(400));
}

TEST(VirtualTimeTest, Streaming) {
  std::ostringstream os;
  os << VirtualTime(42) << ' ' << VirtualTime::infinity();
  EXPECT_EQ(os.str(), "VT(42) VT(+inf)");
  EXPECT_EQ(to_string(VirtualTime(7)), "7");
  EXPECT_EQ(to_string(VirtualTime::infinity()), "+inf");
}

// --- Strong ids ------------------------------------------------------------

TEST(IdsTest, InvalidByDefault) {
  EXPECT_FALSE(ComponentId().is_valid());
  EXPECT_TRUE(ComponentId(0).is_valid());
  EXPECT_FALSE(WireId::invalid().is_valid());
}

TEST(IdsTest, OrderingIsByValue) {
  EXPECT_LT(WireId(1), WireId(2));
  EXPECT_EQ(WireId(3), WireId(3));
}

TEST(IdsTest, Hashable) {
  std::set<WireId> wires{WireId(1), WireId(2), WireId(1)};
  EXPECT_EQ(wires.size(), 2u);
  const std::hash<WireId> h;
  EXPECT_EQ(h(WireId(9)), h(WireId(9)));
}

// --- RNG ---------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i)
    if (a2.next() != c.next()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.uniform_int(1, 19);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 19);
    saw_lo |= v == 1;
    saw_hi |= v == 19;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMoments) {
  Rng rng(99);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(5);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(1000.0);
  EXPECT_NEAR(sum / n, 1000.0, 15.0);
}

TEST(RngTest, LognormalIsPositiveAndRightSkewed) {
  Rng rng(11);
  double sum = 0;
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.lognormal(0.0, 1.0);
    EXPECT_GT(x, 0.0);
    xs.push_back(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  std::sort(xs.begin(), xs.end());
  const double median = xs[xs.size() / 2];
  EXPECT_GT(mean, median);  // right skew
}

TEST(RngTest, ChanceProbability) {
  Rng rng(3);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(RngTest, ForkIndependentButDeterministic) {
  Rng a(42), b(42);
  Rng fa = a.fork(), fb = b.fork();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(fa.next(), fb.next());
}

TEST(RngTest, BoundedZeroAndOne) {
  Rng rng(1);
  EXPECT_EQ(rng.bounded(0), 0u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.bounded(1), 0u);
}

}  // namespace
}  // namespace tart
