// Hot-path span profiler: accounting math, cross-thread merge, registry
// harvest, byte counters on a round-tripped envelope, and the macros.
#include "obs/prof.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/registry.h"
#include "serde/archive.h"
#include "wire/payload.h"

namespace prof = tart::obs::prof;

namespace {

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::set_enabled(true);
    prof::reset_for_tests();
  }
  void TearDown() override {
    prof::set_enabled(true);
    prof::reset_for_tests();
  }

  static const prof::SiteStats* find(const prof::Snapshot& snap,
                                     const std::string& name) {
    for (const auto& s : snap.sites)
      if (s.name == name) return &s;
    return nullptr;
  }
};

TEST_F(ProfTest, RegisterIsFindOrCreate) {
  const prof::SiteId a = prof::register_span("prof_test.site_a");
  const prof::SiteId b = prof::register_span("prof_test.site_a");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, prof::kInvalidSite);
  EXPECT_NE(a, prof::register_span("prof_test.site_b"));
}

TEST_F(ProfTest, SpanAccountingMath) {
  const prof::SiteId site = prof::register_span("prof_test.math");
  prof::record_span_ns(site, 100);
  prof::record_span_ns(site, 300);
  prof::record_span_ns(site, 50);

  const auto snap = prof::snapshot();
  const auto* s = find(snap, "prof_test.math");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, prof::SiteKind::kSpan);
  EXPECT_EQ(s->count, 3u);
  EXPECT_EQ(s->total, 450u);
  EXPECT_EQ(s->max, 300u);
  // log2 buckets: 100ns -> [64,128) = bucket 7+1; spot-check the sum.
  std::uint64_t bucketed = 0;
  for (const auto c : s->log2) bucketed += c;
  EXPECT_EQ(bucketed, 3u);
  // All three samples sit in [50, 300], so any percentile estimate must.
  EXPECT_GE(s->percentile_ns(99.0), 32.0);
  EXPECT_LE(s->percentile_ns(99.0), 512.0);
  EXPECT_LE(s->percentile_ns(50.0), s->percentile_ns(99.0));
}

TEST_F(ProfTest, SpanTimerMeasuresScope) {
  const prof::SiteId site = prof::register_span("prof_test.timer");
  { const prof::SpanTimer t(site); }
  const auto snap = prof::snapshot();
  const auto* s = find(snap, "prof_test.timer");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 1u);
}

TEST_F(ProfTest, DisabledRecordsNothing) {
  const prof::SiteId site = prof::register_span("prof_test.disabled");
  prof::set_enabled(false);
  prof::record_span_ns(site, 1000);
  prof::add(site, 1, 1);
  { const prof::SpanTimer t(site); }
  prof::set_enabled(true);
  const auto snap = prof::snapshot();
  const auto* s = find(snap, "prof_test.disabled");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 0u);
  EXPECT_EQ(s->total, 0u);
}

TEST_F(ProfTest, ThreadLocalBlocksMergeAcrossThreadsAndRetirement) {
  const prof::SiteId site = prof::register_span("prof_test.threads");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([site] {
      for (int i = 0; i < kPerThread; ++i) prof::record_span_ns(site, 10);
    });
  }
  // Join half before snapshotting, half after: the merged totals must be
  // identical whether a thread's block is live or folded into retirement.
  workers[0].join();
  workers[1].join();
  for (int t = 2; t < kThreads; ++t) workers[t].join();

  const auto snap = prof::snapshot();
  const auto* s = find(snap, "prof_test.threads");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s->total, static_cast<std::uint64_t>(kThreads) * kPerThread * 10);
  EXPECT_GE(snap.threads, static_cast<std::uint64_t>(kThreads));
}

TEST_F(ProfTest, ByteCountersTrackRoundTrippedEnvelope) {
  const tart::Payload payload(std::string(1024, 'x'));
  tart::serde::Writer w;
  payload.encode(w);
  const std::size_t encoded_size = w.size();
  const std::vector<std::byte> bytes = w.take();  // accounting point

  tart::serde::Reader r(bytes);
  const tart::Payload back = tart::Payload::decode(r);
  EXPECT_EQ(back, payload);

  const auto snap = prof::snapshot();
  const auto* s = find(snap, "serde.archive");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, prof::SiteKind::kBytes);
  EXPECT_GE(s->count, 1u);
  EXPECT_GE(s->total, encoded_size);
}

TEST_F(ProfTest, HarvestIntoRegistrySetsProfCells) {
  const prof::SiteId span = prof::register_span("prof_test.harvest");
  const prof::SiteId bytes = prof::register_bytes("prof_test.copies");
  prof::record_span_ns(span, 2000);
  prof::record_span_ns(span, 2000);
  prof::add(bytes, 3, 4096);

  tart::obs::Registry reg;
  prof::harvest_into(reg);
  std::uint64_t span_calls = 0;
  std::uint64_t copied = 0;
  std::uint64_t hist_count = 0;
  for (const auto& sample : reg.samples()) {
    const auto has_label = [&](const char* k, const char* v) {
      for (const auto& l : sample.labels)
        if (l.key == k && l.value == v) return true;
      return false;
    };
    if (sample.name == "tart_prof_span_calls_total" &&
        has_label("span", "prof_test.harvest"))
      span_calls = sample.counter_value;
    if (sample.name == "tart_prof_copied_bytes_total" &&
        has_label("path", "prof_test.copies"))
      copied = sample.counter_value;
    if (sample.name == "tart_prof_span_seconds" &&
        has_label("span", "prof_test.harvest") && sample.hist)
      hist_count = sample.hist->count();
  }
  EXPECT_EQ(span_calls, 2u);
  EXPECT_EQ(copied, 4096u);
  EXPECT_EQ(hist_count, 2u);

  // Second harvest: absolute counters unchanged, histogram not double-fed.
  prof::harvest_into(reg);
  for (const auto& sample : reg.samples()) {
    if (sample.name == "tart_prof_span_seconds" && sample.hist &&
        !sample.labels.empty() &&
        sample.labels.front().value == "prof_test.harvest") {
      EXPECT_EQ(sample.hist->count(), 2u);
    }
  }
}

TEST_F(ProfTest, RenderJsonIsSelfConsistent) {
  const prof::SiteId site = prof::register_span("prof_test.json");
  prof::record_span_ns(site, 500);
  const std::string json = prof::render_json();
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"prof_test.json\""), std::string::npos);
  EXPECT_NE(json.find("\"uptime_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"saturation\":"), std::string::npos);
}

TEST_F(ProfTest, MacrosCompileAndRecord) {
  {
    TART_PROF_SPAN("prof_test.macro_span");
    TART_PROF_BYTES("prof_test.macro_bytes", 128);
    TART_PROF_COUNT("prof_test.macro_count", 5);
    TART_PROF_SPAN_NS("prof_test.macro_ns", 42);
  }
  const auto snap = prof::snapshot();
  const auto* span = find(snap, "prof_test.macro_span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 1u);
  const auto* by = find(snap, "prof_test.macro_bytes");
  ASSERT_NE(by, nullptr);
  EXPECT_EQ(by->total, 128u);
  const auto* cnt = find(snap, "prof_test.macro_count");
  ASSERT_NE(cnt, nullptr);
  EXPECT_EQ(cnt->count, 5u);
  const auto* ns = find(snap, "prof_test.macro_ns");
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->total, 42u);
}

}  // namespace
