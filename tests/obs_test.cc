// Unit coverage for the telemetry layer: registry cell semantics,
// cross-node sample aggregation, Prometheus exposition + its lint, the
// status JSON, and the X-macro guarantees of core::MetricsSnapshot.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/status.h"
#include "fuzz_util.h"
#include "obs/exposition.h"
#include "obs/node_report.h"
#include "obs/registry.h"
#include "serde/archive.h"

namespace tart::obs {
namespace {

// --- Registry ---------------------------------------------------------------

TEST(Registry, FindOrCreateReturnsTheSameCell) {
  Registry reg;
  Counter& a = reg.counter("tart_x_total", "x", {{"component", "c1"}});
  Counter& b = reg.counter("tart_x_total", "x", {{"component", "c1"}});
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);

  // Different labels = different cell.
  Counter& other = reg.counter("tart_x_total", "x", {{"component", "c2"}});
  EXPECT_NE(&a, &other);
  EXPECT_EQ(other.value(), 0u);
}

TEST(Registry, LabelLookupIsOrderInsensitive) {
  Registry reg;
  Counter& a = reg.counter("tart_x_total", "x",
                           {{"wire", "w1"}, {"component", "c"}});
  Counter& b = reg.counter("tart_x_total", "x",
                           {{"component", "c"}, {"wire", "w1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  (void)reg.counter("tart_x_total", "x");
  EXPECT_THROW((void)reg.gauge("tart_x_total", "x"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("tart_x_total", "x", {}, 1.0, 4),
               std::logic_error);
}

TEST(Registry, SamplesSortedByNameThenLabels) {
  Registry reg;
  reg.counter("tart_b_total", "b").inc();
  reg.counter("tart_a_total", "a", {{"component", "z"}}).inc();
  reg.counter("tart_a_total", "a", {{"component", "k"}}).inc();
  const auto samples = reg.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "tart_a_total");
  EXPECT_EQ(samples[0].labels[0].value, "k");
  EXPECT_EQ(samples[1].name, "tart_a_total");
  EXPECT_EQ(samples[1].labels[0].value, "z");
  EXPECT_EQ(samples[2].name, "tart_b_total");
}

TEST(Registry, HistogramCellSnapshots) {
  Registry reg;
  Histogram& h = reg.histogram("tart_lat_seconds", "lat", {}, 0.5, 4);
  h.record(0.1);
  h.record(0.1);
  h.record(0.7);
  h.record(100.0);  // overflow bucket
  const stats::Histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), 4u);
  EXPECT_DOUBLE_EQ(snap.max_seen(), 100.0);
  EXPECT_NEAR(snap.sum(), 100.9, 1e-9);
  EXPECT_GT(snap.percentile(50), 0.0);
}

TEST(Registry, GaugeMaxWith) {
  Registry reg;
  Gauge& g = reg.gauge("tart_high_water", "hw");
  g.max_with(5);
  g.max_with(3);
  EXPECT_EQ(g.value(), 5);
  g.max_with(9);
  EXPECT_EQ(g.value(), 9);
}

// --- Sample serde + merge ---------------------------------------------------

std::vector<Sample> round_trip(const std::vector<Sample>& in) {
  serde::Writer w;
  encode_samples(w, in);
  const auto bytes = w.take();
  serde::Reader r(bytes);
  return decode_samples(r);
}

TEST(Samples, SerdeRoundTrip) {
  Registry reg;
  reg.counter("tart_c_total", "help c", {{"component", "x"}}, 1e-9).inc(42);
  reg.gauge("tart_g", "help g").set(-7);
  Histogram& h = reg.histogram("tart_h_seconds", "help h", {}, 0.25, 8);
  h.record(0.3);
  h.record(1.9);

  const auto before = reg.samples();
  const auto after = round_trip(before);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].name, before[i].name);
    EXPECT_EQ(after[i].help, before[i].help);
    EXPECT_EQ(after[i].kind, before[i].kind);
    EXPECT_EQ(after[i].scale, before[i].scale);
    EXPECT_EQ(after[i].labels, before[i].labels);
    EXPECT_EQ(after[i].counter_value, before[i].counter_value);
    EXPECT_EQ(after[i].gauge_value, before[i].gauge_value);
    EXPECT_EQ(after[i].hist.has_value(), before[i].hist.has_value());
    if (after[i].hist) {
      EXPECT_EQ(after[i].hist->count(), before[i].hist->count());
      EXPECT_EQ(after[i].hist->buckets(), before[i].hist->buckets());
      EXPECT_DOUBLE_EQ(after[i].hist->sum(), before[i].hist->sum());
      EXPECT_DOUBLE_EQ(after[i].hist->max_seen(),
                       before[i].hist->max_seen());
    }
  }
}

TEST(Samples, MergeAcrossNodes) {
  Registry node_a;
  Registry node_b;
  node_a.counter("tart_c_total", "c", {{"component", "x"}}).inc(2);
  node_b.counter("tart_c_total", "c", {{"component", "x"}}).inc(5);
  node_b.counter("tart_c_total", "c", {{"component", "y"}}).inc(1);
  node_a.gauge("tart_high_water", "hw").set(4);
  node_b.gauge("tart_high_water", "hw").set(9);
  node_a.histogram("tart_h_seconds", "h", {}, 1.0, 4).record(0.5);
  node_b.histogram("tart_h_seconds", "h", {}, 1.0, 4).record(2.5);

  const auto merged = merge_samples({node_a.samples(), node_b.samples()});
  ASSERT_EQ(merged.size(), 4u);  // c{x}, c{y}, high_water, h
  for (const auto& s : merged) {
    if (s.name == "tart_c_total" && !s.labels.empty() &&
        s.labels[0].value == "x") {
      EXPECT_EQ(s.counter_value, 7u);  // counters sum
    } else if (s.name == "tart_c_total") {
      EXPECT_EQ(s.counter_value, 1u);
    } else if (s.name == "tart_high_water") {
      EXPECT_EQ(s.gauge_value, 9);  // gauges take the max
    } else if (s.name == "tart_h_seconds") {
      ASSERT_TRUE(s.hist.has_value());
      EXPECT_EQ(s.hist->count(), 2u);  // histograms merge bucketwise
      EXPECT_DOUBLE_EQ(s.hist->max_seen(), 2.5);
    }
  }
}

TEST(Samples, MergeKeepsFirstOnBucketShapeMismatch) {
  Registry node_a;
  Registry node_b;
  node_a.histogram("tart_h_seconds", "h", {}, 1.0, 4).record(0.5);
  node_b.histogram("tart_h_seconds", "h", {}, 2.0, 4).record(3.5);
  const auto merged = merge_samples({node_a.samples(), node_b.samples()});
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_TRUE(merged[0].hist.has_value());
  // Incompatible scales are never blended: the first wins, untouched.
  EXPECT_EQ(merged[0].hist->count(), 1u);
  EXPECT_DOUBLE_EQ(merged[0].hist->bucket_width(), 1.0);
}

// --- Exemplars --------------------------------------------------------------

TEST(Exemplars, DisabledUnlessEnabled) {
  Registry reg;
  Histogram& h = reg.histogram("tart_h_seconds", "h", {}, 1.0, 4);
  EXPECT_FALSE(h.exemplars_enabled());
  h.record(0.5, Exemplar{0.5, 7, 1, 2});  // attachment is a no-op...
  EXPECT_TRUE(h.exemplars().empty());
  EXPECT_EQ(h.count(), 1u);  // ...but the observation still counts
}

TEST(Exemplars, RingBoundsAndEviction) {
  Registry reg;
  Histogram& h = reg.histogram("tart_h_seconds", "h", {}, 1.0, 4);
  h.enable_exemplars(2);
  h.enable_exemplars(8);  // idempotent: first capacity wins
  ASSERT_TRUE(h.exemplars_enabled());

  // Three exemplars into bucket 0: ring capacity 2, oldest evicted.
  h.record(0.1, Exemplar{0.1, 10, 1, 5});
  h.record(0.2, Exemplar{0.2, 11, 1, 5});
  h.record(0.3, Exemplar{0.3, 12, 1, 5});
  // One into the overflow bucket.
  h.record(99.0, Exemplar{99.0, 13, 1, 6});

  const auto exs = h.exemplars();
  ASSERT_EQ(exs.size(), 3u);
  EXPECT_EQ(exs[0].bucket, 0u);
  EXPECT_EQ(exs[0].ex.episode, 11u);  // oldest-first; episode 10 evicted
  EXPECT_EQ(exs[1].bucket, 0u);
  EXPECT_EQ(exs[1].ex.episode, 12u);
  EXPECT_EQ(exs[2].bucket, 4u);  // overflow bucket
  EXPECT_EQ(exs[2].ex.episode, 13u);
  EXPECT_EQ(exs[2].ex.wire, 6u);
}

TEST(Exemplars, TravelThroughSerdeAndMerge) {
  Registry node_a;
  Registry node_b;
  Histogram& ha = node_a.histogram("tart_h_seconds", "h", {}, 1.0, 4);
  ha.enable_exemplars(4);
  ha.record(0.5, Exemplar{0.5, 1, 10, 20});
  Histogram& hb = node_b.histogram("tart_h_seconds", "h", {}, 1.0, 4);
  hb.enable_exemplars(4);
  hb.record(2.5, Exemplar{2.5, 2, 11, 21});

  const auto round = round_trip(node_a.samples());
  ASSERT_EQ(round.size(), 1u);
  ASSERT_EQ(round[0].exemplars.size(), 1u);
  EXPECT_EQ(round[0].exemplars[0], (BucketExemplar{0, {0.5, 1, 10, 20}}));

  const auto merged = merge_samples({node_a.samples(), node_b.samples()});
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_EQ(merged[0].exemplars.size(), 2u);
  EXPECT_EQ(merged[0].exemplars[0].ex.episode, 1u);
  EXPECT_EQ(merged[0].exemplars[1].ex.episode, 2u);
}

// --- Exposition + lint ------------------------------------------------------

TEST(Exposition, RegistrySeriesRenderWithHelpAndType) {
  Registry reg;
  reg.counter("tart_msgs_total", "Messages.", {{"component", "mapper"}})
      .inc(12);
  reg.histogram("tart_stall_seconds", "Stall.", {{"component", "mapper"}},
                1e-3, 16)
      .record(5e-3);
  const std::string page = render_prometheus_samples(reg.samples());
  EXPECT_NE(page.find("# HELP tart_msgs_total Messages."), std::string::npos);
  EXPECT_NE(page.find("# TYPE tart_msgs_total counter"), std::string::npos);
  EXPECT_NE(page.find("tart_msgs_total{component=\"mapper\"} 12"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("# TYPE tart_stall_seconds summary"),
            std::string::npos);
  EXPECT_NE(
      page.find("tart_stall_seconds{component=\"mapper\",quantile=\"0.5\"}"),
      std::string::npos)
      << page;
  EXPECT_NE(page.find("tart_stall_seconds_count{component=\"mapper\"} 1"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE tart_stall_seconds_max gauge"),
            std::string::npos);
  EXPECT_EQ(lint_exposition(page), std::nullopt) << *lint_exposition(page);
}

TEST(Exposition, SnapshotPageLintsCleanWithRegistry) {
  core::MetricsSnapshot snap;
  snap.messages_processed = 3;
  snap.pessimism_wait_ns = 1'500'000'000;

  // A nanosecond counter carries its ns -> s scale and renders as seconds.
  Registry ns_only;
  ns_only.counter("tart_pessimism_wait_seconds_total", "Pessimism wait", {},
                  1e-9)
      .inc(1'500'000'000);
  const std::string bare = render_prometheus(snap, ns_only);
  EXPECT_EQ(lint_exposition(bare), std::nullopt) << *lint_exposition(bare);
  EXPECT_NE(bare.find("tart_pessimism_wait_seconds_total 1.5"),
            std::string::npos)
      << bare;

  Registry reg;
  reg.counter("tart_messages_processed_total", "Messages",
              {{"component", "m"}})
      .inc(3);
  const std::string page = render_prometheus(snap, reg);
  EXPECT_EQ(lint_exposition(page), std::nullopt) << *lint_exposition(page);
  // With a registry the per-component families come from it, labelled;
  // the unlabelled snapshot rendering must NOT appear beside them.
  EXPECT_NE(page.find("tart_messages_processed_total{component=\"m\"} 3"),
            std::string::npos)
      << page;
  EXPECT_EQ(page.find("tart_messages_processed_total 3"), std::string::npos)
      << page;
}

TEST(ExpositionLint, CatchesConventionViolations) {
  EXPECT_TRUE(lint_exposition("# HELP bad_name x\n# TYPE bad_name counter\n")
                  .has_value());
  EXPECT_TRUE(
      lint_exposition("# HELP tart_x x\n# TYPE tart_x counter\ntart_x 1\n")
          .has_value())
      << "counter family without _total must fail";
  EXPECT_TRUE(lint_exposition("tart_x_total 1\n").has_value())
      << "sample before its TYPE line must fail";
  EXPECT_TRUE(lint_exposition("# TYPE tart_x_total counter\ntart_x_total 1\n")
                  .has_value())
      << "family without HELP must fail";
  EXPECT_TRUE(lint_exposition("# HELP tart_x_total x\n"
                              "# TYPE tart_x_total counter\n"
                              "tart_x_total notanumber\n")
                  .has_value());
  EXPECT_EQ(lint_exposition("# HELP tart_x_total x\n"
                            "# TYPE tart_x_total counter\n"
                            "tart_x_total{component=\"a b\"} 1\n"),
            std::nullopt);
}

TEST(Exposition, ExemplarsRenderOnlyWhenAskedAndLintClean) {
  Registry reg;
  Histogram& h = reg.histogram("tart_stall_seconds", "Stall.",
                               {{"component", "merger"}}, 1e-3, 16);
  h.enable_exemplars(4);
  h.record(2.5e-3, Exemplar{2.5e-3, 42, 3, 7});
  h.record(99.0, Exemplar{99.0, 43, 3, 8});  // overflow -> le="+Inf"

  const std::string plain = render_prometheus_samples(reg.samples());
  EXPECT_EQ(plain.find(" # {"), std::string::npos) << plain;
  EXPECT_EQ(lint_exposition(plain), std::nullopt) << *lint_exposition(plain);

  const std::string page =
      render_prometheus_samples(reg.samples(), /*with_exemplars=*/true);
  EXPECT_NE(page.find("tart_stall_seconds_bucket{component=\"merger\","),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("# {episode=\"42\",component=\"3\",wire=\"7\"} 0.0025"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("le=\"+Inf\""), std::string::npos) << page;
  EXPECT_NE(page.find("episode=\"43\""), std::string::npos) << page;
  EXPECT_EQ(lint_exposition(page), std::nullopt) << *lint_exposition(page);
}

TEST(ExpositionLint, ExemplarSyntax) {
  const std::string framing =
      "# HELP tart_h_seconds h\n"
      "# TYPE tart_h_seconds summary\n";
  // Valid: exemplar suffix on a _bucket sample.
  EXPECT_EQ(lint_exposition(framing +
                            "tart_h_seconds_bucket{le=\"1\"} 1 "
                            "# {episode=\"4\",component=\"1\",wire=\"2\"} "
                            "0.5\n"),
            std::nullopt);
  // Exemplars belong to buckets only.
  EXPECT_TRUE(lint_exposition(framing +
                              "tart_h_seconds_count 1 "
                              "# {episode=\"4\"} 0.5\n")
                  .has_value());
  // Unterminated label set.
  EXPECT_TRUE(lint_exposition(framing +
                              "tart_h_seconds_bucket{le=\"1\"} 1 "
                              "# {episode=\"4\" 0.5\n")
                  .has_value());
  // Missing exemplar value.
  EXPECT_TRUE(lint_exposition(framing +
                              "tart_h_seconds_bucket{le=\"1\"} 1 "
                              "# {episode=\"4\"}\n")
                  .has_value());
}

// --- Status JSON ------------------------------------------------------------

TEST(StatusJson, RendersWavefront) {
  core::StatusReport report;
  core::ComponentStatus c;
  c.id = ComponentId(2);
  c.name = "merger";
  c.vt_ticks = 123;
  c.pending = 4;
  c.held = true;
  c.held_vt = 456;
  c.held_wire = WireId(7);
  core::WireStatus open_wire;
  open_wire.wire = WireId(7);
  open_wire.sender = "mapper";
  open_wire.horizon_ticks = 100;
  open_wire.pending = 4;
  open_wire.blocking = true;
  core::WireStatus closed_wire;
  closed_wire.wire = WireId(8);
  closed_wire.sender = "external";
  closed_wire.horizon_ticks = VirtualTime::infinity().ticks();
  c.inputs = {open_wire, closed_wire};
  report.components.push_back(c);

  const std::string json = render_status_json(report);
  EXPECT_NE(json.find("\"name\":\"merger\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"held\":true"), std::string::npos);
  EXPECT_NE(json.find("\"held_vt\":456"), std::string::npos);
  EXPECT_NE(json.find("\"blocking\":true"), std::string::npos);
  // Infinite horizons render as the string "inf", not a 64-bit literal no
  // JSON parser can hold.
  EXPECT_NE(json.find("\"horizon\":\"inf\""), std::string::npos) << json;
  EXPECT_EQ(json.find("9223372036854775807"), std::string::npos);
}

TEST(StatusJson, RendersPlacementAndMigrations) {
  core::StatusReport report;
  report.placement_epoch = 3;
  report.placement.push_back({1, 2, 3});
  report.migrations.push_back({4, 1, 0, 2, "delta"});
  const std::string json = render_status_json(report);
  EXPECT_NE(json.find("\"placement_epoch\":3,\"placement\":[{\"component\":1,"
                      "\"engine\":2,\"epoch\":3}]"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"migrations\":[{\"epoch\":4,\"component\":1,"
                      "\"from_engine\":0,\"to_engine\":2,"
                      "\"stage\":\"delta\"}]"),
            std::string::npos)
      << json;
}

TEST(NodeReportCodec, RoundTripsEverySection) {
  Registry reg;
  reg.counter("tart_messages_processed_total", "help", {{"component", "m"}})
      .inc(5);
  reg.histogram("tart_pessimism_stall_seconds", "help", {}, 1e-3, 8)
      .record(0.002);
  NodeReport in;
  in.node = "left";
  in.metrics.messages_processed = 42;
  in.metrics.mig_adopted = 1;
  in.samples = reg.samples();
  core::ComponentStatus c;
  c.id = ComponentId(2);
  c.name = "merger";
  c.held = true;
  c.held_vt = -5;
  c.inputs.push_back({WireId(7), "sender1", 100, 3, true});
  in.status.components.push_back(c);
  in.status.placement_epoch = 9;
  in.status.placement.push_back({2, 1, 9});
  in.status.migrations.push_back({9, 2, 0, 1, "adopt"});

  const std::vector<std::byte> bytes = in.encode();
  const NodeReport out = NodeReport::decode(bytes.data(), bytes.size());
  EXPECT_EQ(out.node, "left");
  EXPECT_EQ(out.metrics.messages_processed, 42u);
  EXPECT_EQ(out.metrics.mig_adopted, 1u);
  ASSERT_EQ(out.samples.size(), 2u);
  ASSERT_EQ(out.status.components.size(), 1u);
  EXPECT_EQ(out.status.components[0].name, "merger");
  EXPECT_EQ(out.status.components[0].held_vt, -5);
  ASSERT_EQ(out.status.components[0].inputs.size(), 1u);
  EXPECT_EQ(out.status.components[0].inputs[0].sender, "sender1");
  EXPECT_TRUE(out.status.components[0].inputs[0].blocking);
  EXPECT_EQ(out.status.placement_epoch, 9u);
  ASSERT_EQ(out.status.placement.size(), 1u);
  EXPECT_EQ(out.status.placement[0].engine, 1u);
  ASSERT_EQ(out.status.migrations.size(), 1u);
  EXPECT_EQ(out.status.migrations[0].stage, "adopt");

  // Every truncation and a trailing byte are refused, never misread.
  for (std::size_t n = 0; n < bytes.size(); ++n)
    EXPECT_THROW((void)NodeReport::decode(bytes.data(), n), serde::DecodeError)
        << "prefix " << n;
  std::vector<std::byte> longer = bytes;
  longer.push_back(std::byte{0});
  EXPECT_THROW((void)NodeReport::decode(longer.data(), longer.size()),
               serde::DecodeError);
}

TEST(NodeReportCodec, TruncationsAndMutationsDecodeOrFailTyped) {
  // POST /obs bodies come from other nodes: a forged count (samples,
  // labels, histogram buckets, exemplars) must not buy an allocation the
  // bytes left cannot back.
  Registry reg;
  reg.counter("tart_messages_processed_total", "help", {{"component", "m"}})
      .inc(5);
  Histogram& h = reg.histogram("tart_pessimism_stall_seconds", "help", {},
                               1e-3, 8);
  h.enable_exemplars(4);
  h.record(0.002, Exemplar{0.002, 3, 1, 7});
  h.record(0.02, Exemplar{0.02, 4, 1, 8});
  NodeReport report;
  report.node = "left";
  report.samples = reg.samples();
  core::ComponentStatus c;
  c.id = ComponentId(2);
  c.name = "merger";
  c.inputs.push_back({WireId(7), "sender1", 100, 3, true});
  report.status.components.push_back(c);
  tart::testing::fuzz_decoder<serde::DecodeError>(
      report.encode(), 0x0B5E, [](const std::vector<std::byte>& b) {
        (void)NodeReport::decode(b.data(), b.size());
        return true;
      });
}

TEST(StatusJson, HeldFieldsOmittedWhenNotHeld) {
  core::StatusReport report;
  core::ComponentStatus c;
  c.id = ComponentId(0);
  c.name = "idle";
  report.components.push_back(c);
  const std::string json = render_status_json(report);
  EXPECT_EQ(json.find("held_vt"), std::string::npos) << json;
  EXPECT_NE(json.find("\"held\":false"), std::string::npos);
}

// --- MetricsSnapshot X-macro guarantees -------------------------------------

TEST(MetricsSnapshot, FieldCountMatchesStructSize) {
  // Mirrors the compile-time guard: every field is enumerated exactly once.
  EXPECT_EQ(sizeof(core::MetricsSnapshot),
            core::detail::kMetricsFieldCount * sizeof(std::uint64_t));
}

TEST(MetricsSnapshot, AggregationFollowsDeclaredSemantics) {
  core::MetricsSnapshot a;
  core::MetricsSnapshot b;
  a.messages_processed = 10;
  b.messages_processed = 5;
  a.net_queue_high_water = 3;  // MAX field
  b.net_queue_high_water = 8;
  a.gw_commit_batch_max = 9;  // MAX field
  b.gw_commit_batch_max = 2;
  a += b;
  EXPECT_EQ(a.messages_processed, 15u);   // SUM
  EXPECT_EQ(a.net_queue_high_water, 8u);  // MAX
  EXPECT_EQ(a.gw_commit_batch_max, 9u);   // MAX
}

TEST(MetricsSnapshot, EveryPromNameIsUniqueAndPrefixed) {
  std::vector<std::string> names;
#define TART_OBS_TEST_NAME(field, prom, help, agg, scale) \
  names.push_back(prom);
  TART_METRICS_SCALAR_FIELDS(TART_OBS_TEST_NAME)
#undef TART_OBS_TEST_NAME
  EXPECT_EQ(names.size(), core::detail::kMetricsFieldCount);
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size()) << "duplicate exposition name";
  for (const auto& n : names)
    EXPECT_EQ(n.rfind("tart_", 0), 0u) << n;
}

TEST(RunnerMetrics, CountsLandInLabelledRegistryCells) {
  Registry reg;
  core::RunnerMetrics rm(reg, "mapper");
  rm.messages_processed.inc(4);
  rm.probes_sent.inc();
  EXPECT_EQ(rm.snapshot().messages_processed, 4u);

  // A "recovered" RunnerMetrics re-attaches to the same cells.
  core::RunnerMetrics again(reg, "mapper");
  EXPECT_EQ(&again.messages_processed, &rm.messages_processed);
  EXPECT_EQ(again.snapshot().messages_processed, 4u);

  bool found = false;
  for (const auto& s : reg.samples()) {
    if (s.name != "tart_messages_processed_total") continue;
    ASSERT_EQ(s.labels.size(), 1u);
    EXPECT_EQ(s.labels[0].key, "component");
    EXPECT_EQ(s.labels[0].value, "mapper");
    EXPECT_EQ(s.counter_value, 4u);
    found = true;
  }
  EXPECT_TRUE(found);
}

// --- JSONL series line -------------------------------------------------------

TEST(SeriesLine, RenderIsOneJsonObjectPerLine) {
  core::MetricsSnapshot snap;
  snap.messages_processed = 2;
  Registry reg;
  reg.counter("tart_c_total", "c", {{"component", "x"}}).inc(1);
  reg.histogram("tart_h_seconds", "h", {}, 1.0, 2).record(0.5);
  std::string line = render_series_line(1234, snap, reg.samples());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.front(), '{');
  EXPECT_NE(line.find("\"ts_ms\":1234"), std::string::npos) << line;
  EXPECT_NE(line.find("\"messages_processed\":2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"tart_c_total\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"p50\""), std::string::npos) << line;

  // Appended lines form well-formed JSONL: every line is one object with
  // the timestamp and the scalar block.
  std::string file;
  for (std::int64_t ts = 0; ts < 3; ++ts) {
    reg.counter("tart_c_total", "c", {{"component", "x"}}).inc(1);
    file += render_series_line(ts, snap, reg.samples());
  }
  std::istringstream in(file);
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"metrics\":"), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 3u);
}

}  // namespace
}  // namespace tart::obs
