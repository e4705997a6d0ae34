// Unit tests for the flight-recorder subsystem: event serde round-trips
// for every kind, trace-file error paths (bad magic, version mismatch,
// truncation, trailing garbage), the MPMC ring, the recorder lifecycle,
// and the divergence checker in both strict and recovery modes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <thread>

#include "fuzz_util.h"
#include "serde/archive.h"
#include "trace/diff.h"
#include "trace/recorder.h"
#include "trace/ring_buffer.h"
#include "trace/trace_event.h"
#include "trace/trace_file.h"

namespace tart::trace {
namespace {

TraceEvent make_event(TraceEventKind kind, std::uint64_t seq) {
  TraceEvent e;
  e.component = ComponentId(3);
  e.seq = seq;
  e.kind = kind;
  e.vt = VirtualTime(1'000'000 + static_cast<std::int64_t>(seq) * 17);
  e.wire = (seq % 2 == 0) ? WireId(static_cast<std::uint32_t>(seq))
                          : WireId::invalid();
  e.aux = seq * 31;
  e.payload_hash = seq * 0x9E3779B97F4A7C15ull;
  return e;
}

TEST(TraceEventTest, RoundTripsEveryKind) {
  for (std::uint8_t k = 0; k <= kMaxTraceEventKind; ++k) {
    const TraceEvent e = make_event(static_cast<TraceEventKind>(k), k);
    serde::Writer w;
    e.encode(w);
    serde::Reader r(w.bytes());
    TraceEvent back = TraceEvent::decode(r);
    back.component = e.component;  // implicit in the file section
    EXPECT_EQ(back, e) << "kind " << name_of(e.kind);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(TraceEventTest, DecodeRejectsUnknownKind) {
  serde::Writer w;
  w.write_u8(kMaxTraceEventKind + 1);
  w.write_varint(0);
  serde::Reader r(w.bytes());
  EXPECT_THROW((void)TraceEvent::decode(r), serde::DecodeError);
}

TEST(TraceEventTest, InfiniteVtRoundTrips) {
  TraceEvent e = make_event(TraceEventKind::kReplayStart, 1);
  e.vt = VirtualTime::infinity();
  serde::Writer w;
  e.encode(w);
  serde::Reader r(w.bytes());
  EXPECT_TRUE(TraceEvent::decode(r).vt.is_infinite());
}

TEST(TraceEventTest, CategorySplitMatchesKindOrder) {
  EXPECT_EQ(category_of(TraceEventKind::kDispatch),
            TraceCategory::kScheduling);
  EXPECT_EQ(category_of(TraceEventKind::kCrash), TraceCategory::kScheduling);
  EXPECT_EQ(category_of(TraceEventKind::kSilencePromise),
            TraceCategory::kDiagnostic);
  EXPECT_EQ(category_of(TraceEventKind::kStallEnd),
            TraceCategory::kDiagnostic);
}

TEST(TraceEventTest, SameDecisionIgnoresSeq) {
  TraceEvent a = make_event(TraceEventKind::kDispatch, 4);
  TraceEvent b = a;
  b.seq = 99;
  EXPECT_TRUE(a.same_decision(b));
  b.aux ^= 1;
  EXPECT_FALSE(a.same_decision(b));
}

// ---------------------------------------------------------------------------
// Trace file

Trace sample_trace() {
  Trace t;
  t.categories = static_cast<std::uint32_t>(TraceCategory::kAll);
  for (std::uint32_t c : {1u, 4u}) {
    ComponentTrace ct;
    ct.component = ComponentId(c);
    for (std::uint64_t i = 0; i < 5; ++i) {
      TraceEvent e = make_event(
          static_cast<TraceEventKind>(i % (kMaxTraceEventKind + 1)), i);
      e.component = ct.component;
      ct.events.push_back(e);
    }
    t.components.push_back(std::move(ct));
  }
  return t;
}

TEST(TraceFileTest, BytesRoundTrip) {
  const Trace t = sample_trace();
  const auto bytes = encode_trace(t);
  EXPECT_EQ(TraceReader::read_bytes(bytes), t);
}

TEST(TraceFileTest, EncodingIsDeterministic) {
  EXPECT_EQ(encode_trace(sample_trace()), encode_trace(sample_trace()));
}

// Pre-lineage (v1) files must stay readable: the lineage event class only
// *adds* kinds, so a v1 body decodes under the v2 reader unchanged.
TEST(TraceFileTest, ReadsVersion1Files) {
  Trace t = sample_trace();
  t.version = kMinReadableTraceVersion;
  // A v1 recorder never produced lineage-class events; drop them so the
  // sample is a faithful v1 body.
  for (auto& ct : t.components) {
    std::erase_if(ct.events, [](const TraceEvent& e) {
      return category_of(e.kind) == TraceCategory::kLineage;
    });
  }
  const Trace back = TraceReader::read_bytes(encode_trace(t));
  EXPECT_EQ(back.version, kMinReadableTraceVersion);
  EXPECT_EQ(back, t);
}

TEST(TraceFileTest, RejectsBadMagic) {
  auto bytes = encode_trace(sample_trace());
  bytes[0] = std::byte{'X'};
  EXPECT_THROW((void)TraceReader::read_bytes(bytes), TraceError);
}

TEST(TraceFileTest, RejectsVersionMismatch) {
  auto bytes = encode_trace(sample_trace());
  bytes[8] = std::byte{0x7F};  // first byte of the little-endian version
  try {
    (void)TraceReader::read_bytes(bytes);
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(TraceFileTest, RejectsTruncation) {
  const auto bytes = encode_trace(sample_trace());
  // Every proper prefix (past the empty file) must throw, never crash or
  // silently decode.
  for (std::size_t len : {bytes.size() - 1, bytes.size() / 2, std::size_t{9}}) {
    std::vector<std::byte> cut(bytes.begin(),
                               bytes.begin() + static_cast<long>(len));
    EXPECT_THROW((void)TraceReader::read_bytes(cut), TraceError)
        << "prefix of " << len;
  }
}

TEST(TraceFileTest, TruncationsAndMutationsDecodeOrFailTyped) {
  tart::testing::fuzz_decoder<TraceError>(
      encode_trace(sample_trace()), 0x7ACE,
      [](const std::vector<std::byte>& b) {
        (void)TraceReader::read_bytes(b);
        return true;
      });
}

TEST(TraceFileTest, RejectsTrailingGarbage) {
  auto bytes = encode_trace(sample_trace());
  bytes.push_back(std::byte{0});
  EXPECT_THROW((void)TraceReader::read_bytes(bytes), TraceError);
}

TEST(TraceFileTest, FileRoundTripAndMissingFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tart_trace_rt.trc").string();
  const Trace t = sample_trace();
  write_trace_file(path, t);
  EXPECT_EQ(TraceReader::read_file(path), t);
  std::remove(path.c_str());
  EXPECT_THROW((void)TraceReader::read_file(path), TraceError);
}

TEST(TraceFileTest, MergedOrdersByVtComponentSeq) {
  Trace t;
  ComponentTrace a;
  a.component = ComponentId(2);
  ComponentTrace b;
  b.component = ComponentId(7);
  auto ev = [](ComponentId c, std::uint64_t seq, std::int64_t vt) {
    TraceEvent e;
    e.component = c;
    e.seq = seq;
    e.vt = VirtualTime(vt);
    return e;
  };
  a.events = {ev(a.component, 0, 50), ev(a.component, 1, 10)};
  b.events = {ev(b.component, 0, 10), ev(b.component, 1, 50)};
  t.components = {a, b};
  const auto m = t.merged();
  ASSERT_EQ(m.size(), 4u);
  EXPECT_EQ(m[0].component, ComponentId(2));  // vt 10: smaller component id
  EXPECT_EQ(m[1].component, ComponentId(7));
  EXPECT_EQ(m[2].component, ComponentId(2));  // vt 50
  EXPECT_EQ(m[3].component, ComponentId(7));
}

// ---------------------------------------------------------------------------
// Ring buffer

TEST(RingBufferTest, FifoAndFullRejection) {
  RingBuffer<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ring.try_pop(), i);
  EXPECT_EQ(ring.try_pop(), std::nullopt);
}

TEST(RingBufferTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(RingBuffer<int>(5).capacity(), 8u);
  EXPECT_EQ(RingBuffer<int>(1).capacity(), 2u);
}

TEST(RingBufferTest, ConcurrentProducersLoseNothingWhenSized) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;
  RingBuffer<int> ring(kProducers * kPerProducer);
  std::atomic<long> sum{0};
  std::thread consumer([&] {
    int seen = 0;
    while (seen < kProducers * kPerProducer) {
      if (auto v = ring.try_pop()) {
        sum += *v;
        ++seen;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i)
        while (!ring.try_push(p * kPerProducer + i)) std::this_thread::yield();
    });
  for (auto& t : producers) t.join();
  consumer.join();
  const long n = kProducers * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// ---------------------------------------------------------------------------
// Recorder

TEST(RecorderTest, AssemblesCanonicalStreams) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.categories = static_cast<std::uint32_t>(TraceCategory::kAll);
  TraceRecorder rec(cfg, {ComponentId(2), ComponentId(1), ComponentId(2)});
  rec.record(ComponentId(1), TraceEventKind::kDispatch, VirtualTime(10),
             WireId(0), 0, 0xAB);
  rec.record(ComponentId(2), TraceEventKind::kEmit, VirtualTime(20), WireId(1),
             1);
  rec.record(ComponentId(1), TraceEventKind::kCheckpoint, VirtualTime(30),
             WireId::invalid(), 1);
  rec.record(ComponentId(9), TraceEventKind::kDispatch, VirtualTime(40),
             WireId(0));  // unregistered: ignored
  rec.finalize();

  const Trace& t = rec.trace();
  ASSERT_EQ(t.components.size(), 2u);  // deduped, ascending
  EXPECT_EQ(t.components[0].component, ComponentId(1));
  EXPECT_EQ(t.components[1].component, ComponentId(2));
  ASSERT_EQ(t.components[0].events.size(), 2u);
  EXPECT_EQ(t.components[0].events[0].kind, TraceEventKind::kDispatch);
  EXPECT_EQ(t.components[0].events[0].seq, 0u);
  EXPECT_EQ(t.components[0].events[1].kind, TraceEventKind::kCheckpoint);
  EXPECT_EQ(t.components[0].events[1].seq, 1u);
  EXPECT_EQ(rec.total_recorded(), 3u);
  EXPECT_EQ(rec.total_dropped(), 0u);

  // Idempotent finalize; records after finalize are ignored.
  rec.record(ComponentId(1), TraceEventKind::kDispatch, VirtualTime(99),
             WireId(0));
  rec.finalize();
  EXPECT_EQ(rec.trace().total_events(), 3u);
}

TEST(RecorderTest, MaskedCategoryIsNotRecorded) {
  TraceConfig cfg;
  cfg.enabled = true;  // default mask: scheduling only
  TraceRecorder rec(cfg, {ComponentId(0)});
  EXPECT_FALSE(rec.wants(TraceEventKind::kStallBegin));
  EXPECT_TRUE(rec.wants(TraceEventKind::kDispatch));
  rec.record(ComponentId(0), TraceEventKind::kStallBegin, VirtualTime(1),
             WireId(0));
  rec.record(ComponentId(0), TraceEventKind::kDispatch, VirtualTime(2),
             WireId(0));
  rec.finalize();
  ASSERT_EQ(rec.trace().total_events(), 1u);
  EXPECT_EQ(rec.trace().components[0].events[0].kind,
            TraceEventKind::kDispatch);
}

TEST(RecorderTest, OverflowDropsAndCounts) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 2;
  // Long drain interval: the writer won't empty the ring mid-test.
  cfg.drain_interval = std::chrono::microseconds(5'000'000);
  TraceRecorder rec(cfg, {ComponentId(0)});
  for (int i = 0; i < 10; ++i)
    rec.record(ComponentId(0), TraceEventKind::kDispatch, VirtualTime(i),
               WireId(0));
  EXPECT_GT(rec.dropped(ComponentId(0)), 0u);
  EXPECT_EQ(rec.recorded(ComponentId(0)) + rec.dropped(ComponentId(0)), 10u);
  rec.finalize();
  EXPECT_EQ(rec.trace().total_events(), rec.recorded(ComponentId(0)));
}

TEST(RecorderTest, WritesFileAtFinalize) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tart_rec_out.trc").string();
  {
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.path = path;
    TraceRecorder rec(cfg, {ComponentId(5)});
    rec.record(ComponentId(5), TraceEventKind::kDispatch, VirtualTime(7),
               WireId(3), 0, 0xFEED);
    rec.finalize();
  }
  const Trace t = TraceReader::read_file(path);
  ASSERT_EQ(t.total_events(), 1u);
  EXPECT_EQ(t.components[0].events[0].payload_hash, 0xFEEDu);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Diff

ComponentTrace stream(ComponentId c,
                      std::vector<std::pair<TraceEventKind, std::int64_t>>
                          kinds_and_vts) {
  ComponentTrace ct;
  ct.component = c;
  std::uint64_t seq = 0;
  for (const auto& [kind, vt] : kinds_and_vts) {
    TraceEvent e;
    e.component = c;
    e.seq = seq++;
    e.kind = kind;
    e.vt = VirtualTime(vt);
    e.wire = WireId(0);
    ct.events.push_back(e);
  }
  return ct;
}

Trace one_component(ComponentTrace ct) {
  Trace t;
  t.categories = static_cast<std::uint32_t>(TraceCategory::kAll);
  t.components.push_back(std::move(ct));
  return t;
}

constexpr auto kD = TraceEventKind::kDispatch;
constexpr auto kE = TraceEventKind::kEmit;
constexpr auto kR = TraceEventKind::kRecoveryStart;
constexpr auto kC = TraceEventKind::kCheckpoint;

TEST(DiffTest, StrictIdentical) {
  const Trace a = one_component(stream(ComponentId(0), {{kD, 1}, {kE, 2}}));
  const auto r = diff_traces(a, a);
  EXPECT_TRUE(r.identical());
  EXPECT_EQ(r.compared, 2u);
}

TEST(DiffTest, StrictIgnoresDiagnosticEvents) {
  const Trace a = one_component(stream(ComponentId(0), {{kD, 1}}));
  Trace b = a;
  TraceEvent probe;
  probe.component = ComponentId(0);
  probe.seq = 1;
  probe.kind = TraceEventKind::kCuriosityProbe;
  probe.vt = VirtualTime(999);
  b.components[0].events.push_back(probe);
  EXPECT_TRUE(diff_traces(a, b).identical());
}

TEST(DiffTest, StrictReportsFirstMismatch) {
  const Trace a =
      one_component(stream(ComponentId(4), {{kD, 1}, {kD, 2}, {kD, 3}}));
  const Trace b =
      one_component(stream(ComponentId(4), {{kD, 1}, {kD, 7}, {kD, 3}}));
  const auto r = diff_traces(a, b);
  ASSERT_FALSE(r.identical());
  EXPECT_EQ(r.divergence->component, ComponentId(4));
  EXPECT_EQ(r.divergence->index_a, 1u);
  EXPECT_EQ(r.divergence->expected->vt, VirtualTime(2));
  EXPECT_EQ(r.divergence->actual->vt, VirtualTime(7));
  // describe() names the component, wire and virtual time.
  const std::string d = r.divergence->describe();
  EXPECT_NE(d.find("#4"), std::string::npos);
  EXPECT_NE(d.find("VT(7)"), std::string::npos);
  EXPECT_NE(d.find("wire"), std::string::npos);
}

TEST(DiffTest, StrictReportsLengthMismatch) {
  const Trace a = one_component(stream(ComponentId(0), {{kD, 1}, {kD, 2}}));
  const Trace b = one_component(stream(ComponentId(0), {{kD, 1}}));
  const auto r = diff_traces(a, b);
  ASSERT_FALSE(r.identical());
  EXPECT_NE(r.divergence->reason.find("ended early"), std::string::npos);
}

TEST(DiffTest, ReportsMissingComponent) {
  Trace a = one_component(stream(ComponentId(0), {{kD, 1}}));
  Trace b = a;
  b.components[0].component = ComponentId(1);
  ASSERT_FALSE(diff_traces(a, b).identical());
}

TEST(DiffTest, RecoveryToleratesReplayedSuffix) {
  const Trace a = one_component(
      stream(ComponentId(0), {{kD, 1}, {kD, 2}, {kD, 3}, {kD, 4}}));
  // B: dispatches 1-3, checkpoint cadence artifacts, crash, recovery, then
  // replays 2-3 (stutter) and continues with 4.
  const Trace b = one_component(stream(
      ComponentId(0), {{kD, 1},
                       {kC, 1},
                       {kD, 2},
                       {kD, 3},
                       {TraceEventKind::kCrash, -1},
                       {kR, 1},
                       {kD, 2},
                       {kD, 3},
                       {kD, 4}}));
  const auto r = diff_traces(a, b, {.allow_stutter = true});
  EXPECT_TRUE(r.identical()) << r.divergence->describe();
  EXPECT_EQ(r.compared, 4u);
  EXPECT_EQ(r.stutter_records, 2u);
  EXPECT_GT(r.skipped, 0u);
}

TEST(DiffTest, RecoveryRejectsUnlicensedRepeat) {
  const Trace a = one_component(stream(ComponentId(0), {{kD, 1}, {kD, 2}}));
  const Trace b =
      one_component(stream(ComponentId(0), {{kD, 1}, {kD, 1}, {kD, 2}}));
  EXPECT_FALSE(diff_traces(a, b, {.allow_stutter = true}).identical());
}

TEST(DiffTest, RecoveryRejectsNovelDecision) {
  const Trace a = one_component(stream(ComponentId(0), {{kD, 1}, {kD, 2}}));
  const Trace b = one_component(
      stream(ComponentId(0), {{kD, 1}, {kR, 1}, {kD, 99}}));
  const auto r = diff_traces(a, b, {.allow_stutter = true});
  ASSERT_FALSE(r.identical());
  EXPECT_NE(r.divergence->reason.find("neither"), std::string::npos);
}

TEST(DiffTest, RecoveryRejectsUnfinishedReplay) {
  const Trace a = one_component(stream(ComponentId(0), {{kD, 1}, {kD, 2}}));
  const Trace b = one_component(stream(ComponentId(0), {{kD, 1}}));
  const auto r = diff_traces(a, b, {.allow_stutter = true});
  ASSERT_FALSE(r.identical());
  EXPECT_NE(r.divergence->reason.find("never reached"), std::string::npos);
}

}  // namespace
}  // namespace tart::trace
