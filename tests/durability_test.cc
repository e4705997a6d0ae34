// Tests for the durability subsystem (docs/RECOVERY.md): rotated-segment
// stable storage, CRC-protected durable checkpoint files, checkpoint-gated
// compaction accounting in the external message log, tiered fast restart
// of a whole in-process deployment — including crash-during-checkpoint
// (torn newest file) fallback — and fuzzing of every on-disk decoder a
// restart reads.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "apps/wordcount.h"
#include "checkpoint/snapshot.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/runtime.h"
#include "durability/checkpoint_file.h"
#include "durability/manager.h"
#include "durability/replay.h"
#include "estimator/estimator.h"
#include "fuzz_util.h"
#include "log/fault_log.h"
#include "log/message_log.h"
#include "log/segmented_store.h"

namespace tart {
namespace {

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tart_durability_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

std::vector<std::byte> bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (const int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

using tart::testing::Bytes;

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto* p = reinterpret_cast<const std::byte*>(raw.data());
  return Bytes(p, p + raw.size());
}

void write_file(const std::string& path, const Bytes& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(content.data()),
            static_cast<std::streamsize>(content.size()));
}

/// Every record of `store` from global index `from` on, copied out of the
/// reader's buffer.
std::vector<std::vector<std::byte>> records_from(
    const log::SegmentedStore& store, std::uint64_t from = 0) {
  std::vector<std::vector<std::byte>> out;
  store.read_from(from, [&out](std::span<const std::byte> record) {
    out.emplace_back(record.begin(), record.end());
  });
  return out;
}

Message external(WireId wire, std::int64_t vt, std::uint64_t seq) {
  Message m;
  m.wire = wire;
  m.vt = VirtualTime(vt);
  m.seq = seq;
  m.payload = Payload(static_cast<std::int64_t>(seq));
  return m;
}

// --- SegmentedStore ----------------------------------------------------------

class SegmentedStoreTest : public DurabilityTest {};

TEST_F(SegmentedStoreTest, RotatesAndScansAcrossSegments) {
  log::SegmentedStore::Options opts;
  opts.segment_bytes = 64;  // frame = 16-byte header + payload -> ~3/segment
  log::SegmentedStore store(dir_.string(), "messages", opts);
  std::vector<std::vector<std::byte>> written;
  for (int i = 0; i < 10; ++i) {
    written.push_back(bytes({i, i + 1}));
    ASSERT_TRUE(store.append(written.back()));
  }
  EXPECT_GT(store.segment_count(), 1u);
  EXPECT_EQ(store.next_index(), 10u);
  EXPECT_EQ(store.first_retained_index(), 0u);
  EXPECT_EQ(records_from(store), written);
  EXPECT_GT(store.bytes_on_disk(), 0u);
}

TEST_F(SegmentedStoreTest, TruncateBelowDeletesOnlyWhollySealedSegments) {
  log::SegmentedStore::Options opts;
  opts.segment_bytes = 64;
  log::SegmentedStore store(dir_.string(), "messages", opts);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(store.append(bytes({i})));
  const std::uint64_t reclaimed = store.truncate_below(5);
  EXPECT_GT(reclaimed, 0u);
  // The gating invariant: nothing at or above index 5 may be deleted.
  EXPECT_LE(store.first_retained_index(), 5u);
  EXPECT_EQ(store.first_retained_index(), reclaimed);
  EXPECT_EQ(records_from(store).size(), 10u - reclaimed);
  EXPECT_EQ(store.records_reclaimed(), reclaimed);
  EXPECT_GT(store.segments_deleted(), 0u);

  // Reopen: surviving segments keep their global indices.
  log::SegmentedStore reopened(dir_.string(), "messages", opts);
  EXPECT_EQ(reopened.first_retained_index(), reclaimed);
  EXPECT_EQ(reopened.next_index(), 10u);
  EXPECT_EQ(records_from(reopened).size(), 10u - reclaimed);
}

TEST_F(SegmentedStoreTest, TruncateNeverDeletesActiveSegment) {
  log::SegmentedStore store(dir_.string(), "messages");  // huge default
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(store.append(bytes({i})));
  EXPECT_EQ(store.truncate_below(store.next_index()), 0u);
  EXPECT_EQ(records_from(store).size(), 5u);
  EXPECT_EQ(store.segment_count(), 1u);
}

TEST_F(SegmentedStoreTest, TornActiveTailCutOnReopen) {
  log::SegmentedStore::Options opts;
  opts.segment_bytes = 1 << 20;
  {
    log::SegmentedStore store(dir_.string(), "messages", opts);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.append(bytes({7, i})));
  }
  // Crash mid-write: chop into the last frame of the active segment.
  std::filesystem::path active;
  for (const auto& entry : std::filesystem::directory_iterator(dir_))
    if (entry.path().extension() == ".seg") active = entry.path();
  ASSERT_FALSE(active.empty());
  std::filesystem::resize_file(active,
                               std::filesystem::file_size(active) - 2);

  log::SegmentedStore store(dir_.string(), "messages", opts);
  EXPECT_EQ(records_from(store).size(), 2u);
  EXPECT_EQ(store.next_index(), 2u);
  // Appends after the cut stay scannable (the torn tail was truncated).
  ASSERT_TRUE(store.append(bytes({9})));
  EXPECT_EQ(records_from(store).size(), 3u);
}

TEST_F(SegmentedStoreTest, AdoptsLegacySingleFileLog) {
  const std::string legacy = (dir_ / "messages.log").string();
  {
    log::FileStableStore old_store(legacy);
    ASSERT_TRUE(old_store.append(bytes({1, 2})));
    ASSERT_TRUE(old_store.append(bytes({3})));
  }
  log::SegmentedStore store(dir_.string(), "messages");
  EXPECT_EQ(records_from(store).size(), 2u);
  EXPECT_EQ(store.next_index(), 2u);
  EXPECT_FALSE(std::filesystem::exists(legacy));  // renamed to segment 0
}

// --- Checkpoint files --------------------------------------------------------

class CheckpointFileTest : public DurabilityTest {};

durability::DurableCheckpoint sample_checkpoint(std::uint64_t covered) {
  durability::DurableCheckpoint c;
  c.deployment_fp = 0xFEED;
  c.covered_record_index = covered;
  c.wires.push_back(
      durability::WireCover{WireId(4), covered, VirtualTime(900 + covered)});
  checkpoint::RestorePlan plan;
  plan.base.component = ComponentId(2);
  plan.base.version = 3;
  plan.base.vt = VirtualTime(1234);
  plan.base.messages_processed = covered;
  plan.base.state = bytes({42, 43});
  plan.base.inputs.push_back(
      checkpoint::InputPosition{WireId(4), VirtualTime(900), covered});
  plan.base.outputs.push_back(checkpoint::OutputPosition{
      WireId(5), 2, VirtualTime(800), VirtualTime(700),
      {external(WireId(5), 700, 1)}, bytes({9})});
  checkpoint::ComponentSnapshot delta;
  delta.component = ComponentId(2);
  delta.version = 4;
  delta.is_delta = true;
  delta.vt = VirtualTime(2000);
  plan.deltas.push_back(delta);
  c.plans.emplace(ComponentId(2), std::move(plan));
  return c;
}

TEST_F(CheckpointFileTest, WriteLoadRoundTrip) {
  durability::CheckpointWriter writer(dir_.string(), 3);
  durability::DurableCheckpoint c = sample_checkpoint(17);
  ASSERT_GT(writer.write(c), 0u);
  EXPECT_EQ(c.id, 1u);

  const auto newest = durability::CheckpointReader::load_newest(dir_.string());
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->skipped_invalid, 0u);
  const durability::DurableCheckpoint& r = newest->checkpoint;
  EXPECT_EQ(r.id, 1u);
  EXPECT_EQ(r.deployment_fp, 0xFEEDu);
  EXPECT_EQ(r.covered_record_index, 17u);
  ASSERT_EQ(r.wires.size(), 1u);
  EXPECT_EQ(r.wires[0].wire, WireId(4));
  EXPECT_EQ(r.wires[0].covered_seq, 17u);
  EXPECT_EQ(r.wires[0].last_vt, VirtualTime(917));
  ASSERT_EQ(r.plans.size(), 1u);
  const auto& plan = r.plans.at(ComponentId(2));
  EXPECT_EQ(plan.base.version, 3u);
  EXPECT_EQ(plan.base.state, bytes({42, 43}));
  ASSERT_EQ(plan.base.inputs.size(), 1u);
  EXPECT_EQ(plan.base.inputs[0].next_seq, 17u);
  ASSERT_EQ(plan.deltas.size(), 1u);
  EXPECT_TRUE(plan.deltas[0].is_delta);
  EXPECT_EQ(plan.deltas[0].version, 4u);
}

TEST_F(CheckpointFileTest, TornNewestFallsBackToPrevious) {
  durability::CheckpointWriter writer(dir_.string(), 3);
  durability::DurableCheckpoint a = sample_checkpoint(5);
  durability::DurableCheckpoint b = sample_checkpoint(9);
  ASSERT_GT(writer.write(a), 0u);
  ASSERT_GT(writer.write(b), 0u);

  // Crash mid-checkpoint: the newest file has a torn tail.
  const std::string newest_path =
      durability::checkpoint_path(dir_.string(), b.id);
  std::filesystem::resize_file(newest_path,
                               std::filesystem::file_size(newest_path) - 3);

  const auto newest = durability::CheckpointReader::load_newest(dir_.string());
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->checkpoint.id, a.id);
  EXPECT_EQ(newest->checkpoint.covered_record_index, 5u);
  EXPECT_EQ(newest->skipped_invalid, 1u);
}

TEST_F(CheckpointFileTest, CorruptBodyRejected) {
  durability::CheckpointWriter writer(dir_.string(), 3);
  durability::DurableCheckpoint c = sample_checkpoint(5);
  ASSERT_GT(writer.write(c), 0u);
  const std::string path = durability::checkpoint_path(dir_.string(), c.id);
  // Flip a body byte: size is intact but the fingerprint must catch it.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(20);
  f.put('\xFF');
  f.close();
  EXPECT_FALSE(durability::CheckpointReader::load(path).has_value());
}

TEST_F(CheckpointFileTest, KeepLastPrunesOldCheckpoints) {
  durability::CheckpointWriter writer(dir_.string(), 2);
  for (int i = 0; i < 4; ++i) {
    durability::DurableCheckpoint c = sample_checkpoint(i);
    ASSERT_GT(writer.write(c), 0u);
  }
  const auto files = durability::CheckpointReader::list(dir_.string());
  ASSERT_EQ(files.size(), 2u);
  const auto newest = durability::CheckpointReader::load_newest(dir_.string());
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->checkpoint.id, 4u);
}

TEST_F(CheckpointFileTest, WriterResumesAboveExistingAndTornIds) {
  {
    std::ofstream torn(durability::checkpoint_path(dir_.string(), 41));
    torn << "garbage";  // unreadable, but its id must never be reused
  }
  durability::CheckpointWriter writer(dir_.string(), 3);
  EXPECT_EQ(writer.next_id(), 42u);
}

TEST_F(CheckpointFileTest, DeploymentFingerprintMismatchSkipped) {
  durability::CheckpointWriter writer(dir_.string(), 3);
  durability::DurableCheckpoint c = sample_checkpoint(5);
  ASSERT_GT(writer.write(c), 0u);
  EXPECT_FALSE(durability::CheckpointReader::load_newest(dir_.string(), 0x1)
                   .has_value());
  const auto match =
      durability::CheckpointReader::load_newest(dir_.string(), 0xFEED);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->checkpoint.covered_record_index, 5u);
}

// --- Message-log compaction accounting ---------------------------------------

TEST(MessageLogCompactionTest, CoveredRecordIndexStopsAtFirstUncovered) {
  log::ExternalMessageLog log;
  const WireId w0(0), w1(1);
  log.append(external(w0, 100, 0));  // record 0
  log.append(external(w1, 110, 0));  // record 1
  log.append(external(w0, 120, 1));  // record 2
  log.append(external(w1, 130, 1));  // record 3 (w1 seq 1: NOT covered)
  log.append(external(w0, 140, 2));  // record 4

  const std::map<WireId, std::uint64_t> covered{{w0, 2}, {w1, 1}};
  EXPECT_EQ(log.covered_record_index(covered), 3u);
}

TEST(MessageLogCompactionTest, TruncateCoveredPreservesPositionAccounting) {
  log::ExternalMessageLog log;
  const WireId w0(0), w1(1);
  log.append(external(w0, 100, 0));
  log.append(external(w1, 110, 0));
  log.append(external(w0, 120, 1));
  log.append(external(w1, 130, 1));
  log.append(external(w0, 140, 2));

  const std::map<WireId, std::uint64_t> covered{{w0, 2}, {w1, 1}};
  EXPECT_EQ(log.truncate_covered(covered), 3u);
  EXPECT_EQ(log.truncated_messages(), 3u);

  // Retention shrank; sequence/vt accounting did not.
  EXPECT_EQ(log.size(w0), 1u);
  EXPECT_EQ(log.size(w1), 1u);
  EXPECT_EQ(log.next_seq(w0), 3u);
  EXPECT_EQ(log.next_seq(w1), 2u);
  EXPECT_EQ(log.last_vt(w0), VirtualTime(140));
  EXPECT_EQ(log.vt_below(w0, 2), VirtualTime(120));  // answered by the base
  const auto replay = log.replay_from_seq(w0, 0);
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].seq, 2u);
}

TEST(MessageLogCompactionTest, SetBaseSeedsPositionsWithoutEntries) {
  log::ExternalMessageLog log;
  const WireId w(3);
  log.set_base(w, 7, VirtualTime(5000));
  EXPECT_EQ(log.size(w), 0u);
  EXPECT_EQ(log.next_seq(w), 7u);
  EXPECT_EQ(log.last_vt(w), VirtualTime(5000));
  EXPECT_EQ(log.vt_below(w, 7), VirtualTime(5000));
}

}  // namespace
}  // namespace tart

// --- Tiered fast restart of a whole in-process deployment --------------------

namespace tart {
namespace {

struct DurableApp {
  core::Topology topo;
  ComponentId s1, s2, merger;
  WireId in1, in2, out;

  DurableApp() {
    s1 = topo.add("s1", [] {
      return std::make_unique<apps::WordCountSender>();
    });
    s2 = topo.add("s2", [] {
      return std::make_unique<apps::WordCountSender>();
    });
    merger = topo.add("m", [] {
      return std::make_unique<apps::TotalingMerger>();
    });
    for (const auto c : {s1, s2}) {
      topo.set_estimator(c, [] {
        return estimator::per_iteration_estimator(61000.0);
      });
    }
    in1 = topo.external_input(s1, PortId(0));
    in2 = topo.external_input(s2, PortId(0));
    topo.connect(s1, PortId(0), merger, PortId(0));
    topo.connect(s2, PortId(0), merger, PortId(0));
    out = topo.external_output(merger, PortId(0));
  }

  [[nodiscard]] std::map<ComponentId, EngineId> placement() const {
    return {{s1, EngineId(0)}, {s2, EngineId(0)}, {merger, EngineId(0)}};
  }
  /// Senders on one engine, the merger on another.
  [[nodiscard]] std::map<ComponentId, EngineId> split_placement() const {
    return {{s1, EngineId(0)}, {s2, EngineId(0)}, {merger, EngineId(1)}};
  }
};

core::RuntimeConfig durable_config(const std::string& log_dir) {
  core::RuntimeConfig config;
  config.log_dir = log_dir;
  config.checkpoint.every_n_messages = 3;
  config.durability.segment_bytes = 256;  // force rotation in small tests
  return config;
}

void inject_pair(core::Runtime& rt, const DurableApp& app, int i) {
  rt.inject_at(app.in1, VirtualTime(1000 + i * 500'000),
               apps::sentence({"a", "b", "c"}));
  rt.inject_at(app.in2, VirtualTime(700 + i * 400'000),
               apps::sentence({"d", "e"}));
}

/// Waits until everything injected so far has been consumed as far as the
/// silence frontier permits — WITHOUT closing the inputs (drain() closes
/// them forever, and these tests keep injecting). catch_up doubles as
/// exactly this live settle barrier.
void settle(core::Runtime& rt) {
  ASSERT_TRUE(durability::ReplayDriver::catch_up(rt).caught_up)
      << "runtime never settled";
}

class TieredRestartTest : public DurabilityTest {};

TEST_F(TieredRestartTest, RestartFromCheckpointMatchesFullReplayState) {
  const std::string log_dir = dir_.string();
  std::uint64_t fingerprint = 0;
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
    rt.start();
    for (int i = 0; i < 8; ++i) inject_pair(rt, app, i);
    settle(rt);
    ASSERT_NE(rt.checkpoint_manager(), nullptr);
    const auto stats = rt.checkpoint_manager()->checkpoint_now();
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_EQ(stats.covered_records, 16u);  // settled: everything covered
    EXPECT_GT(stats.bytes, 0u);
    EXPECT_GT(stats.reclaimed_records, 0u);  // gated compaction ran
    // Post-checkpoint suffix the restart will have to replay.
    for (int i = 8; i < 12; ++i) inject_pair(rt, app, i);
    ASSERT_TRUE(rt.drain());
    fingerprint = rt.state_fingerprint(app.merger);
    rt.stop();
  }

  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
  EXPECT_TRUE(rt.recovery_info().from_checkpoint);
  EXPECT_GT(rt.recovery_info().covered_records, 0u);
  EXPECT_LT(rt.recovery_info().suffix_records, 24u);
  rt.start();
  const auto replay = durability::ReplayDriver::catch_up(rt);
  EXPECT_TRUE(replay.caught_up);
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.state_fingerprint(app.merger), fingerprint);
  // The compacted log plus the restored checkpoint reproduced the exact
  // pre-crash state without replaying the covered prefix.
  rt.stop();
}

// Restart work is flat in log length: whatever prefix a durable checkpoint
// covers, the restart replays only the post-checkpoint suffix, and gated
// compaction keeps the on-disk log bounded. Counted, not timed.
TEST_F(TieredRestartTest, SuffixReplayIsIndependentOfCoveredPrefixLength) {
  constexpr int kSuffixPairs = 4;
  struct Restart {
    std::uint64_t suffix_records = 0;
    std::uint64_t log_bytes = 0;
  };
  const auto crash_and_restart = [&](const std::string& log_dir,
                                     int prefix_pairs) {
    Restart result;
    std::uint64_t fingerprint = 0;
    {
      DurableApp app;
      core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
      rt.start();
      for (int i = 0; i < prefix_pairs; ++i) inject_pair(rt, app, i);
      settle(rt);
      const auto stats = rt.checkpoint_manager()->checkpoint_now();
      EXPECT_TRUE(stats.ok) << stats.error;
      EXPECT_EQ(stats.covered_records, 2u * prefix_pairs);
      for (int i = 0; i < kSuffixPairs; ++i)
        inject_pair(rt, app, prefix_pairs + i);
      EXPECT_TRUE(rt.drain());
      fingerprint = rt.state_fingerprint(app.merger);
      result.log_bytes = rt.log_bytes_on_disk();
      rt.stop();
    }
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
    EXPECT_TRUE(rt.recovery_info().from_checkpoint);
    EXPECT_EQ(rt.recovery_info().covered_records, 2u * prefix_pairs);
    result.suffix_records = rt.recovery_info().suffix_records;
    rt.start();
    EXPECT_TRUE(durability::ReplayDriver::catch_up(rt).caught_up);
    EXPECT_TRUE(rt.drain());
    EXPECT_EQ(rt.state_fingerprint(app.merger), fingerprint)
        << "prefix of " << prefix_pairs << " pairs";
    rt.stop();
    return result;
  };

  const Restart shorter = crash_and_restart((dir_ / "short").string(), 4);
  const Restart longer = crash_and_restart((dir_ / "long").string(), 32);
  EXPECT_EQ(shorter.suffix_records, 2u * kSuffixPairs);
  EXPECT_EQ(longer.suffix_records, shorter.suffix_records);
  ASSERT_GT(shorter.log_bytes, 0u);
  EXPECT_LE(longer.log_bytes, 2 * shorter.log_bytes)
      << "compaction left " << longer.log_bytes << " bytes for an 8x prefix vs "
      << shorter.log_bytes;
}

/// The log's segment files in `dir` with their first global index,
/// ascending.
std::vector<std::pair<std::uint64_t, std::string>> segments_in(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() != ".seg") continue;
    const std::string digits = name.substr(name.find('.') + 1, 20);
    segments.emplace_back(std::stoull(digits), entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

/// Checkpoints after `prefix_pairs` settled pairs, adds `suffix_pairs`
/// more, drains and stops; returns the merger's fingerprint and the
/// checkpoint's covered record index.
std::pair<std::uint64_t, std::uint64_t> run_with_checkpoint(
    const std::string& log_dir, int prefix_pairs, int suffix_pairs) {
  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
  rt.start();
  for (int i = 0; i < prefix_pairs; ++i) inject_pair(rt, app, i);
  settle(rt);
  const auto stats = rt.checkpoint_manager()->checkpoint_now();
  EXPECT_TRUE(stats.ok) << stats.error;
  for (int i = 0; i < suffix_pairs; ++i)
    inject_pair(rt, app, prefix_pairs + i);
  EXPECT_TRUE(rt.drain());
  const std::uint64_t fingerprint = rt.state_fingerprint(app.merger);
  rt.stop();
  return {fingerprint, stats.covered_records};
}

// A restart reads only the suffix: the covered records of the segment that
// straddles the checkpoint's covered index are skipped by their headers,
// so damage to their payloads cannot reach the restart.
TEST_F(TieredRestartTest, RestartNeverReadsCoveredPayloads) {
  constexpr int kPrefixPairs = 8, kSuffixPairs = 12;
  const std::string log_dir = dir_.string();
  const auto [fingerprint, covered] =
      run_with_checkpoint(log_dir, kPrefixPairs, kSuffixPairs);
  ASSERT_EQ(covered, 2u * kPrefixPairs);

  const auto segments = segments_in(log_dir);
  std::size_t straddling = segments.size();
  for (std::size_t i = 0; i + 1 < segments.size(); ++i)
    if (segments[i].first < covered && covered < segments[i + 1].first)
      straddling = i;
  std::string names;
  for (const auto& segment : segments)
    names += " " + std::to_string(segment.first);
  ASSERT_LT(straddling, segments.size())
      << "no sealed segment straddles covered index " << covered << names;
  const std::string path = segments[straddling].second;
  Bytes file = read_file(path);
  std::size_t off = 0;
  constexpr std::size_t kHeader = log::kFrameHeaderBytes;
  for (std::uint64_t i = segments[straddling].first; i < covered; ++i) {
    ASSERT_LE(off + kHeader, file.size());
    serde::Reader header(file.data() + off + 4, 4);  // past the marker
    const std::uint32_t size = header.read_u32();
    std::fill_n(file.begin() + static_cast<std::ptrdiff_t>(off + kHeader),
                size, std::byte{0xEE});
    off += kHeader + size;
  }
  write_file(path, file);

  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
  EXPECT_EQ(rt.recovery_info().covered_records, 2u * kPrefixPairs);
  EXPECT_EQ(rt.recovery_info().suffix_records, 2u * kSuffixPairs);
  rt.start();
  EXPECT_TRUE(durability::ReplayDriver::catch_up(rt).caught_up);
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.state_fingerprint(app.merger), fingerprint);
  rt.stop();
}

// A sealed suffix segment that lost records fails the restart typed rather
// than shifting the index of every later record.
TEST_F(TieredRestartTest, SealedSuffixSegmentCutShortFailsRestartTyped) {
  const std::string log_dir = dir_.string();
  const std::uint64_t covered = run_with_checkpoint(log_dir, 4, 12).second;
  const auto segments = segments_in(log_dir);
  std::string victim;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i)
    if (segments[i].first >= covered) victim = segments[i].second;
  ASSERT_FALSE(victim.empty()) << "no sealed segment above " << covered;
  std::filesystem::resize_file(victim, std::filesystem::file_size(victim) - 2);

  DurableApp app;
  EXPECT_THROW(
      core::Runtime(app.topo, app.placement(), durable_config(log_dir)),
      log::CorruptSegmentError);
}

// Every restart replay is requested and served before any runner thread
// runs, so a restart re-sends nothing the receiver already has.
TEST_F(TieredRestartTest, RestartAcrossEnginesDiscardsNoDuplicates) {
  const std::string log_dir = dir_.string();
  std::uint64_t fingerprint = 0;
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.split_placement(),
                     durable_config(log_dir));
    rt.start();
    for (int i = 0; i < 20; ++i) inject_pair(rt, app, i);
    settle(rt);
    ASSERT_TRUE(rt.checkpoint_manager()->checkpoint_now().ok);
    for (int i = 20; i < 220; ++i) inject_pair(rt, app, i);
    ASSERT_TRUE(rt.drain());
    fingerprint = rt.state_fingerprint(app.merger);
    rt.stop();
  }
  DurableApp app;
  core::Runtime rt(app.topo, app.split_placement(), durable_config(log_dir));
  EXPECT_EQ(rt.recovery_info().suffix_records, 400u);
  rt.start();
  EXPECT_TRUE(durability::ReplayDriver::catch_up(rt).caught_up);
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.state_fingerprint(app.merger), fingerprint);
  EXPECT_EQ(rt.total_metrics().duplicates_discarded, 0u);
  rt.stop();
}

// A settled durable checkpoint carries no retention a restart could never
// ask for: nothing on the external output, and nothing on a data wire below
// its (local) receiver's checkpointed position.
TEST_F(TieredRestartTest, SettledCheckpointFileHoldsNoDeadRetention) {
  const std::string log_dir = dir_.string();
  DurableApp app;
  // Without soft checkpoints no stability ack trims the senders' retention
  // before the durable checkpoint.
  core::RuntimeConfig config = durable_config(log_dir);
  config.checkpoint.every_n_messages = 0;
  core::Runtime rt(app.topo, app.placement(), config);
  rt.start();
  for (int i = 0; i < 10; ++i) inject_pair(rt, app, i);
  settle(rt);
  ASSERT_TRUE(rt.checkpoint_manager()->checkpoint_now().ok);
  rt.stop();

  const auto newest = durability::CheckpointReader::load_newest(log_dir);
  ASSERT_TRUE(newest.has_value());
  const auto& plans = newest->checkpoint.plans;
  ASSERT_TRUE(plans.contains(app.merger));
  const auto& merger_plan = plans.at(app.merger);
  const auto& merger =
      merger_plan.deltas.empty() ? merger_plan.base : merger_plan.deltas.back();
  std::map<WireId, std::uint64_t> receiver_next;
  for (const auto& in : merger.inputs) receiver_next[in.wire] = in.next_seq;
  std::size_t data_wires = 0;
  for (const auto& [component, plan] : plans) {
    std::vector<const checkpoint::ComponentSnapshot*> snapshots{&plan.base};
    for (const auto& delta : plan.deltas) snapshots.push_back(&delta);
    for (const auto* snapshot : snapshots) {
      for (const auto& out : snapshot->outputs) {
        if (out.wire == app.out) {
          EXPECT_TRUE(out.retained.empty())
              << out.retained.size() << " external outputs retained";
          continue;
        }
        ASSERT_TRUE(receiver_next.contains(out.wire));
        EXPECT_GT(receiver_next.at(out.wire), 0u);
        ++data_wires;
        for (const Message& m : out.retained)
          EXPECT_GE(m.seq, receiver_next.at(out.wire))
              << "wire " << out.wire.value() << " retains covered seq "
              << m.seq;
      }
    }
  }
  EXPECT_GE(data_wires, 2u);
}

TEST_F(TieredRestartTest, TornNewestCheckpointFallsBackAndStillMatches) {
  const std::string log_dir = dir_.string();
  std::uint64_t fingerprint = 0;
  std::uint64_t good_id = 0;
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
    rt.start();
    for (int i = 0; i < 6; ++i) inject_pair(rt, app, i);
    settle(rt);
    const auto stats = rt.checkpoint_manager()->checkpoint_now();
    ASSERT_TRUE(stats.ok);
    good_id = stats.id;
    for (int i = 6; i < 12; ++i) inject_pair(rt, app, i);
    ASSERT_TRUE(rt.drain());
    fingerprint = rt.state_fingerprint(app.merger);
    rt.stop();
  }

  // Crash DURING a later checkpoint: a torn file with a newer id exists,
  // but — because compaction runs only AFTER a durable write succeeds —
  // it never licensed any truncation. The restart must skip it, boot from
  // the previous checkpoint, and replay the suffix to the identical state.
  {
    std::ofstream torn(durability::checkpoint_path(log_dir, good_id + 1),
                       std::ios::binary);
    torn << "torn mid-write";
  }

  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
  EXPECT_TRUE(rt.recovery_info().from_checkpoint);
  EXPECT_EQ(rt.recovery_info().skipped_invalid, 1u);
  EXPECT_EQ(rt.recovery_info().checkpoint_id, good_id);
  rt.start();
  EXPECT_TRUE(durability::ReplayDriver::catch_up(rt).caught_up);
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.state_fingerprint(app.merger), fingerprint);

  // A later successful checkpoint must never reuse the torn file's id.
  const auto stats = rt.checkpoint_manager()->checkpoint_now();
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_GT(stats.id, good_id + 1);
  rt.stop();
}

TEST_F(TieredRestartTest, NoCheckpointMeansColdReplayStillWorks) {
  const std::string log_dir = dir_.string();
  std::uint64_t fingerprint = 0;
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
    rt.start();
    for (int i = 0; i < 5; ++i) inject_pair(rt, app, i);
    ASSERT_TRUE(rt.drain());
    fingerprint = rt.state_fingerprint(app.merger);
    rt.stop();
  }
  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
  EXPECT_FALSE(rt.recovery_info().from_checkpoint);
  EXPECT_EQ(rt.recovery_info().suffix_records, 10u);
  rt.start();
  EXPECT_TRUE(durability::ReplayDriver::catch_up(rt).caught_up);
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.state_fingerprint(app.merger), fingerprint);
  rt.stop();
}

TEST_F(TieredRestartTest, RestartKeepsAcceptingAndCheckpointing) {
  const std::string log_dir = dir_.string();
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
    rt.start();
    for (int i = 0; i < 4; ++i) inject_pair(rt, app, i);
    settle(rt);
    ASSERT_TRUE(rt.checkpoint_manager()->checkpoint_now().ok);
    rt.stop();
  }
  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
  rt.start();
  EXPECT_TRUE(durability::ReplayDriver::catch_up(rt).caught_up);
  // New injections continue the per-wire sequence past the covered prefix.
  inject_pair(rt, app, 50);
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.external_log().next_seq(app.in1), 5u);
  const auto stats = rt.checkpoint_manager()->checkpoint_now();
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.covered_records, 10u);
  rt.stop();
}

TEST_F(TieredRestartTest, IntervalTriggerWritesCheckpointsAutomatically) {
  const std::string log_dir = dir_.string();
  DurableApp app;
  core::RuntimeConfig config = durable_config(log_dir);
  config.durability.interval_ms = 20;
  core::Runtime rt(app.topo, app.placement(), config);
  rt.start();
  for (int i = 0; i < 4; ++i) inject_pair(rt, app, i);
  ASSERT_TRUE(rt.drain());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.checkpoint_manager()->checkpoints_written() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(rt.checkpoint_manager()->checkpoints_written(), 0u);
  rt.stop();
  EXPECT_FALSE(
      durability::CheckpointReader::list(log_dir).empty());
}

// --- Cold restart of a whole deployment from its log directory --------------

using Observed = std::vector<std::pair<std::int64_t, std::int64_t>>;

Observed observed(core::Runtime& rt, WireId out) {
  Observed result;
  for (const auto& r : rt.output_records(out))
    result.emplace_back(r.vt.ticks(), r.payload.as_int());
  return result;
}

core::RuntimeConfig log_dir_config(const std::string& log_dir) {
  core::RuntimeConfig config;
  config.log_dir = log_dir;
  return config;
}

class ColdRestartTest : public DurabilityTest {};

TEST_F(ColdRestartTest, WholeDeploymentRecoversFromLogDirectory) {
  const core::RuntimeConfig config = log_dir_config(dir_.string());
  Observed first_run;
  std::uint64_t first_fingerprint = 0;
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), config);
    rt.start();
    for (int i = 0; i < 10; ++i) inject_pair(rt, app, i);
    ASSERT_TRUE(rt.drain());
    first_run = observed(rt, app.out);
    first_fingerprint = rt.state_fingerprint(app.merger);
    rt.stop();
    // The process "dies" here: all in-memory state (including the passive
    // replica) is gone; only the log directory survives.
  }

  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), config);
  rt.start();  // replays the recovered log automatically
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(observed(rt, app.out), first_run);
  EXPECT_EQ(rt.state_fingerprint(app.merger), first_fingerprint);
  rt.stop();
}

TEST_F(ColdRestartTest, RestartContinuesAcceptingNewInput) {
  const core::RuntimeConfig config = log_dir_config(dir_.string());
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), config);
    rt.start();
    rt.inject_at(app.in1, VirtualTime(1000), apps::sentence({"x", "y"}));
    rt.inject_at(app.in2, VirtualTime(900), apps::sentence({"z"}));
    ASSERT_TRUE(rt.drain());
    rt.stop();
  }
  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), config);
  rt.start();
  // New injections continue the per-wire sequence past the recovered log.
  rt.inject_at(app.in1, VirtualTime(10'000'000), apps::sentence({"x"}));
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.output_records(app.out).size(), 3u);
  EXPECT_EQ(rt.external_log().size(app.in1), 2u);
  rt.stop();
}

TEST_F(ColdRestartTest, ResumesFromPersistedCheckpoints) {
  core::RuntimeConfig config = log_dir_config(dir_.string());
  config.checkpoint.every_n_messages = 3;

  std::uint64_t fingerprint = 0;
  std::int64_t final_total = 0;
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), config);
    rt.start();
    for (int i = 0; i < 12; ++i) inject_pair(rt, app, i);
    // Settle (drain would close the inputs for good), then persist the
    // soft checkpoints in a durable checkpoint file.
    settle(rt);
    const auto ckpt = rt.checkpoint_manager()->checkpoint_now();
    ASSERT_TRUE(ckpt.ok) << ckpt.error;
    ASSERT_TRUE(rt.drain());
    fingerprint = rt.state_fingerprint(app.merger);
    final_total = observed(rt, app.out).back().second;
    rt.stop();
  }

  // Cold restart 1: checkpoints come back from the checkpoint file, the
  // log suffix replays, and the deployment ends bit-identical.
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), config);
    EXPECT_GT(rt.replica().latest_version(app.merger), 0u);
    rt.start();
    ASSERT_TRUE(rt.drain());
    EXPECT_EQ(rt.state_fingerprint(app.merger), fingerprint);
    rt.stop();
  }

  // Cold restart 2: the restarted deployment keeps running — repeated
  // words hit the restored vocabulary, so the total strictly grows.
  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), config);
  rt.start();
  rt.inject_at(app.in1, VirtualTime(100'000'000),
               apps::sentence({"a", "b", "c"}));
  ASSERT_TRUE(rt.drain());
  const auto records = observed(rt, app.out);
  ASSERT_FALSE(records.empty());
  EXPECT_GT(records.back().second, final_total);
  rt.stop();
}

// A log directory written by the older unsegmented mode — one
// messages.log of encoded Messages, a replica.log of soft checkpoints and a
// faults.log — upgrades in place: the log is adopted as segment 0, the
// stale replica.log is ignored (plans live only in checkpoint files), and
// the restart replays the whole log to the never-restarted result.
TEST_F(ColdRestartTest, UpgradesUnsegmentedLogDirectory) {
  const std::string log_dir = dir_.string();
  constexpr int kPairs = 10;
  Observed reference;
  std::uint64_t reference_fingerprint = 0;
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), core::RuntimeConfig{});
    rt.start();
    for (int i = 0; i < kPairs; ++i) inject_pair(rt, app, i);
    ASSERT_TRUE(rt.drain());
    reference = observed(rt, app.out);
    reference_fingerprint = rt.state_fingerprint(app.merger);

    // The older on-disk layout, record for record.
    log::FileStableStore messages(log_dir + "/messages.log");
    for (const WireId wire : {app.in1, app.in2})
      for (const Message& m : rt.external_log().replay_from_seq(wire, 0)) {
        serde::Writer w;
        m.encode(w);
        ASSERT_TRUE(messages.append(w.bytes()));
      }
    checkpoint::ComponentSnapshot stale;
    stale.component = app.merger;
    stale.version = 1;
    stale.state = bytes({1, 2, 3});
    serde::Writer w;
    stale.encode(w);
    ASSERT_TRUE(
        log::FileStableStore(log_dir + "/replica.log").append(w.bytes()));
    // A recalibration far past the workload: reloaded, never applied.
    log::DeterminismFaultLog faults;
    log::FileStableStore fault_store(log_dir + "/faults.log");
    faults.attach_store(&fault_store);
    faults.append(log::FaultRecord{app.s1, 1, VirtualTime(1'000'000'000'000),
                                   {0.0, 61000.0}});
    rt.stop();
  }

  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), log_dir_config(log_dir));
    EXPECT_FALSE(std::filesystem::exists(log_dir + "/messages.log"));
    EXPECT_TRUE(std::filesystem::exists(
        log_dir + "/messages.00000000000000000000.seg"));
    EXPECT_EQ(rt.recovery_info().suffix_records, 2u * kPairs);
    EXPECT_FALSE(rt.recovery_info().from_checkpoint);
    EXPECT_EQ(rt.replica().latest_version(app.merger), 0u);
    EXPECT_EQ(rt.fault_log().total_records(), 1u);
    rt.start();
    ASSERT_TRUE(rt.drain());
    EXPECT_EQ(observed(rt, app.out), reference);
    EXPECT_EQ(rt.state_fingerprint(app.merger), reference_fingerprint);
    rt.stop();
  }

  // The upgraded directory keeps working: new injections continue the
  // per-wire sequence past the adopted log.
  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), log_dir_config(log_dir));
  rt.start();
  rt.inject_at(app.in1, VirtualTime(100'000'000), apps::sentence({"a"}));
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.external_log().next_seq(app.in1), kPairs + 1u);
  EXPECT_EQ(rt.external_log().size(app.in1), kPairs + 1u);
  EXPECT_EQ(observed(rt, app.out).size(), reference.size() + 1);
  rt.stop();
}

// --- Fuzz: the on-disk decoders a restart reads (ASan-backed) ----------------
//
// Checkpoint files, segment files, the log records inside them and
// determinism-fault records: every truncation prefix and seeded random byte
// mutations of a valid encoding must either decode or fail typed — a
// refused checkpoint (nullopt), a shorter intact segment prefix, or
// serde::DecodeError — never crash or allocate without bound.

using tart::testing::kMutationRounds;
using tart::testing::mutate;

template <typename T>
Bytes encode(const T& value) {
  serde::Writer w;
  value.encode(w);
  return w.take();
}

/// One encoded external message per payload kind, alternating two wires.
std::vector<Bytes> sample_records() {
  const Payload payloads[] = {
      Payload("sentence one"), Payload(std::int64_t{-42}),
      Payload(std::vector<std::int64_t>{1, 2, 300000}),
      Payload(std::vector<std::string>{"a", "bb"}), Payload(bytes({7, 9})),
      Payload(2.5), Payload()};
  std::vector<Bytes> records;
  for (std::uint64_t i = 0; i < std::size(payloads); ++i) {
    Message m = external(WireId(i % 2), 1000 * static_cast<std::int64_t>(i + 1),
                         i / 2);
    m.payload = payloads[i];
    records.push_back(encode(m));
  }
  return records;
}

/// A checkpoint file around `body` with `file`'s magic and version and a
/// matching FNV trailer — the checksum passes, so the body decoder itself
/// is what gets exercised.
Bytes sealed_file(const Bytes& file, const Bytes& body) {
  serde::Writer w;
  w.write_raw(file.data(), 8);
  w.write_u64(body.size());
  w.write_raw(body.data(), body.size());
  w.write_u64(serde::fingerprint(body));
  return w.take();
}

class DiskFuzzTest : public DurabilityTest {
 protected:
  void SetUp() override {
    DurabilityTest::SetUp();
    saved_level_ = log_level();
    set_log_level(LogLevel::kOff);  // every damaged segment logs its repair
  }
  void TearDown() override {
    set_log_level(saved_level_);
    DurabilityTest::TearDown();
  }

  std::string write_checkpoint() {
    durability::CheckpointWriter writer(dir_.string(), 1);
    durability::DurableCheckpoint c = sample_checkpoint(6);
    EXPECT_GT(writer.write(c), 0u);
    return durability::checkpoint_path(dir_.string(), c.id);
  }

  /// Writes sample_records() through a store with small segments, then
  /// reopens the store over each damaged version of the active (last)
  /// segment that `variants` makes. Each must keep an intact prefix of the
  /// records (sealed segments whole) and accept an append after the cut.
  void fuzz_active_segment(
      const std::function<std::vector<Bytes>(const Bytes&)>& variants) {
    const std::string dir = dir_.string();
    const std::vector<Bytes> original = sample_records();
    {
      log::SegmentedStore store(dir, "messages", {.segment_bytes = 160});
      for (const Bytes& r : original) ASSERT_TRUE(store.append(r));
      ASSERT_GT(store.segment_count(), 1u);
    }
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
      files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());  // by first index
    const std::string active = files.back();
    const std::size_t sealed =
        original.size() - log::FileStableStore::scan(active).size();
    const Bytes extra = bytes({0xAF, 0x7E});

    const std::vector<Bytes> damaged = variants(read_file(active));
    for (std::size_t i = 0; i < damaged.size(); ++i) {
      const std::string what = "variant " + std::to_string(i);
      // The append below may rotate: drop any segment it created.
      for (const auto& entry : std::filesystem::directory_iterator(dir))
        if (entry.path().string() > active) std::filesystem::remove(entry);
      write_file(active, damaged[i]);
      std::size_t kept = 0;
      {
        log::SegmentedStore store(dir, "messages");
        const auto got = records_from(store);
        ASSERT_GE(got.size(), sealed) << what;
        ASSERT_LE(got.size(), original.size()) << what;
        for (std::size_t r = 0; r < got.size(); ++r)
          ASSERT_EQ(got[r], original[r]) << what << " record " << r;
        kept = got.size();
        ASSERT_TRUE(store.append(extra)) << what;
      }
      const auto got = records_from(log::SegmentedStore(dir, "messages"));
      ASSERT_EQ(got.size(), kept + 1) << what;
      EXPECT_EQ(got.back(), extra) << what;
    }
  }

  /// Loads `records` into `log` the way a restart does: through a fresh
  /// segmented store that holds exactly these records.
  void load_through_store(log::ExternalMessageLog& log,
                          const std::vector<Bytes>& records) {
    const std::string dir = (dir_ / "log").string();
    std::filesystem::remove_all(dir);
    log::SegmentedStore store(dir, "messages");
    ASSERT_TRUE(store.append_batch(records));
    log.load(store, 0);
  }

  LogLevel saved_level_ = LogLevel::kWarn;
};

TEST_F(DiskFuzzTest, CheckpointFileEveryTruncationIsRefused) {
  const std::string path = write_checkpoint();
  const Bytes file = read_file(path);
  const Bytes body(file.begin() + 16, file.end() - 8);
  const auto whole = durability::CheckpointReader::load(path);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(encode(*whole), body);

  // Torn files: every strict prefix fails the frame or the checksum.
  for (std::size_t cut = 0; cut < file.size(); ++cut) {
    write_file(path, Bytes(file.begin(), file.begin() + cut));
    EXPECT_FALSE(durability::CheckpointReader::load(path)) << "prefix " << cut;
  }
  // Truncated bodies re-sealed with a matching checksum: the body decoder
  // must run out of bytes and refuse, at every cut.
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    write_file(path, sealed_file(file, Bytes(body.begin(), body.begin() + cut)));
    EXPECT_FALSE(durability::CheckpointReader::load(path)) << "body " << cut;
  }
}

TEST_F(DiskFuzzTest, CheckpointBodyMutationsDecodeOrAreRefused) {
  const std::string path = write_checkpoint();
  const Bytes file = read_file(path);
  const Bytes body(file.begin() + 16, file.end() - 8);
  Rng rng(0xC4EC4B01);
  int decoded = 0;
  for (int round = 0; round < kMutationRounds; ++round) {
    write_file(path, sealed_file(file, mutate(body, rng)));
    const auto loaded = durability::CheckpointReader::load(path);
    if (!loaded) continue;
    ++decoded;
    // Whatever decoded re-encodes to a body the reader accepts again.
    write_file(path, sealed_file(file, encode(*loaded)));
    EXPECT_TRUE(durability::CheckpointReader::load(path));
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kMutationRounds);
}

TEST_F(DiskFuzzTest, SegmentTruncationsKeepPrefixAndAcceptAppends) {
  fuzz_active_segment([](const Bytes& active) {
    std::vector<Bytes> prefixes;
    for (std::size_t cut = 0; cut < active.size(); ++cut)
      prefixes.emplace_back(active.begin(), active.begin() + cut);
    return prefixes;
  });
}

TEST_F(DiskFuzzTest, SegmentMutationsKeepPrefixAndAcceptAppends) {
  Rng rng(0x5E6F11E5);
  fuzz_active_segment([&rng](const Bytes& active) {
    std::vector<Bytes> mutants;
    for (int round = 0; round < 300; ++round)
      mutants.push_back(mutate(active, rng));
    return mutants;
  });
}

TEST_F(DiskFuzzTest, LogRecordTruncationsFailTypedAndLeaveLogEmpty) {
  const std::vector<Bytes> records = sample_records();
  {
    log::ExternalMessageLog log;
    load_through_store(log, records);
    EXPECT_EQ(log.total_size(), records.size());
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (std::size_t cut = 0; cut < records[i].size(); ++cut) {
      std::vector<Bytes> damaged = records;
      damaged[i].resize(cut);
      log::ExternalMessageLog log;
      EXPECT_THROW(load_through_store(log, damaged), serde::DecodeError)
          << "record " << i << " cut " << cut;
      EXPECT_EQ(log.total_size(), 0u);
      EXPECT_EQ(log.next_seq(WireId(0)), 0u);
    }
  }
}

TEST_F(DiskFuzzTest, LogRecordMutationsLoadOrFailTyped) {
  const std::vector<Bytes> records = sample_records();
  Rng rng(0x10C4EC0D);
  int loaded = 0;
  for (int round = 0; round < kMutationRounds; ++round) {
    std::vector<Bytes> damaged = records;
    const std::size_t i = rng.bounded(damaged.size());
    damaged[i] = mutate(damaged[i], rng);
    log::ExternalMessageLog log;
    try {
      load_through_store(log, damaged);
      EXPECT_EQ(log.total_size(), records.size());
      ++loaded;
    } catch (const serde::DecodeError&) {
      EXPECT_EQ(log.total_size(), 0u);  // a failed load changes nothing
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kMutationRounds);
}

TEST_F(DiskFuzzTest, FaultRecordsDecodeOrFailTyped) {
  const Bytes record = encode(log::FaultRecord{
      ComponentId(3), 2, VirtualTime(90'000), {0.5, 61000.0, -3.25}});
  for (std::size_t cut = 0; cut < record.size(); ++cut) {
    serde::Reader r(record.data(), cut);
    EXPECT_THROW((void)log::FaultRecord::decode(r), serde::DecodeError)
        << "prefix " << cut;
  }
  Rng rng(0xFA017);
  int decoded = 0;
  for (int round = 0; round < kMutationRounds; ++round) {
    const Bytes damaged = mutate(record, rng);
    serde::Reader r(damaged);
    try {
      (void)log::FaultRecord::decode(r);
      ++decoded;
    } catch (const serde::DecodeError&) {
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kMutationRounds);
}

}  // namespace
}  // namespace tart
