// Tests for file-backed stable storage: durability across "restarts",
// torn-write tolerance, and write-through persistence of the external
// message log (through its segmented store) and the determinism-fault log.
// Whole-deployment restarts from a log directory are in durability_test.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "log/fault_log.h"
#include "log/message_log.h"
#include "log/segmented_store.h"
#include "log/stable_store.h"

namespace tart::log {
namespace {

class StableStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tart_store_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::vector<std::byte> bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (const int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST_F(StableStoreTest, AppendScanRoundTrip) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    EXPECT_TRUE(store.append(bytes({1, 2, 3})));
    EXPECT_TRUE(store.append(bytes({})));
    EXPECT_TRUE(store.append(bytes({42})));
    EXPECT_EQ(store.records_written(), 3u);
  }
  const auto records = FileStableStore::scan(p);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], bytes({1, 2, 3}));
  EXPECT_EQ(records[1], bytes({}));
  EXPECT_EQ(records[2], bytes({42}));
}

TEST_F(StableStoreTest, AppendBatchRoundTripWithOneFlush) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    const std::vector<std::vector<std::byte>> batch = {
        bytes({1, 2}), bytes({}), bytes({3, 4, 5})};
    EXPECT_TRUE(store.append_batch(batch));
    EXPECT_EQ(store.records_written(), 3u);
    // The whole batch became durable at ONE flush — the group commit.
    EXPECT_EQ(store.flushes(), 1u);
    EXPECT_TRUE(store.append(bytes({9})));
    EXPECT_EQ(store.flushes(), 2u);
  }
  const auto records = FileStableStore::scan(p);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0], bytes({1, 2}));
  EXPECT_EQ(records[1], bytes({}));
  EXPECT_EQ(records[2], bytes({3, 4, 5}));
  EXPECT_EQ(records[3], bytes({9}));
}

TEST_F(StableStoreTest, EmptyBatchDoesNotFlush) {
  FileStableStore store(path("log"));
  EXPECT_TRUE(store.append_batch({}));
  EXPECT_EQ(store.records_written(), 0u);
  EXPECT_EQ(store.flushes(), 0u);
}

TEST_F(StableStoreTest, TornBatchedWriteRecoversIntactPrefix) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    const std::vector<std::vector<std::byte>> batch = {
        bytes({1, 1}), bytes({2, 2}), bytes({3, 3})};
    ASSERT_TRUE(store.append_batch(batch));
  }
  // Crash mid-batch: the tail of the single batched write never hit disk.
  // The intact per-record frames before the tear must still scan.
  const auto size = std::filesystem::file_size(p);
  std::filesystem::resize_file(p, size - 3);
  const auto records = FileStableStore::scan(p);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], bytes({1, 1}));
  EXPECT_EQ(records[1], bytes({2, 2}));
}

TEST_F(StableStoreTest, TornBatchHeaderDropsOnlyTornRecord) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    ASSERT_TRUE(store.append_batch(
        std::vector<std::vector<std::byte>>{bytes({5, 5, 5}), bytes({6})}));
  }
  // Tear inside the second record's frame HEADER (frame = 16-byte header
  // + payload: file is 16+3 + 16+1; chop 9 bytes to land mid-header).
  const auto size = std::filesystem::file_size(p);
  std::filesystem::resize_file(p, size - 9);
  const auto records = FileStableStore::scan(p);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], bytes({5, 5, 5}));
}

TEST_F(StableStoreTest, ReopenAppends) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    store.append(bytes({1}));
  }
  {
    FileStableStore store(p);  // process restart
    store.append(bytes({2}));
  }
  EXPECT_EQ(FileStableStore::scan(p).size(), 2u);
}

TEST_F(StableStoreTest, MissingFileScansEmpty) {
  EXPECT_TRUE(FileStableStore::scan(path("nonexistent")).empty());
}

TEST_F(StableStoreTest, TornFinalRecordDropped) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    store.append(bytes({1, 1, 1}));
    store.append(bytes({2, 2, 2}));
  }
  // Simulate a crash mid-write: chop the last few bytes.
  const auto size = std::filesystem::file_size(p);
  std::filesystem::resize_file(p, size - 2);
  const auto records = FileStableStore::scan(p);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], bytes({1, 1, 1}));
}

TEST_F(StableStoreTest, CorruptedChecksumStopsScan) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    store.append(bytes({1, 1, 1}));
    store.append(bytes({2, 2, 2}));
  }
  // Flip a payload byte of the second record (last byte of the file).
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-1, std::ios::end);
  f.put('\xFF');
  f.close();
  EXPECT_EQ(FileStableStore::scan(p).size(), 1u);
}

/// Rebuilds `log` from the segmented store in `dir` — the restart path.
void recover_log(const std::string& dir, ExternalMessageLog& log) {
  const SegmentedStore store(dir, "messages");
  log.load(store, 0);
}

TEST_F(StableStoreTest, MessageLogWriteThroughAndRecover) {
  Message m;
  m.wire = WireId(3);
  m.vt = VirtualTime(50000);
  m.seq = 0;
  m.payload = Payload("sentence");
  {
    ExternalMessageLog log;
    SegmentedStore store(dir_.string(), "messages");
    log.attach_store(&store);
    log.append(m);
    Message m2 = m;
    m2.vt = VirtualTime(80000);
    m2.seq = 1;
    log.append(m2);
  }
  // "Restart": a fresh log rebuilt from stable storage serves replay.
  ExternalMessageLog recovered;
  recover_log(dir_.string(), recovered);
  EXPECT_EQ(recovered.size(WireId(3)), 2u);
  const auto replay = recovered.replay_after(WireId(3), VirtualTime(-1));
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_EQ(replay[0].payload.as_string(), "sentence");
  EXPECT_EQ(recovered.last_vt(WireId(3)), VirtualTime(80000));
}

TEST_F(StableStoreTest, MessageLogAppendBatchOneFlushAndRecover) {
  {
    ExternalMessageLog log;
    SegmentedStore store(dir_.string(), "messages");
    log.attach_store(&store);
    std::vector<Message> batch;
    for (int i = 0; i < 5; ++i) {
      Message m;
      m.wire = WireId(i % 2);  // interleave two wires in one batch
      m.seq = static_cast<std::uint64_t>(i / 2);
      m.vt = VirtualTime(1000 * (i + 1));
      m.payload = Payload(static_cast<std::int64_t>(i));
      batch.push_back(std::move(m));
    }
    EXPECT_TRUE(log.append_batch(batch));
    EXPECT_EQ(store.records_written(), 5u);
    EXPECT_EQ(store.flushes(), 1u);
  }
  ExternalMessageLog recovered;
  recover_log(dir_.string(), recovered);
  EXPECT_EQ(recovered.size(WireId(0)), 3u);
  EXPECT_EQ(recovered.size(WireId(1)), 2u);
  const auto replay = recovered.replay_after(WireId(0), VirtualTime(-1));
  ASSERT_EQ(replay.size(), 3u);
  EXPECT_EQ(replay[0].payload.as_int(), 0);
  EXPECT_EQ(replay[2].payload.as_int(), 4);
}

TEST_F(StableStoreTest, FaultLogWriteThroughAndRecover) {
  const std::string p = path("faults");
  {
    DeterminismFaultLog log;
    FileStableStore store(p);
    log.attach_store(&store);
    log.append(FaultRecord{ComponentId(1), 1, VirtualTime(100'000'000),
                           {0.0, 62000.0}});
    log.append(FaultRecord{ComponentId(1), 2, VirtualTime(200'000'000),
                           {0.0, 61500.0}});
  }
  DeterminismFaultLog recovered;
  recovered.load_from(p);
  EXPECT_EQ(recovered.latest_version(ComponentId(1)), 2u);
  const auto records = recovered.records_after(ComponentId(1), 0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].coefficients[1], 62000.0);
  EXPECT_EQ(records[1].effective_vt, VirtualTime(200'000'000));
}

TEST_F(StableStoreTest, FaultRecordCodecRoundTrip) {
  FaultRecord rec{ComponentId(7), 3, VirtualTime::infinity(), {1.5, -2.25}};
  serde::Writer w;
  rec.encode(w);
  serde::Reader r(w.bytes());
  const FaultRecord d = FaultRecord::decode(r);
  EXPECT_EQ(d.component, rec.component);
  EXPECT_EQ(d.version, 3u);
  EXPECT_TRUE(d.effective_vt.is_infinite());
  EXPECT_EQ(d.coefficients, rec.coefficients);
}

}  // namespace
}  // namespace tart::log
