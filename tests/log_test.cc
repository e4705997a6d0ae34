// Tests for the external message log and the determinism-fault log.
#include <gtest/gtest.h>

#include "log/fault_log.h"
#include "log/message_log.h"

namespace tart::log {
namespace {

Message external(WireId wire, std::int64_t vt, std::uint64_t seq,
                 const char* text) {
  Message m;
  m.wire = wire;
  m.vt = VirtualTime(vt);
  m.seq = seq;
  m.payload = Payload(text);
  return m;
}

TEST(MessageLogTest, AppendAndReplayAfterVt) {
  ExternalMessageLog log;
  const WireId w(0);
  log.append(external(w, 50000, 0, "a"));
  log.append(external(w, 80000, 1, "b"));
  log.append(external(w, 90000, 2, "c"));

  const auto replayed = log.replay_after(w, VirtualTime(50000));
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].payload.as_string(), "b");
  EXPECT_EQ(replayed[1].payload.as_string(), "c");
}

TEST(MessageLogTest, ReplayFromSeq) {
  ExternalMessageLog log;
  const WireId w(0);
  for (int i = 0; i < 5; ++i)
    log.append(external(w, 1000 * (i + 1), static_cast<std::uint64_t>(i), "x"));
  EXPECT_EQ(log.replay_from_seq(w, 2).size(), 3u);
  EXPECT_EQ(log.replay_from_seq(w, 0).size(), 5u);
  // The bounded feed: chunks of at most `max`, in seq order.
  std::vector<Message> chunk;
  EXPECT_EQ(log.read_from_seq(w, 1, 3, chunk), 3u);
  EXPECT_EQ(chunk.front().seq, 1u);
  EXPECT_EQ(chunk.back().seq, 3u);
  EXPECT_EQ(log.read_from_seq(w, 4, 3, chunk), 1u);
  EXPECT_EQ(chunk.front().seq, 4u);
  EXPECT_EQ(log.read_from_seq(w, 5, 3, chunk), 0u);
  EXPECT_TRUE(chunk.empty());
  EXPECT_EQ(log.read_from_seq(WireId(9), 0, 3, chunk), 0u);
}

TEST(MessageLogTest, WiresAreIndependent) {
  ExternalMessageLog log;
  log.append(external(WireId(0), 100, 0, "w0"));
  log.append(external(WireId(1), 200, 0, "w1"));
  EXPECT_EQ(log.size(WireId(0)), 1u);
  EXPECT_EQ(log.size(WireId(1)), 1u);
  EXPECT_EQ(log.total_size(), 2u);
  EXPECT_EQ(log.replay_after(WireId(0), VirtualTime(-1)).size(), 1u);
}

TEST(MessageLogTest, EmptyWireBehaviour) {
  ExternalMessageLog log;
  EXPECT_EQ(log.size(WireId(7)), 0u);
  EXPECT_TRUE(log.replay_after(WireId(7), VirtualTime(-1)).empty());
  EXPECT_EQ(log.last_vt(WireId(7)), VirtualTime(-1));
}

TEST(MessageLogTest, LastVtTracksAppends) {
  ExternalMessageLog log;
  const WireId w(0);
  log.append(external(w, 500, 0, "x"));
  EXPECT_EQ(log.last_vt(w), VirtualTime(500));
  log.append(external(w, 900, 1, "y"));
  EXPECT_EQ(log.last_vt(w), VirtualTime(900));
}

TEST(FaultLogTest, AppendAndQueryAfterVersion) {
  DeterminismFaultLog log;
  const ComponentId c(1);
  log.append(FaultRecord{c, 1, VirtualTime(100'000'000), {0.0, 62000.0}});
  log.append(FaultRecord{c, 2, VirtualTime(200'000'000), {0.0, 61500.0}});

  EXPECT_EQ(log.latest_version(c), 2u);
  const auto all = log.records_after(c, 0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].version, 1u);
  const auto tail = log.records_after(c, 1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].version, 2u);
  EXPECT_EQ(tail[0].coefficients[1], 61500.0);
}

TEST(FaultLogTest, ComponentsAreIndependent) {
  DeterminismFaultLog log;
  log.append(FaultRecord{ComponentId(0), 1, VirtualTime(10), {1.0}});
  EXPECT_EQ(log.latest_version(ComponentId(1)), 0u);
  EXPECT_TRUE(log.records_after(ComponentId(1), 0).empty());
  EXPECT_EQ(log.total_records(), 1u);
}

}  // namespace
}  // namespace tart::log
