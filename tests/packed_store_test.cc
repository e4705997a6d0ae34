// The packed message store behind the external input log and output
// retention (wire/packed_messages.h): a seeded property test of
// RetentionBuffer against a std::deque<Message> model, block reclamation,
// the log's order index over records a restart loads below their base, and
// the memory budget of a memory-only runtime's log read through its gauge.
#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/runtime.h"
#include "log/message_log.h"
#include "log/segmented_store.h"
#include "net/topologies.h"
#include "test_components.h"
#include "wire/packed_messages.h"
#include "wire/retention_buffer.h"

namespace tart {
namespace {

using Bytes = std::vector<std::byte>;

Bytes encode(const Message& m) {
  serde::Writer w;
  m.encode(w);
  return w.take();
}

/// Messages are equal when their encodings are: every field, payload
/// included.
void expect_same(const std::vector<Message>& got,
                 const std::vector<Message>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(encode(got[i]), encode(want[i])) << what << " at " << i;
}

Payload random_payload(Rng& rng) {
  switch (rng.bounded(8)) {
    case 0:
      return {};
    case 1:
      return Payload(rng.uniform_int(-1'000'000, 1'000'000));
    case 2:
      return Payload(rng.uniform(-5.0, 5.0));
    case 3:
      return Payload(std::string(rng.bounded(40), 'x'));
    case 4:
      return Payload(std::vector<std::int64_t>(rng.bounded(6), -7));
    case 5:
      return apps::sentence({"w1", "w22", "w333"});
    case 6:
      // Larger than the biggest block: the record gets a block of its own.
      if (rng.bounded(20) == 0)
        return Payload(std::vector<std::byte>(40 << 10, std::byte{0x5A}));
      return Payload(std::vector<std::byte>(rng.bounded(300), std::byte{1}));
    default:
      return Payload(std::int64_t{7});
  }
}

Message random_message(Rng& rng, std::uint64_t seq, VirtualTime vt) {
  Message m;
  m.wire = WireId(4);
  m.vt = vt;
  m.seq = seq;
  m.kind = static_cast<MessageKind>(rng.bounded(3));
  m.call_id = m.kind == MessageKind::kData ? 0 : 1 + rng.bounded(40);
  m.origin_wire = WireId(static_cast<std::uint32_t>(rng.bounded(3)));
  m.origin_seq = rng.bounded(1'000'000);
  m.origin_wall_ns = static_cast<std::int64_t>(rng.next() >> 1);
  m.payload = random_payload(rng);
  return m;
}

TEST(PackedStoreProperty, RetentionBufferMatchesDequeModel) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    RetentionBuffer buf;
    std::deque<Message> model;
    std::uint64_t next_seq = 0;
    std::int64_t vt = 1000;
    std::vector<Message> chunk;
    for (int step = 0; step < 1500; ++step) {
      const std::string what =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const std::uint64_t first = model.empty() ? next_seq : model.front().seq;
      const std::uint64_t op = rng.bounded(100);
      if (op < 55) {
        vt += static_cast<std::int64_t>(rng.bounded(3));  // ties allowed
        const Message m = random_message(rng, next_seq++, VirtualTime(vt));
        buf.record(m);
        model.push_back(m);
      } else if (op < 62) {
        const VirtualTime through(vt - static_cast<std::int64_t>(rng.bounded(
                                           static_cast<std::uint64_t>(
                                               model.size() + 2))));
        buf.acknowledge_through(through);
        while (!model.empty() && model.front().vt <= through)
          model.pop_front();
      } else if (op < 69) {
        const std::uint64_t below =
            first + rng.bounded(model.size() + 3) - std::min<std::uint64_t>(
                                                       first, 1);
        std::size_t dropped = 0;
        while (!model.empty() && model.front().seq < below) {
          model.pop_front();
          ++dropped;
        }
        EXPECT_EQ(buf.trim_below_seq(below), dropped) << what;
      } else if (op < 79) {
        // A replay served as a loop of bounded chunks.
        std::uint64_t from =
            first + rng.bounded(model.size() + 3) - std::min<std::uint64_t>(
                                                      first, 1);
        std::vector<Message> want;
        for (const Message& m : model)
          if (m.seq >= from) want.push_back(m);
        const std::size_t max = 1 + rng.bounded(70);
        std::vector<Message> got;
        while (buf.read_from_seq(from, max, chunk) > 0) {
          EXPECT_LE(chunk.size(), max) << what;
          from = chunk.back().seq + 1;
          got.insert(got.end(), chunk.begin(), chunk.end());
        }
        expect_same(got, want, what + " read_from_seq");
      } else if (op < 85) {
        const std::uint64_t id = rng.bounded(45);
        const auto got = buf.find_by_call_id(id);
        const auto want = std::find_if(
            model.begin(), model.end(),
            [id](const Message& m) { return m.call_id == id; });
        ASSERT_EQ(got.has_value(), want != model.end()) << what;
        if (got) expect_same({*got}, {*want}, what + " find_by_call_id");
      } else if (op < 89) {
        const VirtualTime after(vt - static_cast<std::int64_t>(rng.bounded(
                                         static_cast<std::uint64_t>(
                                             model.size() + 2))));
        std::vector<Message> want;
        for (const Message& m : model)
          if (m.vt > after) want.push_back(m);
        expect_same(buf.replay_after(after), want, what + " replay_after");
      } else if (op < 94) {
        expect_same(buf.contents(), {model.begin(), model.end()},
                    what + " contents");
      } else if (op < 98) {
        // Checkpoint restore: reinstall a suffix of the current contents.
        const std::size_t drop = rng.bounded(model.size() + 1);
        model.erase(model.begin(),
                    model.begin() + static_cast<std::ptrdiff_t>(drop));
        buf.restore({model.begin(), model.end()}, next_seq);
      } else {
        buf.clear();
        model.clear();
        next_seq = 0;
      }
      ASSERT_EQ(buf.size(), model.size()) << what;
      ASSERT_EQ(buf.empty(), model.empty()) << what;
      // Every block is freed once nothing is retained.
      ASSERT_EQ(buf.memory_bytes() == 0, model.empty()) << what;
    }
  }
}

TEST(PackedStoreTest, TrimmingFreesWholeBlocksOnly) {
  PackedMessages p;
  Message m;
  m.wire = WireId(1);
  for (std::uint64_t s = 0; s < 20000; ++s) {
    m.seq = 100 + s;
    m.vt = VirtualTime(static_cast<std::int64_t>(s));
    m.payload = Payload(static_cast<std::int64_t>(s));
    p.append(m);
  }
  EXPECT_EQ(p.first_seq(), 100u);
  EXPECT_EQ(p.end_seq(), 20100u);
  const std::size_t full = p.memory_bytes();
  // One record out of the first block frees nothing; most of the run
  // frees most of the blocks.
  p.pop_front(1);
  EXPECT_EQ(p.memory_bytes(), full);
  p.pop_front(16000);
  EXPECT_LT(p.memory_bytes(), full / 3);
  EXPECT_EQ(p.at(16101).payload, Payload(std::int64_t{16001}));
  EXPECT_EQ(p.first_after(VirtualTime(16500)), 16601u);
  p.pop_front(3999);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.memory_bytes(), 0u);
}

TEST(PackedStoreTest, LogTruncationFreesTheCoveredPrefix) {
  log::ExternalMessageLog log;
  const WireId w(2);
  for (std::uint64_t s = 0; s < 20000; ++s) {
    Message m;
    m.wire = w;
    m.seq = s;
    m.vt = VirtualTime(static_cast<std::int64_t>(10 * s));
    m.payload = apps::sentence({"a", "b"});
    log.append(m);
  }
  const std::uint64_t full = log.memory_bytes();
  log.truncate_covered({{w, 15000}});
  EXPECT_LT(log.memory_bytes(), full / 3);
  log.truncate_covered({{w, 20000}});
  EXPECT_EQ(log.memory_bytes(), 0u);
  EXPECT_EQ(log.next_seq(w), 20000u);
  EXPECT_EQ(log.last_vt(w), VirtualTime(199990));
}

/// A restart loads records that their wire's checkpoint base already covers
/// (their segment was not reclaimed): they are not retained, but the order
/// index still accounts for them record for record.
TEST(PackedStoreTest, LoadedCoveredRecordsKeepTheOrderIndex) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tart_packed_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const WireId w0(0), w1(1);
  {
    log::SegmentedStore store(dir.string(), "messages");
    const std::pair<WireId, std::uint64_t> order[] = {
        {w0, 0}, {w1, 0}, {w0, 1}, {w1, 1}, {w0, 2}, {w1, 2}};
    for (const auto& [wire, seq] : order) {
      Message m;
      m.wire = wire;
      m.seq = seq;
      m.vt = VirtualTime(100 + static_cast<std::int64_t>(seq));
      ASSERT_TRUE(store.append(encode(m)));
    }
  }
  log::SegmentedStore store(dir.string(), "messages");
  log::ExternalMessageLog log;
  log.set_base(w0, 2, VirtualTime(101));
  log.set_base(w1, 1, VirtualTime(100));
  log.load(store, 0);
  EXPECT_EQ(log.size(w0), 1u);
  EXPECT_EQ(log.size(w1), 2u);
  EXPECT_EQ(log.covered_record_index({{w0, 2}, {w1, 1}}), 3u);
  EXPECT_EQ(log.covered_record_index({{w0, 3}, {w1, 3}}), 6u);
  EXPECT_EQ(log.truncate_covered({{w0, 2}, {w1, 2}}), 4u);
  EXPECT_EQ(log.size(w0), 1u);
  EXPECT_EQ(log.size(w1), 1u);
  EXPECT_EQ(log.next_seq(w1), 3u);
  EXPECT_EQ(log.vt_below(w1, 2), VirtualTime(101));
  EXPECT_EQ(log.covered_record_index({{w0, 3}, {w1, 3}}), 6u);
  const auto replay = log.replay_from_seq(w0, 0);
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].seq, 2u);
  std::filesystem::remove_all(dir);
}

/// The log's in-memory cost, read through tart_log_memory_bytes: at most
/// 16 bytes per record beyond its encoding, order index included.
TEST(PackedStoreBudget, MemoryOnlyLogCostsItsEncodingPlus16BytesARecord) {
  const net::BuiltTopology built = net::build_topology("wordcount", {});
  std::map<ComponentId, EngineId> placement;
  placement[built.components.at("sender1")] = EngineId(0);
  placement[built.components.at("sender2")] = EngineId(0);
  placement[built.components.at("merger")] = EngineId(1);
  const WireId in[] = {built.inputs.at("sender1"), built.inputs.at("sender2")};
  core::Runtime rt(built.topology, placement, core::RuntimeConfig{});
  rt.start();
  constexpr int kSentences = 20000;
  Rng rng(7);
  std::vector<core::InjectRequest> batch;
  for (int i = 0; i < kSentences; ++i) {
    std::vector<std::string> words(1 + rng.bounded(8));
    for (auto& word : words) word = "w" + std::to_string(rng.bounded(64));
    batch.push_back({in[i % 2], 1000 + 50'000 * std::int64_t{i},
                     Payload(std::move(words))});
    if (batch.size() == 1000) {
      for (const auto& r : rt.try_inject_batch(batch))
        ASSERT_EQ(r.status, core::InjectStatus::kOk);
      batch.clear();
    }
  }
  ASSERT_TRUE(rt.drain(std::chrono::seconds(60)));

  std::uint64_t records = 0, encoded = 0;
  for (const WireId w : in)
    for (const Message& m : rt.external_log().replay_from_seq(w, 0)) {
      ++records;
      encoded += encode(m).size();
    }
  ASSERT_EQ(records, static_cast<std::uint64_t>(kSentences));

  rt.harvest_telemetry();
  std::int64_t log_bytes = -1;
  std::map<std::string, std::int64_t> retention;
  for (const obs::Sample& s : rt.registry().samples()) {
    if (s.name == "tart_log_memory_bytes") log_bytes = s.gauge_value;
    if (s.name == "tart_retention_memory_bytes")
      retention[s.labels.at(0).value] = s.gauge_value;
  }
  EXPECT_GT(log_bytes, static_cast<std::int64_t>(encoded));
  EXPECT_LE(log_bytes, static_cast<std::int64_t>(encoded + 16 * records));
  // Each sender retains its emits to the merger; the merger's only output
  // is external and retains nothing.
  EXPECT_GT(retention["sender1"], 0);
  EXPECT_GT(retention["sender2"], 0);
  EXPECT_EQ(retention["merger"], 0);
  rt.stop();
}

}  // namespace
}  // namespace tart
