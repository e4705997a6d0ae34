// Property tests for the pessimistic-merge inbox against an oracle: no
// matter how message arrivals and (sound) silence announcements
// interleave in real time, the delivery sequence is exactly the global
// (virtual time, wire id) sorted merge of all streams — complete, ordered,
// duplicate-free, and never early (a message is only released once every
// other wire provably cannot preempt it).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "wire/inbox.h"

namespace tart {
namespace {

struct Stream {
  WireId wire;
  std::vector<Message> messages;  // strictly increasing vt, seq 0..n-1
  std::size_t offered = 0;        // next index to offer
  VirtualTime announced{-1};      // explicit silence announced so far
};

std::vector<Stream> generate_streams(Rng& rng, int num_wires) {
  std::vector<Stream> streams;
  for (int w = 0; w < num_wires; ++w) {
    Stream s;
    s.wire = WireId(static_cast<std::uint32_t>(w));
    std::int64_t vt = 0;
    const auto count = rng.uniform_int(5, 40);
    for (std::uint64_t seq = 0; seq < static_cast<std::uint64_t>(count);
         ++seq) {
      vt += rng.uniform_int(1, 500);
      Message m;
      m.wire = s.wire;
      m.vt = VirtualTime(vt);
      m.seq = seq;
      m.payload = Payload(static_cast<std::int64_t>(seq));
      s.messages.push_back(m);
    }
    streams.push_back(std::move(s));
  }
  return streams;
}

class InboxOracleProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(InboxOracleProperty, DeliversTheGlobalSortedMerge) {
  Rng rng(GetParam());
  const int num_wires = static_cast<int>(rng.uniform_int(2, 6));
  std::vector<Stream> streams = generate_streams(rng, num_wires);

  Inbox inbox;
  for (const auto& s : streams) inbox.add_wire(s.wire);

  // Oracle: the globally sorted merge by (vt, wire).
  std::vector<Message> oracle;
  for (const auto& s : streams)
    oracle.insert(oracle.end(), s.messages.begin(), s.messages.end());
  std::sort(oracle.begin(), oracle.end(),
            [](const Message& a, const Message& b) { return a.key() < b.key(); });

  std::vector<Message> delivered;
  auto drain_eligible = [&] {
    while (auto m = inbox.pop()) delivered.push_back(*m);
  };

  // Random interleaving of arrivals and sound silence announcements.
  std::size_t remaining = oracle.size();
  while (remaining > 0) {
    auto& s = streams[rng.bounded(streams.size())];
    if (s.offered < s.messages.size() && rng.chance(0.7)) {
      // Next arrival on this wire (FIFO per wire).
      EXPECT_EQ(inbox.offer(Message(s.messages[s.offered])),
                AcceptResult::kAccepted);
      ++s.offered;
      --remaining;
    } else {
      // A sound silence announcement: anything up to one tick before the
      // next unoffered message (or infinity when the stream is done).
      const VirtualTime bound =
          s.offered < s.messages.size()
              ? s.messages[s.offered].vt.prev()
              : VirtualTime::infinity();
      VirtualTime through = bound;
      if (!bound.is_infinite() && bound.ticks() > 0 && rng.chance(0.5))
        through = VirtualTime(rng.uniform_int(0, bound.ticks()));
      EXPECT_FALSE(inbox.announce_silence(s.wire, through,
                                          s.offered));
      s.announced = max(s.announced, through);
    }
    // Occasionally re-offer an old message: must be discarded.
    if (rng.chance(0.1)) {
      auto& d = streams[rng.bounded(streams.size())];
      if (d.offered > 0) {
        EXPECT_EQ(inbox.offer(Message(d.messages[rng.bounded(d.offered)])),
                  AcceptResult::kDuplicate);
      }
    }
    drain_eligible();

    // Invariant: whatever has been delivered so far is a prefix of the
    // oracle sequence.
    ASSERT_LE(delivered.size(), oracle.size());
    for (std::size_t i = 0; i < delivered.size(); ++i) {
      ASSERT_EQ(delivered[i].key(), oracle[i].key())
          << "divergence at delivery " << i;
    }
  }

  // Close every wire; everything must drain in oracle order.
  for (auto& s : streams)
    (void)inbox.announce_silence(s.wire, VirtualTime::infinity(),
                                 s.messages.size());
  drain_eligible();
  ASSERT_EQ(delivered.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i)
    EXPECT_EQ(delivered[i].key(), oracle[i].key());
  EXPECT_TRUE(inbox.exhausted());
}

TEST_P(InboxOracleProperty, NeverDeliversEarly) {
  // Adversarial check of pessimism: offer a message on one wire, never
  // announce anything on a sibling wire with a smaller id, and verify the
  // head stays blocked no matter how many pops are attempted.
  Rng rng(GetParam() ^ 0xDEAD);
  Inbox inbox;
  inbox.add_wire(WireId(0));
  inbox.add_wire(WireId(1));
  Message m;
  m.wire = WireId(1);
  m.vt = VirtualTime(rng.uniform_int(1, 1'000'000));
  m.seq = 0;
  ASSERT_EQ(inbox.offer(Message(m)), AcceptResult::kAccepted);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(inbox.pop().has_value());
  // Silence strictly below the head is still not enough (wire 0 wins ties).
  (void)inbox.announce_silence(WireId(0), m.vt.prev(), 0);
  EXPECT_FALSE(inbox.pop().has_value());
  (void)inbox.announce_silence(WireId(0), m.vt, 0);
  EXPECT_TRUE(inbox.pop().has_value());
}

INSTANTIATE_TEST_SUITE_P(RandomInterleavings, InboxOracleProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace tart
