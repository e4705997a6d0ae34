// Property tests for the pessimistic-merge inbox against an oracle: no
// matter how message arrivals and (sound) silence announcements
// interleave in real time, the delivery sequence is exactly the global
// (virtual time, wire id) sorted merge of all streams — complete, ordered,
// duplicate-free, and never early (a message is only released once every
// other wire provably cannot preempt it). A replay handed over as a run
// behaves exactly as offering its messages one by one would, while holding
// at most one decoded chunk per wire.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/runner.h"
#include "wire/inbox.h"

namespace tart {
namespace {

struct Stream {
  WireId wire;
  std::vector<Message> messages;  // strictly increasing vt, seq 0..n-1
  std::size_t offered = 0;        // next index to offer
  VirtualTime announced{-1};      // explicit silence announced so far
};

std::vector<Stream> generate_streams(Rng& rng, int num_wires,
                                     std::int64_t max_count = 40) {
  std::vector<Stream> streams;
  for (int w = 0; w < num_wires; ++w) {
    Stream s;
    s.wire = WireId(static_cast<std::uint32_t>(w));
    std::int64_t vt = 0;
    const auto count = rng.uniform_int(5, max_count);
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

/// The streams as their senders' stores (wire id == stream index): a run
/// reads its records back from here.
class StreamSource final : public RunSource {
 public:
  explicit StreamSource(const std::vector<Stream>& streams)
      : streams_(streams) {}

  std::size_t read_from_seq(WireId wire, std::uint64_t from_seq,
                            std::size_t max,
                            std::vector<Message>& out) const override {
    out.clear();
    const auto& messages = streams_.at(wire.value()).messages;
    for (std::uint64_t seq = from_seq;
         seq < messages.size() && out.size() < max; ++seq)
      out.push_back(messages[seq]);
    return out.size();
  }

 private:
  const std::vector<Stream>& streams_;
};

struct Tally {
  std::uint64_t accepted = 0, duplicates = 0, gaps = 0;
  void add(AcceptResult r) {
    (r == AcceptResult::kAccepted     ? accepted
     : r == AcceptResult::kDuplicate ? duplicates
                                      : gaps)++;
  }
};

// Two inboxes see the same random interleaving of live arrivals, replays,
// re-offered duplicates, sound silence and pops. One is offered every
// replayed message (the eager model); the other takes each replay as a
// run. Every outcome, count and delivery must agree, and the run side never
// holds more than one decoded chunk of a run per wire.
TEST_P(InboxOracleProperty, RunsMatchEagerOffers) {
  Rng rng(GetParam() ^ 0x5EED5);
  const int num_wires = static_cast<int>(rng.uniform_int(1, 4));
  std::vector<Stream> streams = generate_streams(rng, num_wires, 300);
  const StreamSource source(streams);
  constexpr std::size_t kCap = core::ComponentRunner::kHandoffBatchCap;

  Inbox eager, lazy;
  for (const auto& s : streams) {
    eager.add_wire(s.wire);
    lazy.add_wire(s.wire);
  }
  std::vector<Message> delivered;
  const auto compare_state = [&] {
    ASSERT_EQ(lazy.pending(), eager.pending());
    ASSERT_EQ(lazy.exhausted(), eager.exhausted());
    ASSERT_EQ(lazy.head_eligible(), eager.head_eligible());
    ASSERT_EQ(lazy.accounted_through(), eager.accounted_through());
    for (const auto& s : streams) {
      ASSERT_EQ(lazy.pending_on(s.wire), eager.pending_on(s.wire));
      ASSERT_EQ(lazy.next_seq(s.wire), eager.next_seq(s.wire));
      ASSERT_EQ(lazy.wire_horizon(s.wire), eager.wire_horizon(s.wire));
      ASSERT_LE(lazy.decoded_run_messages(s.wire), kCap);
    }
  };
  const auto pop_both = [&] {
    auto a = eager.pop();
    auto b = lazy.pop();
    if (!a.has_value()) {
      EXPECT_FALSE(b.has_value());
      return false;
    }
    EXPECT_TRUE(b.has_value());
    if (!b) return false;
    EXPECT_EQ(b->key(), a->key());
    EXPECT_EQ(b->seq, a->seq);
    EXPECT_EQ(b->payload, a->payload);
    delivered.push_back(std::move(*a));
    return true;
  };

  std::uint64_t runs = 0;
  const auto all_offered = [&] {
    return std::all_of(streams.begin(), streams.end(), [](const Stream& s) {
      return s.offered == s.messages.size();
    });
  };
  while (!all_offered()) {
    Stream& s = streams[rng.bounded(streams.size())];
    const std::size_t n = s.messages.size();
    const double pick = rng.uniform();
    if (pick < 0.3 && s.offered < n) {
      // Live arrival: the next message, or (rarely) one past a lost tick.
      const std::size_t i = std::min(
          n - 1, s.offered + (rng.chance(0.05) ? 1 : 0));
      const AcceptResult a = eager.offer(Message(s.messages[i]));
      ASSERT_EQ(lazy.offer(Message(s.messages[i])), a);
      if (a == AcceptResult::kAccepted) s.offered = i + 1;
    } else if (pick < 0.5) {
      // A replay: from a little before, at, or (rarely) past next_seq.
      const std::size_t back = std::min<std::size_t>(s.offered, 3);
      std::size_t from = s.offered - rng.bounded(back + 1);
      if (rng.chance(0.05)) from = s.offered + 1;
      if (from >= n) continue;
      const std::size_t end =
          std::min(n, from + 1 + rng.bounded(2 * kCap + 10));
      Tally want;
      for (std::size_t i = from; i < end; ++i)
        want.add(eager.offer(Message(s.messages[i])));
      const RunOfferResult got = lazy.offer_run(MessageRun{
          &source, s.wire, from, end, s.messages[end - 1].vt});
      ASSERT_EQ(got.accepted, want.accepted);
      ASSERT_EQ(got.duplicates, want.duplicates);
      ASSERT_EQ(got.gaps, want.gaps);
      if (got.accepted > 0) s.offered = end;
      ++runs;
    } else if (pick < 0.65) {
      // Sound silence: never over a message not yet accounted.
      const VirtualTime bound = s.offered < n
                                    ? s.messages[s.offered].vt.prev()
                                    : VirtualTime::infinity();
      VirtualTime through = bound;
      if (!bound.is_infinite() && bound.ticks() > 0 && rng.chance(0.5))
        through = VirtualTime(rng.uniform_int(0, bound.ticks()));
      const bool gap = eager.announce_silence(s.wire, through, s.offered);
      ASSERT_EQ(lazy.announce_silence(s.wire, through, s.offered), gap);
    } else if (pick < 0.7) {
      if (s.offered > 0) {
        const Message old = s.messages[rng.bounded(s.offered)];
        ASSERT_EQ(eager.offer(Message(old)), AcceptResult::kDuplicate);
        ASSERT_EQ(lazy.offer(Message(old)), AcceptResult::kDuplicate);
      }
    } else {
      for (auto pops = rng.bounded(2 * kCap); pops > 0 && pop_both();)
        --pops;
    }
    compare_state();
  }

  for (auto& s : streams) {
    const bool gap =
        eager.announce_silence(s.wire, VirtualTime::infinity(),
                               s.messages.size());
    ASSERT_EQ(lazy.announce_silence(s.wire, VirtualTime::infinity(),
                                    s.messages.size()),
              gap);
  }
  while (pop_both()) compare_state();
  compare_state();
  EXPECT_GT(runs, 0u);
  EXPECT_TRUE(lazy.exhausted());

  std::vector<Message> oracle;
  for (const auto& s : streams)
    oracle.insert(oracle.end(), s.messages.begin(), s.messages.end());
  std::sort(oracle.begin(), oracle.end(),
            [](const Message& a, const Message& b) { return a.key() < b.key(); });
  ASSERT_EQ(delivered.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i)
    EXPECT_EQ(delivered[i].key(), oracle[i].key()) << "delivery " << i;
}

INSTANTIATE_TEST_SUITE_P(RandomInterleavings, InboxOracleProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace tart
