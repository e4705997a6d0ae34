// Unit tests for the live-migration building blocks (docs/PLACEMENT.md):
//
//   - MigrationJournal: fsynced ownership records, recovery classification
//     (overrides / in-doubt intents / discardable staged state), torn-tail
//     tolerance, staged-slice blob files.
//   - PlacementTable: epoch-guarded overrides on the static placement —
//     highest epoch wins, stale moves are refused, snapshots resolve.
//   - MigrationSlice codec: plan + per-wire log suffix round-trips; any
//     shape corruption decodes to nullopt, never to a wrong slice.
//   - Stream channel: the chunked/windowed/resumable transfer protocol as
//     two pure state machines, driven byte-for-byte with no sockets —
//     including mid-stream reconnect resume and whole-blob CRC rejection.
//   - Fingerprint split: moving a component between partitions changes the
//     placement fingerprint but NOT the topology fingerprint the HELLO
//     handshake enforces (mixed-epoch reconnects must stay connectable).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/partition_config.h"
#include "net/stream_channel.h"
#include "placement/journal.h"
#include "placement/slice.h"
#include "placement/table.h"

using namespace tart;
using namespace tart::placement;

namespace {

std::string make_temp_dir() {
  char tmpl[] = "/tmp/tart_placement_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

JournalRecord rec(JournalRecordKind kind, std::uint64_t epoch,
                  std::uint32_t component, std::uint32_t from,
                  std::uint32_t to) {
  JournalRecord r;
  r.kind = kind;
  r.epoch = epoch;
  r.component = ComponentId(component);
  r.from = EngineId(from);
  r.to = EngineId(to);
  return r;
}

// --- Journal ----------------------------------------------------------------

TEST(MigrationJournalTest, EmptyDirRecoversEmpty) {
  const std::string dir = make_temp_dir();
  const auto r = MigrationJournal::recover(dir);
  EXPECT_TRUE(r.records.empty());
  EXPECT_TRUE(r.overrides.empty());
  EXPECT_TRUE(r.pending_intents.empty());
  EXPECT_TRUE(r.pending_staged.empty());
  EXPECT_EQ(r.max_epoch, 0u);
}

TEST(MigrationJournalTest, VolatileJournalAcceptsAndDropsRecords) {
  MigrationJournal j("");
  EXPECT_FALSE(j.durable());
  EXPECT_TRUE(j.append(rec(JournalRecordKind::kIntent, 1, 7, 0, 1)));
}

TEST(MigrationJournalTest, CompletedMigrationLeavesOverrideOnly) {
  const std::string dir = make_temp_dir();
  {
    MigrationJournal j(dir);
    ASSERT_TRUE(j.durable());
    ASSERT_TRUE(j.append(rec(JournalRecordKind::kIntent, 3, 7, 0, 1)));
    ASSERT_TRUE(j.append(rec(JournalRecordKind::kRelease, 3, 7, 0, 1)));
  }
  const auto r = MigrationJournal::recover(dir);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.max_epoch, 3u);
  EXPECT_TRUE(r.pending_intents.empty()) << "released intent is resolved";
  ASSERT_EQ(r.overrides.size(), 1u);
  EXPECT_EQ(r.overrides[0].kind, JournalRecordKind::kRelease);
  EXPECT_EQ(r.overrides[0].to.value(), 1u);
}

TEST(MigrationJournalTest, UnresolvedIntentStaysInDoubt) {
  const std::string dir = make_temp_dir();
  {
    MigrationJournal j(dir);
    ASSERT_TRUE(j.append(rec(JournalRecordKind::kIntent, 5, 7, 0, 1)));
  }
  const auto r = MigrationJournal::recover(dir);
  ASSERT_EQ(r.pending_intents.size(), 1u);
  EXPECT_EQ(r.pending_intents[0].epoch, 5u);
  EXPECT_TRUE(r.overrides.empty())
      << "an in-doubt handoff must not move ownership";
}

TEST(MigrationJournalTest, AbortedIntentIsResolved) {
  const std::string dir = make_temp_dir();
  {
    MigrationJournal j(dir);
    ASSERT_TRUE(j.append(rec(JournalRecordKind::kIntent, 5, 7, 0, 1)));
    ASSERT_TRUE(j.append(rec(JournalRecordKind::kAbort, 5, 7, 0, 1)));
  }
  const auto r = MigrationJournal::recover(dir);
  EXPECT_TRUE(r.pending_intents.empty());
  EXPECT_TRUE(r.overrides.empty()) << "abort restores static placement";
}

TEST(MigrationJournalTest, StagedWithoutAdoptIsDiscardable) {
  const std::string dir = make_temp_dir();
  {
    MigrationJournal j(dir);
    ASSERT_TRUE(j.append(rec(JournalRecordKind::kStaged, 4, 7, 0, 1)));
  }
  const auto r = MigrationJournal::recover(dir);
  ASSERT_EQ(r.pending_staged.size(), 1u);
  EXPECT_TRUE(r.overrides.empty()) << "staged-but-unadopted never owned";
  EXPECT_TRUE(r.adopted.empty());
}

TEST(MigrationJournalTest, AdoptResolvesStagedAndOwns) {
  const std::string dir = make_temp_dir();
  {
    MigrationJournal j(dir);
    ASSERT_TRUE(j.append(rec(JournalRecordKind::kStaged, 4, 7, 0, 1)));
    ASSERT_TRUE(j.append(rec(JournalRecordKind::kAdopt, 4, 7, 0, 1)));
  }
  const auto r = MigrationJournal::recover(dir);
  EXPECT_TRUE(r.pending_staged.empty());
  ASSERT_EQ(r.adopted.size(), 1u);
  ASSERT_EQ(r.overrides.size(), 1u);
  EXPECT_EQ(r.overrides[0].kind, JournalRecordKind::kAdopt);
}

TEST(MigrationJournalTest, HighestEpochOverrideWinsPerComponent) {
  const std::string dir = make_temp_dir();
  {
    MigrationJournal j(dir);
    ASSERT_TRUE(j.append(rec(JournalRecordKind::kApplied, 2, 7, 0, 1)));
    ASSERT_TRUE(j.append(rec(JournalRecordKind::kApplied, 9, 8, 1, 2)));
    ASSERT_TRUE(j.append(rec(JournalRecordKind::kApplied, 6, 7, 1, 2)));
  }
  const auto r = MigrationJournal::recover(dir);
  EXPECT_EQ(r.max_epoch, 9u);
  ASSERT_EQ(r.overrides.size(), 2u);
  for (const auto& o : r.overrides) {
    if (o.component.value() == 7) {
      EXPECT_EQ(o.epoch, 6u);
      EXPECT_EQ(o.to.value(), 2u);
    } else {
      EXPECT_EQ(o.epoch, 9u);
    }
  }
}

TEST(MigrationJournalTest, TornTailIsDroppedNotFatal) {
  const std::string dir = make_temp_dir();
  {
    MigrationJournal j(dir);
    ASSERT_TRUE(j.append(rec(JournalRecordKind::kApplied, 1, 7, 0, 1)));
    ASSERT_TRUE(j.append(rec(JournalRecordKind::kApplied, 2, 7, 1, 0)));
  }
  // Chop bytes off the end: the second record becomes a torn append.
  const std::string path = MigrationJournal(dir).path();
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 3);
  const auto r = MigrationJournal::recover(dir);
  ASSERT_EQ(r.records.size(), 1u) << "valid prefix survives, torn tail gone";
  EXPECT_EQ(r.records[0].epoch, 1u);

  // The journal stays appendable after the torn tail (recovery truncates
  // or the next append supersedes; either way new records must land).
  MigrationJournal j(dir);
  ASSERT_TRUE(j.append(rec(JournalRecordKind::kApplied, 3, 7, 0, 1)));
}

TEST(MigrationJournalTest, SliceFilesRoundTripAndPrune) {
  const std::string dir = make_temp_dir();
  const std::string p4 = MigrationJournal::slice_path(dir, 4);
  const std::string p7 = MigrationJournal::slice_path(dir, 7);
  EXPECT_NE(p4, p7);
  std::vector<std::byte> blob;
  for (int i = 0; i < 1000; ++i) blob.push_back(std::byte(i % 251));
  ASSERT_TRUE(MigrationJournal::write_slice_file(p4, blob));
  ASSERT_TRUE(MigrationJournal::write_slice_file(p7, blob));
  const auto back = MigrationJournal::read_slice_file(p4);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, blob);

  MigrationJournal::remove_slice_files(dir, 7);  // strictly below 7
  EXPECT_FALSE(MigrationJournal::read_slice_file(p4).has_value());
  EXPECT_TRUE(MigrationJournal::read_slice_file(p7).has_value());
}

// --- PlacementTable ---------------------------------------------------------

net::PlacementMove move(std::uint32_t component, std::uint32_t engine,
                        std::uint64_t epoch) {
  net::PlacementMove m;
  m.component = component;
  m.engine = engine;
  m.epoch = epoch;
  return m;
}

TEST(PlacementTableTest, StaticPlacementRulesUntilOverridden) {
  PlacementTable t({{ComponentId(1), EngineId(0)}, {ComponentId(2), EngineId(1)}});
  EXPECT_EQ(t.engine_of(ComponentId(1)).value(), 0u);
  EXPECT_EQ(t.epoch_of(ComponentId(1)), 0u);
  EXPECT_EQ(t.epoch(), 0u);
  EXPECT_TRUE(t.overrides().empty());

  EXPECT_TRUE(t.apply(move(1, 1, 3)));
  EXPECT_EQ(t.engine_of(ComponentId(1)).value(), 1u);
  EXPECT_EQ(t.epoch_of(ComponentId(1)), 3u);
  EXPECT_EQ(t.epoch(), 3u);
  EXPECT_EQ(t.engine_of(ComponentId(2)).value(), 1u) << "untouched static";
}

TEST(PlacementTableTest, StaleEpochIsRefused) {
  PlacementTable t({{ComponentId(1), EngineId(0)}});
  EXPECT_TRUE(t.apply(move(1, 1, 5)));
  EXPECT_FALSE(t.apply(move(1, 0, 5))) << "equal epoch must not flap";
  EXPECT_FALSE(t.apply(move(1, 0, 4))) << "lower epoch is stale";
  EXPECT_EQ(t.engine_of(ComponentId(1)).value(), 1u);
  EXPECT_TRUE(t.apply(move(1, 0, 6)));
  EXPECT_EQ(t.engine_of(ComponentId(1)).value(), 0u);
  EXPECT_EQ(t.epoch(), 6u);
}

TEST(PlacementTableTest, ApplyAllReturnsOnlyEffectiveMoves) {
  PlacementTable t({{ComponentId(1), EngineId(0)}, {ComponentId(2), EngineId(0)}});
  const auto applied = t.apply_all({move(1, 1, 2), move(2, 1, 1), move(1, 0, 1)});
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0].component, 1u);
  EXPECT_EQ(applied[1].component, 2u);
  const auto snap = t.snapshot();
  EXPECT_EQ(snap.at(ComponentId(1)).value(), 1u);
  EXPECT_EQ(snap.at(ComponentId(2)).value(), 1u);
  EXPECT_EQ(t.overrides().size(), 2u);
}

// --- Slice codec ------------------------------------------------------------

MigrationSlice make_slice() {
  MigrationSlice s;
  s.epoch = 12;
  s.component = ComponentId(3);
  s.from = EngineId(0);
  s.to = EngineId(1);
  s.is_delta = false;

  checkpoint::ComponentSnapshot base;
  base.component = ComponentId(3);
  base.version = 9;
  base.vt = VirtualTime(5000);
  base.messages_processed = 41;
  base.state = {std::byte{0xde}, std::byte{0xad}};
  base.inputs.push_back({WireId(2), VirtualTime(4800), 17});
  checkpoint::OutputPosition out;
  out.wire = WireId(5);
  out.next_seq = 13;
  out.silence_through = VirtualTime(4999);
  base.outputs.push_back(out);
  s.plan.base = base;

  checkpoint::ComponentSnapshot delta = base;
  delta.version = 10;
  delta.is_delta = true;
  s.plan.deltas.push_back(delta);

  WireLogSlice w;
  w.wire = WireId(2);
  w.base_seq = 17;
  w.base_vt = VirtualTime(4800);
  w.closed = false;
  for (std::uint64_t i = 0; i < 5; ++i) {
    Message m;
    m.wire = WireId(2);
    m.vt = VirtualTime(5000 + static_cast<std::int64_t>(i) * 100);
    m.seq = 17 + i;
    m.payload = Payload(static_cast<std::int64_t>(i));
    w.records.push_back(m);
  }
  s.inputs.push_back(std::move(w));
  return s;
}

TEST(MigrationSliceTest, EncodeDecodeRoundTrips) {
  const MigrationSlice s = make_slice();
  const auto blob = s.encode();
  ASSERT_FALSE(blob.empty());
  const auto back = MigrationSlice::decode(blob);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, 12u);
  EXPECT_EQ(back->component.value(), 3u);
  EXPECT_EQ(back->from.value(), 0u);
  EXPECT_EQ(back->to.value(), 1u);
  EXPECT_FALSE(back->is_delta);
  EXPECT_EQ(back->plan.base.version, 9u);
  ASSERT_EQ(back->plan.deltas.size(), 1u);
  EXPECT_TRUE(back->plan.deltas[0].is_delta);
  ASSERT_EQ(back->inputs.size(), 1u);
  EXPECT_EQ(back->inputs[0].base_seq, 17u);
  ASSERT_EQ(back->inputs[0].records.size(), 5u);
  EXPECT_EQ(back->inputs[0].records[4].seq, 21u);
  EXPECT_EQ(back->inputs[0].records[4].payload.as_int(), 4);
  EXPECT_EQ(back->record_count(), 5u);
}

TEST(MigrationSliceTest, CorruptBlobDecodesToNullopt) {
  auto blob = make_slice().encode();
  EXPECT_FALSE(MigrationSlice::decode({}).has_value());
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(MigrationSlice::decode(blob).has_value());
}

// --- Stream channel ---------------------------------------------------------

std::vector<std::byte> make_blob(std::size_t n) {
  std::vector<std::byte> b;
  b.reserve(n);
  for (std::size_t i = 0; i < n; ++i) b.push_back(std::byte((i * 7 + 3) % 256));
  return b;
}

/// Drives sender -> receiver to completion over a lossless in-memory link,
/// honoring the window: every receiver reply is fed straight back.
void pump(net::StreamSender& sender, net::StreamReceiver& receiver) {
  int guard = 100000;
  while (!sender.done() && !sender.failed() && guard-- > 0) {
    const auto msg = sender.next_message();
    if (!msg) {
      FAIL() << "sender stalled: window full but no ack pending";
      return;
    }
    std::optional<net::NetMessage> reply;
    switch (msg->type) {
      case net::NetMsgType::kStreamOpen:
        reply = receiver.on_open(net::StreamOpenBody::decode(msg->payload));
        break;
      case net::NetMsgType::kStreamChunk:
        reply = receiver.on_chunk(net::StreamChunkBody::decode(msg->payload));
        break;
      case net::NetMsgType::kStreamClose:
        receiver.on_close(net::StreamCloseBody::decode(msg->payload));
        break;
      default:
        FAIL() << "unexpected message type";
        return;
    }
    if (reply) {
      ASSERT_EQ(reply->type, net::NetMsgType::kStreamAck);
      sender.on_ack(net::StreamAckBody::decode(reply->payload));
    }
  }
  ASSERT_GT(guard, 0) << "transfer did not converge";
}

TEST(StreamChannelTest, BlobSurvivesChunkedTransfer) {
  const auto blob = make_blob(100 * 1024 + 37);  // deliberately unaligned
  std::optional<net::StreamOpenBody> completed_open;
  std::vector<std::byte> completed_blob;
  net::StreamReceiver receiver(
      [&](const net::StreamOpenBody& open, std::vector<std::byte> b) {
        completed_open = open;
        completed_blob = std::move(b);
      });
  net::StreamSender::Options opt;
  opt.chunk_bytes = 4096;
  opt.window = 3;
  net::StreamSender sender(42, kSliceBulk, "left", blob, opt);
  pump(sender, receiver);
  ASSERT_TRUE(sender.done());
  ASSERT_TRUE(completed_open.has_value());
  EXPECT_EQ(completed_open->stream_id, 42u);
  EXPECT_EQ(completed_open->kind, kSliceBulk);
  EXPECT_EQ(completed_open->sender, "left");
  EXPECT_EQ(completed_blob, blob);
  EXPECT_EQ(receiver.partial_streams(), 0u) << "completed stream is dropped";
}

TEST(StreamChannelTest, WindowBoundsInFlightChunks) {
  const auto blob = make_blob(64 * 1024);
  net::StreamReceiver receiver([](const net::StreamOpenBody&,
                                  std::vector<std::byte>) {});
  net::StreamSender::Options opt;
  opt.chunk_bytes = 1024;
  opt.window = 2;
  net::StreamSender sender(1, kSliceBulk, "left", blob, opt);

  // Open first, then withhold every ack: the sender must stop at `window`
  // chunks instead of flooding the bounded peer queue.
  auto open = sender.next_message();
  ASSERT_TRUE(open && open->type == net::NetMsgType::kStreamOpen);
  auto ack = receiver.on_open(net::StreamOpenBody::decode(open->payload));
  ASSERT_TRUE(ack);
  sender.on_ack(net::StreamAckBody::decode(ack->payload));
  int sent = 0;
  while (auto msg = sender.next_message()) {
    ASSERT_EQ(msg->type, net::NetMsgType::kStreamChunk);
    ++sent;
    ASSERT_LE(sent, 2) << "sender exceeded its unacked-chunk window";
  }
  EXPECT_EQ(sent, 2);
}

TEST(StreamChannelTest, ReopenResumesFromReceiverPrefix) {
  const auto blob = make_blob(32 * 1024);
  std::vector<std::byte> completed_blob;
  net::StreamReceiver receiver(
      [&](const net::StreamOpenBody&, std::vector<std::byte> b) {
        completed_blob = std::move(b);
      });
  net::StreamSender::Options opt;
  opt.chunk_bytes = 1024;
  opt.window = 4;
  net::StreamSender sender(9, kSliceDelta, "left", blob, opt);

  // Deliver the open and exactly five chunks, acking each; then "cut the
  // link": the sender's in-flight state resets, the receiver keeps its
  // partial prefix.
  auto open = sender.next_message();
  ASSERT_TRUE(open);
  auto ack = receiver.on_open(net::StreamOpenBody::decode(open->payload));
  ASSERT_TRUE(ack);
  sender.on_ack(net::StreamAckBody::decode(ack->payload));
  for (int i = 0; i < 5; ++i) {
    auto chunk = sender.next_message();
    ASSERT_TRUE(chunk && chunk->type == net::NetMsgType::kStreamChunk);
    auto a = receiver.on_chunk(net::StreamChunkBody::decode(chunk->payload));
    ASSERT_TRUE(a);
    sender.on_ack(net::StreamAckBody::decode(a->payload));
  }
  EXPECT_EQ(receiver.partial_streams(), 1u);
  const std::uint64_t before = receiver.bytes_received();
  EXPECT_EQ(before, 5u * 1024u);

  sender.reopen();
  pump(sender, receiver);
  ASSERT_TRUE(sender.done());
  EXPECT_EQ(completed_blob, blob);
  // Resume re-streamed only the tail, not the whole blob.
  EXPECT_EQ(receiver.bytes_received(), blob.size());
}

TEST(StreamChannelTest, AdmissionRefusalFailsTheSender) {
  const auto blob = make_blob(1024);
  bool completed = false;
  net::StreamReceiver receiver(
      [&](const net::StreamOpenBody&, std::vector<std::byte>) {
        completed = true;
      },
      [](const net::StreamOpenBody&) { return std::string("no space"); });
  net::StreamSender sender(3, kSliceBulk, "left", blob, {});
  auto open = sender.next_message();
  ASSERT_TRUE(open);
  auto ack = receiver.on_open(net::StreamOpenBody::decode(open->payload));
  ASSERT_TRUE(ack);
  const auto body = net::StreamAckBody::decode(ack->payload);
  EXPECT_FALSE(body.accept);
  sender.on_ack(body);
  EXPECT_TRUE(sender.failed());
  EXPECT_FALSE(sender.error().empty());
  EXPECT_FALSE(completed);
}

TEST(StreamChannelTest, AbortedCloseDiscardsPartialState) {
  const auto blob = make_blob(8 * 1024);
  bool completed = false;
  net::StreamReceiver receiver(
      [&](const net::StreamOpenBody&, std::vector<std::byte>) {
        completed = true;
      });
  net::StreamSender::Options opt;
  opt.chunk_bytes = 1024;
  net::StreamSender sender(4, kSliceBulk, "left", blob, opt);
  auto open = sender.next_message();
  ASSERT_TRUE(open);
  auto ack = receiver.on_open(net::StreamOpenBody::decode(open->payload));
  sender.on_ack(net::StreamAckBody::decode(ack->payload));
  auto chunk = sender.next_message();
  ASSERT_TRUE(chunk);
  (void)receiver.on_chunk(net::StreamChunkBody::decode(chunk->payload));
  ASSERT_EQ(receiver.partial_streams(), 1u);

  net::StreamCloseBody abort;
  abort.stream_id = 4;
  abort.ok = false;
  receiver.on_close(abort);
  EXPECT_EQ(receiver.partial_streams(), 0u);
  EXPECT_FALSE(completed);
}

TEST(StreamChannelTest, AbandonFromDropsOnlyThatSendersStreams) {
  net::StreamReceiver receiver([](const net::StreamOpenBody&,
                                  std::vector<std::byte>) {});
  net::StreamSender a(1, kSliceBulk, "left", make_blob(4096), {});
  net::StreamSender b(2, kSliceBulk, "mid", make_blob(4096), {});
  auto oa = a.next_message();
  auto ob = b.next_message();
  (void)receiver.on_open(net::StreamOpenBody::decode(oa->payload));
  (void)receiver.on_open(net::StreamOpenBody::decode(ob->payload));
  ASSERT_EQ(receiver.partial_streams(), 2u);
  receiver.abandon_from("left");
  EXPECT_EQ(receiver.partial_streams(), 1u);
}

// --- Fingerprint split ------------------------------------------------------

constexpr const char* kDeployA =
    "topology = wordcount\n"
    "param senders = 2\n"
    "partition left = 127.0.0.1:9001\n"
    "control left = 127.0.0.1:9101\n"
    "partition right = 127.0.0.1:9002\n"
    "control right = 127.0.0.1:9102\n"
    "place sender1 = left\n"
    "place sender2 = left\n"
    "place merger = right\n";

constexpr const char* kDeployMoved =
    "topology = wordcount\n"
    "param senders = 2\n"
    "partition left = 127.0.0.1:9001\n"
    "control left = 127.0.0.1:9101\n"
    "partition right = 127.0.0.1:9002\n"
    "control right = 127.0.0.1:9102\n"
    "place sender1 = left\n"
    "place sender2 = right\n"  // moved
    "place merger = right\n";

constexpr const char* kDeployOtherTopology =
    "topology = wordcount\n"
    "param senders = 3\n"  // different topology shape
    "partition left = 127.0.0.1:9001\n"
    "control left = 127.0.0.1:9101\n"
    "partition right = 127.0.0.1:9002\n"
    "control right = 127.0.0.1:9102\n"
    "place sender1 = left\n"
    "place sender2 = left\n"
    "place sender3 = left\n"
    "place merger = right\n";

TEST(FingerprintSplitTest, PlacementMoveKeepsTopologyFingerprint) {
  const auto a = net::DeploymentConfig::parse(kDeployA);
  const auto moved = net::DeploymentConfig::parse(kDeployMoved);
  EXPECT_EQ(a.topology_fingerprint(), moved.topology_fingerprint())
      << "a placement-only change must stay HELLO-compatible";
  EXPECT_NE(a.placement_fingerprint(), moved.placement_fingerprint());
}

TEST(FingerprintSplitTest, TopologyChangeBreaksTopologyFingerprint) {
  const auto a = net::DeploymentConfig::parse(kDeployA);
  const auto other = net::DeploymentConfig::parse(kDeployOtherTopology);
  EXPECT_NE(a.topology_fingerprint(), other.topology_fingerprint());
}

TEST(FingerprintSplitTest, ControlLinesAreAcceptedAndIgnored) {
  // `control` lines named the retired binary operator protocol; files that
  // still carry them parse to exactly the deployment without them.
  std::string without(kDeployA);
  for (auto at = without.find("control"); at != std::string::npos;
       at = without.find("control"))
    without.erase(at, without.find('\n', at) + 1 - at);
  const auto a = net::DeploymentConfig::parse(kDeployA);
  const auto b = net::DeploymentConfig::parse(without);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.topology_fingerprint(), b.topology_fingerprint());
  ASSERT_EQ(a.partitions.size(), 2u);
}

}  // namespace
