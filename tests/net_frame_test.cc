// Wire-format hardening: malformed bytes must surface as typed errors
// (NetError / serde::DecodeError), never UB — the properties the two-process
// transport relies on when an arbitrary TCP peer (or a bit-flipping cable)
// feeds it garbage. Runs under TART_SANITIZE=address in CI, so any
// out-of-bounds read in the decoders fails loudly here.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/virtual_time.h"
#include "fuzz_util.h"
#include "net/wire_format.h"
#include "transport/frame.h"
#include "wire/message.h"

using namespace tart;
using namespace tart::net;

namespace {

transport::Frame sample_frame() {
  Message m;
  m.wire = WireId(7);
  m.vt = VirtualTime(1234);
  m.seq = 9;
  m.payload = Payload(std::string("hello across processes"));
  return transport::DataFrame{m};
}

std::vector<std::byte> sample_message() {
  return encode_frame_message(sample_frame());
}

// Feeds `bytes` in one go and pulls one message.
std::optional<NetMessage> decode_one(const std::vector<std::byte>& bytes) {
  StreamDecoder d;
  d.feed(bytes);
  return d.next();
}

}  // namespace

// --- Round trips ------------------------------------------------------------

TEST(NetFrameTest, FrameMessageRoundTrips) {
  const auto msg = decode_one(sample_message());
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, NetMsgType::kFrame);
  const transport::Frame f = decode_frame_payload(msg->payload);
  const auto* data = std::get_if<transport::DataFrame>(&f);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->msg.wire, WireId(7));
  EXPECT_EQ(data->msg.vt, VirtualTime(1234));
  EXPECT_EQ(data->msg.payload.as_string(), "hello across processes");
}

TEST(NetFrameTest, EveryFrameVariantRoundTrips) {
  const std::vector<transport::Frame> frames = {
      sample_frame(),
      transport::SilenceFrame{WireId(3), VirtualTime(99), 12},
      transport::ProbeFrame{WireId(4)},
      transport::ReplayRequestFrame{WireId(5), VirtualTime(50), 6},
      transport::StabilityFrame{WireId(6), VirtualTime(77)},
  };
  for (const auto& f : frames) {
    const auto msg = decode_one(encode_frame_message(f));
    ASSERT_TRUE(msg.has_value());
    const transport::Frame back = decode_frame_payload(msg->payload);
    EXPECT_EQ(transport::frame_wire(back), transport::frame_wire(f));
    EXPECT_EQ(back.index(), f.index());
  }
}

TEST(NetFrameTest, MessagesSurviveArbitrarySegmentation) {
  // TCP may deliver any byte-split; the decoder must reassemble.
  const auto one = sample_message();
  std::vector<std::byte> three;
  for (int i = 0; i < 3; ++i) three.insert(three.end(), one.begin(), one.end());
  for (std::size_t chunk = 1; chunk <= 7; ++chunk) {
    StreamDecoder d;
    std::size_t decoded = 0;
    for (std::size_t off = 0; off < three.size(); off += chunk) {
      const std::size_t n = std::min(chunk, three.size() - off);
      d.feed(three.data() + off, n);
      while (d.next().has_value()) ++decoded;
    }
    EXPECT_EQ(decoded, 3u) << "chunk size " << chunk;
  }
}

// --- Truncation -------------------------------------------------------------

TEST(NetFrameTest, EveryTruncationPrefixJustWaits) {
  // A prefix is indistinguishable from "more bytes in flight": next() must
  // return nullopt (not throw, not read past the end) for every cut point.
  const auto full = sample_message();
  for (std::size_t len = 0; len < full.size(); ++len) {
    StreamDecoder d;
    d.feed(full.data(), len);
    EXPECT_FALSE(d.next().has_value()) << "prefix length " << len;
  }
}

TEST(NetFrameTest, TruncatedFramePayloadThrowsDecodeError) {
  // Envelope intact, serde body cut short: the frame decoder must throw.
  const auto payload_full = [] {
    serde::Writer w;
    transport::encode_frame(w, sample_frame());
    return w.take();
  }();
  for (std::size_t len = 0; len < payload_full.size(); ++len) {
    const std::vector<std::byte> cut(payload_full.begin(),
                                     payload_full.begin() + len);
    EXPECT_THROW((void)decode_frame_payload(cut), serde::DecodeError)
        << "payload prefix " << len;
  }
}

// --- Corruption -------------------------------------------------------------

TEST(NetFrameTest, BadMagicIsConnectionFatal) {
  auto bytes = sample_message();
  bytes[0] ^= std::byte{0x01};
  StreamDecoder d;
  d.feed(bytes);
  EXPECT_THROW((void)d.next(), NetError);
  // Poisoned: the stream cannot be trusted past the first violation.
  d.feed(sample_message());
  EXPECT_THROW((void)d.next(), NetError);
}

TEST(NetFrameTest, UnknownVersionIsConnectionFatal) {
  auto bytes = sample_message();
  bytes[4] = std::byte{0x7F};
  EXPECT_THROW((void)decode_one(bytes), NetError);
}

TEST(NetFrameTest, OversizedLengthIsConnectionFatalNotAnAllocation) {
  auto bytes = sample_message();
  // Length field at offset 6..10: claim ~4 GiB.
  bytes[6] = bytes[7] = bytes[8] = bytes[9] = std::byte{0xFF};
  EXPECT_THROW((void)decode_one(bytes), NetError);
}

TEST(NetFrameTest, EveryPossibleBitFlipIsCaught) {
  // Flip each bit of the envelope in turn. Every flip must either be
  // caught (NetError from the envelope checks or the CRC; DecodeError from
  // the body decoder) or — never — change the decoded frame silently.
  // Header flips surface immediately; payload flips are caught by the CRC.
  const auto good = sample_message();
  int caught = 0, clean = 0;
  for (std::size_t byte_i = 0; byte_i < good.size(); ++byte_i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bytes = good;
      bytes[byte_i] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      StreamDecoder d;
      d.feed(bytes);
      try {
        const auto msg = d.next();
        if (!msg.has_value()) {
          ++clean;  // length shrank; remainder looks in-flight
          continue;
        }
        const transport::Frame f = decode_frame_payload(msg->payload);
        // A decoded frame here means the flip defeated the CRC — report it.
        ADD_FAILURE() << "bit flip at byte " << byte_i << " bit " << bit
                      << " decoded silently (wire "
                      << transport::frame_wire(f) << ")";
      } catch (const NetError&) {
        ++caught;
      } catch (const serde::DecodeError&) {
        ++caught;
      }
    }
  }
  EXPECT_GT(caught, 0);
  // "Looks truncated" is acceptable only for flips in the length field.
  EXPECT_LE(clean, 32);
}

TEST(NetFrameTest, BadFrameTagInPayloadIsCaught) {
  serde::Writer w;
  w.write_u8(0xEE);  // no such frame variant
  w.write_u32(1);
  EXPECT_THROW((void)decode_frame_payload(w.take()), serde::DecodeError);
}

TEST(NetFrameTest, TrailingGarbageAfterFrameBodyIsCaught) {
  serde::Writer w;
  transport::encode_frame(w, sample_frame());
  w.write_u8(0x00);  // one stray byte
  EXPECT_THROW((void)decode_frame_payload(w.take()), serde::DecodeError);
}

// --- The existing in-process framing path, same adversary ------------------

TEST(TransportFrameFuzzTest, TruncationNeverUB) {
  const auto bytes = transport::frame_to_bytes(sample_frame());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::byte> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW((void)transport::frame_from_bytes(cut), serde::DecodeError);
  }
}

TEST(TransportFrameFuzzTest, BitFlipsEitherDecodeOrThrowTyped) {
  // frame_to_bytes has no CRC (in-process paths trust memory), so a flip
  // may legitimately decode to a different frame — the property under ASan
  // is merely: no crash, no unbounded allocation, only DecodeError escapes.
  const auto good = transport::frame_to_bytes(sample_frame());
  for (std::size_t byte_i = 0; byte_i < good.size(); ++byte_i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bytes = good;
      bytes[byte_i] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      try {
        (void)transport::frame_from_bytes(bytes);
      } catch (const serde::DecodeError&) {
        // typed failure: fine
      }
    }
  }
}

// --- Fuzz: the peer control bodies (HELLO, placement and cover updates) ---

TEST(PeerBodyFuzzTest, ControlBodiesDecodeOrFailTyped) {
  using tart::testing::fuzz_decoder;
  const HelloBody hello{"left", 0xFEEDull, 7, {{1, 2, 7}, {3, 0, 6}},
                        {{4, 90}, {5, 12}}};
  const PlacementUpdateBody update{8, hello.moves};
  const CoverUpdateBody cover{hello.covered};
  fuzz_decoder<serde::DecodeError>(
      hello.encode(), 0x4E110, [](const std::vector<std::byte>& b) {
        (void)HelloBody::decode(b);
        return true;
      });
  fuzz_decoder<serde::DecodeError>(
      update.encode(), 0x9A7E, [](const std::vector<std::byte>& b) {
        (void)PlacementUpdateBody::decode(b);
        return true;
      });
  fuzz_decoder<serde::DecodeError>(
      cover.encode(), 0xC0FE, [](const std::vector<std::byte>& b) {
        (void)CoverUpdateBody::decode(b);
        return true;
      });
}

TEST(NetFrameTest, HelloBodyRoundTripsAndRejectsTrailing) {
  HelloBody hello;
  hello.node = "left";
  hello.deployment_fp = 0xDEADBEEFCAFEF00Dull;
  auto bytes = hello.encode();
  const HelloBody back = HelloBody::decode(bytes);
  EXPECT_EQ(back.node, "left");
  EXPECT_EQ(back.deployment_fp, hello.deployment_fp);
  bytes.push_back(std::byte{0});
  EXPECT_THROW((void)HelloBody::decode(bytes), serde::DecodeError);
}
