#include "transport/reliable_link.h"

#include "common/thread_name.h"

namespace tart::transport {

namespace {
enum PacketKind : std::uint8_t { kData = 0, kAck = 1 };

std::vector<std::byte> make_data_packet(std::uint64_t seq, std::uint64_t ack,
                                        const Frame& frame) {
  serde::Writer w;
  w.write_u8(kData);
  w.write_varint(seq);
  w.write_varint(ack);
  encode_frame(w, frame);
  return w.take();
}

std::vector<std::byte> make_ack_packet(std::uint64_t ack) {
  serde::Writer w;
  w.write_u8(kAck);
  w.write_varint(ack);
  return w.take();
}
}  // namespace

ReliableChannel::ReliableChannel(ReliableConfig config, FrameHandler a_handler,
                                 FrameHandler b_handler)
    : config_(config),
      a_handler_(std::move(a_handler)),
      b_handler_(std::move(b_handler)) {
  forward_ = std::make_unique<NetworkLink>(
      config_.forward, [this](std::vector<std::byte> packet) {
        // Packets from A arrive here (endpoint B side).
        on_packet(a_to_b_, *backward_, b_handler_, std::move(packet));
      });
  backward_ = std::make_unique<NetworkLink>(
      config_.backward, [this](std::vector<std::byte> packet) {
        on_packet(b_to_a_, *forward_, a_handler_, std::move(packet));
      });
  retransmit_thread_ = std::thread([this] {
    set_thread_name("link-retx");
    retransmit_loop();
  });
}

ReliableChannel::~ReliableChannel() { shutdown(); }

void ReliableChannel::send_from_a(const Frame& frame) {
  send(a_to_b_, *forward_, frame);
}

void ReliableChannel::send_from_b(const Frame& frame) {
  send(b_to_a_, *backward_, frame);
}

void ReliableChannel::send(Direction& dir, NetworkLink& link,
                           const Frame& frame) {
  std::vector<std::byte> packet;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t seq = dir.next_send_seq++;
    // Piggyback the cumulative ack for the *opposite* direction: what this
    // endpoint has delivered so far.
    Direction& opposite = (&dir == &a_to_b_) ? b_to_a_ : a_to_b_;
    packet = make_data_packet(seq, opposite.next_deliver_seq, frame);
    dir.unacked.emplace(seq, packet);
    dir.sent_at.emplace(seq, std::chrono::steady_clock::now());
  }
  link.send(std::move(packet));
}

void ReliableChannel::on_packet(Direction& dir, NetworkLink& reverse_link,
                                const FrameHandler& handler,
                                std::vector<std::byte> packet) {
  std::vector<Frame> to_deliver;
  bool send_ack = false;
  std::uint64_t ack_value = 0;
  try {
    serde::Reader r(packet);
    const auto kind = r.read_u8();
    if (kind == kAck) {
      const std::uint64_t ack = r.read_varint();
      const std::lock_guard<std::mutex> lock(mutex_);
      // An ack arriving on this direction acknowledges *this direction's
      // opposite*? No: acks travel on the reverse physical link of the data
      // they acknowledge. on_packet(dir=...) is invoked with the direction
      // whose data flows on the link the packet arrived on, so a standalone
      // ack carried on that link acknowledges the opposite direction.
      Direction& opposite = (&dir == &a_to_b_) ? b_to_a_ : a_to_b_;
      opposite.unacked.erase(opposite.unacked.begin(),
                             opposite.unacked.lower_bound(ack));
      opposite.sent_at.erase(opposite.sent_at.begin(),
                             opposite.sent_at.lower_bound(ack));
      return;
    }
    const std::uint64_t seq = r.read_varint();
    const std::uint64_t ack = r.read_varint();
    Frame frame = decode_frame(r);

    const std::lock_guard<std::mutex> lock(mutex_);
    // The piggybacked ack acknowledges data we sent on the reverse
    // direction.
    Direction& opposite = (&dir == &a_to_b_) ? b_to_a_ : a_to_b_;
    opposite.unacked.erase(opposite.unacked.begin(),
                           opposite.unacked.lower_bound(ack));
    opposite.sent_at.erase(opposite.sent_at.begin(),
                           opposite.sent_at.lower_bound(ack));

    if (seq < dir.next_deliver_seq) {
      // Duplicate of something already delivered: re-ack so the sender can
      // trim, then drop.
      send_ack = true;
      ack_value = dir.next_deliver_seq;
    } else {
      dir.reorder.emplace(seq, std::move(frame));
      while (!dir.reorder.empty() &&
             dir.reorder.begin()->first == dir.next_deliver_seq) {
        to_deliver.push_back(std::move(dir.reorder.begin()->second));
        dir.reorder.erase(dir.reorder.begin());
        ++dir.next_deliver_seq;
      }
      send_ack = true;
      ack_value = dir.next_deliver_seq;
    }
  } catch (const serde::DecodeError&) {
    return;  // corrupted packet: treat as lost
  }

  if (send_ack) reverse_link.send(make_ack_packet(ack_value));
  for (Frame& f : to_deliver) handler(std::move(f));
}

void ReliableChannel::retransmit_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    stop_cv_.wait_for(lock, config_.retransmit_timeout / 2,
                      [this] { return stop_; });
    if (stop_) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto* dir : {&a_to_b_, &b_to_a_}) {
      NetworkLink& link = (dir == &a_to_b_) ? *forward_ : *backward_;
      std::vector<std::vector<std::byte>> resend;
      for (auto& [seq, at] : dir->sent_at) {
        if (now - at >= config_.retransmit_timeout) {
          resend.push_back(dir->unacked.at(seq));
          at = now;
          ++retransmissions_;
        }
      }
      if (resend.empty()) continue;
      lock.unlock();
      for (auto& packet : resend) link.send(std::move(packet));
      lock.lock();
    }
  }
}

void ReliableChannel::set_down(bool down) {
  forward_->set_down(down);
  backward_->set_down(down);
}

void ReliableChannel::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (retransmit_thread_.joinable()) retransmit_thread_.join();
  forward_->shutdown();
  backward_->shutdown();
}

std::uint64_t ReliableChannel::retransmissions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return retransmissions_;
}

}  // namespace tart::transport
