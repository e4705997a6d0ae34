#include "transport/network_link.h"

#include "common/thread_name.h"

namespace tart::transport {

NetworkLink::NetworkLink(LinkConfig config, Receiver receiver)
    : config_(config),
      receiver_(std::move(receiver)),
      rng_(config.seed),
      thread_([this] {
        set_thread_name("link-deliver");
        delivery_loop();
      }) {}

NetworkLink::~NetworkLink() { shutdown(); }

void NetworkLink::send(std::vector<std::byte> packet) {
  std::size_t copies = 1;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++sent_;
    if (stop_ || down_ || rng_.chance(config_.loss_probability)) {
      ++lost_;
      return;
    }
    if (rng_.chance(config_.duplicate_probability)) copies = 2;

    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < copies; ++i) {
      auto delay = config_.base_delay;
      if (config_.delay_jitter.count() > 0) {
        delay += std::chrono::microseconds(
            rng_.uniform_int(0, config_.delay_jitter.count()));
      }
      if (rng_.chance(config_.reorder_probability)) delay *= 2;
      queue_.push(Pending{now + delay, next_id_++, packet});
    }
  }
  cv_.notify_one();
}

void NetworkLink::set_down(bool down) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    down_ = down;
    if (down) {
      // Everything in flight on a failed path is lost.
      lost_ += queue_.size();
      while (!queue_.empty()) queue_.pop();
    }
  }
  cv_.notify_one();
}

bool NetworkLink::is_down() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return down_;
}

void NetworkLink::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
}

std::uint64_t NetworkLink::packets_sent() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sent_;
}
std::uint64_t NetworkLink::packets_delivered() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return delivered_;
}
std::uint64_t NetworkLink::packets_lost() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lost_;
}

void NetworkLink::delivery_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stop_) return;
    if (queue_.empty()) {
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      continue;
    }
    const auto when = queue_.top().deliver_at;
    if (std::chrono::steady_clock::now() < when) {
      cv_.wait_until(lock, when);
      continue;
    }
    std::vector<std::byte> packet = queue_.top().packet;
    queue_.pop();
    ++delivered_;
    lock.unlock();
    receiver_(std::move(packet));
    lock.lock();
  }
}

}  // namespace tart::transport
