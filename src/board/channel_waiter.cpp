#include "vhp/board/channel_waiter.hpp"

#include <thread>

#include "vhp/rtos/kernel.hpp"

namespace vhp::board {

ChannelWaiter::ChannelWaiter(rtos::Kernel& kernel, net::Channel& channel,
                             std::string name)
    : channel_(channel), name_(std::move(name)), available_(kernel, 0) {}

bool ChannelWaiter::poll() {
  if (closed_) return false;
  bool any = false;
  for (;;) {
    auto frame = channel_.try_recv();
    if (!frame.ok()) {
      // Peer closed or transport failure: mark closed, wake receivers so
      // they can observe it.
      closed_ = true;
      available_.post();
      return true;
    }
    if (!frame.value().has_value()) break;
    pending_.push_back(std::move(*frame.value()));
    available_.post();
    any = true;
  }
  return any;
}

std::optional<Bytes> ChannelWaiter::recv() { return wait_frame(true); }

std::optional<Bytes> ChannelWaiter::recv_deferred() {
  return wait_frame(false);
}

std::optional<Bytes> ChannelWaiter::wait_frame(bool self_poll) {
  for (;;) {
    // Self-service: works even when the idle thread is not polling.
    if (self_poll) poll();
    if (!pending_.empty()) {
      Bytes frame = std::move(pending_.front());
      pending_.pop_front();
      return frame;
    }
    if (closed_) return std::nullopt;
    available_.wait();  // RTOS-blocks; idle thread's poll() posts
  }
}

void IdlePacer::pause() {
  ++empty_polls_;
  if (empty_polls_ < 256) {
    // Spin: sync round trips are latency-critical and usually resolve in
    // microseconds on loopback.
    return;
  }
  if (empty_polls_ < 4096) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds{50});
}

}  // namespace vhp::board
