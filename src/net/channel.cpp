#include "vhp/net/channel.hpp"

#include <poll.h>

#include <algorithm>
#include <thread>
#include <vector>

namespace vhp::net {

bool wait_until(const std::function<bool()>& ready,
                std::span<Channel* const> channels,
                std::chrono::steady_clock::time_point deadline) {
  using Clock = std::chrono::steady_clock;
  const auto spin_end = Clock::now() + kRepollPeriod;
  for (;;) {
    if (ready()) return true;
    const auto now = Clock::now();
    if (now >= deadline) return false;
    if (now >= spin_end) break;
    std::this_thread::yield();
  }
  std::vector<pollfd> fds;
  for (;;) {
    // Asked again before every sleep: a recovering transport may have
    // redialed onto a new fd.
    fds.clear();
    auto wake = std::min(deadline, Clock::now() + kRepollPeriod);
    for (Channel* ch : channels) {
      if (const int fd = ch->readable_fd(); fd >= 0) {
        fds.push_back(pollfd{fd, POLLIN, 0});
      }
      wake = std::min(wake, ch->held_until());
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        wake - Clock::now())
                        .count();
    if (ns > 0) {
      const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                        static_cast<long>(ns % 1'000'000'000)};
      (void)::ppoll(fds.data(), fds.size(), &ts, nullptr);
    }
    if (ready()) return true;
    if (Clock::now() >= deadline) return false;
  }
}

Result<Bytes> Channel::recv(std::optional<std::chrono::milliseconds> timeout) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      timeout ? Clock::now() + *timeout : Clock::time_point::max();
  // Never wait with frames still held: the peer may need exactly those
  // frames before it can produce what we are waiting for.
  if (Status s = flush(); !s.ok()) return s;
  Result<std::optional<Bytes>> frame = std::optional<Bytes>{};
  Channel* const self[] = {this};
  const bool got = wait_until(
      [&] {
        frame = try_recv();
        return !frame.ok() || frame.value().has_value();
      },
      self, deadline);
  if (!got) return Status{StatusCode::kDeadlineExceeded, "recv timeout"};
  if (!frame.ok()) return frame.status();
  return std::move(*frame.value());
}

Status send_msg(Channel& ch, const Message& msg) {
  return ch.send(encode(msg));
}

Result<Message> recv_msg(Channel& ch,
                         std::optional<std::chrono::milliseconds> timeout) {
  auto frame = ch.recv(timeout);
  if (!frame.ok()) return frame.status();
  return decode(frame.value());
}

Result<std::optional<Message>> try_recv_msg(Channel& ch) {
  auto frame = ch.try_recv();
  if (!frame.ok()) return frame.status();
  if (!frame.value().has_value()) return std::optional<Message>{};
  auto msg = decode(*frame.value());
  if (!msg.ok()) return msg.status();
  return std::optional<Message>{std::move(msg).value()};
}

}  // namespace vhp::net
