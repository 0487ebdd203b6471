#include "vhp/net/channel.hpp"

#include <poll.h>

#include <thread>

namespace vhp::net {

Result<Bytes> Channel::recv(std::optional<std::chrono::milliseconds> timeout) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      timeout ? Clock::now() + *timeout : Clock::time_point::max();
  // Never wait with frames still held: the peer may need exactly those
  // frames before it can produce what we are waiting for.
  if (Status s = flush(); !s.ok()) return s;
  for (;;) {
    auto frame = try_recv();
    if (!frame.ok()) return frame.status();
    if (frame.value().has_value()) return std::move(*frame.value());
    if (Clock::now() >= deadline) {
      return Status{StatusCode::kDeadlineExceeded, "recv timeout"};
    }
    if (const int fd = readable_fd(); fd >= 0) {
      pollfd pfd{fd, POLLIN, 0};
      (void)::poll(&pfd, 1, static_cast<int>(kRepollPeriod.count()));
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds{50});
    }
  }
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
