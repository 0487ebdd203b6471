// RTOS-blocking reception over a net::Channel.
//
// On the real SCM2x0 board, socket reads block the calling eCos thread while
// the rest of the OS keeps running. Our net::Channel::recv would block the
// whole virtual board (one host thread), so comm threads instead block on an
// RTOS semaphore that the idle thread posts after polling the channel — the
// exact division of labour the paper describes for its idle state: the idle
// thread keeps the socket connection alive, the channel/systemc threads do
// the protocol work. Once the idle poll finds nothing the board is starved
// and its host hands the thread back: the board loop (Board::run_boards)
// waits in net::wait_until with the same poll as its readiness check, and
// svc::SessionHost steps the master, whose next frame the board waits for.
#pragma once

#include <deque>
#include <optional>
#include <string>

#include "vhp/common/bytes.hpp"
#include "vhp/net/channel.hpp"
#include "vhp/rtos/sync.hpp"

namespace vhp::board {

class ChannelWaiter {
 public:
  ChannelWaiter(rtos::Kernel& kernel, net::Channel& channel, std::string name);

  /// Drains whatever the channel has pending into the local queue, waking
  /// blocked receivers. Host-non-blocking. Returns true if anything arrived
  /// (frames or a close).
  bool poll();

  /// RTOS-blocking receive: the calling thread sleeps on the semaphore
  /// until poll() (from the idle thread or this call itself) delivers a
  /// frame. Returns nullopt once the channel is closed and drained.
  std::optional<Bytes> recv();

  /// Like recv(), but never polls the channel itself: only poll() from
  /// another thread delivers. On a timed board that is the idle thread,
  /// which polls only while the board is frozen, so a frame taken this way
  /// was never seen in the quantum that is running — however fast the peer
  /// answered.
  std::optional<Bytes> recv_deferred();

  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::optional<Bytes> wait_frame(bool self_poll);

  net::Channel& channel_;
  std::string name_;
  std::deque<Bytes> pending_;
  rtos::Semaphore available_;
  bool closed_ = false;
};

}  // namespace vhp::board
