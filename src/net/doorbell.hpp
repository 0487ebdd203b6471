// Eventfd doorbell of the in-memory transports (inproc queues, shm rings):
// the fd a consumer hands out from readable_fd() and, on shm, also the one
// a blocking recv() sleeps on.
//
// Both transports keep the bell level-accurate — readable exactly while a
// frame may be pending — with one drain rule: the producer rings after it
// publishes a frame, and the consumer drains only when a pop empties the
// queue or a ring is outstanding, re-checking the queue after the drain.
// A poll that merely finds the queue empty never drains, so it costs no
// system call.
#pragma once

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include "vhp/common/types.hpp"

namespace vhp::net {

class Doorbell {
 public:
  Doorbell() = default;
  ~Doorbell() {
    if (fd_ >= 0) ::close(fd_);
  }
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// Creates the eventfd on first use and returns it (-1 if that failed).
  int open() {
    if (fd_ < 0) fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    return fd_;
  }

  [[nodiscard]] int fd() const { return fd_; }

  /// Makes the fd readable. No-op before open().
  void ring() const {
    if (fd_ < 0) return;
    const u64 one = 1;
    [[maybe_unused]] ssize_t n = ::write(fd_, &one, sizeof one);
  }

  /// Makes the fd unreadable until the next ring. No-op before open().
  void drain() const {
    if (fd_ < 0) return;
    u64 value = 0;
    [[maybe_unused]] ssize_t n = ::read(fd_, &value, sizeof value);
  }

  /// Waits up to wait_ms (-1 = forever) for a ring. EINTR counts as a
  /// wakeup (callers loop and re-check state anyway).
  void wait(int wait_ms) const {
    if (fd_ < 0) return;
    pollfd pfd{fd_, POLLIN, 0};
    (void)::poll(&pfd, 1, wait_ms);
  }

 private:
  int fd_ = -1;
};

}  // namespace vhp::net
