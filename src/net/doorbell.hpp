// Eventfd doorbell of the in-memory transports (inproc queues, shm rings):
// the fd a consumer hands out from readable_fd(), which every waiter sleeps
// on, and, on shm, also the one a producer waits on for ring space.
//
// Both transports keep the bell level-accurate — readable exactly while a
// frame may be pending — with one drain rule: the producer rings after it
// publishes a frame, and the consumer drains only when a pop empties the
// queue or a ring is outstanding, re-checking the queue after the drain.
// A poll that merely finds the queue empty never drains, so it costs no
// system call.
//
// A bell opens its eventfd on first use, when a waiter arms it; until
// then ring(), drain() and wait() are no-ops, because nothing can be
// waiting on it. The fd is atomic: a shm endpoint's close() rings every
// bell from either side while the other side may be opening one.
#pragma once

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>

#include "vhp/common/types.hpp"

namespace vhp::net {

class Doorbell {
 public:
  Doorbell() = default;
  ~Doorbell() {
    if (const int fd = this->fd(); fd >= 0) ::close(fd);
  }
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// Creates the eventfd on first use and returns it (-1 if that failed).
  int open() {
    int fd = this->fd();
    if (fd < 0) {
      const int made = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (made >= 0 && !fd_.compare_exchange_strong(fd, made)) {
        ::close(made);  // opened by another thread meanwhile: use that fd
        return fd;
      }
      fd = made;
    }
    return fd;
  }

  [[nodiscard]] int fd() const { return fd_.load(); }

  /// Makes the fd readable. No-op before open().
  void ring() const {
    const int fd = this->fd();
    if (fd < 0) return;
    const u64 one = 1;
    [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof one);
  }

  /// Makes the fd unreadable until the next ring. No-op before open().
  void drain() const {
    const int fd = this->fd();
    if (fd < 0) return;
    u64 value = 0;
    [[maybe_unused]] ssize_t n = ::read(fd, &value, sizeof value);
  }

  /// Waits up to wait_ms (-1 = forever) for a ring. EINTR counts as a
  /// wakeup (callers loop and re-check state anyway).
  void wait(int wait_ms) const {
    const int fd = this->fd();
    if (fd < 0) return;
    pollfd pfd{fd, POLLIN, 0};
    (void)::poll(&pfd, 1, wait_ms);
  }

 private:
  std::atomic<int> fd_{-1};
};

}  // namespace vhp::net
