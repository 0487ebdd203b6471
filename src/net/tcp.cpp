#include "vhp/common/format.hpp"

#include "vhp/net/tcp.hpp"

#include <arpa/inet.h>
#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <system_error>

#include "vhp/common/log.hpp"

namespace vhp::net {
namespace {

const Logger kLog{"net"};

Status errno_status(StatusCode code, const char* what) {
  return Status{code, vhp::strformat("{}: {}", what, std::strerror(errno))};
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// A connected TCP stream carrying u32-length-prefixed frames.
/// One sender thread + one receiver thread supported concurrently (the send
/// path has its own mutex; the receive path is single-consumer).
class TcpChannel final : public Channel {
 public:
  explicit TcpChannel(int fd) : fd_(fd) { set_nodelay(fd_); }

  ~TcpChannel() override {
    close();
    // The fd is released only here, after every user of this channel is
    // done: close() must not invalidate the fd while a receiver thread may
    // be entering poll() on it (a closed-and-reused fd, or poll on -1 with
    // an infinite timeout, would hang or corrupt another connection).
    if (fd_ >= 0) ::close(fd_);
  }

  Status send(std::span<const u8> frame) override {
    Bytes wire;
    wire.reserve(frame.size() + 4);
    ByteWriter w{wire};
    w.u32v(static_cast<u32>(frame.size()));
    w.bytes(frame);
    std::scoped_lock lock(send_mu_);
    std::size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNRESET) {
          return Status{StatusCode::kConnectionReset,
                        "connection reset by peer"};
        }
        if (errno == EPIPE) {
          return Status{StatusCode::kAborted, "peer closed"};
        }
        return errno_status(StatusCode::kUnavailable, "send");
      }
      off += static_cast<std::size_t>(n);
    }
    return Status::Ok();
  }

  // One writev per IOV_MAX/2 frames instead of one send() syscall per
  // frame: each frame contributes two iovecs (its u32 length prefix and
  // its payload), so the byte stream is identical to N send() calls and
  // the receive path needs no changes.
  Status send_many(std::span<const Bytes> frames) override {
    if (frames.empty()) return Status::Ok();
    // Prefixes must outlive the writev; one stable buffer for all of them.
    std::vector<u32> prefixes(frames.size());
    std::vector<iovec> iov;
    iov.reserve(frames.size() * 2);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      u8* p = reinterpret_cast<u8*>(&prefixes[i]);
      const u32 len = static_cast<u32>(frames[i].size());
      p[0] = static_cast<u8>(len);
      p[1] = static_cast<u8>(len >> 8);
      p[2] = static_cast<u8>(len >> 16);
      p[3] = static_cast<u8>(len >> 24);
      iov.push_back(iovec{p, 4});
      if (!frames[i].empty()) {
        iov.push_back(
            iovec{const_cast<u8*>(frames[i].data()), frames[i].size()});
      }
    }
    std::scoped_lock lock(send_mu_);
    std::size_t start = 0;
    while (start < iov.size()) {
      const std::size_t count = std::min<std::size_t>(
          iov.size() - start, static_cast<std::size_t>(IOV_MAX));
      msghdr msg{};
      msg.msg_iov = iov.data() + start;
      msg.msg_iovlen = count;
      const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNRESET) {
          return Status{StatusCode::kConnectionReset,
                        "connection reset by peer"};
        }
        if (errno == EPIPE) {
          return Status{StatusCode::kAborted, "peer closed"};
        }
        return errno_status(StatusCode::kUnavailable, "sendmsg");
      }
      // Consume written bytes off the front of the iovec window (a short
      // write can stop mid-iovec).
      std::size_t written = static_cast<std::size_t>(n);
      while (written > 0 && start < iov.size()) {
        if (written >= iov[start].iov_len) {
          written -= iov[start].iov_len;
          ++start;
        } else {
          iov[start].iov_base =
              static_cast<u8*>(iov[start].iov_base) + written;
          iov[start].iov_len -= written;
          written = 0;
        }
      }
    }
    return Status::Ok();
  }

  int readable_fd() override { return fd_; }

  Result<std::optional<Bytes>> try_recv() override {
    if (auto frame = extract_frame()) return std::optional{std::move(*frame)};
    Status s = fill_rx();
    if (!s.ok() && s.code() != StatusCode::kDeadlineExceeded) return s;
    if (auto frame = extract_frame()) return std::optional{std::move(*frame)};
    return std::optional<Bytes>{};
  }

  void close() override {
    // Shutdown (not close): wakes any thread blocked in poll() with
    // POLLHUP/EOF on both this endpoint and the peer, while keeping the
    // fd number valid until destruction.
    if (!closed_.exchange(true)) ::shutdown(fd_, SHUT_RDWR);
  }

 private:
  /// The least one read asks for: a frame of up to this size minus its
  /// length prefix arrives whole in the read that sees its first byte.
  /// A read asks for at most 16 times this, so a length prefix from the
  /// peer never sizes the buffer beyond what one read could fill.
  static constexpr std::size_t kReadBytes = 64 * 1024;

  /// Pops one complete frame off the front of the pending bytes, if there
  /// is one.
  std::optional<Bytes> extract_frame() {
    const std::size_t pending = rx_end_ - rx_begin_;
    if (pending < 4) return std::nullopt;
    const u8* head = rx_.get() + rx_begin_;
    ByteReader r{std::span<const u8>{head, 4}};
    const u32 len = r.u32v();
    if (pending < std::size_t{4} + len) return std::nullopt;
    Bytes frame{head + 4, head + 4 + len};
    rx_begin_ += std::size_t{4} + len;
    if (rx_begin_ == rx_end_) rx_begin_ = rx_end_ = 0;
    return frame;
  }

  /// One non-blocking read of whatever is available, sized to hold at
  /// least the rest of the pending frame. kDeadlineExceeded when nothing
  /// was pending.
  Status fill_rx() {
    if (closed_.load(std::memory_order_relaxed)) {
      return Status{StatusCode::kAborted, "channel closed"};
    }
    const std::size_t pending = rx_end_ - rx_begin_;
    std::size_t want = kReadBytes;
    if (pending >= 4) {
      ByteReader r{std::span<const u8>{rx_.get() + rx_begin_, 4}};
      want = std::clamp(std::size_t{4} + r.u32v() - pending, kReadBytes,
                        16 * kReadBytes);
    }
    if (rx_begin_ > 0) {
      // Only a partial frame is left: move it to the front.
      std::memmove(rx_.get(), rx_.get() + rx_begin_, pending);
      rx_begin_ = 0;
      rx_end_ = pending;
    }
    if (rx_cap_ < pending + want) {
      // Doubling keeps a frame larger than one read linear to gather. Not
      // value-initialised: only the bytes a read writes get touched.
      const std::size_t cap = std::max(pending + want, 2 * rx_cap_);
      auto grown = std::make_unique_for_overwrite<u8[]>(cap);
      if (pending > 0) std::memcpy(grown.get(), rx_.get(), pending);
      rx_ = std::move(grown);
      rx_cap_ = cap;
    }
    const ssize_t n =
        ::recv(fd_, rx_.get() + rx_end_, rx_cap_ - rx_end_, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status{StatusCode::kDeadlineExceeded, ""};
      }
      if (errno == ECONNRESET) {
        // Typed so a recovery layer can tell an abortive reset (redialable)
        // from an orderly shutdown.
        return Status{StatusCode::kConnectionReset,
                      "connection reset by peer"};
      }
      return errno_status(StatusCode::kUnavailable, "recv");
    }
    if (n == 0) return Status{StatusCode::kAborted, "peer closed"};
    rx_end_ += static_cast<std::size_t>(n);
    return Status::Ok();
  }

  int fd_;
  std::atomic<bool> closed_{false};
  std::mutex send_mu_;
  // Received bytes not yet framed: [rx_begin_, rx_end_) of an rx_cap_-byte
  // buffer. Frames are taken from the front by offset.
  std::unique_ptr<u8[]> rx_;
  std::size_t rx_cap_ = 0;
  std::size_t rx_begin_ = 0;
  std::size_t rx_end_ = 0;
};

int make_listener(u16* port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::system_error(errno, std::generic_category(), "socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  // Full backlog: a session-density connection burst (hundreds of
  // near-simultaneous connects) must not see ECONNREFUSED because the
  // queue was one deep.
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    ::close(fd);
    throw std::system_error(errno, std::generic_category(), "bind/listen");
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *port_out = ntohs(addr.sin_port);
  return fd;
}

/// accept(2) with signal/transient-error tolerance: retries EINTR (a
/// profiling signal mid-accept), EAGAIN (a connection that vanished
/// between poll and accept) and ECONNABORTED (peer reset while queued)
/// instead of failing the whole link setup.
int accept_retry(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd pfd{listen_fd, POLLIN, 0};
      (void)::poll(&pfd, 1, -1);
      continue;
    }
    return -1;
  }
}

}  // namespace

TcpLinkListener::TcpLinkListener() {
  for (int i = 0; i < 3; ++i) listen_fds_[static_cast<std::size_t>(i)] =
      make_listener(&ports_[static_cast<std::size_t>(i)]);
  kLog.debug("listening on DATA={} INT={} CLOCK={}", ports_[0], ports_[1],
             ports_[2]);
}

TcpLinkListener::~TcpLinkListener() {
  for (int fd : listen_fds_) {
    if (fd >= 0) ::close(fd);
  }
}

Result<CosimLink> TcpLinkListener::accept_link() {
  std::array<ChannelPtr, 3> chans;
  for (std::size_t i = 0; i < 3; ++i) {
    const int fd = accept_retry(listen_fds_[i]);
    if (fd < 0) return errno_status(StatusCode::kUnavailable, "accept");
    chans[i] = std::make_unique<TcpChannel>(fd);
  }
  return CosimLink{std::move(chans[0]), std::move(chans[1]),
                   std::move(chans[2])};
}

TcpListener::TcpListener() {
  listen_fd_ = make_listener(&port_);
  kLog.debug("listening on {}", port_);
}

TcpListener::~TcpListener() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Result<ChannelPtr> TcpListener::accept(
    std::optional<std::chrono::milliseconds> timeout) {
  const int wait_ms =
      timeout.has_value() ? static_cast<int>(timeout->count()) : -1;
  pollfd pfd{listen_fd_, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, wait_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return errno_status(StatusCode::kUnavailable, "poll");
  if (rc == 0) {
    return Status{StatusCode::kDeadlineExceeded, "no connection"};
  }
  const int fd = accept_retry(listen_fd_);
  if (fd < 0) return errno_status(StatusCode::kUnavailable, "accept");
  return ChannelPtr{std::make_unique<TcpChannel>(fd)};
}

Result<ChannelPtr> connect_tcp_channel(u16 port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status(StatusCode::kUnavailable, "socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return errno_status(StatusCode::kUnavailable, "connect");
  }
  return ChannelPtr{std::make_unique<TcpChannel>(fd)};
}

Result<CosimLink> connect_tcp_link(std::array<u16, 3> ports) {
  std::array<ChannelPtr, 3> chans;
  for (std::size_t i = 0; i < 3; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return errno_status(StatusCode::kUnavailable, "socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(ports[i]);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return errno_status(StatusCode::kUnavailable, "connect");
    }
    chans[i] = std::make_unique<TcpChannel>(fd);
  }
  return CosimLink{std::move(chans[0]), std::move(chans[1]),
                   std::move(chans[2])};
}

}  // namespace vhp::net
