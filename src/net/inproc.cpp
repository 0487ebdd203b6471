#include "vhp/net/inproc.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>

#include "doorbell.hpp"

namespace vhp::net {
namespace {

/// One direction of the in-process pipe: a bounded deque of frames.
///
/// Empty polls: the queue length and the closed state are mirrored into one
/// atomic word under the mutex, so try_pop on an open, empty queue is a
/// single acquire load — no lock, no system call.
///
/// Doorbell: a waiter (net::wait_until) calls readable_fd(), which lazily
/// creates an eventfd. From then on every push rings it, and the pop that
/// empties the queue drains it (doorbell.hpp's drain rule). Both happen
/// under the mutex, so "bell readable" is exactly "queue non-empty or
/// closed". A push to a full queue blocks on a condition variable, which
/// models TCP back-pressure.
class FrameQueue {
 public:
  explicit FrameQueue(std::size_t capacity) : capacity_(capacity) {}

  Status push(Bytes frame) {
    std::unique_lock lock(mu_);
    not_full_.wait(lock, [&] { return queue_.size() < capacity_ || closed_; });
    if (closed_) return Status{StatusCode::kAborted, "channel closed"};
    queue_.push_back(std::move(frame));
    publish_level();
    doorbell_.ring();
    return Status::Ok();
  }

  Result<std::optional<Bytes>> try_pop() {
    if (level_.load(std::memory_order_acquire) == 0) {
      return std::optional<Bytes>{};
    }
    std::scoped_lock lock(mu_);
    if (queue_.empty()) {
      if (closed_) return Status{StatusCode::kAborted, "channel closed"};
      return std::optional<Bytes>{};
    }
    return std::optional<Bytes>{take_front()};
  }

  void close() {
    std::scoped_lock lock(mu_);
    closed_ = true;
    publish_level();
    doorbell_.ring();  // wake a poller so it observes kAborted
    not_full_.notify_all();
  }

  /// Lazily creates the doorbell eventfd; rings it if frames are already
  /// queued so a level-triggered poller doesn't sleep over them.
  int readable_fd() {
    std::scoped_lock lock(mu_);
    if (doorbell_.fd() < 0 && doorbell_.open() >= 0 &&
        (!queue_.empty() || closed_)) {
      doorbell_.ring();
    }
    return doorbell_.fd();
  }

 private:
  static constexpr std::size_t kClosed =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);

  // The rest run under mu_.
  void publish_level() {
    level_.store(queue_.size() | (closed_ ? kClosed : 0),
                 std::memory_order_release);
  }

  /// Pops the head frame; the pop that empties an open queue drains the
  /// bell (a closed queue keeps it readable so a poller sees kAborted).
  Bytes take_front() {
    Bytes frame = std::move(queue_.front());
    queue_.pop_front();
    publish_level();
    if (queue_.empty() && !closed_) doorbell_.drain();
    not_full_.notify_one();
    return frame;
  }

  std::mutex mu_;
  std::condition_variable not_full_;
  std::deque<Bytes> queue_;
  std::size_t capacity_;
  bool closed_ = false;
  // queue_.size(), plus kClosed once closed: 0 means open and empty. On a
  // cache line of its own: an empty poll reads only this word, so the
  // peer's lock and deque writes must not evict it from the poller.
  alignas(64) std::atomic<std::size_t> level_{0};
  Doorbell doorbell_;
};

/// An endpoint owns a tx queue (shared with the peer's rx) and vice versa.
class InProcChannel final : public Channel {
 public:
  InProcChannel(std::shared_ptr<FrameQueue> tx, std::shared_ptr<FrameQueue> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}

  ~InProcChannel() override { close(); }

  Status send(std::span<const u8> frame) override {
    return tx_->push(Bytes{frame.begin(), frame.end()});
  }

  Result<std::optional<Bytes>> try_recv() override { return rx_->try_pop(); }

  void close() override {
    tx_->close();
    rx_->close();
  }

  int readable_fd() override { return rx_->readable_fd(); }

 private:
  std::shared_ptr<FrameQueue> tx_;
  std::shared_ptr<FrameQueue> rx_;
};

}  // namespace

std::pair<ChannelPtr, ChannelPtr> make_inproc_channel_pair(
    std::size_t capacity) {
  auto a_to_b = std::make_shared<FrameQueue>(capacity);
  auto b_to_a = std::make_shared<FrameQueue>(capacity);
  return {std::make_unique<InProcChannel>(a_to_b, b_to_a),
          std::make_unique<InProcChannel>(b_to_a, a_to_b)};
}

LinkPair make_inproc_link_pair(std::size_t capacity) {
  auto [data_a, data_b] = make_inproc_channel_pair(capacity);
  auto [int_a, int_b] = make_inproc_channel_pair(capacity);
  auto [clk_a, clk_b] = make_inproc_channel_pair(capacity);
  LinkPair pair;
  pair.hw = CosimLink{std::move(data_a), std::move(int_a), std::move(clk_a)};
  pair.board =
      CosimLink{std::move(data_b), std::move(int_b), std::move(clk_b)};
  return pair;
}

}  // namespace vhp::net
