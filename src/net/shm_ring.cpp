#include "vhp/net/shm_ring.hpp"

#include <sys/mman.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <new>

#include "doorbell.hpp"
#include "vhp/common/log.hpp"

namespace vhp::net {
namespace {

const Logger kLog{"net.shm"};

constexpr std::size_t kCacheLine = 64;
constexpr std::size_t kMinCapacity = std::size_t{1} << 12;

/// Control block of one ring direction, placement-new'd into the shared
/// mapping. head/tail are monotonically increasing byte cursors (index =
/// cursor & (cap-1)); the flags implement wake-only-when-waiting
/// doorbells.
struct RingCtl {
  alignas(kCacheLine) std::atomic<u64> head{0};   // producer cursor
  alignas(kCacheLine) std::atomic<u64> tail{0};   // consumer cursor
  alignas(kCacheLine) std::atomic<u32> closed{0};
  std::atomic<u32> reader_armed{0};    // consumer wants publish doorbells
  std::atomic<u32> rung{0};            // a publish ring may be outstanding
  std::atomic<u32> writer_waiting{0};  // producer blocked on a full ring
};

/// One direction: control block + data window inside the mapping, plus
/// its two doorbells (process-local fds; the mapping itself holds no
/// pointers or fds, so a cross-process variant only needs to pass the
/// eventfds over SCM_RIGHTS). A bell opens when its waiter arms it: the
/// consumer in readable_fd(), the producer when it blocks on a full ring.
/// A hosted session arms neither, so it opens no fd.
struct RingDir {
  RingCtl* ctl = nullptr;
  u8* data = nullptr;
  u64 cap = 0;
  Doorbell publish_bell;  // producer -> consumer: frames available
  Doorbell space_bell;    // consumer -> producer: space reclaimed

  /// Rings the consumer, then flags the ring for its next empty pop to
  /// drain. The flag goes up after the ring: a consumer that clears it and
  /// drains before this ring lands re-checks head and sees the frame.
  void ring_publish() {
    publish_bell.ring();
    ctl->rung.store(1, std::memory_order_seq_cst);
  }
};

/// The shared mapping and both directions; kept alive by shared_ptr from
/// both endpoint channels.
struct ShmRegion {
  ~ShmRegion() {
    if (base != MAP_FAILED && base != nullptr) ::munmap(base, bytes);
  }
  void* base = nullptr;
  std::size_t bytes = 0;
  RingDir a2b;
  RingDir b2a;
};

std::size_t round_pow2(std::size_t v) {
  return std::bit_ceil(std::max(v, kMinCapacity));
}

std::shared_ptr<ShmRegion> make_region(std::size_t capacity_bytes) {
  const std::size_t cap = round_pow2(capacity_bytes);
  auto region = std::make_shared<ShmRegion>();
  const std::size_t ctl_bytes =
      (sizeof(RingCtl) + kCacheLine - 1) & ~(kCacheLine - 1);
  region->bytes = 2 * (ctl_bytes + cap);
  region->base = ::mmap(nullptr, region->bytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (region->base == MAP_FAILED) {
    kLog.error("mmap({} bytes) failed: {}", region->bytes,
               std::strerror(errno));
    throw std::bad_alloc{};
  }
  u8* p = static_cast<u8*>(region->base);
  auto init_dir = [&](RingDir& dir) {
    dir.ctl = new (p) RingCtl{};
    dir.data = p + ctl_bytes;
    dir.cap = cap;
    p += ctl_bytes + cap;
  };
  init_dir(region->a2b);
  init_dir(region->b2a);
  return region;
}

/// Wrap-aware copy into the ring at byte cursor `at`.
void ring_write(RingDir& dir, u64 at, const u8* src, std::size_t n) {
  const u64 mask = dir.cap - 1;
  const u64 idx = at & mask;
  const std::size_t first = static_cast<std::size_t>(
      std::min<u64>(n, dir.cap - idx));
  std::memcpy(dir.data + idx, src, first);
  if (first < n) std::memcpy(dir.data, src + first, n - first);
}

/// Wrap-aware copy out of the ring at byte cursor `at`.
void ring_read(const RingDir& dir, u64 at, u8* dst, std::size_t n) {
  const u64 mask = dir.cap - 1;
  const u64 idx = at & mask;
  const std::size_t first = static_cast<std::size_t>(
      std::min<u64>(n, dir.cap - idx));
  std::memcpy(dst, dir.data + idx, first);
  if (first < n) std::memcpy(dst + first, dir.data, n - first);
}

/// One endpoint: produces into tx_, consumes from rx_. SPSC per
/// direction, matching the Channel thread-safety contract (one sender
/// thread + one receiver thread).
class ShmRingChannel final : public Channel {
 public:
  ShmRingChannel(std::shared_ptr<ShmRegion> region, RingDir* tx, RingDir* rx)
      : region_(std::move(region)), tx_(tx), rx_(rx) {}

  ~ShmRingChannel() override { close(); }

  Status send(std::span<const u8> frame) override {
    Status s = stage(frame);
    if (!s.ok()) return s;
    publish();
    return Status::Ok();
  }

  // The whole batch becomes memcpys plus ONE publishing store and at most
  // one doorbell write — this is what makes BatchingChannel-over-shm
  // nearly syscall-free.
  Status send_many(std::span<const Bytes> frames) override {
    for (const auto& f : frames) {
      Status s = stage(f);
      if (!s.ok()) return s;
    }
    if (!frames.empty()) publish();
    return Status::Ok();
  }

  Result<std::optional<Bytes>> try_recv() override { return pop(); }

  void close() override {
    tx_->ctl->closed.store(1, std::memory_order_seq_cst);
    rx_->ctl->closed.store(1, std::memory_order_seq_cst);
    // Wake everyone: our peer's consumer, our own waiting receiver, and
    // any producer stuck on a full ring.
    tx_->publish_bell.ring();
    rx_->publish_bell.ring();
    tx_->space_bell.ring();
    rx_->space_bell.ring();
  }

  int readable_fd() override {
    // Open the doorbell and arm it for good (net::wait_until waits on it);
    // ring it if frames were published, or the channel closed, before
    // arming, so a level-triggered poller doesn't sleep over them.
    const int fd = rx_->publish_bell.open();
    rx_->ctl->reader_armed.store(1, std::memory_order_seq_cst);
    if (rx_->ctl->head.load(std::memory_order_seq_cst) !=
            rx_->ctl->tail.load(std::memory_order_relaxed) ||
        rx_->ctl->closed.load(std::memory_order_seq_cst) != 0) {
      rx_->ring_publish();
    }
    return fd;
  }

 private:
  /// Copies one frame (length prefix + payload) into tx_, blocking while
  /// the ring is full. Does NOT publish — callers batch the head store.
  Status stage(std::span<const u8> frame) {
    const u64 need = 4 + static_cast<u64>(frame.size());
    if (need > tx_->cap) {
      return Status{StatusCode::kInvalidArgument,
                    "frame larger than shm ring capacity"};
    }
    RingCtl& ctl = *tx_->ctl;
    for (;;) {
      if (ctl.closed.load(std::memory_order_relaxed) != 0) {
        return Status{StatusCode::kAborted, "channel closed"};
      }
      u64 free = tx_->cap - (staged_head_ - cached_tail_);
      if (free < need) {
        cached_tail_ = ctl.tail.load(std::memory_order_acquire);
        free = tx_->cap - (staged_head_ - cached_tail_);
      }
      if (free >= need) break;
      // Ring full: publish whatever we staged (the consumer cannot drain
      // unpublished bytes), open our bell, flag ourselves waiting,
      // re-check, then sleep.
      publish();
      tx_->space_bell.open();
      ctl.writer_waiting.store(1, std::memory_order_seq_cst);
      cached_tail_ = ctl.tail.load(std::memory_order_seq_cst);
      free = tx_->cap - (staged_head_ - cached_tail_);
      if (free >= need ||
          ctl.closed.load(std::memory_order_relaxed) != 0) {
        ctl.writer_waiting.store(0, std::memory_order_relaxed);
        continue;
      }
      tx_->space_bell.wait(100);
      tx_->space_bell.drain();
      ctl.writer_waiting.store(0, std::memory_order_relaxed);
    }
    u8 prefix[4];
    const u32 len = static_cast<u32>(frame.size());
    prefix[0] = static_cast<u8>(len);
    prefix[1] = static_cast<u8>(len >> 8);
    prefix[2] = static_cast<u8>(len >> 16);
    prefix[3] = static_cast<u8>(len >> 24);
    ring_write(*tx_, staged_head_, prefix, 4);
    if (!frame.empty()) {
      ring_write(*tx_, staged_head_ + 4, frame.data(), frame.size());
    }
    staged_head_ += need;
    return Status::Ok();
  }

  /// Makes staged frames visible to the consumer and rings its doorbell
  /// if it is (or may be) waiting.
  void publish() {
    RingCtl& ctl = *tx_->ctl;
    if (staged_head_ == ctl.head.load(std::memory_order_relaxed)) return;
    ctl.head.store(staged_head_, std::memory_order_seq_cst);
    if (ctl.reader_armed.load(std::memory_order_seq_cst) != 0) {
      tx_->ring_publish();
    }
  }

  /// Non-blocking pop of one frame. An empty ring costs loads only: the
  /// bell is drained only while a ring is flagged, and clear-drain-recheck
  /// ordering keeps "bell readable" a reliable level signal — a publish
  /// either lands before our head re-load (frame seen) or rings after the
  /// flag was cleared (bell and flag go up again).
  Result<std::optional<Bytes>> pop() {
    RingCtl& ctl = *rx_->ctl;
    const u64 tail = ctl.tail.load(std::memory_order_relaxed);
    if (cached_head_ == tail) {
      cached_head_ = ctl.head.load(std::memory_order_acquire);
      if (cached_head_ == tail) {
        if (ctl.closed.load(std::memory_order_relaxed) != 0) {
          return Status{StatusCode::kAborted, "channel closed"};
        }
        if (ctl.rung.load(std::memory_order_relaxed) == 0) {
          return std::optional<Bytes>{};
        }
        ctl.rung.store(0, std::memory_order_seq_cst);
        rx_->publish_bell.drain();
        cached_head_ = ctl.head.load(std::memory_order_seq_cst);
        if (cached_head_ == tail) {
          if (ctl.closed.load(std::memory_order_seq_cst) != 0) {
            return Status{StatusCode::kAborted, "channel closed"};
          }
          return std::optional<Bytes>{};
        }
      }
    }
    u8 prefix[4];
    ring_read(*rx_, tail, prefix, 4);
    const u32 len = static_cast<u32>(prefix[0]) |
                    (static_cast<u32>(prefix[1]) << 8) |
                    (static_cast<u32>(prefix[2]) << 16) |
                    (static_cast<u32>(prefix[3]) << 24);
    Bytes frame(len);
    if (len > 0) ring_read(*rx_, tail + 4, frame.data(), len);
    ctl.tail.store(tail + 4 + len, std::memory_order_seq_cst);
    if (ctl.writer_waiting.load(std::memory_order_seq_cst) != 0) {
      rx_->space_bell.ring();
    }
    return std::optional<Bytes>{std::move(frame)};
  }

  std::shared_ptr<ShmRegion> region_;
  RingDir* tx_;
  RingDir* rx_;
  // Producer-thread state: staged (not yet published) head and the cached
  // consumer cursor.
  u64 staged_head_ = 0;
  u64 cached_tail_ = 0;
  // Consumer-thread state: cached producer cursor.
  u64 cached_head_ = 0;
};

}  // namespace

std::pair<ChannelPtr, ChannelPtr> make_shm_channel_pair(
    std::size_t capacity_bytes) {
  auto region = make_region(capacity_bytes);
  RingDir* a2b = &region->a2b;
  RingDir* b2a = &region->b2a;
  return {std::make_unique<ShmRingChannel>(region, a2b, b2a),
          std::make_unique<ShmRingChannel>(region, b2a, a2b)};
}

LinkPair make_shm_link_pair(std::size_t capacity_bytes) {
  auto [data_a, data_b] = make_shm_channel_pair(capacity_bytes);
  auto [int_a, int_b] = make_shm_channel_pair(capacity_bytes);
  auto [clk_a, clk_b] = make_shm_channel_pair(capacity_bytes);
  LinkPair pair;
  pair.hw = CosimLink{std::move(data_a), std::move(int_a), std::move(clk_a)};
  pair.board =
      CosimLink{std::move(data_b), std::move(int_b), std::move(clk_b)};
  return pair;
}

}  // namespace vhp::net
