// Fiber-free svc-layer tests: the shm ring transport (wraparound,
// backpressure, doorbell ordering), per-quantum batching (buffer/flush
// semantics, counters), the TCP send_many/backlog satellites, the inproc
// doorbells, the empty-poll and doorbell-level contract both in-memory
// transports share, and the svc::EventLoop reactor. Everything here runs plain
// threads only, so the suite carries the composite "svc-tsan" label:
// selected by -L svc (the scripts/check.sh gate) and -L tsan (the TSan
// preset), where the Lamport ring's memory ordering actually gets checked.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "vhp/common/rng.hpp"
#include "vhp/net/batching.hpp"
#include "vhp/net/inproc.hpp"
#include "vhp/net/shm_ring.hpp"
#include "vhp/net/tcp.hpp"
#include "vhp/svc/event_loop.hpp"

namespace vhp::svc {
namespace {

using namespace std::chrono_literals;

bool fd_readable(int fd, int timeout_ms = 0) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) == 1 && (pfd.revents & POLLIN) != 0;
}

Bytes frame_of(std::size_t n, u8 seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(seed + i);
  return b;
}

// ---------- ShmRingChannel ----------

TEST(ShmRing, RoundTripBothDirections) {
  auto [a, b] = net::make_shm_channel_pair();
  ASSERT_TRUE(a->send(Bytes{1, 2, 3}).ok());
  ASSERT_TRUE(b->send(Bytes{}).ok());  // empty frames are legal
  auto got = b->recv(1000ms);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value(), (Bytes{1, 2, 3}));
  got = a->recv(1000ms);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value(), Bytes{});
}

TEST(ShmRing, WraparoundPreservesFrameBytes) {
  // 4 KiB ring (the minimum), frames of varying prime-ish sizes: the
  // cursor crosses the wrap point hundreds of times.
  auto [a, b] = net::make_shm_channel_pair(1);
  const std::size_t sizes[] = {1, 37, 128, 517, 1021};
  std::thread producer([&, a = a.get()] {
    for (int iteration = 0; iteration < 400; ++iteration) {
      const std::size_t n = sizes[iteration % 5];
      ASSERT_TRUE(a->send(frame_of(n, static_cast<u8>(iteration))).ok());
    }
  });
  for (int iteration = 0; iteration < 400; ++iteration) {
    auto got = b->recv(2000ms);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value(),
              frame_of(sizes[iteration % 5], static_cast<u8>(iteration)));
  }
  producer.join();
}

TEST(ShmRing, BackpressureBlocksProducerUntilConsumerDrains) {
  auto [a, b] = net::make_shm_channel_pair(1);  // 4 KiB
  // ~16 KiB of traffic through a 4 KiB ring: the producer MUST block on a
  // full ring several times and resume off the space doorbell.
  std::atomic<int> sent{0};
  std::thread producer([&, a = a.get()] {
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(a->send(frame_of(1000, static_cast<u8>(i))).ok());
      sent.fetch_add(1);
    }
  });
  // Let the producer hit the wall before we start draining.
  std::this_thread::sleep_for(50ms);
  EXPECT_LT(sent.load(), 16);
  for (int i = 0; i < 16; ++i) {
    auto got = b->recv(2000ms);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value(), frame_of(1000, static_cast<u8>(i)));
  }
  producer.join();
  EXPECT_EQ(sent.load(), 16);
}

TEST(ShmRing, FrameLargerThanRingIsRejected) {
  auto [a, b] = net::make_shm_channel_pair(1);
  Status s = a->send(Bytes(5000, 0xAB));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ShmRing, BlockedRecvWokenByLateSend) {
  auto [a, b] = net::make_shm_channel_pair();
  std::thread late([&, a = a.get()] {
    std::this_thread::sleep_for(30ms);
    ASSERT_TRUE(a->send(Bytes{9}).ok());
  });
  auto got = b->recv(2000ms);  // must sleep on the doorbell, then wake
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value(), Bytes{9});
  late.join();
}

TEST(ShmRing, RecvTimesOutOnSilence) {
  auto [a, b] = net::make_shm_channel_pair();
  auto got = b->recv(20ms);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ShmRing, CloseWakesBlockedRecv) {
  auto [a, b] = net::make_shm_channel_pair();
  std::thread closer([&, a = a.get()] {
    std::this_thread::sleep_for(30ms);
    a->close();
  });
  auto got = b->recv(2000ms);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kAborted);
  closer.join();
}

TEST(ShmRing, ReadableFdIsLevelAccurate) {
  auto [a, b] = net::make_shm_channel_pair();
  const int fd = b->readable_fd();
  ASSERT_GE(fd, 0);
  EXPECT_FALSE(fd_readable(fd));
  ASSERT_TRUE(a->send(Bytes{1}).ok());
  EXPECT_TRUE(fd_readable(fd, 1000));
  // Frames published BEFORE the first readable_fd() call must also show.
  auto [c, d] = net::make_shm_channel_pair();
  ASSERT_TRUE(c->send(Bytes{2}).ok());
  EXPECT_TRUE(fd_readable(d->readable_fd(), 1000));
  // Draining the queue quiesces the doorbell: the empty pop drains the
  // ring its publish (or the arming readable_fd() call) flagged.
  for (auto* ch : {b.get(), d.get()}) {
    auto got = ch->try_recv();
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got.value().has_value());
    got = ch->try_recv();
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got.value().has_value());
  }
  EXPECT_FALSE(fd_readable(fd));
  EXPECT_FALSE(fd_readable(d->readable_fd()));
  // With nothing flagged an empty pop leaves the level alone, and the next
  // publish raises it again.
  ASSERT_TRUE(b->try_recv().ok());
  ASSERT_TRUE(a->send(Bytes{3}).ok());
  EXPECT_TRUE(fd_readable(fd, 1000));
}

TEST(ShmRing, SendManyArrivesInOrder) {
  auto [a, b] = net::make_shm_channel_pair();
  std::vector<Bytes> frames;
  for (int i = 0; i < 32; ++i) frames.push_back(frame_of(64, static_cast<u8>(i)));
  ASSERT_TRUE(a->send_many(frames).ok());
  for (int i = 0; i < 32; ++i) {
    auto got = b->recv(1000ms);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value(), frames[static_cast<std::size_t>(i)]);
  }
}

TEST(ShmRing, TsanProducerConsumerStress) {
  // The TSan money test: 20k frames of mixed sizes through a 4 KiB ring,
  // producer and consumer free-running on separate threads. Any missing
  // barrier in the Lamport protocol shows up here.
  auto [a, b] = net::make_shm_channel_pair(1);
  constexpr int kFrames = 20000;
  std::thread producer([&, a = a.get()] {
    for (int i = 0; i < kFrames; ++i) {
      Bytes f(static_cast<std::size_t>(1 + (i % 200)));
      for (std::size_t j = 0; j < f.size(); ++j) {
        f[j] = static_cast<u8>(i + static_cast<int>(j));
      }
      ASSERT_TRUE(a->send(f).ok());
    }
  });
  for (int i = 0; i < kFrames; ++i) {
    auto got = b->recv(5000ms);
    ASSERT_TRUE(got.ok()) << "frame " << i << ": " << got.status();
    ASSERT_EQ(got.value().size(), static_cast<std::size_t>(1 + (i % 200)));
    EXPECT_EQ(got.value()[0], static_cast<u8>(i));
  }
  producer.join();
}

// ---------- BatchingChannel ----------

TEST(Batching, BuffersUntilFlush) {
  auto [tx_inner, rx] = net::make_inproc_channel_pair();
  net::BatchingChannel tx{std::move(tx_inner)};
  ASSERT_TRUE(tx.send(Bytes{1}).ok());
  ASSERT_TRUE(tx.send(Bytes{2}).ok());
  auto peeked = rx->try_recv();
  ASSERT_TRUE(peeked.ok());
  EXPECT_FALSE(peeked.value().has_value()) << "frame crossed before flush";
  EXPECT_EQ(tx.pending_frames(), 2u);
  ASSERT_TRUE(tx.flush().ok());
  EXPECT_EQ(tx.pending_frames(), 0u);
  for (u8 expected : {1, 2}) {
    auto got = rx->recv(1000ms);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value(), Bytes{expected});
  }
}

TEST(Batching, AutoFlushAtFrameCap) {
  net::BatchingConfig config;
  config.max_pending_frames = 3;
  auto [tx_inner, rx] = net::make_inproc_channel_pair();
  net::BatchingChannel tx{std::move(tx_inner), config};
  ASSERT_TRUE(tx.send(Bytes{1}).ok());
  ASSERT_TRUE(tx.send(Bytes{2}).ok());
  ASSERT_TRUE(tx.send(Bytes{3}).ok());  // cap hit: flushes without help
  auto got = rx->recv(1000ms);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value(), Bytes{1});
  EXPECT_EQ(tx.flushes(), 1u);
  EXPECT_EQ(tx.frames_batched(), 3u);
}

TEST(Batching, AutoFlushAtByteCap) {
  net::BatchingConfig config;
  config.max_pending_bytes = 100;
  auto [tx_inner, rx] = net::make_inproc_channel_pair();
  net::BatchingChannel tx{std::move(tx_inner), config};
  ASSERT_TRUE(tx.send(Bytes(80, 1)).ok());
  EXPECT_EQ(tx.pending_frames(), 1u);
  ASSERT_TRUE(tx.send(Bytes(80, 2)).ok());  // 160 > 100: flushed
  EXPECT_EQ(tx.pending_frames(), 0u);
}

TEST(Batching, RecvFlushesOwnPendingFirst) {
  // The anti-deadlock rule: blocking on recv() while holding unflushed
  // frames would wedge a peer that is waiting for exactly those frames.
  auto [a_inner, b_inner] = net::make_inproc_channel_pair();
  net::BatchingChannel a{std::move(a_inner)};
  std::thread echo([inner = std::move(b_inner)]() mutable {
    auto got = inner->recv(2000ms);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(inner->send(got.value()).ok());
  });
  ASSERT_TRUE(a.send(Bytes{42}).ok());  // buffered, NOT yet sent
  auto reply = a.recv(2000ms);          // must flush before blocking
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply.value(), Bytes{42});
  echo.join();
}

TEST(Batching, CloseFlushesPending) {
  auto [tx_inner, rx] = net::make_inproc_channel_pair();
  net::BatchingChannel tx{std::move(tx_inner)};
  ASSERT_TRUE(tx.send(Bytes{7}).ok());
  tx.close();
  auto got = rx->recv(1000ms);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value(), Bytes{7});
}

TEST(Batching, CountersMeasureFramesPerFlush) {
  auto [tx_inner, rx] = net::make_inproc_channel_pair();
  net::BatchingChannel tx{std::move(tx_inner)};
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(tx.send(Bytes{1}).ok());
  ASSERT_TRUE(tx.flush().ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(tx.send(Bytes{2}).ok());
  ASSERT_TRUE(tx.flush().ok());
  ASSERT_TRUE(tx.flush().ok());  // empty flush: not counted
  EXPECT_EQ(tx.frames_batched(), 12u);
  EXPECT_EQ(tx.flushes(), 2u);
}

TEST(Batching, BatchLinkLeavesClockDirect) {
  auto pair = net::make_inproc_link_pair();
  auto batched = net::batch_link(std::move(pair.hw), true, {}, nullptr, "hw");
  ASSERT_TRUE(batched.clock->send(Bytes{1}).ok());
  auto got = pair.board.clock->try_recv();  // no flush needed: direct
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value().has_value());
  ASSERT_TRUE(batched.data->send(Bytes{2}).ok());
  got = pair.board.data->try_recv();  // batched: held until flush
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value().has_value());
  ASSERT_TRUE(batched.data->flush().ok());
  got = pair.board.data->try_recv();
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().has_value());
}

// ---------- TCP satellites ----------

TEST(TcpSendMany, VectoredWriteDeliversInOrder) {
  net::TcpListener listener;
  auto client = net::connect_tcp_channel(listener.port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto server = listener.accept(2000ms);
  ASSERT_TRUE(server.ok()) << server.status();
  // 96 frames x 8 KiB ≈ 768 KiB: well past the socket buffer, so the
  // sendmsg path exercises partial-write resumption mid-batch.
  std::vector<Bytes> frames;
  for (int i = 0; i < 96; ++i) {
    frames.push_back(frame_of(8192, static_cast<u8>(i)));
  }
  std::thread sender([&] {
    ASSERT_TRUE(client.value()->send_many(frames).ok());
  });
  for (int i = 0; i < 96; ++i) {
    auto got = server.value()->recv(5000ms);
    ASSERT_TRUE(got.ok()) << "frame " << i << ": " << got.status();
    EXPECT_EQ(got.value(), frames[static_cast<std::size_t>(i)]);
  }
  sender.join();
}

TEST(TcpListen, AcceptsConnectBurst) {
  // The ::listen(fd, 1) satellite: a session-density connect burst used to
  // overflow the backlog and get connections refused/reset.
  net::TcpListener listener;
  constexpr int kClients = 64;
  std::vector<std::thread> connectors;
  std::vector<net::ChannelPtr> clients(kClients);
  std::atomic<int> failed{0};
  connectors.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    connectors.emplace_back([&, i] {
      auto c = net::connect_tcp_channel(listener.port());
      if (c.ok()) {
        clients[static_cast<std::size_t>(i)] = std::move(c).value();
      } else {
        failed.fetch_add(1);
      }
    });
  }
  std::vector<net::ChannelPtr> accepted;
  for (int i = 0; i < kClients; ++i) {
    auto s = listener.accept(5000ms);
    ASSERT_TRUE(s.ok()) << "accept " << i << ": " << s.status();
    accepted.push_back(std::move(s).value());
  }
  for (auto& t : connectors) t.join();
  EXPECT_EQ(failed.load(), 0);
}

// ---------- inproc doorbells ----------

TEST(InprocDoorbell, TracksQueueLevel) {
  auto [a, b] = net::make_inproc_channel_pair();
  const int fd = b->readable_fd();
  ASSERT_GE(fd, 0);
  EXPECT_FALSE(fd_readable(fd));
  ASSERT_TRUE(a->send(Bytes{1}).ok());
  ASSERT_TRUE(a->send(Bytes{2}).ok());
  EXPECT_TRUE(fd_readable(fd, 1000));
  (void)b->try_recv();
  EXPECT_TRUE(fd_readable(fd));  // one frame still queued
  (void)b->try_recv();           // the pop that empties the queue drains
  EXPECT_FALSE(fd_readable(fd));
  (void)b->try_recv();
  EXPECT_FALSE(fd_readable(fd));
  // Frames queued BEFORE the first readable_fd() call must also show.
  auto [c, d] = net::make_inproc_channel_pair();
  ASSERT_TRUE(c->send(Bytes{3}).ok());
  const int late_fd = d->readable_fd();
  EXPECT_TRUE(fd_readable(late_fd, 1000));
  (void)d->try_recv();
  EXPECT_FALSE(fd_readable(late_fd));
  // Close keeps the bell readable so a poller notices the teardown.
  a->close();
  EXPECT_TRUE(fd_readable(fd, 1000));
}

// ---------- empty polls and doorbell levels, inproc and shm ----------

/// System CPU time the calling thread has used so far.
std::chrono::microseconds thread_system_time() {
  rusage usage{};
  ::getrusage(RUSAGE_THREAD, &usage);
  return std::chrono::seconds{usage.ru_stime.tv_sec} +
         std::chrono::microseconds{usage.ru_stime.tv_usec};
}

// Both in-memory transports, held to one contract. The small queue and
// ring make the stress test's bursts run into backpressure.
const struct {
  const char* name;
  std::pair<net::ChannelPtr, net::ChannelPtr> (*make)();
} kInMemoryTransports[] = {
    {"inproc", [] { return net::make_inproc_channel_pair(8); }},
    {"shm", [] { return net::make_shm_channel_pair(1); }},
};

TEST(EmptyPoll, MakesNoSystemCall) {
  // The per-cycle DATA check: a poll that finds nothing must not enter the
  // kernel, even with the doorbell armed for an event loop and after the
  // channel has carried (and the consumer drained) a frame. One read(2)
  // per poll costs over 100 ms of system time per million polls.
  constexpr int kPolls = 1'000'000;
  for (const auto& transport : kInMemoryTransports) {
    SCOPED_TRACE(transport.name);
    auto [a, b] = transport.make();
    ASSERT_GE(b->readable_fd(), 0);
    ASSERT_TRUE(a->send(Bytes{1}).ok());
    auto got = b->try_recv();
    ASSERT_TRUE(got.ok() && got.value().has_value());
    int frames = 0;
    const auto before = thread_system_time();
    for (int i = 0; i < kPolls; ++i) {
      got = b->try_recv();
      if (!got.ok() || got.value().has_value()) ++frames;
    }
    const auto spent = thread_system_time() - before;
    EXPECT_EQ(frames, 0);
    EXPECT_LT(spent, 20ms) << spent.count() << " us of system time";
  }
}

TEST(DoorbellLevel, StaysAccurateUnderBursts) {
  // A producer sends bursts while the consumer alternates between draining
  // with try_recv() and waiting on readable_fd(). Frames arrive in order; a
  // frame whose send() has returned makes the fd readable at once (no lost
  // wakeup); and where the producer parks after a burst, a drained channel
  // leaves the fd quiet (no stale level).
  constexpr u32 kFrames = 20000;
  constexpr u32 kRunning = ~u32{0};
  for (const auto& transport : kInMemoryTransports) {
    SCOPED_TRACE(transport.name);
    auto [a, b] = transport.make();
    const int fd = b->readable_fd();
    ASSERT_GE(fd, 0);
    std::atomic<u32> sent{0};
    std::atomic<u32> parked_at{kRunning};  // frames sent when it parked
    std::atomic<bool> stop{false};
    std::thread producer([&, tx = a.get()] {
      Rng rng{7};
      for (u32 seq = 0; seq < kFrames && !stop.load();) {
        const u64 burst = 1 + rng.below(24);
        for (u64 i = 0; i < burst && seq < kFrames; ++i, ++seq) {
          Bytes frame;
          ByteWriter{frame}.u32v(seq);
          frame.resize(frame.size() + rng.below(60), static_cast<u8>(seq));
          if (!tx->send(frame).ok()) return;  // the consumer gave up
          sent.store(seq + 1, std::memory_order_release);
        }
        if (rng.below(3) == 0) {
          parked_at.store(seq, std::memory_order_release);
          while (parked_at.load(std::memory_order_acquire) != kRunning &&
                 !stop.load()) {
            std::this_thread::yield();
          }
        } else if (rng.below(2) == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds{rng.below(200)});
        }
      }
    });
    u32 next = 0;
    std::string failure;
    const auto deadline = std::chrono::steady_clock::now() + 60s;
    while (next < kFrames && failure.empty()) {
      for (;;) {
        auto got = b->try_recv();
        if (!got.ok() || !got.value().has_value()) break;
        if (ByteReader{*got.value()}.u32v() != next) {
          failure = "frame out of order";
          break;
        }
        ++next;
      }
      if (!failure.empty()) break;
      if (parked_at.load(std::memory_order_acquire) == next) {
        // Everything sent has arrived and the producer is parked: one more
        // empty poll drains what it rang last, and the fd goes quiet.
        auto again = b->try_recv();
        if (!again.ok() || again.value().has_value() || fd_readable(fd)) {
          failure = "stale level";
        }
        parked_at.store(kRunning, std::memory_order_release);
      } else if (sent.load(std::memory_order_acquire) > next) {
        // This frame's send() returned, so its ring has landed.
        if (!fd_readable(fd)) failure = "lost wakeup";
      } else if (!fd_readable(fd, 1) &&
                 std::chrono::steady_clock::now() > deadline) {
        failure = "no progress";
      }
    }
    stop = true;
    if (!failure.empty()) b->close();  // unblock a producer on a full queue
    producer.join();
    ASSERT_TRUE(failure.empty()) << failure << " at frame " << next;
    auto got = b->try_recv();
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got.value().has_value());
    EXPECT_FALSE(fd_readable(fd)) << "stale level after the final drain";
  }
}

// ---------- EventLoop ----------

TEST(EventLoop, RunsPostedTasksInOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.post([&] { order.push_back(1); });
  loop.post([&] { order.push_back(2); });
  loop.post([&] {
    order.push_back(3);
    loop.stop();
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.tasks_run(), 3u);
}

TEST(EventLoop, TasksPostedByTasksRun) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth == 5) {
      loop.stop();
      return;
    }
    loop.post(recurse);
  };
  loop.post(recurse);
  loop.run();
  EXPECT_EQ(depth, 5);
}

TEST(EventLoop, WatchFiresWhileFdReadable) {
  EventLoop loop;
  auto [a, b] = net::make_inproc_channel_pair();
  const int fd = b->readable_fd();
  ASSERT_GE(fd, 0);
  int fires = 0;
  ASSERT_TRUE(loop.watch(fd, [&] {
    ++fires;
    // Drain; the level-triggered watch would otherwise fire forever.
    auto got = b->try_recv();
    ASSERT_TRUE(got.ok());
    while (got.ok() && got.value().has_value()) got = b->try_recv();
    loop.unwatch(fd);
    loop.stop();
  }).ok());
  ASSERT_TRUE(a->send(Bytes{1}).ok());
  loop.run();
  EXPECT_EQ(fires, 1);
  EXPECT_GE(loop.fd_events(), 1u);
}

TEST(EventLoop, TimerFiresOnceAfterDelay) {
  EventLoop loop;
  const auto start = std::chrono::steady_clock::now();
  std::chrono::steady_clock::duration waited{};
  loop.schedule(20ms, [&] {
    waited = std::chrono::steady_clock::now() - start;
    loop.stop();
  });
  loop.run();
  EXPECT_GE(waited, 15ms);
  EXPECT_EQ(loop.timers_fired(), 1u);
}

TEST(EventLoop, CancelPreventsTimer) {
  EventLoop loop;
  bool fired = false;
  const auto id = loop.schedule(10ms, [&] { fired = true; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // second cancel: already gone
  loop.schedule(40ms, [&] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(30ms, [&] {
    order.push_back(2);
    loop.stop();
  });
  loop.schedule(5ms, [&] { order.push_back(1); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, ReschedulingFromTimerCallback) {
  EventLoop loop;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks == 3) {
      loop.stop();
      return;
    }
    loop.schedule(1ms, tick);
  };
  loop.schedule(1ms, tick);
  loop.run();
  EXPECT_EQ(ticks, 3);
}

TEST(EventLoop, StopFromAnotherThread) {
  EventLoop loop;
  std::thread stopper([&] {
    std::this_thread::sleep_for(30ms);
    loop.stop();
  });
  loop.run();  // must wake with no fd traffic at all
  stopper.join();
  SUCCEED();
}

}  // namespace
}  // namespace vhp::svc
