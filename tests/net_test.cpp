// Unit tests for the net layer: message codec, in-process channels, TCP
// channels, and the 3-port link.
#include <gtest/gtest.h>
#include <sys/ioctl.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

#include "vhp/common/bytes.hpp"
#include "vhp/net/channel.hpp"
#include "vhp/net/inproc.hpp"
#include "vhp/net/instrumented.hpp"
#include "vhp/net/latency.hpp"
#include "vhp/net/message.hpp"
#include "vhp/net/shm_ring.hpp"
#include "vhp/net/tcp.hpp"

namespace vhp::net {

// Shutdown has no fields. gtest's default printer would dump its one
// uninitialized byte, and that byte is part of the parameterized test's
// name, which then changes from build to build.
void PrintTo(const Shutdown&, std::ostream* os) { *os << "{}"; }

namespace {

using namespace std::chrono_literals;

// ---------- message codec ----------

class MessageCodecTest : public ::testing::TestWithParam<Message> {};

TEST_P(MessageCodecTest, RoundTrips) {
  const Message& original = GetParam();
  const Bytes frame = encode(original);
  auto decoded = decode(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(type_of(decoded.value()), type_of(original));
  EXPECT_EQ(decoded.value(), original);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, MessageCodecTest,
    ::testing::Values(
        Message{DataWrite{0x10, Bytes{1, 2, 3}}},
        Message{DataWrite{0xffffffff, Bytes{}}},
        Message{DataReadReq{0x20, 64}},
        Message{DataReadResp{0x20, Bytes(300, 0xee)}},
        Message{IntRaise{7}},
        Message{ClockTick{123456789012ULL, 1000}},
        Message{TimeAck{42}},
        Message{TimeAck{42, 1234}},
        Message{TimeAck{7, kLookaheadUnbounded}},
        Message{TimeAck{9, 0, 3, 17}},
        Message{Shutdown{}}));

TEST(MessageCodec, RejectsUnknownType) {
  Bytes frame{0x7f};
  EXPECT_FALSE(decode(frame).ok());
}

TEST(MessageCodec, RejectsTruncation) {
  Bytes frame = encode(Message{ClockTick{1, 2}});
  frame.pop_back();
  EXPECT_FALSE(decode(frame).ok());
}

TEST(MessageCodec, RejectsTrailingGarbage) {
  for (const Message& m : {Message{IntRaise{9}}, Message{ClockTick{1, 2, 3}},
                           Message{TimeAck{4, 5, 6, 7}}}) {
    Bytes frame = encode(m);
    frame.push_back(0);
    EXPECT_FALSE(decode(frame).ok()) << to_string(type_of(m));
  }
}

// ---------- CLOCK_TICK / TIME_ACK: one fixed layout each ----------

/// The little-endian u64 at byte `offset` of `frame`.
u64 u64_at(const Bytes& frame, std::size_t offset) {
  u64 v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<u64>(frame.at(offset + i)) << (8 * i);
  }
  return v;
}

TEST(MessageCodec, ClockTickHasOneFixedLayout) {
  // type @0, sim_cycle u64 @1, n_ticks u32 @9, round u64 @13: 21 bytes,
  // stamped or not.
  for (const ClockTick& tick : {ClockTick{0x1122334455, 1000},
                                ClockTick{0x1122334455, 1000, 77}}) {
    const Bytes frame = encode(Message{tick});
    ASSERT_EQ(frame.size(), 21u);
    EXPECT_EQ(frame[0], static_cast<u8>(MsgType::kClockTick));
    EXPECT_EQ(u64_at(frame, 1), tick.sim_cycle);
    EXPECT_EQ(u64_at(frame, 9) & 0xffffffffu, tick.n_ticks);
    EXPECT_EQ(u64_at(frame, 13), tick.round);
  }
}

TEST(MessageCodec, TimeAckHasOneFixedLayout) {
  // type @0, board_tick u64 @1, lookahead u64 @9 (kNoLookahead = none),
  // round u64 @17, data_sent u64 @25: 33 bytes, whatever is advertised.
  for (const TimeAck& ack : {TimeAck{42}, TimeAck{42, 9000, 5, 3}}) {
    const Bytes frame = encode(Message{ack});
    ASSERT_EQ(frame.size(), 33u);
    EXPECT_EQ(frame[0], static_cast<u8>(MsgType::kTimeAck));
    EXPECT_EQ(u64_at(frame, 1), ack.board_tick);
    EXPECT_EQ(u64_at(frame, 9), ack.lookahead.value_or(kNoLookahead));
    EXPECT_EQ(u64_at(frame, 17), ack.round);
    EXPECT_EQ(u64_at(frame, 25), ack.data_sent);
  }
}

TEST(MessageCodec, EveryClockAndAckFieldRoundTrips) {
  const std::vector<Message> messages = {
      Message{ClockTick{0, 0, 0}},
      Message{ClockTick{~u64{0}, ~u32{0}, ~u64{0}}},
      Message{TimeAck{7}},  // lookahead none, round 0, nothing sent
      Message{TimeAck{7, kLookaheadUnbounded, 0, 0}},
      Message{TimeAck{7, 0, 1, 1}},
      Message{TimeAck{7, kNoLookahead - 1, 9, ~u64{0}}},
  };
  for (const Message& m : messages) {
    auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded.value(), m);
  }
}

TEST(MessageCodec, EncoderRefusesTheNoLookaheadSentinel) {
  // On the wire the sentinel means "none": an ack advertising it would
  // decode to a different ack.
  EXPECT_THROW((void)encode(Message{TimeAck{1, kNoLookahead, 2, 3}}),
               std::invalid_argument);
}

TEST(MessageCodec, RejectsEveryOtherClockAndAckLength) {
  for (const Message& m : {Message{ClockTick{1, 2, 3}},
                           Message{TimeAck{4, 5, 6, 7}}}) {
    const Bytes full = encode(m);
    for (std::size_t size = 1; size <= full.size() + 8; ++size) {
      Bytes frame = full;
      frame.resize(size, 0);
      EXPECT_EQ(decode(frame).ok(), size == full.size())
          << to_string(type_of(m)) << " of " << size << " bytes";
    }
  }
}

TEST(MessageCodec, TimeAckUnboundedLookaheadSentinel) {
  auto decoded = decode(encode(Message{TimeAck{1, kLookaheadUnbounded}}));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(std::get<TimeAck>(decoded.value()).lookahead,
            std::optional<u64>{kLookaheadUnbounded});
}

TEST(MessageCodec, TimeAckRejectsTruncatedLookahead) {
  Bytes frame = encode(Message{TimeAck{42, 0x1234567890ULL}});
  frame.resize(1 + 8 + 4);  // clip the lookahead mid-field
  EXPECT_FALSE(decode(frame).ok());
}

TEST(MessageCodec, RejectsEmptyFrame) {
  EXPECT_FALSE(decode(Bytes{}).ok());
}

TEST(MessageCodec, TypeNames) {
  EXPECT_EQ(to_string(MsgType::kClockTick), "CLOCK_TICK");
  EXPECT_EQ(to_string(MsgType::kTimeAck), "TIME_ACK");
  EXPECT_EQ(to_string(MsgType::kShutdown), "SHUTDOWN");
}

// ---------- transports, exercised through one fixture ----------

enum class Transport { kInProc, kTcp, kShm };

class ChannelTest : public ::testing::TestWithParam<Transport> {
 protected:
  void SetUp() override {
    if (GetParam() == Transport::kInProc) {
      auto [a, b] = make_inproc_channel_pair(16);
      a_ = std::move(a);
      b_ = std::move(b);
    } else if (GetParam() == Transport::kShm) {
      // LargeFrame's 100,000-byte frame must fit the ring whole.
      auto [a, b] = make_shm_channel_pair(std::size_t{1} << 18);
      a_ = std::move(a);
      b_ = std::move(b);
    } else {
      listener_ = std::make_unique<TcpLinkListener>();
      const auto ports = listener_->ports();
      Result<CosimLink> client{Status{StatusCode::kInternal, "unset"}};
      std::thread t{[&] { client = connect_tcp_link(ports); }};
      auto server = listener_->accept_link();
      t.join();
      ASSERT_TRUE(server.ok());
      ASSERT_TRUE(client.ok());
      server_link_ = std::move(server).value();
      client_link_ = std::move(client).value();
      a_ = std::move(server_link_.data);
      b_ = std::move(client_link_.data);
    }
  }

  std::unique_ptr<TcpLinkListener> listener_;
  CosimLink server_link_;
  CosimLink client_link_;
  ChannelPtr a_;
  ChannelPtr b_;
};

TEST_P(ChannelTest, SendRecvOneFrame) {
  const Bytes frame{1, 2, 3, 4};
  ASSERT_TRUE(a_->send(frame).ok());
  auto got = b_->recv(1000ms);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value(), frame);
}

TEST_P(ChannelTest, PreservesOrderAndBoundaries) {
  for (u8 i = 0; i < 10; ++i) {
    Bytes frame(static_cast<std::size_t>(i) + 1, i);
    ASSERT_TRUE(a_->send(frame).ok());
  }
  for (u8 i = 0; i < 10; ++i) {
    auto got = b_->recv(1000ms);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().size(), static_cast<std::size_t>(i) + 1);
    EXPECT_EQ(got.value()[0], i);
  }
}

TEST_P(ChannelTest, EmptyFrameIsLegal) {
  ASSERT_TRUE(a_->send(Bytes{}).ok());
  auto got = b_->recv(1000ms);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().empty());
}

TEST_P(ChannelTest, LargeFrame) {
  Bytes frame(100000);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<u8>(i * 7);
  }
  std::thread sender{[&] { ASSERT_TRUE(a_->send(frame).ok()); }};
  auto got = b_->recv(5000ms);
  sender.join();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), frame);
}

TEST_P(ChannelTest, TryRecvNonBlocking) {
  auto none = b_->try_recv();
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().has_value());
  ASSERT_TRUE(a_->send(Bytes{9}).ok());
  // TCP needs a moment for delivery.
  for (int i = 0; i < 1000; ++i) {
    auto some = b_->try_recv();
    ASSERT_TRUE(some.ok());
    if (some.value().has_value()) {
      EXPECT_EQ(*some.value(), Bytes{9});
      return;
    }
    std::this_thread::sleep_for(1ms);
  }
  FAIL() << "frame never arrived";
}

TEST_P(ChannelTest, RecvTimesOut) {
  auto got = b_->recv(30ms);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_P(ChannelTest, CloseAbortsPeerRecv) {
  a_->close();
  auto got = b_->recv(1000ms);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kAborted);
}

TEST_P(ChannelTest, PendingFramesDrainBeforeCloseReported) {
  ASSERT_TRUE(a_->send(Bytes{1}).ok());
  ASSERT_TRUE(a_->send(Bytes{2}).ok());
  // Give TCP a moment to flush before closing.
  std::this_thread::sleep_for(20ms);
  a_->close();
  auto f1 = b_->recv(1000ms);
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(f1.value(), Bytes{1});
  auto f2 = b_->recv(1000ms);
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f2.value(), Bytes{2});
  EXPECT_EQ(b_->recv(1000ms).status().code(), StatusCode::kAborted);
}

TEST_P(ChannelTest, MessageHelpersRoundTrip) {
  ASSERT_TRUE(send_msg(*a_, ClockTick{77, 10}).ok());
  auto msg = recv_msg(*b_, 1000ms);
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(std::holds_alternative<ClockTick>(msg.value()));
  EXPECT_EQ(std::get<ClockTick>(msg.value()).sim_cycle, 77u);
}

TEST_P(ChannelTest, BidirectionalConcurrentTraffic) {
  constexpr int kCount = 200;
  std::thread peer{[&] {
    for (int i = 0; i < kCount; ++i) {
      auto got = b_->recv(5000ms);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(b_->send(got.value()).ok());  // echo
    }
  }};
  for (int i = 0; i < kCount; ++i) {
    Bytes frame{static_cast<u8>(i), static_cast<u8>(i >> 8)};
    ASSERT_TRUE(a_->send(frame).ok());
    auto echo = a_->recv(5000ms);
    ASSERT_TRUE(echo.ok());
    EXPECT_EQ(echo.value(), frame);
  }
  peer.join();
}

INSTANTIATE_TEST_SUITE_P(Transports, ChannelTest,
                         ::testing::Values(Transport::kInProc,
                                           Transport::kTcp, Transport::kShm),
                         [](const auto& suite_info) {
                           switch (suite_info.param) {
                             case Transport::kInProc: return "InProc";
                             case Transport::kTcp: return "Tcp";
                             case Transport::kShm: return "Shm";
                           }
                           return "?";
                         });

/// Hides the transport's fd, so the one wait has nothing to sleep on: it
/// sleeps kRepollPeriod between try_recv() polls.
class NoFdChannel final : public Channel {
 public:
  explicit NoFdChannel(ChannelPtr inner) : inner_(std::move(inner)) {}
  Status send(std::span<const u8> frame) override {
    return inner_->send(frame);
  }
  Result<std::optional<Bytes>> try_recv() override {
    return inner_->try_recv();
  }
  void close() override { inner_->close(); }

 private:
  ChannelPtr inner_;
};

TEST(OneWait, WithoutAnFdStillWakesOnALateSendAndTimesOut) {
  using Clock = std::chrono::steady_clock;
  auto [tx, raw_rx] = make_inproc_channel_pair();
  NoFdChannel rx{std::move(raw_rx)};
  ASSERT_EQ(rx.readable_fd(), -1);
  // Silence: the wait ends at its deadline, not before.
  const auto silent_from = Clock::now();
  auto silent = rx.recv(30ms);
  ASSERT_FALSE(silent.ok());
  EXPECT_EQ(silent.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(Clock::now() - silent_from, 30ms);
  // A late send wakes the waiter long before its deadline.
  std::thread late{[&] {
    std::this_thread::sleep_for(30ms);
    ASSERT_TRUE(tx->send(Bytes{7}).ok());
  }};
  const auto wait_from = Clock::now();
  auto got = rx.recv(10s);
  late.join();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value(), Bytes{7});
  EXPECT_LT(Clock::now() - wait_from, 5s);
  // A closed peer ends the wait too.
  tx->close();
  EXPECT_EQ(rx.recv(10s).status().code(), StatusCode::kAborted);
}

/// Counts the one wait's questions: readable_fd() arms a doorbell for
/// good, so a wait must not ask it before its spin is over.
class CountingChannel final : public Channel {
 public:
  explicit CountingChannel(ChannelPtr inner) : inner_(std::move(inner)) {}
  Status send(std::span<const u8> frame) override {
    return inner_->send(frame);
  }
  Result<std::optional<Bytes>> try_recv() override {
    return inner_->try_recv();
  }
  void close() override { inner_->close(); }
  int readable_fd() override {
    ++fd_calls;
    return inner_->readable_fd();
  }
  std::chrono::steady_clock::time_point held_until() override {
    ++held_calls;
    return inner_->held_until();
  }

  int fd_calls = 0;
  int held_calls = 0;

 private:
  ChannelPtr inner_;
};

TEST(OneWait, ReadyInsideTheSpinNeverAsksForAnFd) {
  using Clock = std::chrono::steady_clock;
  auto [tx, raw_rx] = make_inproc_channel_pair();
  CountingChannel rx{std::move(raw_rx)};
  Channel* const channels[] = {&rx};
  // A frame that is already there is taken at once.
  ASSERT_TRUE(tx->send(Bytes{1}).ok());
  auto got = rx.recv(1s);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(rx.fd_calls, 0);
  // A wait that outlives its spin asks, and sleeps until its deadline.
  const auto from = Clock::now();
  EXPECT_FALSE(wait_until([] { return false; }, channels, from + 100ms));
  EXPECT_GE(Clock::now() - from, 100ms);
  EXPECT_GE(rx.fd_calls, 1);
  EXPECT_GE(rx.held_calls, 1);
  // ready() turns true on its third call, two yields in. A loaded host
  // may keep this thread off the CPU past the spin; such a try shows
  // nothing, so the check holds for the tries that stayed inside it.
  bool inside = false;
  for (int attempt = 0; attempt < 20 && !inside; ++attempt) {
    rx.fd_calls = rx.held_calls = 0;
    int calls = 0;
    Clock::time_point turned{};
    const auto start = Clock::now();
    EXPECT_TRUE(wait_until(
        [&] {
          if (++calls < 3) return false;
          turned = Clock::now();
          return true;
        },
        channels));
    inside = turned - start < kRepollPeriod;
    if (inside) {
      EXPECT_EQ(calls, 3);
      EXPECT_EQ(rx.fd_calls, 0);
      EXPECT_EQ(rx.held_calls, 0);
    }
  }
  if (!inside) GTEST_SKIP() << "the host kept every try off the CPU";
}

TEST(OneWait, LatencyChannelReportsItsHeldFrameThroughDecorators) {
  using Clock = std::chrono::steady_clock;
  auto [raw_tx, raw_rx] = make_inproc_channel_pair();
  const LinkEmulationConfig link{.latency = 20ms};
  ChannelPtr tx = emulate_latency(std::move(raw_tx), link);
  obs::Hub hub;
  ChannelPtr rx =
      instrument_channel(emulate_latency(std::move(raw_rx), link), hub, "rx");
  EXPECT_EQ(rx->held_until(), Clock::time_point::max());
  const auto sent = Clock::now();
  ASSERT_TRUE(tx->send(Bytes{5}).ok());
  // The poll takes the frame off the transport and holds it: no fd will
  // say when it comes due, held_until() does.
  auto early = rx->try_recv();
  ASSERT_TRUE(early.ok());
  ASSERT_FALSE(early.value().has_value());
  EXPECT_GE(rx->held_until(), sent + 20ms);
  EXPECT_LE(rx->held_until(), Clock::now() + 20ms);
}

TEST(OneWait, HeldFrameReachesABlockedRecvWithinTwoMsOfItsDeadline) {
  using Clock = std::chrono::steady_clock;
  auto [raw_tx, raw_rx] = make_inproc_channel_pair();
  const LinkEmulationConfig link{.latency = 20ms};
  ChannelPtr tx = emulate_latency(std::move(raw_tx), link);
  ChannelPtr rx = emulate_latency(std::move(raw_rx), link);
  // The wait sleeps until the frame comes due. A loaded host may still
  // wake this thread late, so the best of a few frames is what counts.
  auto best = Clock::duration::max();
  for (int attempt = 0; attempt < 5 && best >= 2ms; ++attempt) {
    const auto sent = Clock::now();
    ASSERT_TRUE(tx->send(Bytes{9}).ok());
    auto got = rx->recv(1s);
    const auto arrived = Clock::now();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value(), Bytes{9});
    EXPECT_GE(arrived - sent, 20ms) << "delivered before its deadline";
    best = std::min(best, arrived - (sent + 20ms));
  }
  EXPECT_LT(best, 2ms);
}

TEST(TcpChannel, FirstPollTakesAWholeArrivedFrame) {
  TcpLinkListener listener;
  const auto ports = listener.ports();
  Result<CosimLink> client{Status{StatusCode::kInternal, "unset"}};
  std::thread t{[&] { client = connect_tcp_link(ports); }};
  auto server = listener.accept_link();
  t.join();
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(client.ok());
  Channel& tx = *server.value().data;
  Channel& rx = *client.value().data;
  Bytes frame(16 * 1024);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<u8>(i * 7);
  }
  ASSERT_TRUE(tx.send(frame).ok());
  // Wait until the kernel holds every byte of it: length prefix + payload.
  const int fd = rx.readable_fd();
  ASSERT_GE(fd, 0);
  int queued = 0;
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (queued < static_cast<int>(frame.size()) + 4 &&
         std::chrono::steady_clock::now() < give_up) {
    ASSERT_EQ(::ioctl(fd, FIONREAD, &queued), 0);
    if (queued < static_cast<int>(frame.size()) + 4) {
      std::this_thread::sleep_for(1ms);
    }
  }
  ASSERT_EQ(queued, static_cast<int>(frame.size()) + 4);
  auto got = rx.try_recv();
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got.value().has_value()) << "the first poll took a partial frame";
  EXPECT_EQ(*got.value(), frame);
}

TEST(InProcLink, ThreeIndependentChannels) {
  LinkPair pair = make_inproc_link_pair();
  ASSERT_TRUE(send_msg(*pair.hw.clock, ClockTick{1, 2}).ok());
  ASSERT_TRUE(send_msg(*pair.hw.intr, IntRaise{3}).ok());
  ASSERT_TRUE(send_msg(*pair.hw.data, DataWrite{4, {5}}).ok());
  // Each arrives only on its own channel.
  auto clk = recv_msg(*pair.board.clock, 100ms);
  ASSERT_TRUE(clk.ok());
  EXPECT_TRUE(std::holds_alternative<ClockTick>(clk.value()));
  auto irq = recv_msg(*pair.board.intr, 100ms);
  ASSERT_TRUE(irq.ok());
  EXPECT_TRUE(std::holds_alternative<IntRaise>(irq.value()));
  auto data = recv_msg(*pair.board.data, 100ms);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(std::holds_alternative<DataWrite>(data.value()));
  EXPECT_FALSE(pair.board.clock->try_recv().value().has_value());
}

TEST(InProcChannel, BackpressureBlocksSender) {
  auto [a, b] = make_inproc_channel_pair(2);
  ASSERT_TRUE(a->send(Bytes{1}).ok());
  ASSERT_TRUE(a->send(Bytes{2}).ok());
  std::atomic<bool> third_sent{false};
  std::thread sender{[&] {
    ASSERT_TRUE(a->send(Bytes{3}).ok());
    third_sent = true;
  }};
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(third_sent);  // queue full, sender blocked
  (void)b->recv(1000ms);     // make room
  sender.join();
  EXPECT_TRUE(third_sent);
}

}  // namespace
}  // namespace vhp::net
