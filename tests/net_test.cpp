// Unit tests for the net layer: message codec, in-process channels, TCP
// channels, and the 3-port link.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "vhp/common/bytes.hpp"
#include "vhp/net/channel.hpp"
#include "vhp/net/inproc.hpp"
#include "vhp/net/message.hpp"
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
  // TimeAck is length-versioned (trailing bytes are its v2 lookahead), so
  // the trailing-garbage rule is checked on a fixed-layout type.
  Bytes frame = encode(Message{IntRaise{9}});
  frame.push_back(0);
  EXPECT_FALSE(decode(frame).ok());
}

// ---------- TIME_ACK wire v2 (adaptive lookahead) ----------

TEST(MessageCodec, TimeAckWithoutLookaheadIsByteIdenticalToV1) {
  // Hand-built v1 frame: type byte + board_tick, nothing else.
  Bytes v1;
  ByteWriter w{v1};
  w.u8v(static_cast<u8>(MsgType::kTimeAck));
  w.u64v(42);
  EXPECT_EQ(encode(Message{TimeAck{42}}), v1);
  auto decoded = decode(v1);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const auto& ack = std::get<TimeAck>(decoded.value());
  EXPECT_EQ(ack.board_tick, 42u);
  EXPECT_FALSE(ack.lookahead.has_value());
}

TEST(MessageCodec, TimeAckV2AppendsLookahead) {
  const Bytes v1 = encode(Message{TimeAck{42}});
  const Bytes v2 = encode(Message{TimeAck{42, 9000}});
  // The v2 frame is the v1 frame plus the trailing lookahead field.
  ASSERT_GT(v2.size(), v1.size());
  EXPECT_TRUE(std::equal(v1.begin(), v1.end(), v2.begin()));
  auto decoded = decode(v2);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const auto& ack = std::get<TimeAck>(decoded.value());
  ASSERT_TRUE(ack.lookahead.has_value());
  EXPECT_EQ(*ack.lookahead, 9000u);
}

TEST(MessageCodec, TimeAckUnboundedLookaheadSentinel) {
  auto decoded = decode(encode(Message{TimeAck{1, kLookaheadUnbounded}}));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(std::get<TimeAck>(decoded.value()).lookahead,
            std::optional<u64>{kLookaheadUnbounded});
}

TEST(MessageCodec, TimeAckRejectsTruncatedLookahead) {
  Bytes frame = encode(Message{TimeAck{42, 0x1234567890ULL}});
  frame.pop_back();  // clip the trailing lookahead varint mid-field
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

enum class Transport { kInProc, kTcp };

class ChannelTest : public ::testing::TestWithParam<Transport> {
 protected:
  void SetUp() override {
    if (GetParam() == Transport::kInProc) {
      auto [a, b] = make_inproc_channel_pair(16);
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
                                           Transport::kTcp),
                         [](const auto& suite_info) {
                           return suite_info.param == Transport::kInProc ? "InProc"
                                                                   : "Tcp";
                         });

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
