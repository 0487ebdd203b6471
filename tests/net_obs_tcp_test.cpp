// Link observability decorators over the real TCP transport: per-frame
// metric accounting (instrument_link) and flight recording (record_link)
// cross-checked between the two sides of a loopback link, plus the
// disabled-path contract — no decorator hop when the recorder is off.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "vhp/net/inproc.hpp"
#include "vhp/net/instrumented.hpp"
#include "vhp/net/tcp.hpp"
#include "vhp/obs/hub.hpp"

namespace vhp::net {
namespace {

using obs::LinkDir;
using obs::LinkPort;

constexpr auto kRecvTimeout = std::chrono::milliseconds{2000};

/// Connects both ends of a real TCP loopback link.
LinkPair make_tcp_link_pair() {
  TcpLinkListener listener;
  std::optional<Result<CosimLink>> board;
  std::thread connector(
      [&] { board.emplace(connect_tcp_link(listener.ports())); });
  auto hw = listener.accept_link();
  connector.join();
  EXPECT_TRUE(hw.ok()) << hw.status();
  EXPECT_TRUE(board.has_value() && board->ok());
  return LinkPair{std::move(hw).value(), std::move(*board).value()};
}

/// The frame-for-frame traffic pattern both tests exchange: a few messages
/// per port in each direction, every one received on the far side.
void exchange_traffic(CosimLink& hw, CosimLink& board) {
  // hw -> board
  ASSERT_TRUE(send_msg(*hw.data, DataReadResp{0x10, Bytes{1, 2, 3}}).ok());
  ASSERT_TRUE(send_msg(*hw.data, DataReadResp{0x14, Bytes{4}}).ok());
  ASSERT_TRUE(send_msg(*hw.intr, IntRaise{7}).ok());
  ASSERT_TRUE(send_msg(*hw.clock, ClockTick{100, 10}).ok());
  ASSERT_TRUE(send_msg(*hw.clock, ClockTick{200, 10}).ok());
  ASSERT_TRUE(send_msg(*hw.clock, ClockTick{300, 10}).ok());
  // board -> hw
  ASSERT_TRUE(send_msg(*board.data, DataWrite{0x20, Bytes{9, 8}}).ok());
  ASSERT_TRUE(send_msg(*board.clock, TimeAck{10}).ok());
  ASSERT_TRUE(send_msg(*board.clock, TimeAck{20}).ok());

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(recv_msg(*board.data, kRecvTimeout).ok());
  }
  ASSERT_TRUE(recv_msg(*board.intr, kRecvTimeout).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(recv_msg(*board.clock, kRecvTimeout).ok());
  }
  ASSERT_TRUE(recv_msg(*hw.data, kRecvTimeout).ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(recv_msg(*hw.clock, kRecvTimeout).ok());
  }
}

TEST(RecordChannelTest, DisabledRecorderAddsNoDecoratorHop) {
  obs::Timeline stamps;
  // FlightRecorderConfig::enabled defaults to false.
  obs::FlightRecorder disabled{obs::FlightRecorderConfig{}, "hw", stamps};
  auto [a, b] = make_inproc_channel_pair(4);
  Channel* raw = a.get();
  ChannelPtr wrapped = record_channel(std::move(a), disabled, LinkPort::kData);
  EXPECT_EQ(wrapped.get(), raw);  // same transport object, unwrapped

  LinkPair pair = make_inproc_link_pair(4);
  Channel* data = pair.hw.data.get();
  Channel* intr = pair.hw.intr.get();
  Channel* clock = pair.hw.clock.get();
  CosimLink link = record_link(std::move(pair.hw), disabled);
  EXPECT_EQ(link.data.get(), data);
  EXPECT_EQ(link.intr.get(), intr);
  EXPECT_EQ(link.clock.get(), clock);
}

TEST(RecordChannelTest, EnabledRecorderWrapsAndCaptures) {
  obs::FlightRecorderConfig cfg;
  cfg.enabled = true;
  obs::Timeline stamps;
  obs::FlightRecorder recorder{cfg, "hw", stamps};
  auto [a, b] = make_inproc_channel_pair(4);
  Channel* raw = a.get();
  ChannelPtr wrapped =
      record_channel(std::move(a), recorder, LinkPort::kClock);
  EXPECT_NE(wrapped.get(), raw);  // a real decorator this time

  ASSERT_TRUE(send_msg(*wrapped, ClockTick{50, 5}).ok());
  ASSERT_TRUE(recv_msg(*b, kRecvTimeout).ok());
  ASSERT_TRUE(send_msg(*b, TimeAck{5}).ok());
  ASSERT_TRUE(recv_msg(*wrapped, kRecvTimeout).ok());

  const auto ring = recorder.snapshot();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0].dir, LinkDir::kTx);
  EXPECT_EQ(ring[0].msg_type, static_cast<u8>(MsgType::kClockTick));
  EXPECT_EQ(ring[1].dir, LinkDir::kRx);
  EXPECT_EQ(ring[1].msg_type, static_cast<u8>(MsgType::kTimeAck));
  EXPECT_EQ(ring[0].port, LinkPort::kClock);
}

TEST(InstrumentedTcpLinkTest, FrameCountsCrossCheckBetweenSides) {
  obs::ObsConfig oc;
  oc.timeline.enabled = true;
  obs::Hub hub{oc};

  LinkPair pair = make_tcp_link_pair();
  CosimLink hw = instrument_link(std::move(pair.hw), hub, "hw");
  CosimLink board = instrument_link(std::move(pair.board), hub, "board");
  exchange_traffic(hw, board);

  auto& m = hub.metrics();
  // Every frame one side sent, the other side's counters received.
  const char* ports[] = {"data", "int", "clock"};
  for (const char* port : ports) {
    const std::string hw_tx = std::string("net.hw.") + port + ".tx_frames";
    const std::string bd_rx = std::string("net.board.") + port + ".rx_frames";
    EXPECT_EQ(m.counter(hw_tx).value(), m.counter(bd_rx).value()) << port;
    const std::string bd_tx = std::string("net.board.") + port + ".tx_frames";
    const std::string hw_rx = std::string("net.hw.") + port + ".rx_frames";
    EXPECT_EQ(m.counter(bd_tx).value(), m.counter(hw_rx).value()) << port;
    // Byte totals agree too — the frames crossed unmodified.
    EXPECT_EQ(m.counter(std::string("net.hw.") + port + ".tx_bytes").value(),
              m.counter(std::string("net.board.") + port + ".rx_bytes")
                  .value())
        << port;
  }
  EXPECT_EQ(m.counter("net.hw.data.tx_frames").value(), 2u);
  EXPECT_EQ(m.counter("net.hw.int.tx_frames").value(), 1u);
  EXPECT_EQ(m.counter("net.hw.clock.tx_frames").value(), 3u);
  EXPECT_EQ(m.counter("net.board.data.tx_frames").value(), 1u);
  EXPECT_EQ(m.counter("net.board.clock.tx_frames").value(), 2u);

  hw.close_all();
  board.close_all();
}

TEST(RecordedTcpLinkTest, RingsMirrorFrameForFrameAcrossSides) {
  obs::ObsConfig oc;
  oc.record.enabled = true;  // recorder on, costly instruments off
  obs::Hub hub{oc};

  LinkPair pair = make_tcp_link_pair();
  CosimLink hw = record_link(std::move(pair.hw), hub.hw_recorder());
  CosimLink board = record_link(std::move(pair.board), hub.board_recorder());
  exchange_traffic(hw, board);

  const auto hw_ring = hub.hw_recorder().snapshot();
  const auto board_ring = hub.board_recorder().snapshot();
  EXPECT_EQ(hw_ring.size(), 9u);
  EXPECT_EQ(board_ring.size(), 9u);

  const auto payloads = [](const std::vector<obs::FrameRecord>& ring,
                           LinkPort port, LinkDir dir) {
    std::vector<Bytes> out;
    for (const auto& r : ring) {
      if (r.port == port && r.dir == dir) out.push_back(r.payload);
    }
    return out;
  };
  // One side's tx stream on each port is the other side's rx stream,
  // payload for payload — the frame-count cross-check of ISSUE satellite 3.
  for (const LinkPort port :
       {LinkPort::kData, LinkPort::kInt, LinkPort::kClock}) {
    EXPECT_EQ(payloads(hw_ring, port, LinkDir::kTx),
              payloads(board_ring, port, LinkDir::kRx));
    EXPECT_EQ(payloads(board_ring, port, LinkDir::kTx),
              payloads(hw_ring, port, LinkDir::kRx));
  }

  // The dump path exports the ring sizes as gauges.
  const std::string json = hub.metrics_json();
  EXPECT_NE(json.find("\"obs.record.hw.frames\""), std::string::npos);
  EXPECT_NE(json.find("\"obs.record.board.frames\""), std::string::npos);
  EXPECT_EQ(hub.metrics().gauge("obs.record.hw.frames").value(), 9);
  EXPECT_EQ(hub.metrics().gauge("obs.record.board.frames").value(), 9);

  hw.close_all();
  board.close_all();
}

}  // namespace
}  // namespace vhp::net
