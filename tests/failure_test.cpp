// Failure-injection tests: the co-simulation must degrade into clean,
// reported errors — never hangs — when a peer dies, misbehaves, or
// addresses a hole in the device map.
#include <gtest/gtest.h>

#include <thread>

#include "vhp/cosim/cosim_kernel.hpp"
#include "vhp/cosim/session.hpp"
#include "vhp/net/inproc.hpp"
#include "vhp/router/checksum_app.hpp"
#include "vhp/router/testbench.hpp"

namespace vhp::cosim {
namespace {

using namespace std::chrono_literals;

TEST(Failure, BoardVanishesDuringAckWait) {
  // The peer closes every channel instead of acking: run_cycles must
  // return an error promptly, not spin forever.
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  cfg.sync.quantum(10);
  CosimKernel hw{std::move(pair.hw), cfg};
  std::thread peer{[&] {
    ASSERT_TRUE(net::send_msg(*pair.board.clock, net::TimeAck{0}).ok());
    // Receive the first tick, then die.
    (void)net::recv_msg(*pair.board.clock, 2000ms);
    pair.board.close_all();
  }};
  const Status s = hw.run_cycles(100);
  peer.join();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kAborted);
}

TEST(Failure, BoardStopsAckingTripsTheWatchdog) {
  // A wedged board: it takes the first tick, then stays silent with its
  // link open. The policy's watchdog must end the wait with the board
  // named, instead of spinning forever.
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  cfg.sync = SyncPolicy{}.quantum(10).watchdog(200ms);
  CosimKernel hw{std::move(pair.hw), cfg};
  std::thread peer{[&] {
    ASSERT_TRUE(net::send_msg(*pair.board.clock, net::TimeAck{0}).ok());
    (void)net::recv_msg(*pair.board.clock, 2000ms);  // the first tick
  }};
  const auto start = std::chrono::steady_clock::now();
  const Status s = hw.run_cycles(100);
  const auto waited = std::chrono::steady_clock::now() - start;
  peer.join();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s;
  EXPECT_NE(s.message().find("node0"), std::string::npos) << s;
  EXPECT_LT(waited, 2s);
  EXPECT_EQ(hw.cycle(), 10u);
}

TEST(Failure, BoardVanishesBeforeHandshake) {
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  cfg.sync.watchdog(1000ms);
  CosimKernel hw{std::move(pair.hw), cfg};
  pair.board.close_all();
  const Status s = hw.handshake();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kAborted);
}

TEST(Failure, WrongMessageOnClockPortIsProtocolError) {
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  cfg.sync.watchdog(1000ms);
  CosimKernel hw{std::move(pair.hw), cfg};
  // A confused peer sends an interrupt message on the CLOCK port.
  ASSERT_TRUE(net::send_msg(*pair.board.clock, net::IntRaise{1}).ok());
  const Status s = hw.handshake();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(Failure, WriteToUnmappedDeviceAddressSurfaces) {
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  cfg.timed = false;
  CosimKernel hw{std::move(pair.hw), cfg};
  ASSERT_TRUE(
      net::send_msg(*pair.board.data, net::DataWrite{0xbad, Bytes{1}}).ok());
  const Status s = hw.run_cycles(1);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(Failure, GarbageFrameOnDataPortSurfaces) {
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  cfg.timed = false;
  CosimKernel hw{std::move(pair.hw), cfg};
  ASSERT_TRUE(pair.board.data->send(Bytes{0xff, 0xff, 0xff}).ok());
  const Status s = hw.run_cycles(1);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(Failure, HwKernelVanishesMidSessionBoardStops) {
  // Full session: destroy the HW side abruptly (link teardown included);
  // the board thread must terminate on its own.
  auto pair = net::make_inproc_link_pair();
  board::Board board{board::BoardConfig{}, std::move(pair.board)};
  std::thread board_thread{[&board] { board.run(); }};
  // Consume the initial ack, then vanish without SHUTDOWN.
  auto ack = net::recv_msg(*pair.hw.clock, 2000ms);
  pair.hw.close_all();
  board_thread.join();  // must return; a hang fails via the test timeout
  ASSERT_TRUE(ack.ok());
}

TEST(Failure, ChecksumAppSurvivesAbruptTeardown) {
  // The session is finished while packets are still in flight; everything
  // must unwind without crashes (deadlock-free by this test completing).
  // Note the lifetime rule: HDL-side objects (modules, signals, events)
  // register with the session's simulation kernel and must be destroyed
  // BEFORE it — i.e. declared after the session, as here.
  cosim::SessionConfig cfg;
  cfg.transport = cosim::TransportKind::kInProc;
  cfg.cosim.sync.quantum(50);
  cosim::CosimSession session{cfg};
  router::TestbenchConfig tb_cfg;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.packets_per_port = 100;
  tb_cfg.gap_cycles = 20;  // flood
  router::RouterTestbench tb{session.hw().kernel(), tb_cfg,
                             &session.hw().registry()};
  session.hw().watch_interrupt(tb.router().irq(),
                               board::Board::kDeviceVector);
  router::ChecksumApp app{session.board(), {}};
  session.start_board();
  ASSERT_TRUE(session.run_cycles(500).ok());  // mid-traffic
  session.finish();  // shutdown + join with traffic still queued
  EXPECT_LT(tb.router().stats().forwarded, tb.total_emitted());
  SUCCEED();
}

TEST(Failure, ReadOfUnmappedAddressFailsCleanly) {
  DriverRegistry reg;
  auto r = reg.serve_read(0x123, 4);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Failure, ZeroLengthDeviceReadIsLegal) {
  DriverRegistry reg;
  reg.register_read(0x0, [] { return Bytes{1, 2, 3}; });
  auto r = reg.serve_read(0x0, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

}  // namespace
}  // namespace vhp::cosim
