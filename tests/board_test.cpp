// Virtual-board tests: the ChannelWaiter RTOS-blocking reception, and the
// board-side protocol obligations exercised against a scripted HW peer
// (mirror image of cosim_test.cpp, which scripts the board side).
#include <gtest/gtest.h>

#include <deque>
#include <thread>

#include "vhp/board/board.hpp"
#include "vhp/net/inproc.hpp"

namespace vhp::board {
namespace {

using namespace std::chrono_literals;

// ---------- ChannelWaiter ----------

TEST(ChannelWaiter, DeliversPolledFrames) {
  rtos::Kernel k{rtos::KernelConfig{}};
  auto [hw, brd] = net::make_inproc_channel_pair();
  ChannelWaiter waiter{k, *brd, "test"};
  // The idle thread plays its board role: it polls the channel.
  k.set_idle_poll([&] { return waiter.poll(); });
  std::optional<Bytes> got;
  k.spawn("rx", 5, [&] { got = waiter.recv(); });
  k.spawn("tx_sim", 6, [&] {
    // Simulate the HW side injecting a frame "from outside" after rx is
    // already blocked; only the idle poll can deliver it.
    ASSERT_TRUE(hw->send(Bytes{7, 8}).ok());
  });
  k.run(true);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (Bytes{7, 8}));
}

TEST(ChannelWaiter, RecvReturnsNulloptOnClose) {
  rtos::Kernel k{rtos::KernelConfig{}};
  auto [hw, brd] = net::make_inproc_channel_pair();
  ChannelWaiter waiter{k, *brd, "test"};
  std::optional<Bytes> got = Bytes{1};
  k.spawn("rx", 5, [&] { got = waiter.recv(); });
  hw->close();
  k.run(true);
  EXPECT_FALSE(got.has_value());
  EXPECT_TRUE(waiter.closed());
}

TEST(ChannelWaiter, DrainsQueuedFramesBeforeReportingClose) {
  rtos::Kernel k{rtos::KernelConfig{}};
  auto [hw, brd] = net::make_inproc_channel_pair();
  ChannelWaiter waiter{k, *brd, "test"};
  ASSERT_TRUE(hw->send(Bytes{1}).ok());
  ASSERT_TRUE(hw->send(Bytes{2}).ok());
  hw->close();
  std::vector<Bytes> got;
  k.spawn("rx", 5, [&] {
    for (;;) {
      auto f = waiter.recv();
      if (!f) break;
      got.push_back(*f);
    }
  });
  k.run(true);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], Bytes{1});
  EXPECT_EQ(got[1], Bytes{2});
}

TEST(ChannelWaiter, DeferredRecvLeavesPollingToTheIdleThread) {
  rtos::Kernel k{rtos::KernelConfig{}};
  auto [hw, brd] = net::make_inproc_channel_pair();
  ChannelWaiter waiter{k, *brd, "test"};
  int idle_deliveries = 0;
  k.set_idle_poll([&] {
    const bool any = waiter.poll();
    if (any) ++idle_deliveries;
    return any;
  });
  // Already pending when the receiver asks: recv() would take it on its
  // own poll, recv_deferred() must block until the idle thread polls.
  ASSERT_TRUE(hw->send(Bytes{3}).ok());
  std::optional<Bytes> got;
  int deliveries_seen = -1;
  k.spawn("rx", 5, [&] {
    got = waiter.recv_deferred();
    deliveries_seen = idle_deliveries;
  });
  k.run(true);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, Bytes{3});
  EXPECT_EQ(deliveries_seen, 1);
}

// ---------- Board against a scripted HW peer ----------

struct ScriptedHw {
  net::CosimLink link;

  net::TimeAck expect_ack(std::chrono::milliseconds timeout = 2000ms) {
    auto msg = net::recv_msg(*link.clock, timeout);
    EXPECT_TRUE(msg.ok()) << msg.status();
    EXPECT_TRUE(std::holds_alternative<net::TimeAck>(msg.value()));
    return std::get<net::TimeAck>(msg.value());
  }

  void tick(u64 cycle, u32 n) {
    ASSERT_TRUE(net::send_msg(*link.clock, net::ClockTick{cycle, n}).ok());
  }

  void shutdown() {
    ASSERT_TRUE(net::send_msg(*link.clock, net::Shutdown{}).ok());
  }
};

TEST(Board, SendsInitialAckThenAlternates) {
  auto pair = net::make_inproc_link_pair();
  BoardConfig cfg;
  cfg.rtos.cycles_per_tick = 10;
  Board board{cfg, std::move(pair.board)};
  ScriptedHw hw{std::move(pair.hw)};

  std::thread bt{[&] { board.run(); }};
  // Initial freeze at tick 0.
  EXPECT_EQ(hw.expect_ack().board_tick, 0u);
  // Grant 100 cycles -> the board idles through them -> ack at tick 10.
  hw.tick(100, 100);
  EXPECT_EQ(hw.expect_ack().board_tick, 10u);
  hw.tick(200, 100);
  EXPECT_EQ(hw.expect_ack().board_tick, 20u);
  hw.shutdown();
  bt.join();
  EXPECT_EQ(board.stats().clock_ticks_received, 2u);
  EXPECT_EQ(board.stats().acks_sent, 3u);
}

TEST(Board, AppWorkConsumesGrantedBudget) {
  auto pair = net::make_inproc_link_pair();
  BoardConfig cfg;
  cfg.rtos.cycles_per_tick = 10;
  Board board{cfg, std::move(pair.board)};
  u64 work_done_at_tick = 0;
  board.spawn_app("worker", 8, [&] {
    board.kernel().consume(150);
    work_done_at_tick = board.kernel().tick_count().value();
  });
  ScriptedHw hw{std::move(pair.hw)};
  std::thread bt{[&] { board.run(); }};
  EXPECT_EQ(hw.expect_ack().board_tick, 0u);
  hw.tick(100, 100);
  EXPECT_EQ(hw.expect_ack().board_tick, 10u);
  hw.tick(200, 100);
  EXPECT_EQ(hw.expect_ack().board_tick, 20u);
  hw.shutdown();
  bt.join();
  EXPECT_EQ(work_done_at_tick, 15u);  // 150 cycles / 10 per tick
}

TEST(Board, InterruptWakesDsrWhileFrozen) {
  auto pair = net::make_inproc_link_pair();
  BoardConfig cfg;
  cfg.rtos.cycles_per_tick = 10;
  Board board{cfg, std::move(pair.board)};
  u64 dsr_runs = 0;
  board.attach_device_dsr([&](u32 vector) {
    EXPECT_EQ(vector, Board::kDeviceVector);
    ++dsr_runs;
  });
  ScriptedHw hw{std::move(pair.hw)};
  std::thread bt{[&] { board.run(); }};
  EXPECT_EQ(hw.expect_ack().board_tick, 0u);
  // Interrupt while the board is frozen: the channel thread (a
  // communication thread) must still process it.
  ASSERT_TRUE(net::send_msg(*hw.link.intr,
                            net::IntRaise{Board::kDeviceVector})
                  .ok());
  // Give it a quantum so the DSR definitely drains, then stop.
  hw.tick(10, 10);
  (void)hw.expect_ack();
  hw.shutdown();
  bt.join();
  EXPECT_EQ(dsr_runs, 1u);
  EXPECT_EQ(board.stats().interrupts_received, 1u);
}

TEST(Board, DevWriteArrivesOnDataChannel) {
  auto pair = net::make_inproc_link_pair();
  BoardConfig cfg;
  cfg.free_running = true;  // no budget needed for this test
  Board board{cfg, std::move(pair.board)};
  board.spawn_app("writer", 8, [&] {
    ASSERT_TRUE(board.dev_write(0x30, Bytes{9, 9, 9}).ok());
    board.kernel().shutdown();
  });
  ScriptedHw hw{std::move(pair.hw)};
  std::thread bt{[&] { board.run(); }};
  auto msg = net::recv_msg(*hw.link.data, 2000ms);
  ASSERT_TRUE(msg.ok());
  const auto* wr = std::get_if<net::DataWrite>(&msg.value());
  ASSERT_NE(wr, nullptr);
  EXPECT_EQ(wr->address, 0x30u);
  EXPECT_EQ(wr->data, (Bytes{9, 9, 9}));
  bt.join();
}

TEST(Board, DevReadBlocksUntilResponse) {
  auto pair = net::make_inproc_link_pair();
  BoardConfig cfg;
  cfg.free_running = true;
  Board board{cfg, std::move(pair.board)};
  Bytes got;
  board.spawn_app("reader", 8, [&] {
    auto r = board.dev_read(0x40, 8);
    ASSERT_TRUE(r.ok()) << r.status();
    got = r.value();
    board.kernel().shutdown();
  });
  ScriptedHw hw{std::move(pair.hw)};
  std::thread bt{[&] { board.run(); }};
  auto req = net::recv_msg(*hw.link.data, 2000ms);
  ASSERT_TRUE(req.ok());
  const auto* rr = std::get_if<net::DataReadReq>(&req.value());
  ASSERT_NE(rr, nullptr);
  EXPECT_EQ(rr->address, 0x40u);
  ASSERT_TRUE(
      net::send_msg(*hw.link.data, net::DataReadResp{0x40, Bytes{4, 2}})
          .ok());
  bt.join();
  EXPECT_EQ(got, (Bytes{4, 2}));
}

/// Board-side DATA channel whose master answers each read request before
/// the board can look again: the response is queued by the time send()
/// returns — what a board thread descheduled right after its request sees.
class InstantAnswerChannel final : public net::Channel {
 public:
  explicit InstantAnswerChannel(net::ChannelPtr inner)
      : inner_(std::move(inner)) {}

  Status send(std::span<const u8> frame) override {
    auto msg = net::decode(frame);
    if (msg.ok()) {
      if (const auto* rd = std::get_if<net::DataReadReq>(&msg.value())) {
        answers_.push_back(net::encode(
            net::DataReadResp{rd->address, Bytes(rd->nbytes, 0x5a)}));
      }
    }
    return inner_->send(frame);
  }

  Result<std::optional<Bytes>> try_recv() override {
    if (auto answer = pop_answer()) return answer;
    return inner_->try_recv();
  }

  void close() override { inner_->close(); }

 private:
  std::optional<Bytes> pop_answer() {
    if (answers_.empty()) return std::nullopt;
    Bytes answer = std::move(answers_.front());
    answers_.pop_front();
    return answer;
  }

  net::ChannelPtr inner_;
  std::deque<Bytes> answers_;  // board thread only: send and polls
};

TEST(Board, TimedDevReadCompletesInTheQuantumAfterItsRequest) {
  auto pair = net::make_inproc_link_pair();
  pair.board.data =
      std::make_unique<InstantAnswerChannel>(std::move(pair.board.data));
  BoardConfig cfg;
  cfg.rtos.cycles_per_tick = 10;
  Board board{cfg, std::move(pair.board)};
  u64 read_done_at_tick = 0;
  Bytes got;
  board.spawn_app("reader", 8, [&] {
    board.kernel().consume(20);
    auto r = board.dev_read(0x40, 2);
    ASSERT_TRUE(r.ok()) << r.status();
    got = r.value();
    read_done_at_tick = board.kernel().tick_count().value();
  });
  ScriptedHw hw{std::move(pair.hw)};
  std::thread bt{[&] { board.run(); }};
  EXPECT_EQ(hw.expect_ack().board_tick, 0u);
  hw.tick(100, 100);
  EXPECT_EQ(hw.expect_ack().board_tick, 10u);
  hw.tick(200, 100);
  EXPECT_EQ(hw.expect_ack().board_tick, 20u);
  hw.shutdown();
  bt.join();
  // Requested at tick 2 with the answer already queued, yet the read ends
  // where every read ends: at the start of the next quantum (tick 10).
  EXPECT_EQ(got, (Bytes{0x5a, 0x5a}));
  EXPECT_EQ(read_done_at_tick, 10u);
}

/// Board-side CLOCK channel that lets the master's INT_RAISE land at the
/// worst moment: after the board polled its INT port, as it takes the
/// CLOCK_TICK that follows the interrupt on the wire.
class LateInterruptClockChannel final : public net::Channel {
 public:
  LateInterruptClockChannel(net::ChannelPtr inner, net::Channel& hw_intr)
      : inner_(std::move(inner)), hw_intr_(hw_intr) {}

  Status send(std::span<const u8> frame) override {
    return inner_->send(frame);
  }

  Result<std::optional<Bytes>> try_recv() override {
    auto frame = inner_->try_recv();
    if (!raised_ && frame.ok() && frame.value().has_value()) {
      auto msg = net::decode(*frame.value());
      if (msg.ok() && std::holds_alternative<net::ClockTick>(msg.value())) {
        raised_ = true;
        EXPECT_TRUE(net::send_msg(hw_intr_,
                                  net::IntRaise{Board::kDeviceVector})
                        .ok());
      }
    }
    return frame;
  }

  void close() override { inner_->close(); }

 private:
  net::ChannelPtr inner_;
  net::Channel& hw_intr_;
  bool raised_ = false;  // board thread only
};

TEST(Board, InterruptSentBeforeTheGrantIsTakenBeforeTheGrant) {
  auto pair = net::make_inproc_link_pair();
  net::Channel& hw_intr = *pair.hw.intr;
  pair.board.clock = std::make_unique<LateInterruptClockChannel>(
      std::move(pair.board.clock), hw_intr);
  BoardConfig cfg;
  cfg.rtos.cycles_per_tick = 10;
  Board board{cfg, std::move(pair.board)};
  std::optional<u64> dsr_tick;
  board.attach_device_dsr(
      [&](u32) { dsr_tick = board.kernel().tick_count().value(); });
  ScriptedHw hw{std::move(pair.hw)};
  std::thread bt{[&] { board.run(); }};
  EXPECT_EQ(hw.expect_ack().board_tick, 0u);
  hw.tick(100, 100);
  EXPECT_EQ(hw.expect_ack().board_tick, 10u);
  hw.shutdown();
  bt.join();
  // The interrupt precedes the grant on the wire, so its DSR runs at the
  // start of the granted quantum (tick 0), not at the freeze ending it.
  ASSERT_TRUE(dsr_tick.has_value());
  EXPECT_EQ(*dsr_tick, 0u);
}

TEST(Board, LinkTeardownShutsBoardDown) {
  auto pair = net::make_inproc_link_pair();
  BoardConfig cfg;
  Board board{cfg, std::move(pair.board)};
  ScriptedHw hw{std::move(pair.hw)};
  std::thread bt{[&] { board.run(); }};
  (void)hw.expect_ack();
  hw.link.close_all();  // HW vanishes without a polite SHUTDOWN
  bt.join();            // the board must still terminate
  SUCCEED();
}

}  // namespace
}  // namespace vhp::board
