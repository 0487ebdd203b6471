// Co-simulation kernel tests: driver registry/ports, and the timing
// synchronization protocol exercised against a *scripted* peer (no Board),
// so each protocol obligation is checked in isolation.
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "vhp/cosim/cosim_kernel.hpp"
#include "vhp/net/inproc.hpp"
#include "vhp/sim/module.hpp"

namespace vhp::cosim {
namespace {

using namespace std::chrono_literals;

// ---------- DriverRegistry ----------

TEST(DriverRegistry, DeliversWritesToHandler) {
  DriverRegistry reg;
  Bytes seen;
  reg.register_write(0x10, [&](std::span<const u8> d) {
    seen.assign(d.begin(), d.end());
    return Status::Ok();
  });
  EXPECT_TRUE(reg.deliver_write(0x10, Bytes{1, 2, 3}).ok());
  EXPECT_EQ(seen, (Bytes{1, 2, 3}));
  EXPECT_EQ(reg.writes_delivered(), 1u);
}

TEST(DriverRegistry, UnmappedAddressIsError) {
  DriverRegistry reg;
  EXPECT_EQ(reg.deliver_write(0x99, Bytes{1}).code(), StatusCode::kNotFound);
  EXPECT_EQ(reg.serve_read(0x99, 4).status().code(), StatusCode::kNotFound);
}

TEST(DriverRegistry, ServesReadsAndTruncates) {
  DriverRegistry reg;
  reg.register_read(0x20, [] { return Bytes{1, 2, 3, 4, 5, 6}; });
  auto r = reg.serve_read(0x20, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (Bytes{1, 2, 3, 4}));
}

TEST(DriverRegistry, UnregisterRemovesEndpoint) {
  DriverRegistry reg;
  reg.register_read(0x1, [] { return Bytes{}; });
  reg.unregister(0x1);
  EXPECT_FALSE(reg.serve_read(0x1, 1).ok());
}

// ---------- Driver ports ----------

struct PortHarness : sim::Module {
  explicit PortHarness(sim::Kernel& k) : Module(k, "tb") {}
  using Module::method;
  using Module::thread;
};

TEST(DriverPorts, DriverInFiresOnEveryWriteEvenSameValue) {
  sim::Kernel k;
  DriverRegistry reg;
  DriverIn<u32> in{k, reg, "in", 0x0};
  PortHarness tb{k};
  int triggers = 0;
  tb.method("drv", [&] { ++triggers; })
      .sensitive(in.data_written_event())
      .dont_initialize();
  const Bytes payload = DriverCodec<u32>::encode(7);
  ASSERT_TRUE(reg.deliver_write(0x0, payload).ok());
  k.run(1);
  ASSERT_TRUE(reg.deliver_write(0x0, payload).ok());  // same value again
  k.run(1);
  EXPECT_EQ(triggers, 2);  // a Signal would have fired once
  EXPECT_EQ(in.read(), 7u);
  EXPECT_EQ(in.write_count(), 2u);
}

TEST(DriverPorts, DriverInRejectsGarbage) {
  sim::Kernel k;
  DriverRegistry reg;
  DriverIn<u32> in{k, reg, "in", 0x0};
  EXPECT_FALSE(reg.deliver_write(0x0, Bytes{1, 2}).ok());  // short for u32
}

TEST(DriverPorts, DriverOutServesCurrentValue) {
  DriverRegistry reg;
  DriverOut<u32> out{reg, "out", 0x4};
  out.write(0xabcd);
  auto r = reg.serve_read(0x4, 8);
  ASSERT_TRUE(r.ok());
  u32 v = 0;
  ASSERT_TRUE(DriverCodec<u32>::decode(r.value(), v));
  EXPECT_EQ(v, 0xabcdu);
}

TEST(DriverPorts, BytesCodecPassesThrough) {
  const Bytes raw{9, 8, 7};
  EXPECT_EQ(DriverCodec<Bytes>::encode(raw), raw);
  Bytes out;
  EXPECT_TRUE(DriverCodec<Bytes>::decode(raw, out));
  EXPECT_EQ(out, raw);
}

// ---------- protocol against a scripted peer ----------

struct ScriptedPeer {
  net::CosimLink link;

  void send_initial_ack() {
    ASSERT_TRUE(net::send_msg(*link.clock, net::TimeAck{0}).ok());
  }

  net::ClockTick expect_tick() {
    auto msg = net::recv_msg(*link.clock, 2000ms);
    EXPECT_TRUE(msg.ok()) << msg.status();
    EXPECT_TRUE(std::holds_alternative<net::ClockTick>(msg.value()));
    return std::get<net::ClockTick>(msg.value());
  }

  void ack(u64 tick) {
    ASSERT_TRUE(net::send_msg(*link.clock, net::TimeAck{tick}).ok());
  }
};

TEST(CosimProtocol, HandshakeThenStrictTickAckAlternation) {
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  cfg.sync.quantum(10);
  CosimKernel hw{std::move(pair.hw), cfg};
  ScriptedPeer peer{std::move(pair.board)};

  std::thread board([&] {
    peer.send_initial_ack();
    for (u64 i = 1; i <= 5; ++i) {
      const auto tick = peer.expect_tick();
      EXPECT_EQ(tick.sim_cycle, i * 10);
      EXPECT_EQ(tick.n_ticks, 10u);
      peer.ack(i);
    }
  });
  ASSERT_TRUE(hw.run_cycles(50).ok());
  board.join();
  EXPECT_EQ(hw.stats().syncs, 5u);
  EXPECT_EQ(hw.stats().acks_received, 5u);
  EXPECT_EQ(hw.cycle(), 50u);
}

TEST(CosimProtocol, HandshakeTimesOutWithoutBoard) {
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  cfg.sync.watchdog(50ms);
  CosimKernel hw{std::move(pair.hw), cfg};
  const Status s = hw.handshake();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
}

TEST(CosimProtocol, UntimedModeNeedsNoPeerTraffic) {
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  cfg.timed = false;
  CosimKernel hw{std::move(pair.hw), cfg};
  ASSERT_TRUE(hw.run_cycles(1000).ok());
  EXPECT_EQ(hw.stats().syncs, 0u);
}

TEST(CosimProtocol, ServesDataReadsWhileWaitingForAck) {
  // Deadlock-freedom: a read request arriving during the ack wait must be
  // answered before the ack arrives.
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  cfg.sync.quantum(5);
  CosimKernel hw{std::move(pair.hw), cfg};
  DriverOut<u32> out{hw.registry(), "reg", 0x8};
  out.write(1234);
  ScriptedPeer peer{std::move(pair.board)};
  std::thread board([&] {
    peer.send_initial_ack();
    (void)peer.expect_tick();
    // Instead of acking immediately, demand data first.
    ASSERT_TRUE(net::send_msg(*peer.link.data, net::DataReadReq{0x8, 4}).ok());
    auto resp = net::recv_msg(*peer.link.data, 2000ms);
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_TRUE(std::holds_alternative<net::DataReadResp>(resp.value()));
    u32 v = 0;
    ASSERT_TRUE(DriverCodec<u32>::decode(
        std::get<net::DataReadResp>(resp.value()).data, v));
    EXPECT_EQ(v, 1234u);
    peer.ack(1);
  });
  ASSERT_TRUE(hw.run_cycles(5).ok());
  board.join();
  EXPECT_EQ(hw.stats().data_reads, 1u);
}

TEST(CosimProtocol, InterruptEdgeEmitsExactlyOnce) {
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  cfg.sync.quantum(100);
  CosimKernel hw{std::move(pair.hw), cfg};

  // A module that raises the line at cycle 3 and holds it high: level-hold
  // must produce ONE INT_RAISE (edge-triggered), not one per cycle.
  struct Raiser : sim::Module {
    sim::BoolSignal& line;
    Raiser(sim::Kernel& k, sim::SimTime period)
        : Module(k, "raiser"), line(make_bool_signal("irq")) {
      thread("t", [this, period] {
        sim::wait(3 * period);
        line.write(true);
      });
    }
  } raiser{hw.kernel(), cfg.clock_period};
  hw.watch_interrupt(raiser.line, 5);

  ScriptedPeer peer{std::move(pair.board)};
  std::thread board([&] {
    peer.send_initial_ack();
    auto irq = net::recv_msg(*peer.link.intr, 2000ms);
    ASSERT_TRUE(irq.ok());
    EXPECT_EQ(std::get<net::IntRaise>(irq.value()).vector, 5u);
    (void)peer.expect_tick();
    peer.ack(1);
    // No second interrupt for the held level.
    auto none = peer.link.intr->recv(50ms);
    EXPECT_FALSE(none.ok());
    EXPECT_EQ(none.status().code(), StatusCode::kDeadlineExceeded);
  });
  ASSERT_TRUE(hw.run_cycles(100).ok());
  board.join();
  EXPECT_EQ(hw.stats().interrupts_sent, 1u);
}

TEST(CosimProtocol, DriverWriteLandsBeforeNextCycle) {
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  cfg.sync.quantum(4);
  CosimKernel hw{std::move(pair.hw), cfg};
  DriverIn<u32> in{hw.kernel(), hw.registry(), "in", 0x0};
  ScriptedPeer peer{std::move(pair.board)};
  std::thread board([&] {
    peer.send_initial_ack();
    const auto t1 = peer.expect_tick();
    ASSERT_TRUE(net::send_msg(*peer.link.data,
                              net::DataWrite{0x0,
                                             DriverCodec<u32>::encode(55)})
                    .ok());
    peer.ack(t1.sim_cycle);
    (void)peer.expect_tick();
    peer.ack(8);
  });
  ASSERT_TRUE(hw.run_cycles(8).ok());
  board.join();
  EXPECT_EQ(in.read(), 55u);
  EXPECT_EQ(hw.stats().data_writes, 1u);
}

/// Master-side DATA channel that shows nothing until the master has sent a
/// CLOCK_TICK: the board's DATA then lands together with its TIME_ACK, as
/// a batched board's does, and no per-cycle poll can take it early.
struct TickGate {
  bool tick_sent = false;
};

class GatedDataChannel final : public net::Channel {
 public:
  GatedDataChannel(net::ChannelPtr inner, TickGate& gate)
      : inner_(std::move(inner)), gate_(gate) {}
  Status send(std::span<const u8> frame) override {
    return inner_->send(frame);
  }
  Result<std::optional<Bytes>> try_recv() override {
    if (!gate_.tick_sent) return std::optional<Bytes>{};
    return inner_->try_recv();
  }
  void close() override { inner_->close(); }

 private:
  net::ChannelPtr inner_;
  TickGate& gate_;
};

class TickSpottingChannel final : public net::Channel {
 public:
  TickSpottingChannel(net::ChannelPtr inner, TickGate& gate)
      : inner_(std::move(inner)), gate_(gate) {}
  Status send(std::span<const u8> frame) override {
    auto msg = net::decode(frame);
    if (msg.ok() && std::holds_alternative<net::ClockTick>(msg.value())) {
      gate_.tick_sent = true;
    }
    return inner_->send(frame);
  }
  Result<std::optional<Bytes>> try_recv() override {
    return inner_->try_recv();
  }
  void close() override { inner_->close(); }

 private:
  net::ChannelPtr inner_;
  TickGate& gate_;
};

TEST(CosimProtocol, SyncServesDataThatArrivedWithTheAck) {
  auto pair = net::make_inproc_link_pair();
  TickGate gate;
  pair.hw.data =
      std::make_unique<GatedDataChannel>(std::move(pair.hw.data), gate);
  pair.hw.clock =
      std::make_unique<TickSpottingChannel>(std::move(pair.hw.clock), gate);
  CosimConfig cfg;
  cfg.sync.quantum(4);
  CosimKernel hw{std::move(pair.hw), cfg};
  DriverIn<u32> in{hw.kernel(), hw.registry(), "in", 0x0};
  // The whole first quantum of the board, queued up front: its boot ack,
  // one DATA write, and the ack that ends the quantum.
  ScriptedPeer peer{std::move(pair.board)};
  peer.send_initial_ack();
  ASSERT_TRUE(net::send_msg(*peer.link.data,
                            net::DataWrite{0x0, DriverCodec<u32>::encode(7)})
                  .ok());
  peer.ack(1);
  ASSERT_TRUE(hw.run_cycles(4).ok());
  // The first look for the ack already finds it; the write that came with
  // it is served before the sync (and run_cycles) returns.
  EXPECT_EQ(hw.stats().syncs, 1u);
  EXPECT_EQ(hw.stats().data_writes, 1u);
}

// ---------- the DATA fence (DESIGN.md §14) ----------

TEST(CosimDataFence, HandshakeServesDataSentBeforeTheBootAck) {
  // The boot ack counts one DATA write that lands only after it: the
  // handshake must wait for that write and serve it before cycle 0 runs.
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  cfg.sync.quantum(10).watchdog(5000ms);
  CosimKernel hw{std::move(pair.hw), cfg};
  DriverIn<u32> in{hw.kernel(), hw.registry(), "in", 0x0};
  ScriptedPeer peer{std::move(pair.board)};
  std::thread board([&] {
    ASSERT_TRUE(net::send_msg(*peer.link.clock,
                              net::TimeAck{0, std::nullopt, 0, 1})
                    .ok());
    std::this_thread::sleep_for(20ms);
    ASSERT_TRUE(net::send_msg(*peer.link.data,
                              net::DataWrite{0x0,
                                             DriverCodec<u32>::encode(9)})
                    .ok());
  });
  ASSERT_TRUE(hw.handshake().ok());
  board.join();
  EXPECT_EQ(hw.cycle(), 0u);
  EXPECT_EQ(hw.stats().data_writes, 1u);
  EXPECT_EQ(in.read(), 9u);
}

/// Counts the master's DATA receive calls per master cycle.
class PollCountingChannel final : public net::Channel {
 public:
  PollCountingChannel(net::ChannelPtr inner, const CosimKernel* const& kernel,
                      std::map<u64, u64>& polls)
      : inner_(std::move(inner)), kernel_(kernel), polls_(polls) {}
  Status send(std::span<const u8> frame) override {
    return inner_->send(frame);
  }
  Result<std::optional<Bytes>> try_recv() override {
    ++polls_[kernel_->cycle()];
    return inner_->try_recv();
  }
  void close() override { inner_->close(); }

 private:
  net::ChannelPtr inner_;
  const CosimKernel* const& kernel_;
  std::map<u64, u64>& polls_;
};

/// Runs 1000 cycles against a peer that acks every grant at once and
/// returns the master cycles at which the DATA port was polled.
std::map<u64, u64> data_polls(bool timed) {
  auto pair = net::make_inproc_link_pair();
  const CosimKernel* kernel = nullptr;
  std::map<u64, u64> polls;
  pair.hw.data = std::make_unique<PollCountingChannel>(std::move(pair.hw.data),
                                                       kernel, polls);
  CosimConfig cfg;
  cfg.timed = timed;
  cfg.sync.quantum(100);
  CosimKernel hw{std::move(pair.hw), cfg};
  kernel = &hw;
  ScriptedPeer peer{std::move(pair.board)};
  std::thread board([&] {
    if (!timed) return;
    peer.send_initial_ack();
    for (u64 i = 1; i <= 10; ++i) {
      (void)peer.expect_tick();
      peer.ack(i);
    }
  });
  EXPECT_TRUE(hw.run_cycles(1000).ok());
  board.join();
  EXPECT_EQ(hw.stats().syncs, timed ? 10u : 0u);
  return polls;
}

TEST(CosimDataFence, TimedQuantumPollsNoDataPort) {
  // Timed, the DATA port is read only inside the handshake and the
  // barriers: the polled cycles are the 11 sync points, not 1000 cycles.
  const std::map<u64, u64> polls = data_polls(/*timed=*/true);
  EXPECT_EQ(polls.size(), 11u);
  for (const auto& [cycle, calls] : polls) {
    EXPECT_EQ(cycle % 100, 0u) << calls << " DATA polls at cycle " << cycle;
  }
}

TEST(CosimDataFence, UntimedRunPollsDataEveryCycle) {
  // Free-running, a frame can arrive at any cycle: driver_simulate()'s
  // per-cycle poll stays, once before each of the 1000 cycles.
  const std::map<u64, u64> polls = data_polls(/*timed=*/false);
  ASSERT_EQ(polls.size(), 1000u);
  EXPECT_EQ(polls.begin()->first, 0u);
  EXPECT_EQ(polls.rbegin()->first, 999u);
}

TEST(CosimDataFence, AckedDataThatNeverArrivesTripsTheWatchdog) {
  // The quantum's ack counts two DATA frames but only one is ever sent:
  // the barrier must not complete, and the watchdog's report names the
  // node with its sent and served counts. The whole conversation is queued
  // up front: the handshake serves the write, the barrier takes the ack.
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  cfg.sync.quantum(10).watchdog(100ms);
  CosimKernel hw{std::move(pair.hw), cfg};
  DriverIn<u32> in{hw.kernel(), hw.registry(), "in", 0x0};
  ScriptedPeer peer{std::move(pair.board)};
  peer.send_initial_ack();
  ASSERT_TRUE(net::send_msg(*peer.link.data,
                            net::DataWrite{0x0, DriverCodec<u32>::encode(1)})
                  .ok());
  ASSERT_TRUE(net::send_msg(*peer.link.clock,
                            net::TimeAck{1, std::nullopt, 0, 2})
                  .ok());
  const Status s = hw.run_cycles(10);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s;
  EXPECT_NE(s.message().find("node0 (node 0, quantum 10 cycles, last "
                             "granted at cycle 10) for DATA: TIME_ACK "
                             "counts 2 sent, 1 served"),
            std::string::npos)
      << s;
  EXPECT_EQ(hw.stats().data_writes, 1u);
}

TEST(CosimProtocol, FinishSendsShutdown) {
  auto pair = net::make_inproc_link_pair();
  CosimConfig cfg;
  {
    CosimKernel hw{std::move(pair.hw), cfg};
    hw.finish();
  }
  auto msg = net::recv_msg(*pair.board.clock, 500ms);
  ASSERT_TRUE(msg.ok());
  EXPECT_TRUE(std::holds_alternative<net::Shutdown>(msg.value()));
}

}  // namespace
}  // namespace vhp::cosim
