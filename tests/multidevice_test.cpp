// Multi-device co-simulation: two independent devices under design in the
// same HDL kernel, each with its own address range and interrupt vector,
// driven by two application threads on one board — the "extending an
// existing system with new hardware" scenario the paper motivates, scaled
// to several prototypes at once. Also covers Kernel::join and the
// cycles_per_sim_cycle clock-domain scaling.
#include <gtest/gtest.h>

#include "vhp/cosim/session.hpp"
#include "vhp/rtos/sync.hpp"
#include "vhp/sim/module.hpp"

namespace vhp::cosim {
namespace {

/// Parameterizable compute device: writing X to `base` publishes
/// X*multiplier at `base+4` and pulses its own interrupt line.
struct MulDevice : sim::Module {
  DriverIn<u32> in;
  DriverOut<u32> out;
  sim::BoolSignal& irq;

  MulDevice(CosimKernel& hw, const std::string& name, u32 base, u32 factor,
            u32 vector)
      : Module(hw.kernel(), name),
        in(hw.kernel(), hw.registry(), name + ".in", base),
        out(hw.registry(), name + ".out", base + 4),
        irq(make_bool_signal("irq")) {
    const sim::SimTime period = hw.config().clock_period;
    method("process",
           [this, factor] {
             out.write(in.read() * factor);
             irq.write(true);
           })
        .sensitive(in.data_written_event())
        .dont_initialize();
    thread("clear", [this, period] {
      for (;;) {
        sim::wait(irq.posedge_event());
        sim::wait(2 * period);
        irq.write(false);
      }
    });
    hw.watch_interrupt(irq, vector);
  }
};

TEST(MultiDevice, TwoDevicesTwoVectorsTwoApps) {
  SessionConfig cfg;
  cfg.cosim.sync.quantum(25);
  CosimSession session{cfg};

  constexpr u32 kVecA = board::Board::kDeviceVector;  // 16
  constexpr u32 kVecB = 17;
  MulDevice dev_a{session.hw(), "mul3", 0x100, 3, kVecA};
  MulDevice dev_b{session.hw(), "mul7", 0x200, 7, kVecB};

  auto& board = session.board();
  rtos::Semaphore irq_a{board.kernel(), 0};
  rtos::Semaphore irq_b{board.kernel(), 0};
  board.attach_device_dsr([&](u32) { irq_a.post(); });
  board.attach_interrupt(kVecB, [&](u32 vector) {
    EXPECT_EQ(vector, kVecB);
    irq_b.post();
  });

  std::vector<u32> results_a;
  std::vector<u32> results_b;
  auto use_device = [&](u32 base, rtos::Semaphore& irq_sem,
                        std::vector<u32>& results, u32 rounds) {
    for (u32 i = 1; i <= rounds; ++i) {
      ASSERT_TRUE(
          board.dev_write(base, DriverCodec<u32>::encode(i)).ok());
      irq_sem.wait();
      auto resp = board.dev_read(base + 4, 4);
      ASSERT_TRUE(resp.ok());
      u32 v = 0;
      ASSERT_TRUE(DriverCodec<u32>::decode(resp.value(), v));
      results.push_back(v);
      board.kernel().consume(30);
    }
  };
  auto& app_a = board.spawn_app(
      "app_a", 8, [&] { use_device(0x100, irq_a, results_a, 4); });
  board.spawn_app("app_b", 9,
                  [&] { use_device(0x200, irq_b, results_b, 4); });
  bool joined = false;
  board.spawn_app("waiter", 10, [&] {
    board.kernel().join(app_a);
    EXPECT_TRUE(app_a.exited());
    joined = true;
  });

  session.start_board();
  for (int chunk = 0;
       chunk < 2000 && (results_a.size() < 4 || results_b.size() < 4);
       ++chunk) {
    ASSERT_TRUE(session.run_cycles(50).ok());
  }
  // Let the joiner observe the exit.
  for (int chunk = 0; chunk < 200 && !joined; ++chunk) {
    ASSERT_TRUE(session.run_cycles(50).ok());
  }
  session.finish();

  EXPECT_EQ(results_a, (std::vector<u32>{3, 6, 9, 12}));
  EXPECT_EQ(results_b, (std::vector<u32>{7, 14, 21, 28}));
  EXPECT_TRUE(joined);
}

TEST(MultiDevice, ClockDomainScalingGrantsMoreBoardCycles) {
  // cycles_per_sim_cycle = 4: the board CPU runs 4x faster than the HDL
  // clock, so after C simulated cycles it has consumed 4C CPU cycles.
  SessionConfig cfg;
  cfg.cosim.sync.quantum(10);
  cfg.board.cycles_per_sim_cycle = 4;
  cfg.board.rtos.cycles_per_tick = 10;
  CosimSession session{cfg};
  session.start_board();
  ASSERT_TRUE(session.run_cycles(500).ok());
  session.finish();
  // 500 sim cycles * 4 = 2000 CPU cycles = 200 ticks.
  EXPECT_EQ(session.board().kernel().tick_count().value(), 200u);
}

}  // namespace
}  // namespace vhp::cosim
