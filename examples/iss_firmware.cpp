// Firmware-level co-simulation: the board's software is RV32IM machine code
// executed by the instruction-set simulator, each instruction charged to
// the virtual-tick budget; the device under design is the increment device
// from quickstart.cpp, reached through a memory-mapped I/O window.
//
// The firmware (assembled below, no toolchain needed):
//
//     for (i = 0; i < 8; ++i) {
//       MMIO[REQ]  = seed;            // store -> DATA_PORT write
//       wfi();                        // ecall 1: wait for the device IRQ
//       r = MMIO[RESP];               // load  -> DATA_PORT read
//       ram[results + 4*i] = r;
//       seed = r * 3;
//     }
//     ram[ticks_at_exit] = ticks();   // ecall 2
//     exit(0);                        // ecall 0
#include <cstdio>

#include "vhp/cosim/session.hpp"
#include "vhp/iss/assemble.hpp"
#include "vhp/iss/runner.hpp"
#include "vhp/sim/module.hpp"

using namespace vhp;

namespace {

struct IncrementDevice : sim::Module {
  cosim::DriverIn<u32> request;
  cosim::DriverOut<u32> response;
  sim::BoolSignal& irq;
  u64 served = 0;

  IncrementDevice(cosim::CosimKernel& hw)
      : Module(hw.kernel(), "incr"),
        request(hw.kernel(), hw.registry(), "incr.request", 0x0),
        response(hw.registry(), "incr.response", 0x4),
        irq(make_bool_signal("irq")) {
    const sim::SimTime period = hw.config().clock_period;
    method("process",
           [this] {
             ++served;
             response.write(request.read() + 1);
             irq.write(true);
           })
        .sensitive(request.data_written_event())
        .dont_initialize();
    thread("clear", [this, period] {
      for (;;) {
        sim::wait(irq.posedge_event());
        sim::wait(2 * period);
        irq.write(false);
      }
    });
    hw.watch_interrupt(irq, board::Board::kDeviceVector);
  }
};

constexpr u32 kResults = 0x6000;
constexpr u32 kTicksAtExit = 0x7000;
constexpr u32 kRounds = 8;

iss::Asm make_firmware() {
  iss::Asm a;
  const auto loop = a.make_label();
  a.li(5, 0xf0000000u);  // t0 = MMIO base
  a.li(6, kResults);     // t1 = results array
  a.addi(7, 0, kRounds); // t2 = remaining rounds
  a.li(28, 11);          // t3 = seed
  a.bind(loop);
  a.sw(28, 5, 0x0);      // request = seed
  a.addi(17, 0, 1);      // a7 = wfi
  a.ecall();
  a.lw(29, 5, 0x4);      // t4 = response
  a.sw(29, 6, 0);        // *results++ = response
  a.addi(6, 6, 4);
  a.addi(30, 0, 3);      // seed = response * 3
  a.mul(28, 29, 30);
  a.addi(7, 7, -1);
  a.bne(7, 0, loop);
  a.addi(17, 0, 2);      // a7 = read board ticks -> a0
  a.ecall();
  a.li(7, kTicksAtExit);
  a.sw(10, 7, 0);
  a.addi(10, 0, 0);      // exit(0)
  a.addi(17, 0, 0);
  a.ecall();
  return a;
}

}  // namespace

int main() {
  cosim::SessionConfig cfg;
  cfg.transport = cosim::TransportKind::kTcp;
  cfg.cosim.sync.quantum(100);
  cfg.board.rtos.cycles_per_tick = 10;
  cosim::CosimSession session{cfg};

  IncrementDevice device{session.hw()};

  sim::Memory ram{"board.ram"};
  make_firmware().load_into(ram, 0x1000);

  iss::IssRunnerConfig rc;
  rc.entry_pc = 0x1000;
  rc.mmio_access_cost = 20;
  iss::IssRunner runner{session.board(), ram, rc};
  session.board().attach_device_dsr([&](u32) { runner.post_irq(); });

  session.start_board();
  for (int chunk = 0; chunk < 4000 && !runner.exited(); ++chunk) {
    if (!session.run_cycles(100).ok()) break;
  }
  session.finish();

  std::printf("firmware retired %llu instructions; device served %llu "
              "requests; board ticks at exit: %u\n\n",
              (unsigned long long)runner.instructions(),
              (unsigned long long)device.served, ram.read_u32(kTicksAtExit));
  u32 expect = 11;
  bool all_ok = true;
  for (u32 i = 0; i < kRounds; ++i) {
    const u32 got = ram.read_u32(kResults + 4 * i);
    const u32 want = expect + 1;
    std::printf("  round %u: device(%u) -> %u %s\n", i, expect, got,
                got == want ? "ok" : "WRONG");
    all_ok &= (got == want);
    expect = want * 3;
  }
  // A firmware stopped by a fault or the instruction limit has exited too,
  // with IssRunner::kFaultExitCode.
  return all_ok && runner.exited() && runner.exit_code() == 0 ? 0 : 1;
}
