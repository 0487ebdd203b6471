// Ablation — software timing model: the same co-simulated workload with the
// board software modeled two ways:
//   (a) a C++ application thread with consume() cost annotations (the
//       paper's implicit model: the real board executes native code), and
//   (b) RV32IM machine code on the instruction-set simulator, every retired
//       instruction charged to the budget (the authors' companion DATE'04
//       "native ISS integration" refinement).
// Reports host wall time and board ticks per request — the classic
// speed-vs-timing-fidelity tradeoff of ISS-based co-simulation.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "vhp/iss/assemble.hpp"
#include "vhp/iss/runner.hpp"
#include "vhp/rtos/sync.hpp"
#include "vhp/sim/module.hpp"

namespace {

using namespace vhp;
using namespace vhp::bench;

/// The device under design (same for both variants): value in, value+1 out,
/// interrupt on completion.
struct EchoDevice : sim::Module {
  cosim::DriverIn<u32> in;
  cosim::DriverOut<u32> out;
  sim::BoolSignal& irq_line;

  EchoDevice(cosim::CosimKernel& hw)
      : Module(hw.kernel(), "echo"),
        in(hw.kernel(), hw.registry(), "echo.in", 0x0),
        out(hw.registry(), "echo.out", 0x4),
        irq_line(make_bool_signal("irq")) {
    const sim::SimTime period = hw.config().clock_period;
    method("process",
           [this] {
             out.write(in.read() + 1);
             irq_line.write(true);
           })
        .sensitive(in.data_written_event())
        .dont_initialize();
    thread("clear", [this, period] {
      for (;;) {
        sim::wait(irq_line.posedge_event());
        sim::wait(2 * period);
        irq_line.write(false);
      }
    });
    hw.watch_interrupt(irq_line, board::Board::kDeviceVector);
  }
};

struct Outcome {
  double wall_seconds;
  u64 board_ticks;
  u64 rounds;
};

Outcome run_annotated(u64 rounds, u64 t_sync) {
  cosim::SessionConfig cfg;
  cfg.transport = cosim::TransportKind::kTcp;
  cfg.cosim.sync.quantum(t_sync);
  cfg.board.rtos.cycles_per_tick = 10;
  cosim::CosimSession session{cfg};
  EchoDevice echo{session.hw()};
  auto& board = session.board();
  rtos::Semaphore ready{board.kernel(), 0};
  board.attach_device_dsr([&](u32) { ready.post(); });
  u64 done = 0;
  board.spawn_app("app", 8, [&] {
    for (u64 i = 0; i < rounds; ++i) {
      (void)board.dev_write(0x0, cosim::DriverCodec<u32>::encode(
                                     static_cast<u32>(i)));
      ready.wait();
      (void)board.dev_read(0x4, 4);
      board.kernel().consume(60);  // hand-estimated per-round cost
      ++done;
    }
  });
  session.start_board();
  const auto start = std::chrono::steady_clock::now();
  for (int chunk = 0; chunk < 20000 && done < rounds; ++chunk) {
    if (!session.run_cycles(100).ok()) break;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  session.finish();
  return {secs, session.board().kernel().tick_count().value(), done};
}

Outcome run_firmware(u64 rounds, u64 t_sync) {
  cosim::SessionConfig cfg;
  cfg.transport = cosim::TransportKind::kTcp;
  cfg.cosim.sync.quantum(t_sync);
  cfg.board.rtos.cycles_per_tick = 10;
  cosim::CosimSession session{cfg};
  EchoDevice echo{session.hw()};

  sim::Memory ram{"ram"};
  iss::Asm a;
  const auto loop = a.make_label();
  a.li(5, 0xf0000000u);
  a.li(6, static_cast<u32>(rounds));
  a.addi(7, 0, 0);
  a.bind(loop);
  a.sw(7, 5, 0x0);   // request = i
  a.addi(17, 0, 1);  // wfi
  a.ecall();
  a.lw(28, 5, 0x4);  // response
  a.addi(7, 7, 1);
  a.blt(7, 6, loop);
  a.addi(17, 0, 0);  // exit
  a.ecall();
  a.load_into(ram, 0x1000);

  iss::IssRunnerConfig rc;
  rc.entry_pc = 0x1000;
  rc.mmio_access_cost = 10;
  iss::IssRunner runner{session.board(), ram, rc};
  session.board().attach_device_dsr([&](u32) { runner.post_irq(); });

  session.start_board();
  const auto start = std::chrono::steady_clock::now();
  for (int chunk = 0; chunk < 20000 && !runner.exited(); ++chunk) {
    if (!session.run_cycles(100).ok()) break;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  session.finish();
  return {secs, session.board().kernel().tick_count().value(),
          runner.exited() ? rounds : 0};
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  print_header("ABL: software timing model — annotations vs ISS",
               "ablation of the CPU-model substitution (companion DATE'04 "
               "direction)");

  const u64 rounds = quick ? 10 : 50;
  std::printf("%8s %16s %14s %12s %14s\n", "Tsync", "model", "wall time",
              "ticks", "ticks/round");
  for (u64 ts : {u64{100}, u64{1000}}) {
    const Outcome ann = run_annotated(rounds, ts);
    const Outcome fw = run_firmware(rounds, ts);
    std::printf("%8llu %16s %13.4fs %12llu %14.1f\n",
                (unsigned long long)ts, "annotated C++", ann.wall_seconds,
                (unsigned long long)ann.board_ticks,
                static_cast<double>(ann.board_ticks) /
                    static_cast<double>(ann.rounds ? ann.rounds : 1));
    std::printf("%8llu %16s %13.4fs %12llu %14.1f\n",
                (unsigned long long)ts, "RV32 firmware", fw.wall_seconds,
                (unsigned long long)fw.board_ticks,
                static_cast<double>(fw.board_ticks) /
                    static_cast<double>(fw.rounds ? fw.rounds : 1));
  }
  std::printf("\nshape: both variants obey the same protocol; the ISS costs "
              "more host time per round but derives\nthe board ticks from "
              "the instruction stream instead of a hand estimate\n");
  return 0;
}
