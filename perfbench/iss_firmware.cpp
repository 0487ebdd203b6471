// iss_firmware: RV32IM firmware on iss::IssRunner, one core with flat
// timing, inproc, T_sync = 1000. Each round posts a request to the MMIO
// increment device, waits for its interrupt, loads the response, runs a
// long arithmetic loop over it and stores the result to RAM. The board is
// clocked 50x the HW clock and the loop nearly fills each quantum, so the
// interpreter is the bulk of host time. Two host threads.
//
// The firmware runs a fixed number of rounds and exits a few quanta before
// the repetition ends. A blocking board read returns within its quantum
// only if the master's answer beats the reader's own first poll, a race on
// wall time, so how far a still-running firmware got would vary; a
// finished one leaves the same counts every time.
#include "drive.hpp"
#include "vhp/cosim/session.hpp"
#include "vhp/iss/assemble.hpp"
#include "vhp/iss/runner.hpp"
#include "vhp/sim/module.hpp"

namespace perfbench {
namespace {

constexpr u64 kTsync = 1000;
constexpr u64 kBoardCyclesPerSimCycle = 50;
// Scaled with the board clock: one RTOS tick per 10 simulated cycles, as
// in the other workloads.
constexpr u64 kCyclesPerTick = 10 * kBoardCyclesPerSimCycle;
constexpr u64 kCycles = 300 * kTsync;  // per repetition
constexpr u64 kCall = 100;

constexpr u32 kMmioBase = 0xf0000000u;
constexpr u32 kResults = 0x20000;
constexpr u32 kRoundCount = 0x1f000;
constexpr u32 kMul = 1664525;
constexpr u32 kAdd = 1013904223;
// Inner-loop iterations per round: 9 board cycles each (mul 3, taken
// branch 2, four 1-cycle ops), so the loop is just under ten quanta of
// 50000 board cycles. The interrupt and the response read each cost the
// rest of a quantum, so a round takes eleven and 26 rounds end in quantum
// 287 of 300.
constexpr u32 kLoop = 55400;
constexpr u32 kRounds = 26;
constexpr u64 kRound = 11 * kTsync;  // simulated cycles per round

u32 first_request(u64 seed) {
  u64 z = seed + 0x9e3779b97f4a7c15ull;  // splitmix64
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return static_cast<u32>(z ^ (z >> 31));
}

/// The value round i's firmware stores, recomputed on the host.
std::vector<u32> expected_results(u64 seed, u64 rounds) {
  std::vector<u32> out;
  u32 x = first_request(seed);
  for (u64 i = 0; i < rounds; ++i) {
    u32 h = x + 1;  // the increment device's response
    for (u32 j = 0; j < kLoop; ++j) {
      h = h * kMul + kAdd;
      h ^= h >> 13;
    }
    out.push_back(h);
    x = h;
  }
  return out;
}

vhp::iss::Asm make_firmware(u32 request) {
  vhp::iss::Asm a;
  const auto round = a.make_label();
  const auto inner = a.make_label();
  a.li(5, kMmioBase);    // t0 = MMIO window
  a.li(6, kResults);     // t1 = next result slot
  a.li(28, request);     // t3 = request value
  a.li(11, kMul);        // a1
  a.li(12, kAdd);        // a2
  a.li(18, kRoundCount); // s2 = &rounds
  a.addi(9, 0, 0);       // s1 = rounds done
  a.li(19, kRounds);     // s3 = rounds to run
  a.bind(round);
  a.sw(28, 5, 0x0);      // 1. post the request (DATA write)
  a.addi(17, 0, 1);      // 2. wfi until the device interrupt
  a.ecall();
  a.lw(29, 5, 0x4);      // 3. t4 = response (blocking DATA read)
  a.li(30, kLoop);       // 4. t5 = loop count
  a.bind(inner);
  a.mul(29, 29, 11);
  a.add(29, 29, 12);
  a.srli(13, 29, 13);
  a.xor_(29, 29, 13);
  a.addi(30, 30, -1);
  a.bne(30, 0, inner);
  a.sw(29, 6, 0);        // 5. store the result
  a.addi(6, 6, 4);
  a.addi(9, 9, 1);
  a.sw(9, 18, 0);
  a.addi(28, 29, 0);     // next request = result
  a.bne(9, 19, round);
  a.addi(10, 0, 0);      // exit(0)
  a.addi(17, 0, 0);
  a.ecall();
  return a;
}

/// The device under design: response = request + 1, then a short
/// interrupt pulse (as in examples/iss_firmware).
struct IncrementDevice : vhp::sim::Module {
  vhp::cosim::DriverIn<u32> request;
  vhp::cosim::DriverOut<u32> response;
  vhp::sim::BoolSignal& irq;
  u64 served = 0;

  explicit IncrementDevice(vhp::cosim::CosimKernel& hw)
      : Module(hw.kernel(), "incr"),
        request(hw.kernel(), hw.registry(), "incr.request", 0x0),
        response(hw.registry(), "incr.response", 0x4),
        irq(make_bool_signal("irq")) {
    const vhp::sim::SimTime period = hw.config().clock_period;
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
        vhp::sim::wait(irq.posedge_event());
        vhp::sim::wait(2 * period);
        irq.write(false);
      }
    });
    hw.watch_interrupt(irq, vhp::board::Board::kDeviceVector);
  }
};

RepResult run_rep(const RepConfig& rc) {
  RepResult r;
  SpanLog board_log{"boards", {}};
  SliceTracker slices{board_log, /*owns_thread=*/true};

  const u64 setup_start = now_ns();
  const auto cfg = vhp::cosim::SessionConfigBuilder{}
                       .inproc()
                       .t_sync(kTsync)
                       .cycles_per_sim_cycle(kBoardCyclesPerSimCycle)
                       .cycles_per_tick(kCyclesPerTick)
                       .postmortem_prefix("")
                       .build_or_throw();
  vhp::cosim::CosimSession session{cfg};
  IncrementDevice device{session.hw()};
  vhp::sim::Memory ram{"board.ram"};
  make_firmware(first_request(rc.seed)).load_into(ram, 0x1000);
  vhp::iss::IssRunnerConfig runner_cfg;
  runner_cfg.entry_pc = 0x1000;
  runner_cfg.mmio_base = kMmioBase;
  runner_cfg.mmio_access_cost = 20;
  runner_cfg.max_instructions = ~u64{0};
  vhp::iss::IssRunner runner{session.board(), ram, runner_cfg};
  session.board().attach_device_dsr([&runner](u32) { runner.post_irq(); });
  if (rc.mode == Mode::kTraced) slices.attach(session.board().kernel());

  pin_to_cpu(1);
  session.start_board();
  pin_to_cpu(0);
  vhp::Status status = session.hw().handshake();
  r.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  if (status.ok()) {
    status = drive_region(
        r, rc.mode, Shape{kCycles, kCall, kRound, kRounds * kRound},
        [&session](u64 n) { return session.run_cycles(n); },
        [&session] { return (session.hw().cycle() / kTsync + 1) * kTsync; },
        "cosim.exchange");
  }
  session.finish();
  if (!status.ok()) r.fail("run: " + status.to_string());
  if (rc.mode == Mode::kTraced) book_slices(r, std::move(board_log), "boards");

  const u64 rounds = ram.read_u32(kRoundCount);
  const std::vector<u32> want = expected_results(rc.seed, rounds);
  u64 wrong = 0;
  u64 results_fold = 0;
  for (u64 i = 0; i < rounds; ++i) {
    const u32 got = ram.read_u32(kResults + 4 * i);
    wrong += got == want[i] ? 0 : 1;
    results_fold = results_fold * 1099511628211ull + got;
  }

  const auto hw = session.hw().stats();
  const auto& bk = session.board().kernel();
  r.digest = {
      {"cycles", session.hw().cycle()},
      {"syncs", hw.syncs},
      {"acks", hw.acks_received},
      {"data_reads", hw.data_reads},
      {"data_writes", hw.data_writes},
      {"interrupts", hw.interrupts_sent},
      {"device_served", device.served},
      {"rounds", rounds},
      {"results_fold", results_fold},
      {"instructions", runner.instructions()},
      {"board_ticks", bk.tick_count().value()},
  };
  book_session_counts(r, session);
  r.totals["iss.instructions"] += static_cast<double>(runner.instructions());

  r.check(runner.exited() && rounds == kRounds, "firmware ran every round");
  r.check(wrong == 0, "RAM results equal the host recomputation");
  r.check(bk.tick_count().value() ==
              r.cycles * kBoardCyclesPerSimCycle / kCyclesPerTick,
          "board tick = cycles / cycles per tick");
  r.check(hw.syncs == r.cycles / kTsync, "syncs = cycles / T_sync");
  r.check(hw.data_writes == device.served, "every request served");
  r.check(hw.data_reads == rounds, "one response load per round");

  r.ops_attempted = kRounds;
  r.ops_failed = r.ok ? wrong : kRounds;
  return r;
}

}  // namespace

Workload iss_firmware_workload() {
  return Workload{"iss_firmware", {Mode::kPlain, Mode::kTraced}, run_rep};
}

}  // namespace perfbench
