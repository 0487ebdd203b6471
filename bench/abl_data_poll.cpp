// Ablation — DATA-port polling granularity (DESIGN.md §4): the paper's
// driver_simulate checks the data port every simulation cycle. Over TCP,
// the transport this bench runs, that check is a poll(2) and the dominant
// per-cycle cost of an otherwise idle co-simulation; on inproc and shm it
// is one atomic load and amortizing it buys next to nothing. Amortizing it
// over k cycles trades delivery granularity for speed. This bench measures
// the wall time of a fixed-work run vs the polling interval, and reports
// the accuracy of the run-to-completion variant to show the fidelity cost.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "vhp/router/checksum_app.hpp"

namespace {

using namespace vhp;
using namespace vhp::bench;

/// Like run_router_experiment but with a custom data_poll_interval.
ExperimentResult run_with_poll_interval(u64 poll_interval, u64 t_sync,
                                        std::optional<u64> fixed_cycles) {
  cosim::SessionConfig cfg;
  cfg.transport = cosim::TransportKind::kTcp;
  cfg.cosim.sync.quantum(t_sync);
  cfg.cosim.data_poll_interval = poll_interval;
  cfg.board.rtos.cycles_per_tick = 10;
  cosim::CosimSession session{cfg};

  router::TestbenchConfig tb_cfg;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.router.buffer_depth = 4;
  tb_cfg.packets_per_port = 10;
  tb_cfg.gap_cycles = 1000;
  router::RouterTestbench tb{session.hw().kernel(), tb_cfg,
                             &session.hw().registry()};
  session.hw().watch_interrupt(tb.router().irq(),
                               board::Board::kDeviceVector);
  router::ChecksumAppConfig app_cfg;
  app_cfg.cost_base = 20;
  app_cfg.cost_per_byte = 1;
  router::ChecksumApp app{session.board(), app_cfg};
  session.start_board();

  const auto start = std::chrono::steady_clock::now();
  u64 cycles = 0;
  const u64 limit = fixed_cycles.value_or(400000);
  while (cycles < limit && (fixed_cycles.has_value() || !tb.traffic_done())) {
    if (!session.run_cycles(200).ok()) break;
    cycles += 200;
  }
  const auto end = std::chrono::steady_clock::now();
  session.finish();

  ExperimentResult r;
  r.wall_seconds = std::chrono::duration<double>(end - start).count();
  r.cycles_run = cycles;
  r.emitted = tb.total_emitted();
  r.forwarded = tb.router().stats().forwarded;
  r.drained = tb.traffic_done();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);

  print_header("ABL: DATA-port polling interval",
               "ablation of driver_simulate's per-cycle data check");

  const std::vector<u64> intervals =
      quick ? std::vector<u64>{1, 16} : std::vector<u64>{1, 4, 16, 64};
  constexpr u64 kFixedCycles = 20000;

  std::printf("%10s %14s %12s %12s\n", "poll every", "fixed-work time",
              "accuracy", "drained");
  for (u64 k : intervals) {
    const auto timed = run_with_poll_interval(k, 100, kFixedCycles);
    const auto full = run_with_poll_interval(k, 100, std::nullopt);
    std::printf("%10llu %13.4fs %11.1f%% %12s\n", (unsigned long long)k,
                timed.wall_seconds, 100.0 * full.accuracy(),
                full.drained ? "yes" : "NO");
    std::fflush(stdout);
  }
  std::printf("\nshape: coarser polling shaves fixed-work wall time but "
              "must never be allowed to break protocol liveness\n");
  return 0;
}
