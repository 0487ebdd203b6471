// fabric8: the sharded router of bench/fabric_scale at N = 8 — an 8-port
// router, one board per port running ChecksumApp plus a housekeeping timer
// whose period depends on the node, adaptive sync (quantum 1000, min 250,
// max 8000) over inproc links. All eight boards are pumped by the fabric's
// one event-loop thread: two host threads (master + loop), a CPU each.
#include "drive.hpp"
#include "vhp/common/format.hpp"
#include "vhp/fabric/fabric.hpp"
#include "vhp/router/checksum_app.hpp"
#include "vhp/router/testbench.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kNodes = 8;
constexpr u64 kCyclesPerTick = 10;
constexpr u64 kGap = 16000;  // per port: inside the plateau at N = 8
constexpr u64 kCycles = 256000;
constexpr u64 kCall = 200;
constexpr u64 kPacketsPerPort = kCycles / kGap - 2;

RepResult run_rep(const RepConfig& rc) {
  RepResult r;
  SpanLog loop_log{"boards", {}};
  SliceTracker slices{loop_log, /*owns_thread=*/false};

  const u64 setup_start = now_ns();
  vhp::fabric::FabricConfigBuilder builder;
  builder.inproc().event_loop().sync(
      vhp::cosim::SyncPolicy{}
          .quantum(1000)
          .adaptive()
          .min_quantum(250)
          .max_quantum(8000)
          .watchdog(std::chrono::milliseconds{30000}));
  for (std::size_t p = 0; p < kNodes; ++p) {
    builder.add_node(vhp::strformat("node{}", p));
    builder.last_board().rtos.cycles_per_tick = kCyclesPerTick;
  }
  vhp::fabric::Fabric fab{builder.build_or_throw()};

  vhp::router::TestbenchConfig tb_cfg;
  tb_cfg.router.n_ports = kNodes;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.router.buffer_depth = 4;
  tb_cfg.packets_per_port = kPacketsPerPort;
  tb_cfg.gap_cycles = kGap;
  tb_cfg.payload_bytes = 16;
  tb_cfg.seed = rc.seed;
  std::vector<vhp::cosim::DriverRegistry*> registries;
  for (std::size_t p = 0; p < kNodes; ++p) registries.push_back(&fab.registry(p));
  vhp::router::RouterTestbench tb{fab.kernel(), tb_cfg, registries};
  vhp::router::ChecksumAppConfig app_cfg;
  app_cfg.cost_base = 20;
  app_cfg.cost_per_byte = 1;
  std::vector<std::unique_ptr<vhp::router::ChecksumApp>> apps;
  for (std::size_t p = 0; p < kNodes; ++p) {
    fab.watch_interrupt(p, tb.router().irq(p),
                        vhp::board::Board::kDeviceVector);
    vhp::board::Board& board = fab.board(p);
    apps.push_back(std::make_unique<vhp::router::ChecksumApp>(board, app_cfg));
    // Housekeeping desynchronises the boards: node p wakes every
    // 150 + 37p SW ticks, so each node's lookahead differs.
    const u64 period = 150 + 37 * static_cast<u64>(p);
    board.spawn_app("housekeeping", 4, [&board, period] {
      for (;;) {
        board.kernel().delay(vhp::SwTicks{period});
        board.kernel().consume(10);
      }
    });
    if (rc.mode == Mode::kTraced) slices.attach(board.kernel());
  }

  pin_to_cpu(1);  // the loop thread inherits this CPU
  fab.start_boards();
  pin_to_cpu(0);
  vhp::Status status = fab.handshake();
  r.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  if (status.ok()) {
    status = drive_region(
        r, rc.mode, Shape{kCycles, kCall, kGap, kPacketsPerPort * kGap},
        [&fab](u64 n) { return fab.run_cycles(n); },
        [&fab] { return fab.coordinator().next_due(); }, "fabric.barrier");
  }
  fab.finish();
  if (!status.ok()) r.fail("run: " + status.to_string());
  if (rc.mode == Mode::kTraced) book_slices(r, std::move(loop_log), "boards");

  auto& coord = fab.coordinator();
  auto& metrics = fab.obs().metrics();
  const auto& rs = tb.router().stats();
  r.digest = {
      {"cycles", fab.cycle()},
      {"barriers", coord.barriers()},
      {"ticks_sent", coord.ticks_sent()},
      {"acks", coord.acks_received()},
      {"lookahead_acks", coord.lookahead_acks()},
      {"emitted", tb.total_emitted()},
      {"accepted", rs.accepted},
      {"forwarded", rs.forwarded},
      {"received", tb.total_received()},
  };
  double grant_cycles = 0, grants = 0;
  u64 dispatches = 0, ticks = 0, freezes = 0;
  bool all_ticked = true;
  for (std::size_t p = 0; p < kNodes; ++p) {
    vhp::board::Board& board = fab.board(p);
    const auto bs = board.stats();
    const auto& ks = board.kernel().stats();
    const std::string node = vhp::strformat("node{}.", p);
    r.digest[node + "board_ticks"] = board.kernel().tick_count().value();
    r.digest[node + "clock_ticks"] = bs.clock_ticks_received;
    r.digest[node + "dev_reads"] = bs.dev_reads;
    r.digest[node + "dev_writes"] = bs.dev_writes;
    r.digest[node + "interrupts"] = bs.interrupts_received;
    r.digest[node + "checksums"] = apps[p]->processed();
    all_ticked = all_ticked && bs.clock_ticks_received > 0 &&
                 board.kernel().tick_count().value() > 0;
    const auto& g = metrics.histogram("fabric." + fab.config().nodes[p].name +
                                      ".grant_cycles");
    grant_cycles += static_cast<double>(g.sum_ns());
    grants += static_cast<double>(g.count());
    dispatches += ks.context_switches;
    ticks += ks.ticks;
    freezes += ks.freezes;
  }
  r.totals["fabric.barriers"] += static_cast<double>(coord.barriers());
  r.totals["fabric.ticks"] += static_cast<double>(coord.ticks_sent());
  r.totals["fabric.grant_cycles"] += grant_cycles;
  r.totals["fabric.grants"] += grants;
  r.totals["fabric.barrier_wait_us"] +=
      static_cast<double>(metrics.histogram("fabric.barrier_wait_ns").sum_ns()) /
      1e3;
  r.totals["sim.delta_cycles"] += static_cast<double>(fab.kernel().delta_count());
  r.totals["rtos.dispatches"] += static_cast<double>(dispatches);
  r.totals["rtos.ticks"] += static_cast<double>(ticks);
  r.totals["rtos.freezes"] += static_cast<double>(freezes);

  r.check(tb.traffic_done(), "traffic drained");
  r.check(tb.total_emitted() == kNodes * kPacketsPerPort, "all packets emitted");
  r.check(tb.total_emitted() == rs.forwarded + rs.dropped_bad_checksum,
          "emitted = forwarded + checksum drops");
  r.check(rs.dropped_bad_checksum == 0, "no corrupted packets");
  r.check(tb.total_received() == rs.forwarded, "received = forwarded");
  r.check(rs.dropped_input_full == 0, "no input-buffer drops");
  r.check(tb.total_integrity_failures() == 0, "no integrity failures");
  r.check(all_ticked, "every node ticked");
  r.check(coord.acks_received() == coord.ticks_sent() + kNodes,
          "one ack per tick plus the boot acks");

  r.ops_attempted = tb.total_emitted();
  r.ops_failed = r.ok ? r.ops_attempted - std::min(tb.total_received(),
                                                   r.ops_attempted)
                      : r.ops_attempted;
  return r;
}

}  // namespace

Workload fabric8_workload() {
  return Workload{"fabric8", {Mode::kPlain, Mode::kTraced}, run_rep};
}

}  // namespace perfbench
