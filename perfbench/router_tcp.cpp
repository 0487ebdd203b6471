// router_tcp: the paper's case study, configured as examples/router_cosim —
// a 4-port router whose checksums the board's ChecksumApp verifies, over TCP
// loopback at T_sync = 1000 and 10 cycles per RTOS tick. One CosimSession,
// two host threads (master + board).
#include "drive.hpp"
#include "vhp/cosim/session.hpp"
#include "vhp/obs/stall_profiler.hpp"
#include "vhp/router/checksum_app.hpp"
#include "vhp/router/testbench.hpp"

namespace perfbench {
namespace {

constexpr u64 kTsync = 1000;
constexpr u64 kCyclesPerTick = 10;
constexpr u64 kGap = 8000;
constexpr u64 kPorts = 4;
constexpr u64 kCycles = 400 * kTsync;  // per repetition
constexpr u64 kCall = 100;             // run_cycles size of a plain slice
// The last packet leaves its generator two gaps before the region ends, so
// every packet has been verified and forwarded when the counts are taken:
// the final counts do not depend on when in wall time a board read was
// answered.
constexpr u64 kPacketsPerPort = kCycles / kGap - 2;

RepResult run_rep(const RepConfig& rc) {
  RepResult r;
  SpanLog board_log{"boards", {}};
  SliceTracker slices{board_log, /*owns_thread=*/true};

  const u64 setup_start = now_ns();
  auto cfg = vhp::cosim::SessionConfigBuilder{}
                 .tcp()
                 .t_sync(kTsync)
                 .cycles_per_tick(kCyclesPerTick)
                 .observability(rc.mode == Mode::kArmed)
                 .record(rc.mode == Mode::kArmed)
                 .postmortem_prefix("")
                 .build_or_throw();
  cfg.obs.timeline.enabled = rc.mode == Mode::kArmed;
  vhp::cosim::CosimSession session{cfg};

  vhp::router::TestbenchConfig tb_cfg;
  tb_cfg.router.n_ports = kPorts;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.router.buffer_depth = 4;
  tb_cfg.packets_per_port = kPacketsPerPort;
  tb_cfg.gap_cycles = kGap;
  tb_cfg.payload_bytes = 32;
  tb_cfg.corrupt_probability = 0.1;
  tb_cfg.seed = rc.seed;
  vhp::router::RouterTestbench tb{session.hw().kernel(), tb_cfg,
                                  &session.hw().registry()};
  session.hw().watch_interrupt(tb.router().irq(),
                               vhp::board::Board::kDeviceVector);
  vhp::router::ChecksumAppConfig app_cfg;
  app_cfg.cost_base = 20;
  app_cfg.cost_per_byte = 1;
  vhp::router::ChecksumApp app{session.board(), app_cfg};
  if (rc.mode == Mode::kTraced) slices.attach(session.board().kernel());

  pin_to_cpu(1);  // the board thread inherits this CPU
  session.start_board();
  pin_to_cpu(0);
  vhp::Status status = session.hw().handshake();
  r.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  if (status.ok()) {
    status = drive_region(
        r, rc.mode, Shape{kCycles, kCall, kGap, kPacketsPerPort * kGap},
        [&session](u64 n) { return session.run_cycles(n); },
        [&session] { return (session.hw().cycle() / kTsync + 1) * kTsync; },
        "cosim.exchange");
  }
  session.finish();
  if (!status.ok()) r.fail("run: " + status.to_string());
  if (rc.mode == Mode::kTraced) book_slices(r, std::move(board_log), "boards");

  const auto hw = session.hw().stats();
  const auto& rs = tb.router().stats();
  const auto& bk = session.board().kernel();
  const auto bs = session.board().stats();
  r.digest = {
      {"cycles", session.hw().cycle()},
      {"syncs", hw.syncs},
      {"acks", hw.acks_received},
      {"data_reads", hw.data_reads},
      {"data_writes", hw.data_writes},
      {"interrupts", hw.interrupts_sent},
      {"emitted", tb.total_emitted()},
      {"accepted", rs.accepted},
      {"forwarded", rs.forwarded},
      {"dropped_checksum", rs.dropped_bad_checksum},
      {"received", tb.total_received()},
      {"board_ticks", bk.tick_count().value()},
      {"board_clock_ticks", bs.clock_ticks_received},
      {"board_acks", bs.acks_sent},
      {"board_interrupts", bs.interrupts_received},
      {"app_processed", app.processed()},
      {"app_rejected", app.rejected()},
  };
  book_session_counts(r, session);
  if (rc.mode == Mode::kArmed) {
    // The library's own instruments, as the ROADMAP's baseline read them:
    // stall-profiler buckets per cycle and the mean sync round trip.
    using Bucket = vhp::obs::StallProfiler::Bucket;
    const auto& profiler = session.obs().profiler();
    const auto& rtt = session.obs().metrics().histogram("cosim.sync_rtt_ns");
    r.totals["obs.armed_hdl_ns"] +=
        static_cast<double>(profiler.total_ns(Bucket::kSimulate));
    r.totals["obs.armed_poll_ns"] +=
        static_cast<double>(profiler.total_ns(Bucket::kDataService));
    r.totals["obs.armed_sync_rtt_ns"] += static_cast<double>(rtt.sum_ns());
    r.totals["obs.armed_syncs"] += static_cast<double>(rtt.count());
  }

  // Seed-independent invariants.
  r.check(tb.traffic_done(), "traffic drained");
  r.check(tb.total_emitted() == kPorts * kPacketsPerPort, "all packets emitted");
  r.check(tb.total_emitted() == rs.forwarded + rs.dropped_bad_checksum,
          "emitted = forwarded + checksum drops");
  r.check(tb.total_received() == rs.forwarded, "received = forwarded");
  r.check(rs.dropped_input_full == 0, "no input-buffer drops");
  r.check(tb.total_integrity_failures() == 0, "no integrity failures");
  r.check(bk.tick_count().value() == r.cycles / kCyclesPerTick,
          "board tick = cycles / cycles per tick");
  r.check(hw.syncs == r.cycles / kTsync, "syncs = cycles / T_sync");

  // A packet fails unless it was forwarded and received, or corrupted and
  // dropped for its checksum; a failed repetition fails all of them.
  r.ops_attempted = tb.total_emitted();
  const u64 good = std::min(tb.total_received(), rs.forwarded) +
                   rs.dropped_bad_checksum;
  r.ops_failed = r.ok ? r.ops_attempted - std::min(good, r.ops_attempted)
                      : r.ops_attempted;
  return r;
}

}  // namespace

Workload router_tcp_workload() {
  return Workload{"router_tcp",
                  {Mode::kPlain, Mode::kTraced, Mode::kArmed},
                  run_rep};
}

}  // namespace perfbench
