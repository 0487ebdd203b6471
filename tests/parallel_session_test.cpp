// End-to-end parity for the deterministic parallel kernel (tentpole
// acceptance): the router co-simulation session and the sharded-router
// fabric must produce BIT-EXACT flight recordings — every CLOCK, DATA and
// INT frame — whether the master kernel evaluates serially or on a worker
// pool. Unlike the adaptive tests nothing is stripped: the sync cadence is
// identical, so the whole wire stream must match.
//
// The same scenarios also run with and without a no-op listener on the
// master clock's edges: an unlistened master clock is lazy (it schedules no
// events, and timed quanta jump over quiet cycles), a listened one is
// evaluated edge by edge, and both must put the same frames on the wire at
// the same cycles.
//
// Fiber-bound (real RTOS boards), so labeled "kernel-par", not "-tsan".
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "vhp/cosim/session.hpp"
#include "vhp/fabric/fabric.hpp"
#include "vhp/net/replay.hpp"
#include "vhp/obs/recording.hpp"
#include "vhp/router/checksum_app.hpp"
#include "vhp/router/testbench.hpp"

namespace vhp::cosim {
namespace {

using namespace std::chrono_literals;

constexpr u64 kTsync = 200;
constexpr u64 kTotalCycles = 24000;

router::TestbenchConfig testbench_config() {
  router::TestbenchConfig tb_cfg;
  tb_cfg.router.n_ports = 2;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.router.buffer_depth = 4;
  tb_cfg.packets_per_port = 2;
  tb_cfg.gap_cycles = 800;
  tb_cfg.payload_bytes = 8;
  tb_cfg.corrupt_probability = 0.25;
  return tb_cfg;
}

router::ChecksumAppConfig app_config() {
  router::ChecksumAppConfig app_cfg;
  app_cfg.cost_base = 20;
  app_cfg.cost_per_byte = 1;
  return app_cfg;
}

/// A no-op method sensitive to both edges of `clock`: it keeps the clock
/// listened, so every edge is evaluated.
struct ClockListener : sim::Module {
  explicit ClockListener(sim::Clock& clock)
      : Module(clock.kernel(), "clock_listener") {
    method("edges", [] {})
        .sensitive(clock.posedge_event())
        .sensitive(clock.negedge_event())
        .dont_initialize();
  }
};

/// Every counter the router and its testbench keep: the packet fates.
std::vector<u64> packet_fates(router::RouterTestbench& tb) {
  const router::RouterModule::Stats& s = tb.router().stats();
  return {tb.total_emitted(),     tb.total_received(),
          tb.total_integrity_failures(),
          s.accepted,             s.dropped_input_full,
          s.processed,            s.forwarded,
          s.dropped_bad_checksum, s.dropped_no_route,
          s.dropped_verdict_timeout, s.checksum_requests};
}

std::vector<u64> stats_of(const CosimKernel::Stats& s) {
  return {s.syncs, s.data_writes, s.data_reads, s.interrupts_sent,
          s.acks_received};
}

/// Every frame's digest and time stamps, per (node, port, direction) in
/// recording order: what diff_recordings compares plus the hw_cycle and
/// board_tick stamps.
using StampedFrames =
    std::map<std::tuple<u32, u8, u8>, std::vector<std::tuple<u32, u64, u64>>>;

StampedFrames stamped_frames(const obs::Recording& recording) {
  StampedFrames out;
  for (const obs::FrameRecord& f : recording.frames) {
    out[{f.node, static_cast<u8>(f.port), static_cast<u8>(f.dir)}]
        .emplace_back(f.digest, f.hw_cycle, f.board_tick);
  }
  return out;
}

void expect_same_recording(const obs::Recording& a, const obs::Recording& b) {
  ASSERT_FALSE(a.frames.empty());
  const auto divergence =
      obs::diff_recordings(a, b, &net::message_field_diff);
  EXPECT_FALSE(divergence.has_value()) << divergence->to_string();
  EXPECT_TRUE(stamped_frames(a) == stamped_frames(b))
      << "a frame's hw_cycle or board_tick stamp differs";
}

struct RunOptions {
  u64 workers = 0;          // evaluation lanes (0 = serial)
  bool observed = false;    // the observability switch
  bool eager_clock = false; // a ClockListener on the master clock
};

struct RunResult {
  u64 emitted = 0;
  u64 forwarded = 0;
  u64 received = 0;
  u64 dropped = 0;
  u64 syncs = 0;
  bool drained = false;
  u64 sim_islands = 0;
  std::vector<u64> fates;
  std::vector<u64> stats;
  obs::Recording hw_recording;
  obs::Recording board_recording;
};

/// One two-party router run.
RunResult run_session(const RunOptions& options) {
  SessionConfigBuilder builder;
  builder.t_sync(kTsync)
      .cycles_per_tick(10)
      .parallel(options.workers)
      .observability(options.observed)
      .postmortem_prefix("");
  builder.record().record_ring(1u << 14);
  CosimSession session{builder.build_or_throw()};

  router::RouterTestbench tb{session.hw().kernel(), testbench_config(),
                             &session.hw().registry()};
  session.hw().watch_interrupt(tb.router().irq(),
                               board::Board::kDeviceVector);
  router::ChecksumApp app{session.board(), app_config()};
  std::optional<ClockListener> listener;
  if (options.eager_clock) listener.emplace(session.hw().clock());

  session.start_board();
  for (u64 cycles = 0; cycles < kTotalCycles; cycles += 500) {
    EXPECT_TRUE(session.run_cycles(500).ok());
  }
  session.finish();

  RunResult result;
  result.emitted = tb.total_emitted();
  result.forwarded = tb.router().stats().forwarded;
  result.received = tb.total_received();
  result.dropped = tb.router().stats().dropped_bad_checksum;
  result.syncs = session.hw().stats().syncs;
  result.drained = tb.traffic_done();
  result.sim_islands = session.hw().kernel().island_count();
  result.fates = packet_fates(tb);
  result.stats = stats_of(session.hw().stats());
  result.hw_recording.meta.side = "hw";
  result.hw_recording.frames = session.obs().hw_recorder().snapshot();
  result.board_recording.meta.side = "board";
  result.board_recording.frames = session.obs().board_recorder().snapshot();
  return result;
}

TEST(ParallelSessionTest, RouterSessionMatchesSerialBitExactly) {
  const RunResult serial = run_session({});
  ASSERT_TRUE(serial.drained) << "serial run did not drain";
  ASSERT_GT(serial.emitted, 0u);

  for (u64 workers : {2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const RunResult parallel = run_session({.workers = workers});
    ASSERT_TRUE(parallel.drained) << "parallel run did not drain";

    EXPECT_EQ(parallel.emitted, serial.emitted);
    EXPECT_EQ(parallel.forwarded, serial.forwarded);
    EXPECT_EQ(parallel.received, serial.received);
    EXPECT_EQ(parallel.dropped, serial.dropped);
    EXPECT_EQ(parallel.syncs, serial.syncs);
    // The model really was partitioned (clock island + co-located router
    // testbench island at minimum).
    EXPECT_GT(parallel.sim_islands, 1u);

    // The whole wire stream — CLOCK, DATA and INT — must be bit-exact.
    const auto divergence =
        obs::diff_recordings(serial.hw_recording, parallel.hw_recording,
                             &net::message_field_diff);
    EXPECT_FALSE(divergence.has_value())
        << "parallel run diverged: " << divergence->to_string();
  }
}

// ---------------------------------------------------------------------------
// The sharded router across a 4-board fabric.

struct FabricResult {
  u64 emitted = 0;
  u64 forwarded = 0;
  u64 received = 0;
  u64 dropped = 0;
  u64 barriers = 0;
  u64 ticks_sent = 0;
  bool drained = false;
  std::vector<u64> fates;
  std::vector<u64> stats;
  obs::Recording recording;
  std::vector<obs::Recording> board_recordings;
};

FabricResult run_fabric(const RunOptions& options) {
  constexpr std::size_t kPorts = 4;
  constexpr u64 kMaxCycles = 200000;
  router::TestbenchConfig tb_cfg = testbench_config();
  tb_cfg.router.n_ports = kPorts;
  tb_cfg.packets_per_port = 2;
  tb_cfg.gap_cycles = 2000;
  tb_cfg.payload_bytes = 16;

  fabric::FabricConfigBuilder builder;
  builder.sync(cosim::SyncPolicy{}.quantum(500).watchdog(15000ms))
      .parallel(options.workers)
      .observability(options.observed)
      .record();
  for (std::size_t p = 0; p < kPorts; ++p) {
    builder.add_node("port" + std::to_string(p));
    builder.last_board().rtos.cycles_per_tick = 10;
  }
  fabric::Fabric fab{builder.build_or_throw()};
  std::vector<DriverRegistry*> registries;
  for (std::size_t p = 0; p < kPorts; ++p) {
    registries.push_back(&fab.registry(p));
  }
  router::RouterTestbench tb{fab.kernel(), tb_cfg, registries};
  for (std::size_t p = 0; p < kPorts; ++p) {
    fab.watch_interrupt(p, tb.router().irq(p), board::Board::kDeviceVector);
  }
  std::vector<std::unique_ptr<router::ChecksumApp>> apps;
  for (std::size_t p = 0; p < kPorts; ++p) {
    apps.push_back(
        std::make_unique<router::ChecksumApp>(fab.board(p), app_config()));
  }
  std::optional<ClockListener> listener;
  if (options.eager_clock) listener.emplace(fab.clock());
  fab.start_boards();
  u64 cycles = 0;
  while (cycles < kMaxCycles && !tb.traffic_done()) {
    EXPECT_TRUE(fab.run_cycles(500).ok());
    cycles += 500;
  }
  fab.finish();

  FabricResult result;
  result.emitted = tb.total_emitted();
  result.forwarded = tb.router().stats().forwarded;
  result.received = tb.total_received();
  result.dropped = tb.router().stats().dropped_bad_checksum;
  result.barriers = fab.coordinator().barriers();
  result.ticks_sent = fab.coordinator().ticks_sent();
  result.drained = tb.traffic_done();
  result.fates = packet_fates(tb);
  result.stats = stats_of(fab.master().stats());
  result.recording.meta.side = "hw";
  result.recording.frames = fab.obs().hw_recorder().snapshot();
  for (std::size_t p = 0; p < kPorts; ++p) {
    obs::Recording& board = result.board_recordings.emplace_back();
    board.meta.side = "board";
    board.frames = fab.node_obs(p).board_recorder().snapshot();
  }
  return result;
}

TEST(ParallelFabricTest, ShardedRouterMatchesSerialFabric) {
  const FabricResult serial = run_fabric({});
  ASSERT_TRUE(serial.drained) << "serial fabric did not drain";
  ASSERT_GT(serial.emitted, 0u);

  const FabricResult parallel = run_fabric({.workers = 2});
  ASSERT_TRUE(parallel.drained) << "parallel fabric did not drain";

  EXPECT_EQ(parallel.emitted, serial.emitted);
  EXPECT_EQ(parallel.forwarded, serial.forwarded);
  EXPECT_EQ(parallel.received, serial.received);
  EXPECT_EQ(parallel.dropped, serial.dropped);
  EXPECT_EQ(parallel.barriers, serial.barriers);
  EXPECT_EQ(parallel.ticks_sent, serial.ticks_sent);

  const auto divergence = obs::diff_recordings(
      serial.recording, parallel.recording, &net::message_field_diff);
  EXPECT_FALSE(divergence.has_value())
      << "parallel fabric diverged: " << divergence->to_string();
}

TEST(LazyClockSessionTest, RouterSessionMatchesAnEagerClock) {
  // Observed, so CLOCK_TICK and TIME_ACK carry round stamps too.
  const RunResult lazy = run_session({.observed = true});
  ASSERT_TRUE(lazy.drained) << "lazy-clock run did not drain";
  ASSERT_GT(lazy.emitted, 0u);
  const RunResult eager = run_session({.observed = true, .eager_clock = true});
  ASSERT_TRUE(eager.drained) << "eager-clock run did not drain";

  EXPECT_EQ(eager.fates, lazy.fates);
  EXPECT_EQ(eager.stats, lazy.stats);
  expect_same_recording(lazy.hw_recording, eager.hw_recording);
  expect_same_recording(lazy.board_recording, eager.board_recording);
}

TEST(LazyClockFabricTest, ShardedRouterMatchesAnEagerClock) {
  const FabricResult lazy = run_fabric({});
  ASSERT_TRUE(lazy.drained) << "lazy-clock fabric did not drain";
  const FabricResult eager = run_fabric({.eager_clock = true});
  ASSERT_TRUE(eager.drained) << "eager-clock fabric did not drain";

  EXPECT_EQ(eager.fates, lazy.fates);
  EXPECT_EQ(eager.stats, lazy.stats);
  EXPECT_EQ(eager.barriers, lazy.barriers);
  expect_same_recording(lazy.recording, eager.recording);
  ASSERT_EQ(eager.board_recordings.size(), lazy.board_recordings.size());
  for (std::size_t p = 0; p < lazy.board_recordings.size(); ++p) {
    SCOPED_TRACE("board " + std::to_string(p));
    expect_same_recording(lazy.board_recordings[p], eager.board_recordings[p]);
  }
}

TEST(ParallelSessionTest, ConfigValidationBoundsWorkerCount) {
  EXPECT_FALSE(SessionConfigBuilder{}.parallel(257).build().ok());
  EXPECT_TRUE(SessionConfigBuilder{}.parallel(256).build().ok());
  fabric::FabricConfigBuilder fb;
  fb.add_node("n0");
  EXPECT_TRUE(fb.parallel(8).build().ok());
  EXPECT_FALSE(fb.parallel(300).build().ok());
}

}  // namespace
}  // namespace vhp::cosim
