// Chaos soak (ISSUE 5 satellite c): the router case study under seeded
// fault plans must converge to the clean run's outcome bit-exactly.
//
// One clean two-party baseline per fault kind, then 10 fixed seeds of
// {drop, reorder, delay, disconnect} plans with the recovery layer on. The
// recovery protocol (vhp/fault/reliable.hpp) guarantees per-quantum
// delivery, so a faulted run is indistinguishable at the application layer:
// identical packet counts, identical final virtual time, and — checked once
// with the flight recorder on — an identical hw-side frame recording
// (injected-fault markers are annotations the divergence checker skips).
//
// Fiber-bound (real boards), so labeled "fault", not "fault-tsan".
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "vhp/cosim/session.hpp"
#include "vhp/fault/plan.hpp"
#include "vhp/net/message.hpp"
#include "vhp/net/replay.hpp"
#include "vhp/obs/recording.hpp"
#include "vhp/router/checksum_app.hpp"
#include "vhp/router/testbench.hpp"

namespace vhp::fault {
namespace {

using namespace std::chrono_literals;

// Scaled-down router workload (cf. fabric_session_test's baseline): small
// enough for 41 runs per suite, big enough that every port forwards,
// corrupts and drops traffic.
constexpr u64 kTsync = 200;
// Fixed virtual length for every run: identical grant sequences make the
// recordings comparable frame for frame; drained is asserted separately.
constexpr u64 kTotalCycles = 30000;

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

struct RunResult {
  u64 emitted = 0;
  u64 forwarded = 0;
  u64 received = 0;
  u64 dropped = 0;
  u64 board_ticks = 0;
  u64 injected = 0;
  bool drained = false;
  obs::Recording hw_recording;
};

/// One full co-simulated router run under `plan`. An unarmed plan with
/// `recover` off is the clean baseline.
RunResult run_router(const FaultPlan& plan, bool recover, bool record) {
  cosim::SessionConfigBuilder builder;
  builder.t_sync(kTsync).cycles_per_tick(10).postmortem_prefix("");
  RecoveryConfig recovery;
  recovery.enabled = recover;
  recovery.rto = 2ms;  // tight timers keep 41 runs per suite fast
  recovery.rto_max = 50ms;
  builder.fault_plan(plan).recovery(recovery);
  if (record) builder.record().record_ring(1u << 14);
  cosim::CosimSession session{builder.build_or_throw()};

  router::ChecksumAppConfig app_cfg;
  app_cfg.cost_base = 20;
  app_cfg.cost_per_byte = 1;
  router::RouterTestbench tb{session.hw().kernel(), testbench_config(),
                             &session.hw().registry()};
  session.hw().watch_interrupt(tb.router().irq(),
                               board::Board::kDeviceVector);
  router::ChecksumApp app{session.board(), app_cfg};

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
  result.board_ticks = session.board().kernel().tick_count().value();
  result.drained = tb.traffic_done();
  if (session.fault_schedule() != nullptr) {
    result.injected = session.fault_schedule()->injected();
  }
  if (record) {
    result.hw_recording.meta.side = "hw";
    result.hw_recording.frames = session.obs().hw_recorder().snapshot();
  }
  return result;
}

FaultPlan make_plan(FaultKind kind, u64 seed) {
  FaultPlan plan;
  plan.seed = seed;
  FaultRule rule;
  rule.kind = kind;
  switch (kind) {
    case FaultKind::kDrop:
      rule.probability = 0.05;
      break;
    case FaultKind::kReorder:
      rule.probability = 0.05;
      break;
    case FaultKind::kDelay:
      rule.probability = 0.2;
      rule.delay = std::chrono::microseconds{200};
      break;
    case FaultKind::kDisconnect:
      rule.probability = 0.01;
      rule.burst = 5;
      rule.max_events = 2;
      break;
    default:
      ADD_FAILURE() << "unhandled kind in make_plan";
  }
  plan.add(rule);
  return plan;
}

/// 10 fixed seeds of one fault kind vs the clean baseline: exact packet
/// counts and exact final virtual time.
void soak(FaultKind kind) {
  const RunResult base = run_router(FaultPlan{}, /*recover=*/false,
                                    /*record=*/false);
  ASSERT_TRUE(base.drained) << "clean baseline did not drain";
  ASSERT_GT(base.emitted, 0u);
  ASSERT_GT(base.board_ticks, 0u);

  for (u64 seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("kind=" + std::string(to_string(kind)) +
                 " seed=" + std::to_string(seed));
    const RunResult faulted =
        run_router(make_plan(kind, seed), /*recover=*/true, /*record=*/false);
    EXPECT_TRUE(faulted.drained);
    EXPECT_EQ(faulted.emitted, base.emitted);
    EXPECT_EQ(faulted.forwarded, base.forwarded);
    EXPECT_EQ(faulted.received, base.received);
    EXPECT_EQ(faulted.dropped, base.dropped);
    EXPECT_EQ(faulted.board_ticks, base.board_ticks);
  }
}

TEST(ChaosSoakTest, DropPlansConvergeToCleanBaseline) {
  soak(FaultKind::kDrop);
}

TEST(ChaosSoakTest, ReorderPlansConvergeToCleanBaseline) {
  soak(FaultKind::kReorder);
}

TEST(ChaosSoakTest, DelayPlansConvergeToCleanBaseline) {
  soak(FaultKind::kDelay);
}

TEST(ChaosSoakTest, DisconnectReconnectPlansConvergeToCleanBaseline) {
  soak(FaultKind::kDisconnect);
}

TEST(ChaosSoakTest, FaultedRecordingMatchesTheCleanRecording) {
  // The strongest form of the convergence claim: the hw-side flight
  // recording of a faulted run diffs clean against the baseline's, because
  // the recorder sits above the recovery layer and only ever sees repaired
  // traffic. Fault markers are present (proving faults fired) but skipped.
  const RunResult base = run_router(FaultPlan{}, /*recover=*/false,
                                    /*record=*/true);
  const RunResult faulted = run_router(make_plan(FaultKind::kDrop, 7),
                                       /*recover=*/true, /*record=*/true);
  ASSERT_TRUE(base.drained);
  ASSERT_TRUE(faulted.drained);
  EXPECT_GT(faulted.injected, 0u);

  std::size_t markers = 0;
  for (const obs::FrameRecord& frame : faulted.hw_recording.frames) {
    markers += (frame.flags & obs::kFrameFlagInjected) != 0 ? 1 : 0;
  }
  EXPECT_EQ(markers, faulted.injected);

  const auto divergence = obs::diff_recordings(
      base.hw_recording, faulted.hw_recording, &net::message_field_diff);
  EXPECT_FALSE(divergence.has_value())
      << "faulted run diverged: " << divergence->to_string();
}

// ---------------------------------------------------------------------------
// The DATA fence under delay (DESIGN.md §14)

struct FencedRun {
  bool drained = false;
  u64 injected = 0;
  obs::Recording hw;
  obs::Recording board;
};

/// One recorded router run over TCP, optionally with every board-to-master
/// DATA frame held 3 ms on its way in.
FencedRun run_with_data_delay(bool delay) {
  FaultPlan plan;
  if (delay) {
    FaultRule rule;
    rule.kind = FaultKind::kDelay;
    rule.port = obs::LinkPort::kData;
    rule.dir = obs::LinkDir::kRx;  // hw-side view: up from the board
    rule.delay = 3ms;
    plan.add(rule);
  }
  cosim::CosimSession session{cosim::SessionConfigBuilder{}
                                  .tcp()
                                  .t_sync(kTsync)
                                  .cycles_per_tick(10)
                                  .postmortem_prefix("")
                                  .fault_plan(plan)
                                  .record()
                                  .record_ring(1u << 14)
                                  .build_or_throw()};
  router::ChecksumAppConfig app_cfg;
  app_cfg.cost_base = 20;
  app_cfg.cost_per_byte = 1;
  router::RouterTestbench tb{session.hw().kernel(), testbench_config(),
                             &session.hw().registry()};
  session.hw().watch_interrupt(tb.router().irq(),
                               board::Board::kDeviceVector);
  router::ChecksumApp app{session.board(), app_cfg};
  session.start_board();
  for (u64 cycles = 0; cycles < kTotalCycles; cycles += 500) {
    EXPECT_TRUE(session.run_cycles(500).ok());
  }
  session.finish();
  FencedRun run;
  run.drained = tb.traffic_done();
  if (session.fault_schedule() != nullptr) {
    run.injected = session.fault_schedule()->injected();
  }
  run.hw.meta.side = "hw";
  run.hw.frames = session.obs().hw_recorder().snapshot();
  run.board.meta.side = "board";
  run.board.frames = session.obs().board_recorder().snapshot();
  return run;
}

/// The frames of `recording` on `port` in direction `dir`, fault markers
/// excluded.
std::vector<obs::FrameRecord> frames_on(const obs::Recording& recording,
                                        obs::LinkPort port,
                                        obs::LinkDir dir) {
  std::vector<obs::FrameRecord> out;
  for (const obs::FrameRecord& f : recording.frames) {
    if (f.port == port && f.dir == dir && f.flags == 0) out.push_back(f);
  }
  return out;
}

obs::Recording without_clock(obs::Recording recording) {
  std::erase_if(recording.frames, [](const obs::FrameRecord& f) {
    return f.port == obs::LinkPort::kClock;
  });
  return recording;
}

/// Master cycles at which the master took each of the board's DATA frames.
std::vector<u64> data_cycles(const FencedRun& run) {
  std::vector<u64> cycles;
  for (const obs::FrameRecord& f :
       frames_on(run.hw, obs::LinkPort::kData, obs::LinkDir::kRx)) {
    cycles.push_back(f.hw_cycle);
  }
  return cycles;
}

TEST(DataFenceTest, DelayedDataTakesEffectAtItsBarrier) {
  const FencedRun base = run_with_data_delay(false);
  ASSERT_TRUE(base.drained);
  const std::vector<u64> base_cycles = data_cycles(base);
  ASSERT_FALSE(base_cycles.empty());
  const obs::Recording base_data = without_clock(base.hw);

  for (int i = 0; i < 20; ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    const FencedRun run = run_with_data_delay(true);
    ASSERT_TRUE(run.drained);
    EXPECT_GT(run.injected, 0u);
    // Each frame is served in the barrier that ends the quantum which sent
    // it: the master takes it at a sync cycle, at most one quantum after
    // the board time it was sent at (1 SW tick = 10 cycles).
    const auto sent =
        frames_on(run.board, obs::LinkPort::kData, obs::LinkDir::kTx);
    const auto served =
        frames_on(run.hw, obs::LinkPort::kData, obs::LinkDir::kRx);
    ASSERT_EQ(sent.size(), served.size());
    for (std::size_t f = 0; f < sent.size(); ++f) {
      const u64 at = served[f].hw_cycle;
      const u64 sent_at = sent[f].board_tick * 10;
      EXPECT_EQ(at % kTsync, 0u) << "frame " << f;
      EXPECT_LE(sent_at, at) << "frame " << f;
      EXPECT_LE(at - sent_at, kTsync) << "frame " << f;
    }
    // The router's verdicts land at the same master cycles every run, and
    // the traffic is the undelayed run's frame for frame.
    EXPECT_EQ(data_cycles(run), base_cycles);
    const auto divergence = obs::diff_recordings(
        base_data, without_clock(run.hw), &net::message_field_diff);
    EXPECT_FALSE(divergence.has_value()) << divergence->to_string();
  }
}

// ---------------------------------------------------------------------------
// The protocol's last frame under loss

struct ShutdownRun {
  double finish_ms = 0;
  u64 injected = 0;
  std::vector<obs::FrameRecord> hw;
  std::vector<obs::FrameRecord> board;
};

/// A recovering session whose plan drops exactly one frame of the hw side's
/// CLOCK lane in direction `dir`: lane index 1 + 2 * syncs. Each lane
/// carries one frame for the boot ack and two per barrier (a tick or
/// TIME_ACK, and the other side's ack of it), so that index is the SHUTDOWN
/// (kTx) or the board's ack of it (kRx). `rto` is long enough that no
/// frame is retransmitted before the SHUTDOWN.
ShutdownRun run_dropping_at_shutdown(obs::LinkDir dir,
                                     std::chrono::milliseconds rto) {
  constexpr u64 kQuantum = 100;
  constexpr u64 kCycles = 1000;
  FaultRule rule;
  rule.kind = FaultKind::kDrop;
  rule.port = obs::LinkPort::kClock;
  rule.dir = dir;
  rule.first_frame = rule.last_frame = 1 + 2 * (kCycles / kQuantum);
  FaultPlan plan;
  plan.add(rule);
  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.rto = rto;
  recovery.rto_max = rto;
  cosim::CosimSession session{cosim::SessionConfigBuilder{}
                                  .t_sync(kQuantum)
                                  .cycles_per_tick(10)
                                  .postmortem_prefix("")
                                  .fault_plan(plan)
                                  .recovery(recovery)
                                  .record()
                                  .build_or_throw()};
  session.start_board();
  EXPECT_TRUE(session.run_cycles(kCycles).ok());
  EXPECT_EQ(session.hw().stats().syncs, kCycles / kQuantum);
  const auto start = std::chrono::steady_clock::now();
  session.finish();
  ShutdownRun run;
  run.finish_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  run.injected = session.fault_schedule()->injected();
  run.hw = session.obs().hw_recorder().snapshot();
  run.board = session.obs().board_recorder().snapshot();
  return run;
}

bool is_shutdown(const obs::FrameRecord& f, obs::LinkDir dir) {
  return f.flags == 0 && f.port == obs::LinkPort::kClock && f.dir == dir &&
         f.msg_type == static_cast<u8>(net::MsgType::kShutdown);
}

/// The hw recording ends with the SHUTDOWN, right after the marker of the
/// one drop: the frame was lost while the SHUTDOWN was being sent.
void expect_drop_during_shutdown(const ShutdownRun& run, obs::LinkDir dir) {
  EXPECT_EQ(run.injected, 1u);
  ASSERT_GE(run.hw.size(), 2u);
  const obs::FrameRecord& marker = run.hw[run.hw.size() - 2];
  EXPECT_NE(marker.flags & obs::kFrameFlagInjected, 0u);
  EXPECT_EQ(marker.port, obs::LinkPort::kClock);
  EXPECT_EQ(marker.dir, dir);
  EXPECT_TRUE(is_shutdown(run.hw.back(), obs::LinkDir::kTx));
  ASSERT_FALSE(run.board.empty());
  EXPECT_TRUE(is_shutdown(run.board.back(), obs::LinkDir::kRx));
}

TEST(ChaosShutdownTest, LostShutdownAckEndsTheSessionPromptly) {
  // The board acks SHUTDOWN once and leaves its run loop, so nothing
  // repeats a lost ack. The master's SHUTDOWN send must still end well
  // before RecoveryConfig::flush_timeout (10 s) and succeed, so the
  // recording keeps the SHUTDOWN: the board's hang-up confirms delivery.
  const ShutdownRun run =
      run_dropping_at_shutdown(obs::LinkDir::kRx, std::chrono::seconds{1});
  expect_drop_during_shutdown(run, obs::LinkDir::kRx);
  EXPECT_LT(run.finish_ms, 500.0);
}

TEST(ChaosShutdownTest, LostShutdownIsRetransmittedToTheBoard) {
  // The retransmission comes one rto after the send.
  const ShutdownRun run =
      run_dropping_at_shutdown(obs::LinkDir::kTx, std::chrono::seconds{1});
  expect_drop_during_shutdown(run, obs::LinkDir::kTx);
  EXPECT_LT(run.finish_ms, 5000.0);
}

}  // namespace
}  // namespace vhp::fault
