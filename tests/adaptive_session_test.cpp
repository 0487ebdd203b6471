// Adaptive synchronization end-to-end (ISSUE 6 acceptance): the router case
// study must produce the SAME application-level outcome under adaptive
// lookahead grants as under the paper's fixed T_sync — exact packet counts,
// and bit-exact DATA/INT flight recordings. Only the CLOCK traffic may
// differ (that is the point: fewer, larger grants), so recordings are
// compared with CLOCK frames stripped.
//
// Fiber-bound (real RTOS boards), so labeled "adaptive", not "-tsan".
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "vhp/cosim/session.hpp"
#include "vhp/cosim/sync_policy.hpp"
#include "vhp/fabric/fabric.hpp"
#include "vhp/fault/plan.hpp"
#include "vhp/net/replay.hpp"
#include "vhp/obs/recording.hpp"
#include "vhp/router/checksum_app.hpp"
#include "vhp/router/testbench.hpp"

namespace vhp::cosim {
namespace {

using namespace std::chrono_literals;

constexpr u64 kTsync = 200;
constexpr u64 kTotalCycles = 30000;

// The adaptive counterpart of kTsync: same cadence when busy, stretched up
// to 10x when the board sleeps. max_quantum stays well under
// gap_cycles * buffer_depth so the router's 4-deep input buffers cannot
// overflow while a board sleeps through a long grant.
SyncPolicy adaptive_policy() {
  return SyncPolicy{}.quantum(kTsync).adaptive().min_quantum(50).max_quantum(
      2000);
}

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

/// The application-visible outcome of one run plus its hw recording.
struct RunResult {
  u64 emitted = 0;
  u64 forwarded = 0;
  u64 received = 0;
  u64 dropped = 0;
  u64 syncs = 0;
  bool drained = false;
  std::optional<u64> board_lookahead;
  obs::Recording hw_recording;
};

/// Strips the CLOCK port: adaptive and fixed runs legitimately differ there
/// (grant sizes and ack contents), everything else must be bit-exact.
obs::Recording data_and_int_only(obs::Recording rec) {
  std::erase_if(rec.frames, [](const obs::FrameRecord& f) {
    return f.port == obs::LinkPort::kClock;
  });
  return rec;
}

u64 count_clock_tx(const obs::Recording& rec) {
  u64 n = 0;
  for (const obs::FrameRecord& f : rec.frames) {
    n += f.port == obs::LinkPort::kClock && f.dir == obs::LinkDir::kTx ? 1 : 0;
  }
  return n;
}

/// One two-party router run. `policy` unset = the fixed T_sync set through
/// the builder's t_sync().
RunResult run_session(std::optional<SyncPolicy> policy,
                      const fault::FaultPlan& plan = {},
                      bool recover = false) {
  SessionConfigBuilder builder;
  builder.t_sync(kTsync).cycles_per_tick(10).postmortem_prefix("");
  if (policy.has_value()) builder.sync(*policy);
  fault::RecoveryConfig recovery;
  recovery.enabled = recover;
  recovery.rto = 2ms;
  recovery.rto_max = 50ms;
  builder.fault_plan(plan).recovery(recovery);
  builder.record().record_ring(1u << 14);
  CosimSession session{builder.build_or_throw()};

  router::RouterTestbench tb{session.hw().kernel(), testbench_config(),
                             &session.hw().registry()};
  session.hw().watch_interrupt(tb.router().irq(),
                               board::Board::kDeviceVector);
  router::ChecksumApp app{session.board(), app_config()};

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
  result.board_lookahead = session.hw().board_lookahead();
  result.hw_recording.meta.side = "hw";
  result.hw_recording.frames = session.obs().hw_recorder().snapshot();
  return result;
}

TEST(AdaptiveSessionTest, RouterMatchesFixedBaselineBitExactly) {
  const RunResult fixed = run_session(std::nullopt);
  const RunResult adaptive = run_session(adaptive_policy());
  ASSERT_TRUE(fixed.drained) << "fixed run did not drain";
  ASSERT_TRUE(adaptive.drained) << "adaptive run did not drain";
  ASSERT_GT(fixed.emitted, 0u);

  // Exact packet-count parity.
  EXPECT_EQ(adaptive.emitted, fixed.emitted);
  EXPECT_EQ(adaptive.forwarded, fixed.forwarded);
  EXPECT_EQ(adaptive.received, fixed.received);
  EXPECT_EQ(adaptive.dropped, fixed.dropped);

  // The adaptive run really adapted: the board advertised lookaheads and
  // the master needed fewer (larger) grants for the same virtual length.
  EXPECT_TRUE(adaptive.board_lookahead.has_value());
  EXPECT_LT(adaptive.syncs, fixed.syncs);
  EXPECT_LT(count_clock_tx(adaptive.hw_recording),
            count_clock_tx(fixed.hw_recording));

  // Bit-exact DATA + INT streams; only CLOCK may differ.
  const auto divergence = obs::diff_recordings(
      data_and_int_only(fixed.hw_recording),
      data_and_int_only(adaptive.hw_recording), &net::message_field_diff);
  EXPECT_FALSE(divergence.has_value())
      << "adaptive run diverged: " << divergence->to_string();
}

TEST(AdaptiveSessionTest, ChaosSoakConvergesUnderAdaptiveGrants) {
  // Satellite: the recovery layer must repair v2 CLOCK traffic too. Seeded
  // drop plans against the adaptive clean run, bit-exact below CLOCK.
  const RunResult clean = run_session(adaptive_policy());
  ASSERT_TRUE(clean.drained);
  for (u64 seed : {3u, 7u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fault::FaultPlan plan;
    plan.seed = seed;
    fault::FaultRule rule;
    rule.kind = fault::FaultKind::kDrop;
    rule.probability = 0.05;
    plan.add(rule);
    const RunResult faulted =
        run_session(adaptive_policy(), plan, /*recover=*/true);
    EXPECT_TRUE(faulted.drained);
    EXPECT_EQ(faulted.emitted, clean.emitted);
    EXPECT_EQ(faulted.forwarded, clean.forwarded);
    EXPECT_EQ(faulted.received, clean.received);
    EXPECT_EQ(faulted.dropped, clean.dropped);
    const auto divergence = obs::diff_recordings(
        data_and_int_only(clean.hw_recording),
        data_and_int_only(faulted.hw_recording), &net::message_field_diff);
    EXPECT_FALSE(divergence.has_value())
        << "faulted adaptive run diverged: " << divergence->to_string();
  }
}

// ---------------------------------------------------------------------------
// The sharded router across a fabric: one verifier board per port.

struct FabricResult {
  u64 emitted = 0;
  u64 forwarded = 0;
  u64 received = 0;
  u64 dropped = 0;
  u64 barriers = 0;
  u64 ticks_sent = 0;
  u64 lookahead_acks = 0;
  bool drained = false;
};

FabricResult run_fabric(std::optional<SyncPolicy> policy) {
  constexpr std::size_t kPorts = 2;
  constexpr u64 kMaxCycles = 200000;
  router::TestbenchConfig tb_cfg = testbench_config();
  tb_cfg.packets_per_port = 3;
  tb_cfg.gap_cycles = 2000;
  tb_cfg.payload_bytes = 16;

  fabric::FabricConfigBuilder builder;
  builder.sync(policy.has_value()
                   ? *policy
                   : cosim::SyncPolicy{}.quantum(500).watchdog(15000ms));
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
  result.lookahead_acks = fab.coordinator().lookahead_acks();
  result.drained = tb.traffic_done();
  return result;
}

TEST(AdaptiveFabricTest, ShardedRouterMatchesFixedFabric) {
  const FabricResult fixed = run_fabric(std::nullopt);
  const FabricResult adaptive = run_fabric(
      SyncPolicy{}.quantum(500).adaptive().min_quantum(100).max_quantum(4000));
  ASSERT_TRUE(fixed.drained) << "fixed fabric did not drain";
  ASSERT_TRUE(adaptive.drained) << "adaptive fabric did not drain";
  ASSERT_GT(fixed.emitted, 0u);

  EXPECT_EQ(adaptive.emitted, fixed.emitted);
  EXPECT_EQ(adaptive.forwarded, fixed.forwarded);
  EXPECT_EQ(adaptive.received, fixed.received);
  EXPECT_EQ(adaptive.dropped, fixed.dropped);

  // The boards advertised (the fabric flips advertise_lookahead on for
  // adaptive policies) and the barrier got cheaper per simulated cycle.
  EXPECT_GT(adaptive.lookahead_acks, 0u);
  EXPECT_EQ(fixed.lookahead_acks, 0u);  // v1 acks under the legacy path
  EXPECT_LT(adaptive.ticks_sent, fixed.ticks_sent);
}

}  // namespace
}  // namespace vhp::cosim
