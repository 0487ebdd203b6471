// Adaptive lookahead synchronization, fiber-free: SyncPolicy grant
// arithmetic, how the config builders compose t_sync() with a policy, and
// a SyncCoordinator in
// adaptive mode driven over raw inproc channel pairs by plain threads that
// answer with scripted lookaheads. No ucontext fiber runs here, so the
// suite carries the composite "adaptive-tsan" label (selected by both
// -L tsan and -L adaptive — same trick as fabric-tsan).
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "vhp/cosim/session.hpp"
#include "vhp/cosim/sync_coordinator.hpp"
#include "vhp/cosim/sync_policy.hpp"
#include "vhp/fabric/fabric.hpp"
#include "vhp/net/inproc.hpp"
#include "vhp/net/replay.hpp"
#include "vhp/obs/recording.hpp"

namespace vhp::fabric {
namespace {

using namespace std::chrono_literals;
using cosim::SyncCoordinator;
using cosim::SyncPolicy;

// ---------------------------------------------------------------------------
// SyncPolicy grant arithmetic

TEST(SyncPolicyTest, FixedModeGrantsTheNodeQuantum) {
  SyncPolicy p;
  p.quantum(100).node_quantum(1, 25);
  EXPECT_EQ(p.grant(0, 0, std::nullopt), 100u);
  EXPECT_EQ(p.grant(1, 0, std::nullopt), 25u);
  // Lookaheads are ignored outside adaptive mode.
  EXPECT_EQ(p.grant(0, 0, 5000), 100u);
}

TEST(SyncPolicyTest, AdaptiveWithoutLookaheadKeepsFixedCadence) {
  SyncPolicy p;
  p.quantum(100).adaptive();
  // A v1 ack (no lookahead) must not change the node's cadence.
  EXPECT_EQ(p.grant(0, 400, std::nullopt), 100u);
}

TEST(SyncPolicyTest, AdaptiveGrantClampsToMinAndMax) {
  SyncPolicy p;
  p.quantum(100).adaptive().min_quantum(10).max_quantum(500);
  // Inside the clamp: grant exactly lookahead - cycle.
  EXPECT_EQ(p.grant(0, 1000, 1000 + 250), 250u);
  // Below min: a busy board (lookahead "now" or behind) syncs at min.
  EXPECT_EQ(p.grant(0, 1000, 1000), 10u);
  EXPECT_EQ(p.grant(0, 1000, 400), 10u);
  EXPECT_EQ(p.grant(0, 1000, 1005), 10u);
  // Above max: a sleeping board is capped by the accuracy bound.
  EXPECT_EQ(p.grant(0, 1000, 1000 + 100000), 500u);
  EXPECT_EQ(p.grant(0, 1000, SyncPolicy::kUnboundedLookahead), 500u);
}

TEST(SyncPolicyTest, ClampDefaultsResolvePerNode) {
  SyncPolicy p;
  p.quantum(100).node_quantum(1, 40).adaptive();
  // min defaults to the node's fixed quantum, max to 64x it.
  EXPECT_EQ(p.clamp_for(0), (std::pair<u64, u64>{100, 6400}));
  EXPECT_EQ(p.clamp_for(1), (std::pair<u64, u64>{40, 2560}));
  // The default cap never overflows CLOCK_TICK's u32 n_ticks field.
  SyncPolicy big;
  big.quantum(u64{1} << 28).adaptive();
  ASSERT_TRUE(big.validate(1).ok());
  EXPECT_EQ(big.clamp_for(0).second, u64{0xffffffffu});
  // An explicit max below min is lifted to min, never inverted.
  SyncPolicy inv;
  inv.quantum(100).adaptive().min_quantum(200).max_quantum(50);
  EXPECT_EQ(inv.clamp_for(0), (std::pair<u64, u64>{200, 200}));
}

TEST(SyncPolicyTest, ValidateRejectsBadKnobs) {
  EXPECT_TRUE(SyncPolicy{}.validate(4).ok());
  EXPECT_TRUE(
      SyncPolicy{}.quantum(100).adaptive().min_quantum(10).max_quantum(4000)
          .validate(4)
          .ok());

  EXPECT_FALSE(SyncPolicy{}.quantum(0).validate(1).ok());
  // A zero default is fine only when every node overrides it.
  SyncPolicy overridden;
  overridden.quantum(0).node_quantum(0, 10).node_quantum(1, 20);
  EXPECT_TRUE(overridden.validate(2).ok());
  EXPECT_FALSE(overridden.validate(3).ok());

  // Grants must fit CLOCK_TICK's u32 n_ticks field.
  EXPECT_FALSE(SyncPolicy{}.quantum(u64{1} << 33).validate(1).ok());
  EXPECT_FALSE(SyncPolicy{}
                   .quantum(100)
                   .adaptive()
                   .max_quantum(u64{1} << 33)
                   .validate(1)
                   .ok());
  // Eviction needs a watchdog to trip.
  EXPECT_FALSE(SyncPolicy{}.watchdog(0ms).evict_after(2).validate(1).ok());
}

// ---------------------------------------------------------------------------
// The builders: t_sync(n) is the paper's name for sync.quantum(n).

TEST(SyncPolicyBuilderTest, FabricTsyncComposesWithThePolicy) {
  FabricConfigBuilder builder;
  builder.sync(SyncPolicy{}.watchdog(2000ms).node_quantum(1, 75)).t_sync(300);
  builder.add_node("a");
  builder.add_node("b");
  const SyncPolicy p = builder.build_or_throw().cosim.sync;
  EXPECT_EQ(p.quantum(), 300u);
  EXPECT_EQ(p.node_quantum(0), 300u);
  EXPECT_EQ(p.node_quantum(1), 75u);
  EXPECT_EQ(p.watchdog(), 2000ms);
  EXPECT_FALSE(p.is_adaptive());
}

TEST(SyncPolicyBuilderTest, SessionTsyncKeepsTheAdaptiveKnobs) {
  const cosim::SessionConfig cfg =
      cosim::SessionConfigBuilder{}
          .sync(SyncPolicy{}.quantum(50).adaptive().max_quantum(640))
          .t_sync(777)
          .build_or_throw();
  EXPECT_EQ(cfg.cosim.sync.quantum(), 777u);
  EXPECT_TRUE(cfg.cosim.sync.is_adaptive());
  EXPECT_EQ(cfg.cosim.sync.max_quantum(), 640u);
}

// ---------------------------------------------------------------------------
// SyncCoordinator in adaptive mode, against scripted plain-thread nodes

/// What one emulated node observed.
struct NodeLog {
  std::vector<net::ClockTick> ticks;
  bool saw_shutdown = false;
};

/// A protocol-conforming adaptive node on a plain thread: the handshake ack
/// advertises `script[0]`; the ack for the i-th CLOCK_TICK advertises
/// `script[i + 1]`. Entries are absolute master cycles; nullopt sends a v1
/// ack; a exhausted script keeps sending the last entry.
std::thread spawn_scripted_node(
    net::Channel& clock, NodeLog& log,
    std::vector<std::optional<u64>> script) {
  return std::thread([&clock, &log, script = std::move(script)] {
    std::size_t next = 0;
    auto ack = [&](u64 board_tick) {
      net::TimeAck a{board_tick};
      if (!script.empty()) {
        a.lookahead = next < script.size() ? script[next] : script.back();
        ++next;
      }
      ASSERT_TRUE(net::send_msg(clock, a).ok());
    };
    ack(0);  // boot-time frozen handshake
    u64 board_tick = 0;
    for (;;) {
      auto msg = net::recv_msg(clock, 2000ms);
      if (!msg.ok()) return;
      if (std::holds_alternative<net::Shutdown>(msg.value())) {
        log.saw_shutdown = true;
        return;
      }
      ASSERT_TRUE(std::holds_alternative<net::ClockTick>(msg.value()));
      const auto tick = std::get<net::ClockTick>(msg.value());
      log.ticks.push_back(tick);
      board_tick += tick.n_ticks;
      ack(board_tick);
    }
  });
}

TEST(AdaptiveCoordinatorTest, GrantsFollowTheScriptedLookahead) {
  auto [m0, b0] = net::make_inproc_channel_pair();
  NodeLog log;
  // Handshake: "nothing before cycle 400" -> first due at 400.
  // After the 400 barrier: "nothing before 450" -> grant 50.
  // Then idle-until-data -> the max_quantum cap, 500 -> due 950.
  // Then a stale lookahead (behind the master) -> min_quantum, 10.
  std::thread node = spawn_scripted_node(
      *b0, log,
      {400, 450, SyncPolicy::kUnboundedLookahead, 100, std::nullopt});

  SyncCoordinator coord{
      SyncPolicy{}.quantum(100).adaptive().min_quantum(10).max_quantum(500),
      {m0.get()}};
  ASSERT_TRUE(coord.handshake().ok());
  EXPECT_EQ(coord.node_due(0), 400u);
  EXPECT_EQ(coord.node_lookahead(0), std::optional<u64>{400});

  ASSERT_TRUE(coord.run_barrier(400).ok());
  EXPECT_EQ(coord.node_due(0), 450u);

  ASSERT_TRUE(coord.run_barrier(450).ok());
  EXPECT_EQ(coord.node_due(0), 950u);  // unbounded, capped at max_quantum

  ASSERT_TRUE(coord.run_barrier(950).ok());
  EXPECT_EQ(coord.node_due(0), 960u);  // lookahead 100 is stale -> min

  ASSERT_TRUE(coord.run_barrier(960).ok());
  EXPECT_EQ(coord.node_due(0), 1060u);  // v1 ack -> fixed quantum again
  EXPECT_EQ(coord.node_lookahead(0), std::nullopt);

  coord.shutdown();
  node.join();

  // Each CLOCK_TICK granted the cycles elapsed since the previous grant.
  ASSERT_EQ(log.ticks.size(), 4u);
  EXPECT_EQ(log.ticks[0].sim_cycle, 400u);
  EXPECT_EQ(log.ticks[0].n_ticks, 400u);
  EXPECT_EQ(log.ticks[1].n_ticks, 50u);
  EXPECT_EQ(log.ticks[2].n_ticks, 500u);
  EXPECT_EQ(log.ticks[3].n_ticks, 10u);
  EXPECT_TRUE(log.saw_shutdown);

  EXPECT_EQ(coord.lookahead_acks(), 4u);      // scripted v2 acks
  EXPECT_EQ(coord.lookahead_unbounded(), 1u);
}

TEST(AdaptiveCoordinatorTest, MixedAdaptiveAndFixedNodesShareOneBarrier) {
  auto [m0, b0] = net::make_inproc_channel_pair();
  auto [m1, b1] = net::make_inproc_channel_pair();
  NodeLog sleepy_log, legacy_log;
  // Node 0 always reports idle-until-data; node 1 is a v1 board.
  std::thread sleepy = spawn_scripted_node(
      *b0, sleepy_log, {SyncPolicy::kUnboundedLookahead});
  std::thread legacy = spawn_scripted_node(*b1, legacy_log, {});

  SyncCoordinator coord{SyncPolicy{}.quantum(100).adaptive().max_quantum(300),
                        {m0.get(), m1.get()},
                        {"sleepy", "legacy"}};
  ASSERT_TRUE(coord.handshake().ok());
  EXPECT_EQ(coord.node_due(0), 300u);  // stretched to max_quantum
  EXPECT_EQ(coord.node_due(1), 100u);  // v1 ack keeps the fixed cadence

  for (const u64 cycle : {100u, 200u, 300u, 400u}) {
    ASSERT_TRUE(coord.run_barrier(cycle).ok());
  }
  coord.shutdown();
  sleepy.join();
  legacy.join();

  // In 400 cycles: the legacy node saw every 100-cycle barrier; the sleepy
  // one only its stretched 300-cycle grant (its next due, 600, lies beyond
  // the run). Neither ever observed time past its own grant.
  ASSERT_EQ(legacy_log.ticks.size(), 4u);
  for (const auto& tick : legacy_log.ticks) EXPECT_EQ(tick.n_ticks, 100u);
  ASSERT_EQ(sleepy_log.ticks.size(), 1u);
  EXPECT_EQ(sleepy_log.ticks[0].sim_cycle, 300u);
  EXPECT_EQ(sleepy_log.ticks[0].n_ticks, 300u);
  EXPECT_EQ(coord.node_due(0), 600u);
}

TEST(AdaptiveCoordinatorTest, EvictionDropsTheLookaheadAndRejoinRebases) {
  auto [m0, b0] = net::make_inproc_channel_pair();
  auto [m1, b1] = net::make_inproc_channel_pair();
  NodeLog good_log;
  std::thread good = spawn_scripted_node(
      *b0, good_log, {SyncPolicy::kUnboundedLookahead});
  // Node 1 handshakes with a large lookahead, then goes silent.
  ASSERT_TRUE(net::send_msg(*b1, net::TimeAck{0, 5000}).ok());

  SyncCoordinator coord{SyncPolicy{}
                            .quantum(100)
                            .adaptive()
                            .max_quantum(400)
                            .watchdog(200ms)
                            .evict_after(1),
                        {m0.get(), m1.get()},
                        {"good", "mute"}};
  ASSERT_TRUE(coord.handshake().ok());
  EXPECT_EQ(coord.node_due(0), 400u);
  EXPECT_EQ(coord.node_due(1), 400u);  // 5000 clamped to max_quantum
  EXPECT_EQ(coord.node_lookahead(1), std::optional<u64>{5000});

  // The mute node misses the 400 barrier once and is evicted; its stale
  // lookahead must not survive into any later grant decision.
  ASSERT_TRUE(coord.run_barrier(400).ok());
  EXPECT_FALSE(coord.alive(1));
  EXPECT_EQ(coord.node_lookahead(1), std::nullopt);
  EXPECT_EQ(coord.evictions(), 1u);

  // Rejoin at cycle 400: the returning node's fresh frozen ack advertises
  // "nothing before 550" -> next due 550, not 400 + fixed quantum.
  ASSERT_TRUE(net::send_msg(*b1, net::TimeAck{0, 550}).ok());
  ASSERT_TRUE(coord.rejoin(1, 400).ok());
  EXPECT_TRUE(coord.alive(1));
  EXPECT_EQ(coord.node_due(1), 550u);
  EXPECT_EQ(coord.node_lookahead(1), std::optional<u64>{550});

  coord.shutdown();
  good.join();
  // Drain the rejoined node's channel so its peer closes cleanly.
  (void)net::recv_msg(*b1, 100ms);
}

// ---------------------------------------------------------------------------
// vhptrace's grant summary

obs::FrameRecord clock_frame(u64 seq, obs::LinkDir dir, u32 node,
                             const net::Message& msg) {
  obs::FrameRecord f;
  f.seq = seq;
  f.port = obs::LinkPort::kClock;
  f.dir = dir;
  f.node = node;
  f.payload = net::encode(msg);
  f.payload_size = static_cast<u32>(f.payload.size());
  return f;
}

TEST(GrantStatsTest, SummarizesClockTrafficPerNode) {
  obs::Recording rec;
  rec.meta.side = "hw";
  u64 seq = 0;
  // Node 0: grants of 100 and 300 cycles; one v1 ack, one unbounded v2 ack.
  rec.frames.push_back(clock_frame(seq++, obs::LinkDir::kTx, 0,
                                   net::Message{net::ClockTick{100, 100}}));
  rec.frames.push_back(clock_frame(seq++, obs::LinkDir::kRx, 0,
                                   net::Message{net::TimeAck{10}}));
  rec.frames.push_back(clock_frame(seq++, obs::LinkDir::kTx, 0,
                                   net::Message{net::ClockTick{400, 300}}));
  rec.frames.push_back(clock_frame(
      seq++, obs::LinkDir::kRx, 0,
      net::Message{net::TimeAck{40, net::kLookaheadUnbounded}}));
  // Node 1: a single fixed grant with a bounded v2 ack.
  rec.frames.push_back(clock_frame(seq++, obs::LinkDir::kTx, 1,
                                   net::Message{net::ClockTick{50, 50}}));
  rec.frames.push_back(clock_frame(seq++, obs::LinkDir::kRx, 1,
                                   net::Message{net::TimeAck{5, 120}}));

  const std::string text = net::grant_stats_text(rec);
  EXPECT_NE(text.find("node 0: 2 grants, cycles min/mean/max 100/200/300"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("2 acks, 1 with lookahead (1 unbounded)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("node 1: 1 grants, cycles min/mean/max 50/50/50"),
            std::string::npos)
      << text;

  // No CLOCK frames -> no summary block at all.
  EXPECT_TRUE(net::grant_stats_text(obs::Recording{}).empty());
}

}  // namespace
}  // namespace vhp::fabric
