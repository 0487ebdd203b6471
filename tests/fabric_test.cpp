// The N-party virtual-tick barrier and the fabric plumbing, fiber-free:
// SyncCoordinator driven over raw inproc channel pairs by plain threads, and
// Fabric instances whose nodes are all *external* (the fabric spawns no
// board, so no fiber ever runs) — this whole suite carries the "tsan"
// label and runs under ThreadSanitizer.
//
// Covers the ISSUE 4 straggler satellite: a node that never answers a
// CLOCK_TICK must trip the watchdog with the offending node named in the
// Status, not hang the fabric.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <variant>
#include <vector>

#include "vhp/common/checksum.hpp"
#include "vhp/cosim/driver_port.hpp"
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
// Per-node quanta of the sync policy

TEST(SyncPolicyNodeQuantumTest, QuantumAppliesPerNodeOverrides) {
  SyncPolicy policy;
  policy.quantum(100).node_quantum(1, 25);
  EXPECT_EQ(policy.node_quantum(0), 100u);  // no override: the default
  EXPECT_EQ(policy.node_quantum(1), 25u);
  EXPECT_EQ(policy.node_quantum(7), 100u);  // beyond the overrides too
  policy.node_quantum(1, 0);                // 0 clears the override
  EXPECT_EQ(policy.node_quantum(1), 100u);
}

TEST(SyncPolicyNodeQuantumTest, ValidateRejectsZeroQuanta) {
  SyncPolicy policy;
  EXPECT_FALSE(policy.validate(0).ok());  // no nodes

  policy.quantum(0);
  EXPECT_FALSE(policy.validate(1).ok());  // default quantum is zero

  // A zero default is fine when every node overrides it.
  policy.node_quantum(0, 10).node_quantum(1, 20);
  EXPECT_TRUE(policy.validate(2).ok());
  // Node 2 falls back to the zero default.
  EXPECT_FALSE(policy.validate(3).ok());
}

// ---------------------------------------------------------------------------
// SyncCoordinator against plain-thread node emulators

/// What one emulated node observed: every ClockTick, plus the shutdown.
struct NodeLog {
  std::vector<net::ClockTick> ticks;
  bool saw_shutdown = false;
};

/// A protocol-conforming node on a plain thread: sends the boot-time frozen
/// TIME_ACK, then answers every CLOCK_TICK (after `ack_delay`) until
/// SHUTDOWN or channel close.
std::thread spawn_node(net::Channel& clock, NodeLog& log,
                       std::chrono::milliseconds ack_delay = 0ms) {
  return std::thread([&clock, &log, ack_delay] {
    ASSERT_TRUE(net::send_msg(clock, net::TimeAck{0}).ok());
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
      if (ack_delay > 0ms) std::this_thread::sleep_for(ack_delay);
      ASSERT_TRUE(net::send_msg(clock, net::TimeAck{board_tick}).ok());
    }
  });
}

TEST(SyncCoordinatorTest, HandshakeGathersOneAckPerNode) {
  constexpr std::size_t kNodes = 3;
  std::vector<net::ChannelPtr> master, board;
  for (std::size_t i = 0; i < kNodes; ++i) {
    auto [a, b] = net::make_inproc_channel_pair();
    master.push_back(std::move(a));
    board.push_back(std::move(b));
  }
  std::vector<net::Channel*> clocks;
  for (auto& ch : master) clocks.push_back(ch.get());

  SyncCoordinator coord{SyncPolicy{}.quantum(10), clocks};
  std::vector<NodeLog> logs(kNodes);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kNodes; ++i) {
    threads.push_back(spawn_node(*board[i], logs[i]));
  }

  EXPECT_TRUE(coord.handshake().ok());
  EXPECT_EQ(coord.acks_received(), kNodes);
  EXPECT_EQ(coord.next_due(), 10u);

  coord.shutdown();
  for (auto& t : threads) t.join();
  for (const auto& log : logs) EXPECT_TRUE(log.saw_shutdown);
}

TEST(SyncCoordinatorTest, BarrierTicksOnlyDueNodesAtTheirCadence) {
  // node0 syncs every 10 cycles, node1 every 25: barriers fall at
  // 10,20,25,30,40,50 and each node is granted exactly the cycles elapsed
  // since its own previous grant.
  auto [m0, b0] = net::make_inproc_channel_pair();
  auto [m1, b1] = net::make_inproc_channel_pair();

  SyncCoordinator coord{SyncPolicy{}.quantum(10).node_quantum(1, 25),
                        {m0.get(), m1.get()},
                        {"fine", "coarse"}};
  NodeLog log0, log1;
  std::thread t0 = spawn_node(*b0, log0);
  std::thread t1 = spawn_node(*b1, log1);

  ASSERT_TRUE(coord.handshake().ok());
  std::vector<u64> barrier_cycles;
  while (coord.next_due() <= 50) {
    const u64 cycle = coord.next_due();
    barrier_cycles.push_back(cycle);
    ASSERT_TRUE(coord.run_barrier(cycle).ok());
  }
  coord.shutdown();
  t0.join();
  t1.join();

  EXPECT_EQ(barrier_cycles, (std::vector<u64>{10, 20, 25, 30, 40, 50}));
  EXPECT_EQ(coord.barriers(), 6u);

  ASSERT_EQ(log0.ticks.size(), 5u);
  for (std::size_t i = 0; i < log0.ticks.size(); ++i) {
    EXPECT_EQ(log0.ticks[i].sim_cycle, 10 * (i + 1));
    EXPECT_EQ(log0.ticks[i].n_ticks, 10u);
  }
  ASSERT_EQ(log1.ticks.size(), 2u);
  EXPECT_EQ(log1.ticks[0].sim_cycle, 25u);
  EXPECT_EQ(log1.ticks[0].n_ticks, 25u);
  EXPECT_EQ(log1.ticks[1].sim_cycle, 50u);
  EXPECT_EQ(log1.ticks[1].n_ticks, 25u);

  // 5 + 2 ticks scattered, plus each ack and the 2 handshake acks gathered.
  EXPECT_EQ(coord.ticks_sent(), 7u);
  EXPECT_EQ(coord.acks_received(), 9u);
}

TEST(SyncCoordinatorTest, StragglerWatchdogNamesTheSilentNode) {
  // ISSUE 4 satellite: "mute" completes the handshake, then never answers a
  // CLOCK_TICK. The barrier must return kDeadlineExceeded naming it — not
  // hang the fabric.
  auto [m0, b0] = net::make_inproc_channel_pair();
  auto [m1, b1] = net::make_inproc_channel_pair();

  SyncCoordinator coord{SyncPolicy{}.quantum(10).watchdog(200ms),
                        {m0.get(), m1.get()},
                        {"good", "mute"}};
  NodeLog log0;
  std::thread good = spawn_node(*b0, log0);
  ASSERT_TRUE(net::send_msg(*b1, net::TimeAck{0}).ok());  // handshake only

  ASSERT_TRUE(coord.handshake().ok());
  const Status status = coord.run_barrier(10);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("mute"), std::string::npos) << status;
  EXPECT_NE(status.message().find("node 1"), std::string::npos) << status;
  // The responsive node is not blamed.
  EXPECT_EQ(status.message().find("good"), std::string::npos) << status;

  coord.shutdown();
  good.join();
  b1->close();
}

TEST(SyncCoordinatorTest, HandshakeWatchdogNamesTheAbsentNode) {
  auto [m0, b0] = net::make_inproc_channel_pair();
  SyncCoordinator coord{SyncPolicy{}.watchdog(150ms), {m0.get()}, {"absent"}};
  const Status status = coord.handshake();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("absent"), std::string::npos) << status;
  b0->close();
}

TEST(SyncCoordinatorTest, ServiceCallbackRunsWhileGathering) {
  auto [m0, b0] = net::make_inproc_channel_pair();
  SyncCoordinator coord{SyncPolicy{}.quantum(10), {m0.get()}};
  NodeLog log;
  // The slow ack forces at least one service iteration while waiting.
  std::thread node = spawn_node(*b0, log, 50ms);

  ASSERT_TRUE(coord.handshake().ok());
  u64 service_calls = 0;
  ASSERT_TRUE(coord.run_barrier(10, [&] {
                     ++service_calls;
                     return Status::Ok();
                   })
                  .ok());
  EXPECT_GT(service_calls, 0u);

  coord.shutdown();
  node.join();
}

// ---------------------------------------------------------------------------
// Fabric with all-external nodes (no boards, no fibers)

/// A protocol-conforming external party for a Fabric node: boot ack, then
/// tick/ack until shutdown, with optional DATA traffic before the clock
/// loop. Runs on a plain std::thread against the taken board link.
struct ExternalParty {
  explicit ExternalParty(net::CosimLink l) : link(std::move(l)) {}

  net::CosimLink link;
  NodeLog log;
  u32 read_value = 0;
  Status read_status = Status::Ok();
  std::thread thread;

  /// `write_value` goes to 0x20 as a DATA_WRITE; then 0x10 is read back.
  void start(u32 write_value) {
    thread = std::thread([this, write_value] {
      ASSERT_TRUE(net::send_msg(*link.clock, net::TimeAck{0}).ok());
      ASSERT_TRUE(net::send_msg(*link.data,
                                net::DataWrite{0x20, cosim::DriverCodec<
                                                         u32>::encode(
                                                         write_value)})
                      .ok());
      ASSERT_TRUE(
          net::send_msg(*link.data, net::DataReadReq{0x10, 4}).ok());
      auto resp = net::recv_msg(*link.data, 2000ms);
      if (!resp.ok()) {
        read_status = resp.status();
      } else {
        ASSERT_TRUE(std::holds_alternative<net::DataReadResp>(resp.value()));
        ASSERT_TRUE(cosim::DriverCodec<u32>::decode(
            std::get<net::DataReadResp>(resp.value()).data, read_value));
      }
      u64 board_tick = 0;
      for (;;) {
        auto msg = net::recv_msg(*link.clock, 2000ms);
        if (!msg.ok()) return;
        if (std::holds_alternative<net::Shutdown>(msg.value())) {
          log.saw_shutdown = true;
          return;
        }
        ASSERT_TRUE(std::holds_alternative<net::ClockTick>(msg.value()));
        const auto tick = std::get<net::ClockTick>(msg.value());
        log.ticks.push_back(tick);
        board_tick += tick.n_ticks;
        ASSERT_TRUE(
            net::send_msg(*link.clock, net::TimeAck{board_tick}).ok());
      }
    });
  }
};

TEST(FabricExternalTest, BarrierDataServiceAndRegistryIsolation) {
  // Two external nodes, identical device addresses (0x10 readable, 0x20
  // writable) registered in BOTH per-node registries with different values:
  // each party must see only its own node's devices.
  auto cfg = FabricConfigBuilder{}
                 .sync(SyncPolicy{}.quantum(50).watchdog(5000ms))
                 .add_external_node("alpha")
                 .add_external_node("beta")
                 .build_or_throw();
  Fabric fab{cfg};

  std::vector<std::unique_ptr<cosim::DriverOut<u32>>> outs;
  std::vector<std::unique_ptr<cosim::DriverIn<u32>>> ins;
  for (std::size_t n = 0; n < 2; ++n) {
    outs.push_back(std::make_unique<cosim::DriverOut<u32>>(
        fab.registry(n), "val", 0x10));
    outs.back()->write(100 + static_cast<u32>(n) * 11);
    ins.push_back(std::make_unique<cosim::DriverIn<u32>>(
        fab.kernel(), fab.registry(n), "cmd", 0x20));
  }

  ExternalParty alpha{fab.take_board_link(0)};
  ExternalParty beta{fab.take_board_link(1)};
  alpha.start(5);
  beta.start(6);

  fab.start_boards();  // no-op (all nodes external) but part of the contract
  ASSERT_TRUE(fab.run_cycles(120).ok());
  EXPECT_EQ(fab.cycle(), 120u);
  fab.finish();
  alpha.thread.join();
  beta.thread.join();

  ASSERT_TRUE(alpha.read_status.ok()) << alpha.read_status;
  ASSERT_TRUE(beta.read_status.ok()) << beta.read_status;
  EXPECT_EQ(alpha.read_value, 100u);  // node 0's device, not node 1's
  EXPECT_EQ(beta.read_value, 111u);
  EXPECT_EQ(ins[0]->read(), 5u);  // same address, different registries
  EXPECT_EQ(ins[1]->read(), 6u);
  EXPECT_TRUE(alpha.log.saw_shutdown);
  EXPECT_TRUE(beta.log.saw_shutdown);

  // Both nodes were granted exactly the simulated span, in 50-cycle quanta.
  ASSERT_EQ(alpha.log.ticks.size(), 2u);  // barriers at 50 and 100
  EXPECT_EQ(alpha.log.ticks.back().sim_cycle, 100u);
  EXPECT_EQ(fab.coordinator().barriers(), 2u);

  const std::string metrics = fab.metrics_json();
  EXPECT_NE(metrics.find("\"fabric.barriers\""), std::string::npos);
  EXPECT_NE(metrics.find("\"fabric.alpha.acks\""), std::string::npos);
  EXPECT_NE(metrics.find("\"fabric.beta.data_writes\""), std::string::npos);
  EXPECT_NE(metrics.find("\"fabric.nodes\""), std::string::npos);
}

TEST(FabricExternalTest, InterruptRoutesOnlyToTheWatchedNode) {
  auto cfg = FabricConfigBuilder{}
                 .sync(SyncPolicy{}.quantum(20).watchdog(5000ms))
                 .add_external_node("idle")
                 .add_external_node("irq_target")
                 .build_or_throw();
  Fabric fab{cfg};
  sim::BoolSignal line{fab.kernel(), "test.irq"};
  fab.watch_interrupt(1, line, 42);

  net::CosimLink idle = fab.take_board_link(0);
  net::CosimLink target = fab.take_board_link(1);
  NodeLog idle_log, target_log;
  std::thread t0 = spawn_node(*idle.clock, idle_log);
  std::thread t1 = spawn_node(*target.clock, target_log);

  ASSERT_TRUE(fab.run_cycles(5).ok());
  line.write(true);  // rising edge picked up by the per-cycle sampler
  ASSERT_TRUE(fab.run_cycles(35).ok());

  auto raised = net::recv_msg(*target.intr, 2000ms);
  ASSERT_TRUE(raised.ok()) << raised.status();
  ASSERT_TRUE(std::holds_alternative<net::IntRaise>(raised.value()));
  EXPECT_EQ(std::get<net::IntRaise>(raised.value()).vector, 42u);

  auto none = net::try_recv_msg(*idle.intr);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().has_value());  // node 0 saw no interrupt

  fab.finish();
  t0.join();
  t1.join();
}

TEST(FabricExternalTest, TakeBoardLinkGuardsMisuse) {
  auto cfg = FabricConfigBuilder{}
                 .add_node("boarded")
                 .add_external_node("ext")
                 .build_or_throw();
  Fabric fab{cfg};
  EXPECT_THROW((void)fab.take_board_link(0), std::logic_error);  // has a board
  net::CosimLink link = fab.take_board_link(1);
  EXPECT_THROW((void)fab.take_board_link(1), std::logic_error);  // taken twice
  link.close_all();
}

TEST(FabricConfigTest, BuilderValidates) {
  EXPECT_FALSE(FabricConfigBuilder{}.build().ok());  // no nodes
  EXPECT_FALSE(
      FabricConfigBuilder{}.t_sync(0).add_node("a").build().ok());
  // A per-node quantum saves a zero default.
  EXPECT_TRUE(FabricConfigBuilder{}
                  .sync(SyncPolicy{}.node_quantum(0, 25))
                  .t_sync(0)
                  .add_node("a")
                  .build()
                  .ok());
  EXPECT_THROW(FabricConfigBuilder{}.build_or_throw(), std::invalid_argument);
}

TEST(FabricConfigTest, RejectsZeroSpanRing) {
  FabricConfig cfg =
      FabricConfigBuilder{}.observability().add_node("a").build_or_throw();
  cfg.obs.timeline.ring_spans = 0;
  const Status s = cfg.validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("obs.timeline.ring_spans"), std::string::npos)
      << s;
  EXPECT_THROW(Fabric{cfg}, std::invalid_argument);
}

TEST(FabricConfigTest, RejectsDuplicateNodeNames) {
  // Two nodes under one name would share their fabric.<name>.* counters,
  // write one board recording over the other and repeat metric keys. The
  // check runs on resolved names: an unnamed node i is "node<i>".
  for (const auto& [first, second] :
       {std::pair<std::string, std::string>{"dup", "dup"},
        std::pair<std::string, std::string>{"node1", ""}}) {
    SCOPED_TRACE(first + "/" + second);
    FabricConfig cfg;
    cfg.nodes.push_back(FabricNodeConfig{first});
    cfg.nodes.push_back(FabricNodeConfig{second});
    const Status s = cfg.validate();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("nodes 0 and 1"), std::string::npos) << s;
    EXPECT_THROW(Fabric{cfg}, std::invalid_argument);
  }
  EXPECT_TRUE(
      FabricConfigBuilder{}.add_node("node1").add_node("node0").build().ok());
}

// ---------------------------------------------------------------------------
// Node-stamped recordings (satellite: per-node replay/diff)

TEST(FabricRecordingTest, RecordingIsNodeStampedAndFiltersPerNode) {
  auto cfg = FabricConfigBuilder{}
                 .sync(SyncPolicy{}.quantum(50).watchdog(5000ms))
                 .record()
                 .add_external_node("alpha")
                 .add_external_node("beta")
                 .build_or_throw();
  Fabric fab{cfg};
  std::vector<std::unique_ptr<cosim::DriverOut<u32>>> outs;
  std::vector<std::unique_ptr<cosim::DriverIn<u32>>> ins;
  for (std::size_t n = 0; n < 2; ++n) {
    outs.push_back(std::make_unique<cosim::DriverOut<u32>>(
        fab.registry(n), "val", 0x10));
    outs.back()->write(100 + static_cast<u32>(n) * 11);
    ins.push_back(std::make_unique<cosim::DriverIn<u32>>(
        fab.kernel(), fab.registry(n), "cmd", 0x20));
  }
  ExternalParty alpha{fab.take_board_link(0)};
  ExternalParty beta{fab.take_board_link(1)};
  alpha.start(5);
  beta.start(6);
  ASSERT_TRUE(fab.run_cycles(100).ok());
  fab.finish();
  alpha.thread.join();
  beta.thread.join();

  const std::string prefix =
      ::testing::TempDir() + "/fabric_rec_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  ASSERT_TRUE(fab.write_recordings(prefix, {{"purpose", "test"}}).ok());

  const std::string hw_path = prefix + ".hw.vhprec";
  auto rec = obs::read_recording(hw_path);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec.value().meta.side, "hw");
  u64 node0 = 0, node1 = 0;
  for (const auto& f : rec.value().frames) {
    (f.node == 0 ? node0 : node1) += 1;
  }
  EXPECT_GT(node0, 0u);
  EXPECT_GT(node1, 0u);  // one global sequence interleaving both links

  // One on-disk format, node id and flags on every frame.
  std::FILE* fp = std::fopen(hw_path.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  char magic[8] = {};
  ASSERT_EQ(std::fread(magic, 1, 8, fp), 8u);
  std::fclose(fp);
  EXPECT_EQ(std::string(magic, 8), "VHPREC04");

  // ReplayOptions::node keeps exactly one node's frames.
  net::ReplayOptions opt;
  opt.node = 1;
  auto replay = net::ReplaySession::open(rec.value(), opt);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay.value()->total(), node1);

  net::ReplayOptions missing;
  missing.node = 7;
  auto none = net::ReplaySession::open(rec.value(), missing);
  EXPECT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);

  // The checker replays the recording against itself per (node,port,dir)
  // queue; a perturbed node-1 frame is blamed on node 1.
  obs::DivergenceChecker self{rec.value(), &net::message_field_diff};
  for (const auto& f : rec.value().frames) EXPECT_TRUE(self.check(f));
  EXPECT_FALSE(self.divergence().has_value());

  obs::Recording mutated = rec.value();
  for (auto& f : mutated.frames) {
    if (f.node == 1 && !f.payload.empty()) {
      f.payload.back() ^= 0xFF;
      f.digest = crc32(f.payload);
      break;
    }
  }
  obs::DivergenceChecker diverged{rec.value(), &net::message_field_diff};
  for (const auto& f : mutated.frames) diverged.check(f);
  ASSERT_TRUE(diverged.divergence().has_value());
  EXPECT_EQ(diverged.divergence()->node, 1u);

  // Per-node board-side recordings exist and are tagged.
  auto board_rec = obs::read_recording(prefix + ".beta.board.vhprec");
  ASSERT_TRUE(board_rec.ok()) << board_rec.status();
  EXPECT_EQ(board_rec.value().meta.side, "board");
  EXPECT_EQ(board_rec.value().meta.tags.at("node_name"), "beta");
}

TEST(FabricRecordingTest, WriteRecordingsRequiresRecordingEnabled) {
  auto cfg = FabricConfigBuilder{}.add_external_node("a").build_or_throw();
  Fabric fab{cfg};
  const Status status = fab.write_recordings(::testing::TempDir() + "/x");
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  fab.take_board_link(0).close_all();
}

}  // namespace
}  // namespace vhp::fabric
