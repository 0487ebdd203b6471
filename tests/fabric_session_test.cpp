// End-to-end fabric sessions: N real virtual boards (RTOS fibers on their
// own host threads) against one master kernel over the N-party barrier.
// Fiber-bound, so no "tsan" label — the fiber-free barrier logic is covered
// by fabric_test.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "vhp/cosim/session.hpp"
#include "vhp/fabric/fabric.hpp"
#include "vhp/net/replay.hpp"
#include "vhp/obs/recording.hpp"
#include "vhp/router/checksum_app.hpp"
#include "vhp/router/testbench.hpp"
#include "vhp/rtos/sync.hpp"
#include "vhp/sim/module.hpp"

namespace vhp::fabric {
namespace {

using namespace std::chrono_literals;

/// The session_test echo device, parameterized for a fabric node: writes to
/// address 0 publish value+increment at address 4 and pulse the interrupt.
/// Every node registers the SAME addresses in its own registry.
struct EchoDevice : sim::Module {
  cosim::DriverIn<u32> in;
  cosim::DriverOut<u32> out;
  sim::BoolSignal& irq_line;
  u64 requests = 0;

  EchoDevice(sim::Kernel& kernel, cosim::DriverRegistry& registry,
             const std::string& name, u32 increment, sim::SimTime period)
      : Module(kernel, name),
        in(kernel, registry, name + ".in", 0x0),
        out(registry, name + ".out", 0x4),
        irq_line(make_bool_signal("irq")) {
    method("process",
           [this, increment] {
             ++requests;
             out.write(in.read() + increment);
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
  }
};

class FabricSessionTest
    : public ::testing::TestWithParam<cosim::TransportKind> {};

TEST_P(FabricSessionTest, BoardsUseIsolatedRegistriesAtSameAddresses) {
  constexpr std::size_t kNodes = 3;
  constexpr int kRounds = 4;

  FabricConfigBuilder builder;
  builder.transport(GetParam()).sync(
      cosim::SyncPolicy{}.quantum(20).watchdog(10000ms));
  for (std::size_t n = 0; n < kNodes; ++n) {
    builder.add_node("n" + std::to_string(n));
    builder.last_board().rtos.cycles_per_tick = 10;
  }
  Fabric fab{builder.build_or_throw()};

  // Node n's device echoes +1+10n — the SAME addresses (0x0/0x4) behave
  // differently per node because DATA traffic consults only registry n.
  std::vector<std::unique_ptr<EchoDevice>> devices;
  for (std::size_t n = 0; n < kNodes; ++n) {
    devices.push_back(std::make_unique<EchoDevice>(
        fab.kernel(), fab.registry(n), "echo" + std::to_string(n),
        1 + 10 * static_cast<u32>(n), fab.config().cosim.clock_period));
    fab.watch_interrupt(n, devices[n]->irq_line,
                        board::Board::kDeviceVector);
  }

  std::vector<std::unique_ptr<rtos::Semaphore>> ready;
  std::vector<std::vector<u32>> replies(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) {
    auto& board = fab.board(n);
    ready.push_back(std::make_unique<rtos::Semaphore>(board.kernel(), 0));
    rtos::Semaphore* sem = ready.back().get();
    board.attach_device_dsr([sem](u32) { sem->post(); });
    board.spawn_app("echo_app", 8, [&board, sem, &out = replies[n]] {
      for (u32 i = 0; i < kRounds; ++i) {
        const u32 request = 100 + i * 7;
        ASSERT_TRUE(
            board.dev_write(0x0, cosim::DriverCodec<u32>::encode(request))
                .ok());
        sem->wait();
        auto resp = board.dev_read(0x4, 4);
        ASSERT_TRUE(resp.ok()) << resp.status();
        u32 value = 0;
        ASSERT_TRUE(cosim::DriverCodec<u32>::decode(resp.value(), value));
        out.push_back(value);
        board.kernel().consume(50);
      }
    });
  }

  fab.start_boards();
  auto done = [&] {
    for (const auto& r : replies) {
      if (r.size() < static_cast<std::size_t>(kRounds)) return false;
    }
    return true;
  };
  for (int chunk = 0; chunk < 600 && !done(); ++chunk) {
    ASSERT_TRUE(fab.run_cycles(50).ok());
  }
  fab.finish();

  for (std::size_t n = 0; n < kNodes; ++n) {
    ASSERT_EQ(replies[n].size(), static_cast<std::size_t>(kRounds))
        << "node " << n;
    for (u32 i = 0; i < kRounds; ++i) {
      EXPECT_EQ(replies[n][i], 100 + i * 7 + 1 + 10 * n) << "node " << n;
    }
    EXPECT_EQ(devices[n]->requests, static_cast<u64>(kRounds));
    EXPECT_EQ(fab.board(n).stats().interrupts_received,
              static_cast<u64>(kRounds));
  }
  EXPECT_GT(fab.coordinator().barriers(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Transports, FabricSessionTest,
                         ::testing::Values(cosim::TransportKind::kInProc,
                                           cosim::TransportKind::kTcp),
                         [](const auto& p) {
                           return p.param == cosim::TransportKind::kInProc
                                      ? std::string("InProc")
                                      : std::string("Tcp");
                         });

/// The ISSUE acceptance criterion in miniature: the router with one
/// verifier board per port delivers exactly the packet counts of the
/// classic single-board session.
TEST(FabricRouterTest, MatchesSingleSessionBaseline) {
  constexpr std::size_t kPorts = 2;
  constexpr u64 kTsync = 500;
  constexpr u64 kMaxCycles = 200000;

  router::TestbenchConfig tb_cfg;
  tb_cfg.router.n_ports = kPorts;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.router.buffer_depth = 4;
  tb_cfg.packets_per_port = 3;
  tb_cfg.gap_cycles = 2000;
  tb_cfg.payload_bytes = 16;
  tb_cfg.corrupt_probability = 0.25;
  router::ChecksumAppConfig app_cfg;
  app_cfg.cost_base = 20;
  app_cfg.cost_per_byte = 1;

  struct Counts {
    u64 emitted, forwarded, received, dropped;
  };

  // Fabric: port p verified on board p.
  Counts fabric_counts{};
  {
    FabricConfigBuilder builder;
    builder.sync(cosim::SyncPolicy{}.quantum(kTsync).watchdog(15000ms));
    for (std::size_t p = 0; p < kPorts; ++p) {
      builder.add_node("port" + std::to_string(p));
      builder.last_board().rtos.cycles_per_tick = 10;
    }
    Fabric fab{builder.build_or_throw()};
    std::vector<cosim::DriverRegistry*> registries;
    for (std::size_t p = 0; p < kPorts; ++p) {
      registries.push_back(&fab.registry(p));
    }
    router::RouterTestbench tb{fab.kernel(), tb_cfg, registries};
    for (std::size_t p = 0; p < kPorts; ++p) {
      fab.watch_interrupt(p, tb.router().irq(p),
                          board::Board::kDeviceVector);
    }
    std::vector<std::unique_ptr<router::ChecksumApp>> apps;
    for (std::size_t p = 0; p < kPorts; ++p) {
      apps.push_back(
          std::make_unique<router::ChecksumApp>(fab.board(p), app_cfg));
    }
    fab.start_boards();
    u64 cycles = 0;
    while (cycles < kMaxCycles && !tb.traffic_done()) {
      ASSERT_TRUE(fab.run_cycles(500).ok());
      cycles += 500;
    }
    fab.finish();
    ASSERT_TRUE(tb.traffic_done()) << "fabric run did not drain";
    fabric_counts = {tb.total_emitted(), tb.router().stats().forwarded,
                     tb.total_received(),
                     tb.router().stats().dropped_bad_checksum};
  }

  // Baseline: the classic two-party session, one board for all ports.
  Counts base{};
  {
    auto sb =
        cosim::SessionConfigBuilder{}.t_sync(kTsync).cycles_per_tick(10);
    cosim::CosimSession session{sb.build_or_throw()};
    router::RouterTestbench tb{session.hw().kernel(), tb_cfg,
                               &session.hw().registry()};
    session.hw().watch_interrupt(tb.router().irq(),
                                 board::Board::kDeviceVector);
    router::ChecksumApp app{session.board(), app_cfg};
    session.start_board();
    u64 cycles = 0;
    while (cycles < kMaxCycles && !tb.traffic_done()) {
      ASSERT_TRUE(session.run_cycles(500).ok());
      cycles += 500;
    }
    session.finish();
    ASSERT_TRUE(tb.traffic_done()) << "baseline run did not drain";
    base = {tb.total_emitted(), tb.router().stats().forwarded,
            tb.total_received(), tb.router().stats().dropped_bad_checksum};
  }

  EXPECT_EQ(fabric_counts.emitted, base.emitted);
  EXPECT_EQ(fabric_counts.forwarded, base.forwarded);
  EXPECT_EQ(fabric_counts.received, base.received);
  EXPECT_EQ(fabric_counts.dropped, base.dropped);
  EXPECT_GT(base.emitted, 0u);
}

/// The paper's case study: a 4-port router whose packets one board
/// verifies.
router::TestbenchConfig case_study_testbench() {
  router::TestbenchConfig tb_cfg;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.packets_per_port = 3;
  tb_cfg.gap_cycles = 1500;
  tb_cfg.payload_bytes = 16;
  tb_cfg.corrupt_probability = 0.25;
  return tb_cfg;
}

TEST(FabricRecordingSessionTest, OneNodeFabricRecordsLikeASession) {
  // A session is a 1-node fabric: the same policy, transport and board
  // config give the same frames on both sides of the link, CLOCK included
  // — plain, and observed on both sides, where the one switch also stamps
  // wire-v3 rounds on CLOCK_TICK and TIME_ACK.
  const auto policy = cosim::SyncPolicy{}.quantum(500).watchdog(15000ms);
  constexpr u64 kCycles = 40000;
  constexpr std::size_t kRing = 1u << 16;

  for (const bool observed : {false, true}) {
    SCOPED_TRACE(observed ? "observed" : "plain");
    obs::Recording session_hw, session_board;
    {
      cosim::CosimSession session{cosim::SessionConfigBuilder{}
                                      .sync(policy)
                                      .cycles_per_tick(10)
                                      .observability(observed)
                                      .record()
                                      .record_ring(kRing)
                                      .build_or_throw()};
      router::RouterTestbench tb{session.hw().kernel(),
                                 case_study_testbench(),
                                 &session.hw().registry()};
      session.hw().watch_interrupt(tb.router().irq(),
                                   board::Board::kDeviceVector);
      router::ChecksumApp app{session.board(), router::ChecksumAppConfig{}};
      session.start_board();
      ASSERT_TRUE(session.run_cycles(kCycles).ok());
      session.finish();
      ASSERT_TRUE(tb.traffic_done());
      session_hw = obs::snapshot_recording(session.obs().hw_recorder(), {});
      session_board =
          obs::snapshot_recording(session.obs().board_recorder(), {});
    }

    obs::Recording fabric_hw, fabric_board;
    {
      FabricConfigBuilder builder;
      builder.sync(policy).observability(observed).record().add_node("board");
      builder.last_board().rtos.cycles_per_tick = 10;
      FabricConfig cfg = builder.build_or_throw();
      cfg.obs.record.ring_frames = kRing;
      Fabric fab{cfg};
      router::RouterTestbench tb{fab.kernel(), case_study_testbench(),
                                 &fab.registry(0)};
      fab.watch_interrupt(0, tb.router().irq(), board::Board::kDeviceVector);
      router::ChecksumApp app{fab.board(0), router::ChecksumAppConfig{}};
      fab.start_boards();
      ASSERT_TRUE(fab.run_cycles(kCycles).ok());
      fab.finish();
      ASSERT_TRUE(tb.traffic_done());
      fabric_hw = obs::snapshot_recording(fab.obs().hw_recorder(), {});
      fabric_board =
          obs::snapshot_recording(fab.node_obs(0).board_recorder(), {});
    }

    ASSERT_GT(session_hw.frames.size(), 0u);
    ASSERT_GT(session_board.frames.size(), 0u);
    EXPECT_EQ(fabric_hw.frames.size(), session_hw.frames.size());
    EXPECT_EQ(fabric_board.frames.size(), session_board.frames.size());
    for (const auto& [a, b] : {std::pair{&session_hw, &fabric_hw},
                               std::pair{&session_board, &fabric_board}}) {
      SCOPED_TRACE(a->meta.side);
      for (const auto& [ref, live] : {std::pair{a, b}, std::pair{b, a}}) {
        const auto divergence =
            obs::diff_recordings(*ref, *live, &net::message_field_diff);
        EXPECT_FALSE(divergence.has_value()) << divergence->to_string();
      }
    }

    // Round stamps come with the switch and only with it.
    std::size_t ticks = 0, stamped = 0;
    for (const obs::FrameRecord& f : session_hw.frames) {
      auto msg = net::decode(f.payload);
      ASSERT_TRUE(msg.ok()) << msg.status();
      if (const auto* tick = std::get_if<net::ClockTick>(&msg.value())) {
        ++ticks;
        stamped += tick->round != 0 ? 1 : 0;
      }
    }
    EXPECT_GT(ticks, 0u);
    EXPECT_EQ(stamped, observed ? ticks : 0u);
  }
}

TEST(FabricRecordingSessionTest, BoardsProduceNodeStampedRecordings) {
  FabricConfigBuilder builder;
  builder.sync(cosim::SyncPolicy{}.quantum(20).watchdog(10000ms)).record();
  builder.add_node("left");
  builder.last_board().rtos.cycles_per_tick = 10;
  builder.add_node("right");
  builder.last_board().rtos.cycles_per_tick = 10;
  Fabric fab{builder.build_or_throw()};

  std::vector<std::unique_ptr<EchoDevice>> devices;
  std::vector<std::unique_ptr<rtos::Semaphore>> ready;
  std::vector<std::vector<u32>> replies(2);
  for (std::size_t n = 0; n < 2; ++n) {
    devices.push_back(std::make_unique<EchoDevice>(
        fab.kernel(), fab.registry(n), "echo" + std::to_string(n), 1,
        fab.config().cosim.clock_period));
    fab.watch_interrupt(n, devices[n]->irq_line,
                        board::Board::kDeviceVector);
    auto& board = fab.board(n);
    ready.push_back(std::make_unique<rtos::Semaphore>(board.kernel(), 0));
    rtos::Semaphore* sem = ready.back().get();
    board.attach_device_dsr([sem](u32) { sem->post(); });
    board.spawn_app("app", 8, [&board, sem, &out = replies[n]] {
      ASSERT_TRUE(
          board.dev_write(0x0, cosim::DriverCodec<u32>::encode(41)).ok());
      sem->wait();
      auto resp = board.dev_read(0x4, 4);
      ASSERT_TRUE(resp.ok());
      u32 value = 0;
      ASSERT_TRUE(cosim::DriverCodec<u32>::decode(resp.value(), value));
      out.push_back(value);
    });
  }

  fab.start_boards();
  for (int chunk = 0;
       chunk < 400 && (replies[0].empty() || replies[1].empty()); ++chunk) {
    ASSERT_TRUE(fab.run_cycles(50).ok());
  }
  fab.finish();
  ASSERT_EQ(replies[0], std::vector<u32>{42});
  ASSERT_EQ(replies[1], std::vector<u32>{42});

  const std::string prefix =
      ::testing::TempDir() + "/fabric_session_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  ASSERT_TRUE(fab.write_recordings(prefix).ok());

  // Master recording: one global sequence carrying both nodes' links.
  auto hw = obs::read_recording(prefix + ".hw.vhprec");
  ASSERT_TRUE(hw.ok()) << hw.status();
  u64 node0 = 0, node1 = 0;
  for (const auto& f : hw.value().frames) (f.node == 0 ? node0 : node1) += 1;
  EXPECT_GT(node0, 0u);
  EXPECT_GT(node1, 0u);
  EXPECT_EQ(hw.value().meta.tags.at("nodes"), "2");

  // Board-side recordings: one per node, node-tagged, frames node-0-local
  // (each board sees only its own two-party link).
  for (const std::string name : {"left", "right"}) {
    auto rec = obs::read_recording(prefix + "." + name + ".board.vhprec");
    ASSERT_TRUE(rec.ok()) << rec.status();
    EXPECT_EQ(rec.value().meta.side, "board");
    EXPECT_EQ(rec.value().meta.tags.at("node_name"), name);
    EXPECT_GT(rec.value().frames.size(), 0u);
  }
}

// ---------------------------------------------------------------------------
// A session is a one-node fabric: one hub, one validation, one set of files.

/// A unique file prefix in the test temp dir.
std::string temp_prefix(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem + "_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed());
}

TEST(FabricOneNodeTest, ALoneNodeRunsOnTheMasterHub) {
  {
    Fabric one{FabricConfigBuilder{}.add_node().build_or_throw()};
    EXPECT_EQ(&one.node_obs(0), &one.obs());
    EXPECT_EQ(&one.board(0).obs(), &one.obs());
    EXPECT_EQ(&one.master().obs(), &one.obs());
  }
  {
    Fabric two{FabricConfigBuilder{}.add_node().add_node().build_or_throw()};
    EXPECT_NE(&two.node_obs(0), &two.obs());
    EXPECT_NE(&two.node_obs(1), &two.obs());
    EXPECT_NE(&two.node_obs(0), &two.node_obs(1));
    for (std::size_t n = 0; n < 2; ++n) {
      EXPECT_EQ(&two.board(n).obs(), &two.node_obs(n));
    }
  }
  cosim::CosimSession session{cosim::SessionConfig{}};
  EXPECT_EQ(&session.obs(), &session.board().obs());
  EXPECT_EQ(&session.obs(), &session.hw().obs());
}

TEST(FabricOneNodeTest, UntimedFreeRunningNodeRunsWithoutSyncs) {
  // An untimed session is an untimed one-node fabric: the master polls
  // DATA every cycle and never grants, the board runs free.
  FabricConfig cfg;
  cfg.cosim.timed = false;
  FabricNodeConfig node;
  node.board.free_running = true;
  cfg.nodes.push_back(node);
  ASSERT_TRUE(cfg.validate().ok()) << cfg.validate();
  Fabric fab{cfg};
  fab.start_boards();
  ASSERT_TRUE(fab.run_cycles(2000).ok());
  fab.finish();
  EXPECT_EQ(fab.cycle(), 2000u);
  EXPECT_EQ(fab.master().stats().syncs, 0u);
  EXPECT_EQ(fab.coordinator().ticks_sent(), 0u);

  // The board is free-running exactly when the master is untimed.
  cfg.cosim.timed = true;
  const Status s = cfg.validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("board.free_running"), std::string::npos) << s;
}

TEST(FabricRecordingSessionTest, SessionWritesOneNodeFabricFiles) {
  cosim::CosimSession session{cosim::SessionConfigBuilder{}
                                  .t_sync(50)
                                  .cycles_per_tick(7)
                                  .timeslice_ticks(3)
                                  .cycles_per_sim_cycle(2)
                                  .record()
                                  .build_or_throw()};
  session.start_board();
  ASSERT_TRUE(session.run_cycles(500).ok());
  session.finish();

  const std::string prefix = temp_prefix("session_files");
  ASSERT_TRUE(session.write_recordings(prefix, {{"purpose", "test"}}).ok());
  auto hw = obs::read_recording(prefix + ".hw.vhprec");
  auto board = obs::read_recording(prefix + ".node0.board.vhprec");
  std::remove((prefix + ".hw.vhprec").c_str());
  std::remove((prefix + ".node0.board.vhprec").c_str());
  ASSERT_TRUE(hw.ok()) << hw.status();
  ASSERT_TRUE(board.ok()) << board.status();
  EXPECT_GT(hw.value().frames.size(), 0u);
  EXPECT_GT(board.value().frames.size(), 0u);

  const auto& hw_tags = hw.value().meta.tags;
  EXPECT_EQ(hw_tags.at("nodes"), "1");
  EXPECT_EQ(hw_tags.at("t_sync"), "50");
  EXPECT_EQ(hw_tags.at("timed"), "1");
  EXPECT_EQ(hw_tags.at("purpose"), "test");
  const auto& board_tags = board.value().meta.tags;
  EXPECT_EQ(board_tags.at("nodes"), "1");
  EXPECT_EQ(board_tags.at("node"), "0");
  EXPECT_EQ(board_tags.at("node_name"), "node0");
  EXPECT_EQ(board_tags.at("cycles_per_tick"), "7");
  EXPECT_EQ(board_tags.at("timeslice_ticks"), "3");
  EXPECT_EQ(board_tags.at("cycles_per_sim_cycle"), "2");
}

/// A board app that writes an address no device maps: the master's DATA
/// service fails with kNotFound in the barrier that serves the write.
void write_unmapped(board::Board& board) {
  board.spawn_app("stray", 8, [&board] {
    (void)board.dev_write(0xbad, cosim::DriverCodec<u32>::encode(1));
  });
}

/// Expects a post-mortem file at `path` with a "reason" tag naming the
/// unmapped write, then removes it.
void expect_postmortem(const std::string& path) {
  auto rec = obs::read_recording(path);
  std::remove(path.c_str());
  ASSERT_TRUE(rec.ok()) << path << ": " << rec.status();
  const auto reason = rec.value().meta.tags.find("reason");
  ASSERT_NE(reason, rec.value().meta.tags.end()) << path;
  EXPECT_NE(reason->second.find("unmapped"), std::string::npos)
      << reason->second;
}

TEST(PostmortemTest, SessionRunErrorDumpsBothSides) {
  const std::string prefix = temp_prefix("postmortem_session");
  {
    cosim::CosimSession session{cosim::SessionConfigBuilder{}
                                    .t_sync(20)
                                    .record()
                                    .postmortem_prefix(prefix)
                                    .build_or_throw()};
    write_unmapped(session.board());
    session.start_board();
    const Status s = session.run_cycles(1000);
    EXPECT_EQ(s.code(), StatusCode::kNotFound) << s;
    session.finish();
  }
  expect_postmortem(prefix + ".hw.jsonl");
  expect_postmortem(prefix + ".node0.board.jsonl");
}

TEST(PostmortemTest, FabricRunErrorDumpsEverySide) {
  const std::string prefix = temp_prefix("postmortem_fabric");
  {
    FabricConfigBuilder builder;
    builder.t_sync(20).record().postmortem_prefix(prefix);
    builder.add_node("left").add_node("right");
    Fabric fab{builder.build_or_throw()};
    write_unmapped(fab.board(1));
    fab.start_boards();
    const Status s = fab.run_cycles(1000);
    EXPECT_EQ(s.code(), StatusCode::kNotFound) << s;
    fab.finish();
  }
  expect_postmortem(prefix + ".hw.jsonl");
  expect_postmortem(prefix + ".left.board.jsonl");
  expect_postmortem(prefix + ".right.board.jsonl");
}

}  // namespace
}  // namespace vhp::fabric
