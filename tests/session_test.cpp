// End-to-end co-simulation sessions: a real CosimKernel against a real
// virtual Board over both transports — the paper's full stack in miniature.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "vhp/cosim/session.hpp"
#include "vhp/obs/flight_recorder.hpp"
#include "vhp/rtos/sync.hpp"
#include "vhp/sim/module.hpp"

namespace vhp::cosim {
namespace {

/// Minimal device under design: when the driver writes a value to address 0,
/// the device publishes value+1 at address 4 and pulses its interrupt line.
struct EchoDevice : sim::Module {
  DriverIn<u32> in;
  DriverOut<u32> out;
  sim::BoolSignal& irq_line;
  u64 requests = 0;

  EchoDevice(CosimKernel& hw)
      : Module(hw.kernel(), "echo"),
        in(hw.kernel(), hw.registry(), "echo.in", 0x0),
        out(hw.registry(), "echo.out", 0x4),
        irq_line(make_bool_signal("irq")) {
    const sim::SimTime period = hw.config().clock_period;
    method("process",
           [this] {
             ++requests;
             out.write(in.read() + 1);
             irq_line.write(true);
           })
        .sensitive(in.data_written_event())
        .dont_initialize();
    // Drop the line two cycles after each pulse so the next request makes a
    // fresh rising edge.
    thread("clear", [this, period] {
      for (;;) {
        sim::wait(irq_line.posedge_event());
        sim::wait(2 * period);
        irq_line.write(false);
      }
    });
    hw.watch_interrupt(irq_line, board::Board::kDeviceVector);
  }
};

class SessionTest : public ::testing::TestWithParam<TransportKind> {};

TEST(SessionClockTest, ClockWatchedAsAnInterruptLineRaisesEveryPeriod) {
  // An interrupt watch makes its line listened: a clock used as one keeps
  // every edge, so the quiet-cycle jump never steps over a rising level.
  CosimSession session{SessionConfigBuilder{}
                           .t_sync(100)
                           .record()
                           .postmortem_prefix("")
                           .build_or_throw()};
  const sim::SimTime period = session.hw().config().clock_period;
  sim::Clock slow{session.hw().kernel(), "slow", 4 * period};
  session.hw().watch_interrupt(slow, board::Board::kDeviceVector);
  session.start_board();
  ASSERT_TRUE(session.run_cycles(1000).ok());
  session.finish();

  // The posedge at time 0 is sampled after cycle 1; posedge k (time
  // 4k * period) after cycle 4k.
  std::vector<u64> expected{1};
  for (u64 k = 1; k <= 250; ++k) expected.push_back(4 * k);
  std::vector<u64> raised;
  for (const obs::FrameRecord& f : session.obs().hw_recorder().snapshot()) {
    if (f.port == obs::LinkPort::kInt && f.dir == obs::LinkDir::kTx) {
      raised.push_back(f.hw_cycle);
    }
  }
  EXPECT_EQ(session.hw().stats().interrupts_sent, 251u);
  EXPECT_EQ(raised, expected);
}

TEST(SessionClockTest, ClockOnlyModelSkipsQuietCycles) {
  // A timed session whose model is only its (unlistened) clock evaluates
  // no edges: each quantum is one kernel run up to the next barrier.
  CosimSession session{SessionConfigBuilder{}
                           .t_sync(1000)
                           .postmortem_prefix("")
                           .build_or_throw()};
  session.start_board();
  ASSERT_TRUE(session.run_cycles(10000).ok());
  session.finish();
  EXPECT_LT(session.hw().kernel().delta_count(), 100u);
  EXPECT_EQ(session.hw().cycle(), 10000u);
  const CosimKernel::Stats stats = session.hw().stats();
  EXPECT_EQ(stats.syncs, 10u);
  EXPECT_EQ(stats.acks_received, 10u);
  EXPECT_EQ(stats.data_writes + stats.data_reads, 0u);
  EXPECT_EQ(stats.interrupts_sent, 0u);
  EXPECT_EQ(session.board().stats().clock_ticks_received, 10u);
}

TEST_P(SessionTest, EchoDeviceRoundTrips) {
  SessionConfig cfg;
  cfg.transport = GetParam();
  cfg.cosim.sync.quantum(20);
  cfg.board.rtos.cycles_per_tick = 10;
  CosimSession session{cfg};

  EchoDevice echo{session.hw()};

  auto& board = session.board();
  rtos::Semaphore reply_ready{board.kernel(), 0};
  board.attach_device_dsr([&](u32) { reply_ready.post(); });

  constexpr int kRounds = 5;
  std::vector<u32> replies;
  board.spawn_app("echo_app", 8, [&] {
    for (u32 i = 0; i < kRounds; ++i) {
      const u32 request = 100 + i * 11;
      ASSERT_TRUE(
          board.dev_write(0x0, DriverCodec<u32>::encode(request)).ok());
      reply_ready.wait();
      auto resp = board.dev_read(0x4, 4);
      ASSERT_TRUE(resp.ok()) << resp.status();
      u32 value = 0;
      ASSERT_TRUE(DriverCodec<u32>::decode(resp.value(), value));
      replies.push_back(value);
      board.kernel().consume(50);  // modeled per-round work
    }
  });

  session.start_board();
  // Generous cycle budget; stop as soon as the app collected everything.
  for (int chunk = 0; chunk < 400 && replies.size() < kRounds; ++chunk) {
    ASSERT_TRUE(session.run_cycles(50).ok());
  }
  session.finish();

  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kRounds));
  for (u32 i = 0; i < kRounds; ++i) {
    EXPECT_EQ(replies[i], 100 + i * 11 + 1);
  }
  EXPECT_EQ(echo.requests, static_cast<u64>(kRounds));
  EXPECT_GE(session.hw().stats().syncs, 1u);
  EXPECT_EQ(board.stats().interrupts_received, static_cast<u64>(kRounds));
}

TEST_P(SessionTest, DeviceVisibleThroughDevtab) {
  SessionConfig cfg;
  cfg.transport = GetParam();
  cfg.cosim.sync.quantum(20);
  CosimSession session{cfg};
  EchoDevice echo{session.hw()};

  auto& board = session.board();
  rtos::Semaphore reply_ready{board.kernel(), 0};
  board.attach_device_dsr([&](u32) { reply_ready.post(); });

  bool ok = false;
  board.spawn_app("devtab_app", 8, [&] {
    auto dev = board.devtab().lookup(board::Board::kDeviceName);
    ASSERT_TRUE(dev.ok());
    ASSERT_TRUE(dev.value()
                    ->write(0x0, DriverCodec<u32>::encode(41))
                    .ok());
    reply_ready.wait();
    auto resp = dev.value()->read(0x4, 4);
    ASSERT_TRUE(resp.ok());
    u32 v = 0;
    ASSERT_TRUE(DriverCodec<u32>::decode(resp.value(), v));
    EXPECT_EQ(v, 42u);
    ok = true;
  });

  session.start_board();
  for (int chunk = 0; chunk < 200 && !ok; ++chunk) {
    ASSERT_TRUE(session.run_cycles(50).ok());
  }
  session.finish();
  EXPECT_TRUE(ok);
}

TEST_P(SessionTest, BoardTicksTrackSimulatedTime) {
  SessionConfig cfg;
  cfg.transport = GetParam();
  cfg.cosim.sync.quantum(10);
  cfg.board.rtos.cycles_per_tick = 10;
  cfg.board.cycles_per_sim_cycle = 1;
  CosimSession session{cfg};
  session.start_board();
  ASSERT_TRUE(session.run_cycles(500).ok());
  // After the last ack the board consumed exactly 500 cycles = 50 ticks.
  // (Read after finish() so the board thread is quiescent.)
  session.finish();
  EXPECT_EQ(session.board().kernel().tick_count().value(), 50u);
  EXPECT_EQ(session.hw().stats().syncs, 50u);
}

TEST_P(SessionTest, UntimedSessionRunsWithoutSync) {
  SessionConfig cfg;
  cfg.transport = GetParam();
  cfg.set_untimed();
  CosimSession session{cfg};
  EchoDevice echo{session.hw()};
  session.start_board();
  ASSERT_TRUE(session.run_cycles(2000).ok());
  session.finish();
  EXPECT_EQ(session.hw().stats().syncs, 0u);
  EXPECT_EQ(session.hw().stats().acks_received, 0u);
}

INSTANTIATE_TEST_SUITE_P(Transports, SessionTest,
                         ::testing::Values(TransportKind::kInProc,
                                           TransportKind::kTcp),
                         [](const auto& suite_info) {
                           return suite_info.param == TransportKind::kInProc
                                      ? "InProc"
                                      : "Tcp";
                         });

TEST(SessionLinkEmulation, SyncRoundTripsPayEmulatedLatency) {
  // With 3 ms one-way emulation, each CLOCK_TICK/TIME_ACK exchange costs at
  // least ~6 ms of host time; 5 syncs must take >= ~30 ms.
  SessionConfig cfg;
  cfg.transport = TransportKind::kInProc;
  cfg.cosim.sync.quantum(100);
  cfg.board.rtos.cycles_per_tick = 10;
  cfg.link_emulation.latency = std::chrono::milliseconds{3};
  CosimSession session{cfg};
  session.start_board();
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(session.run_cycles(500).ok());  // 5 sync points
  const auto elapsed = std::chrono::steady_clock::now() - start;
  session.finish();
  EXPECT_GE(elapsed, std::chrono::milliseconds{28});
  EXPECT_EQ(session.hw().stats().syncs, 5u);
  // The protocol invariant holds regardless of the link speed.
  EXPECT_EQ(session.board().kernel().tick_count().value(), 500u / 10u);
}

TEST(SessionConfigValidation, RejectsInconsistentTiming) {
  SessionConfig cfg;
  cfg.cosim.timed = false;
  cfg.board.free_running = false;  // inconsistent
  EXPECT_THROW(CosimSession{cfg}, std::invalid_argument);
}

TEST(SessionConfigValidation, RejectsZeroTsync) {
  SessionConfig cfg;
  cfg.cosim.sync.quantum(0);
  EXPECT_FALSE(cfg.validate().ok());
  EXPECT_THROW(CosimSession{cfg}, std::invalid_argument);
}

TEST(SessionConfigValidation, RejectsEviction) {
  // Evicting a session's only board would leave the master simulating
  // alone; the knob is a fabric one.
  SessionConfig cfg;
  cfg.cosim.sync.evict_after(2);
  const Status s = cfg.validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("evict_after"), std::string::npos) << s;
  EXPECT_THROW(CosimSession{cfg}, std::invalid_argument);
}

TEST(SessionConfigValidation, RejectsZeroSpanRing) {
  // A zero-capacity span ring used to pass validation and then crash the
  // first snapshot; the knob is rejected by name, armed or not.
  SessionConfig cfg;
  cfg.obs.timeline.ring_spans = 0;
  const Status s = cfg.validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("obs.timeline.ring_spans"), std::string::npos)
      << s;
  EXPECT_THROW(CosimSession{cfg}, std::invalid_argument);
  cfg.obs.timeline.enabled = true;
  EXPECT_FALSE(cfg.validate().ok());
}

TEST(SessionConfigValidation, RejectsClockPeriodBelowTwo) {
  // Period 1 would give the clock a zero-width low phase.
  for (const sim::SimTime period : {0u, 1u}) {
    SessionConfig cfg;
    cfg.cosim.clock_period = period;
    const Status s = cfg.validate();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "period " << period;
    EXPECT_NE(s.message().find("clock_period"), std::string::npos) << s;
    EXPECT_THROW(CosimSession{cfg}, std::invalid_argument);
  }
}

TEST(SessionConfigValidation, RejectsZeroRtosDivisors) {
  SessionConfig cfg;
  cfg.board.rtos.cycles_per_tick = 0;
  EXPECT_FALSE(cfg.validate().ok());
  cfg = SessionConfig{};
  cfg.board.cycles_per_sim_cycle = 0;
  EXPECT_FALSE(cfg.validate().ok());
}

TEST(SessionConfigValidation, RejectsMultiCoreWithoutMemoryHierarchy) {
  SessionConfig cfg;
  cfg.board.rtos.cores = 4;  // no board.memory
  const Status s = cfg.validate();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("requires a memory hierarchy"),
            std::string::npos)
      << s;
  EXPECT_THROW(CosimSession{cfg}, std::invalid_argument);
  cfg.board.memory = mem::MemConfig{};
  EXPECT_TRUE(cfg.validate().ok()) << cfg.validate();
}

TEST(SessionConfigValidation, RejectsZeroCores) {
  SessionConfig cfg;
  cfg.board.rtos.cores = 0;
  const Status s = cfg.validate();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("cores must be >= 1"), std::string::npos) << s;
}

TEST(SessionConfigValidation, RejectsNonPowerOfTwoCacheLine) {
  SessionConfig cfg;
  cfg.board.memory = mem::MemConfig{};
  cfg.board.memory->icache.line_bytes = 48;  // not a power of two
  const Status s = cfg.validate();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("icache.line_bytes"), std::string::npos) << s;
  EXPECT_NE(s.message().find("48"), std::string::npos)
      << "message should quote the offending value: " << s;
}

TEST(SessionConfigValidation, RejectsZeroBanks) {
  SessionConfig cfg;
  cfg.board.memory = mem::MemConfig{};
  cfg.board.memory->memory.banks = 0;
  const Status s = cfg.validate();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("memory.banks must be > 0"), std::string::npos)
      << s;
}

TEST(SessionConfigValidation, BuilderCoresAndMemoryRoundTrip) {
  auto result = SessionConfigBuilder{}.cores(2).memory(mem::MemConfig{}).build();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().board.rtos.cores, 2u);
  ASSERT_TRUE(result.value().board.memory.has_value());
  // The same builder chain without the hierarchy must fail with the precise
  // cross-field message.
  auto bad = SessionConfigBuilder{}.cores(2).build();
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("requires a memory hierarchy"),
            std::string::npos)
      << bad.status();
}

TEST(SessionConfigValidation, DefaultAndUntimedConfigsAreValid) {
  SessionConfig cfg;
  EXPECT_TRUE(cfg.validate().ok()) << cfg.validate();
  cfg.set_untimed();
  EXPECT_TRUE(cfg.validate().ok()) << cfg.validate();
  // Untimed mode ignores t_sync, so zero is fine there.
  cfg.cosim.sync.quantum(0);
  EXPECT_TRUE(cfg.validate().ok()) << cfg.validate();
}

TEST(SessionConfigBuilderTest, BuildsValidatedConfig) {
  auto result = SessionConfigBuilder{}
                    .inproc()
                    .t_sync(250)
                    .cycles_per_tick(5)
                    .observability()
                    .build();
  ASSERT_TRUE(result.ok()) << result.status();
  const SessionConfig& cfg = result.value();
  EXPECT_EQ(cfg.transport, TransportKind::kInProc);
  EXPECT_EQ(cfg.cosim.sync.quantum(), 250u);
  EXPECT_EQ(cfg.board.rtos.cycles_per_tick, 5u);
  EXPECT_TRUE(cfg.obs.timeline.enabled);
}

TEST(SessionConfigBuilderTest, BuildReturnsStatusOnBadConfig) {
  auto result = SessionConfigBuilder{}.t_sync(0).build();
  EXPECT_FALSE(result.ok());
  EXPECT_THROW((void)SessionConfigBuilder{}.t_sync(0).build_or_throw(),
               std::invalid_argument);
}

// The redesign's core compatibility promise: the legacy stats() views and
// the vhp::obs metrics registry are the same numbers — stats() is a view
// over the registry, not a second set of counters that could drift.
TEST_P(SessionTest, ObsMetricsMatchLegacyStats) {
  SessionConfig cfg;
  cfg.transport = GetParam();
  cfg.cosim.sync.quantum(20);
  cfg.board.rtos.cycles_per_tick = 10;
  cfg.obs.timeline.enabled = true;
  CosimSession session{cfg};

  EchoDevice echo{session.hw()};
  auto& board = session.board();
  rtos::Semaphore reply_ready{board.kernel(), 0};
  board.attach_device_dsr([&](u32) { reply_ready.post(); });
  bool done = false;
  board.spawn_app("parity_app", 8, [&] {
    for (u32 i = 0; i < 3; ++i) {
      ASSERT_TRUE(board.dev_write(0x0, DriverCodec<u32>::encode(i)).ok());
      reply_ready.wait();
      ASSERT_TRUE(board.dev_read(0x4, 4).ok());
    }
    done = true;
  });
  session.start_board();
  for (int chunk = 0; chunk < 400 && !done; ++chunk) {
    ASSERT_TRUE(session.run_cycles(50).ok());
  }
  session.finish();
  ASSERT_TRUE(done);

  auto& metrics = session.obs().metrics();
  const auto hw = session.hw().stats();
  EXPECT_GT(hw.syncs, 0u);
  // A session is a 1-node fabric: its grants and acks count under
  // fabric.*, the boot ack included there, and its link's DATA/INT
  // counters under its node, node0.
  EXPECT_EQ(metrics.counter("fabric.ticks_sent").value(), hw.syncs);
  EXPECT_EQ(metrics.counter("fabric.node0.data_writes").value(),
            hw.data_writes);
  EXPECT_EQ(metrics.counter("fabric.node0.data_reads").value(),
            hw.data_reads);
  EXPECT_EQ(metrics.counter("fabric.node0.interrupts_sent").value(),
            hw.interrupts_sent);
  EXPECT_EQ(metrics.counter("fabric.acks_received").value(),
            hw.acks_received + 1);

  const auto bd = board.stats();
  EXPECT_EQ(metrics.counter("board.interrupts_received").value(),
            bd.interrupts_received);
  EXPECT_EQ(metrics.counter("board.clock_ticks_received").value(),
            bd.clock_ticks_received);
  EXPECT_EQ(metrics.counter("board.acks_sent").value(), bd.acks_sent);
  EXPECT_EQ(metrics.counter("board.dev_reads").value(), bd.dev_reads);
  EXPECT_EQ(metrics.counter("board.dev_writes").value(), bd.dev_writes);

  // Protocol symmetry recorded on both sides of the link (the board may
  // have acked one final tick the kernel no longer waited for at finish).
  EXPECT_LE(hw.acks_received, bd.acks_sent);
  EXPECT_LE(bd.acks_sent - hw.acks_received, 1u);
  // Each sync produced one RTT sample.
  EXPECT_EQ(session.obs()
                .metrics()
                .histogram("cosim.sync_rtt_ns")
                .count(),
            hw.syncs);

  // The enabled session recorded spans and a parseable dump pair.
  EXPECT_FALSE(session.obs().timeline().snapshot().empty());
  const std::string trace = session.obs().trace_json();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"barrier\""), std::string::npos);
  const std::string dump = session.obs().metrics_json();
  EXPECT_NE(dump.find("\"fabric.ticks_sent\""), std::string::npos);
  EXPECT_NE(dump.find("\"rtos.context_switches\""), std::string::npos);
  EXPECT_NE(dump.find("\"cosim.wall.ack_wait_ns\""), std::string::npos);
  EXPECT_NE(dump.find("\"net.hw.node0.data.tx_frames\""),
            std::string::npos);
}

TEST(SessionObsTest, DisabledSessionKeepsCountersButNoTrace) {
  SessionConfig cfg;  // obs.timeline.enabled defaults to false
  cfg.cosim.sync.quantum(20);
  CosimSession session{cfg};
  session.start_board();
  ASSERT_TRUE(session.run_cycles(200).ok());
  session.finish();
  EXPECT_FALSE(session.obs().enabled());
  EXPECT_TRUE(session.obs().timeline().snapshot().empty());
  // Counters (the stats() backing store) still counted.
  EXPECT_EQ(session.obs().metrics().counter("fabric.ticks_sent").value(),
            session.hw().stats().syncs);
  EXPECT_GT(session.hw().stats().syncs, 0u);
}

}  // namespace
}  // namespace vhp::cosim
