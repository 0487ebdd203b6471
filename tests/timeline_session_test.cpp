// End-to-end causal timeline: real virtual boards (RTOS fibers) under a
// timeline-armed session/fabric, live analysis, the offline extraction path
// on written recordings.
// Not under ThreadSanitizer (label "timeline" only): its wall-clock
// reconciliation checks are timing-sensitive. The fiber-free timeline
// logic lives in timeline_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "vhp/cosim/session.hpp"
#include "vhp/fabric/fabric.hpp"
#include "vhp/net/replay.hpp"
#include "vhp/obs/recording.hpp"
#include "vhp/obs/timeline.hpp"
#include "vhp/router/checksum_app.hpp"
#include "vhp/router/testbench.hpp"

namespace vhp::fabric {
namespace {

using namespace std::chrono_literals;

FabricConfig timeline_fabric_config(bool timeline) {
  FabricConfigBuilder builder;
  builder.inproc()
      .sync(cosim::SyncPolicy{}.quantum(20).watchdog(10000ms))
      .record();
  if (timeline) builder.observability();
  builder.add_node("n0");
  builder.last_board().rtos.cycles_per_tick = 10;
  builder.add_node("n1");
  builder.last_board().rtos.cycles_per_tick = 10;
  return builder.build_or_throw();
}

TEST(FabricTimelineTest, LiveSpansCoverBothSidesAndReconcile) {
  Fabric fab{timeline_fabric_config(/*timeline=*/true)};
  fab.start_boards();
  ASSERT_TRUE(fab.run_cycles(400).ok());
  const u64 rounds_live = fab.coordinator().rounds();
  EXPECT_GE(rounds_live, 10u);  // 400 cycles / t_sync 20, both nodes due

  const auto spans = fab.timeline_spans();
  ASSERT_FALSE(spans.empty());
  bool compute_n0 = false, compute_n1 = false, wait_seen = false;
  for (const auto& s : spans) {
    if (s.phase == obs::SpanPhase::kCompute && s.node == 0) compute_n0 = true;
    if (s.phase == obs::SpanPhase::kCompute && s.node == 1) compute_n1 = true;
    if (s.phase == obs::SpanPhase::kNodeWait) wait_seen = true;
  }
  EXPECT_TRUE(compute_n0) << "board spans must be re-stamped to slot 0";
  EXPECT_TRUE(compute_n1) << "board spans must be re-stamped to slot 1";
  EXPECT_TRUE(wait_seen);

  const obs::TimelineAnalysis live = fab.timeline_analysis();
  EXPECT_EQ(live.rounds.size(), rounds_live);
  EXPECT_GT(live.wall_ns, 0u);
  EXPECT_GT(live.virtual_cycles, 0u);
  EXPECT_GT(live.slowdown, 0.0);
  // The acceptance gate: per-node decomposition re-composes fabric
  // wall-clock within 5%.
  EXPECT_LT(live.reconciliation_error, 0.05);
  ASSERT_EQ(live.nodes.size(), 2u);
  EXPECT_EQ(live.nodes[0].name, "n0");
  EXPECT_GT(live.nodes[0].compute_ns, 0u);

  const std::string doc = fab.metrics_json();
  EXPECT_NE(doc.find("\"timeline\":"), std::string::npos);
  EXPECT_NE(doc.find("\"reconciliation_error\":"), std::string::npos);

  // Offline path: written recordings must reproduce the same round count.
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "vhp_timeline_session")
          .string();
  ASSERT_TRUE(fab.write_recordings(prefix).ok());
  fab.finish();

  auto hw = obs::read_recording(prefix + ".hw.vhprec");
  ASSERT_TRUE(hw.ok()) << hw.status();
  std::vector<obs::Recording> boards;
  for (const char* name : {"n0", "n1"}) {
    auto rec = obs::read_recording(prefix + "." + std::string(name) +
                                   ".board.vhprec");
    ASSERT_TRUE(rec.ok()) << rec.status();
    boards.push_back(std::move(rec.value()));
  }
  const auto offline_spans =
      net::timeline_from_recordings(hw.value(), boards);
  ASSERT_FALSE(offline_spans.empty());
  const obs::TimelineAnalysis offline = obs::analyze_spans(offline_spans);
  EXPECT_EQ(offline.rounds.size(), rounds_live);
  // Wire v3 carried the ids: offline and live agree on the last round.
  EXPECT_EQ(offline.rounds.back().round, live.rounds.back().round);
  EXPECT_LT(offline.reconciliation_error, 0.05);

  for (const char* suffix : {".hw.vhprec", ".n0.board.vhprec",
                             ".n1.board.vhprec"}) {
    if (!::testing::Test::HasFailure()) std::filesystem::remove(prefix + suffix);
  }
}

TEST(FabricTimelineTest, DisabledTimelineLeavesNoTrace) {
  Fabric fab{timeline_fabric_config(/*timeline=*/false)};
  fab.start_boards();
  ASSERT_TRUE(fab.run_cycles(200).ok());
  EXPECT_EQ(fab.coordinator().rounds(), 0u);
  EXPECT_TRUE(fab.timeline_spans().empty());
  const std::string doc = fab.metrics_json();
  EXPECT_EQ(doc.find("\"timeline\":"), std::string::npos);
  fab.finish();
}

}  // namespace
}  // namespace vhp::fabric

// ---------------------------------------------------------------------------
// Classic two-party session with the timeline armed

namespace vhp::cosim {
namespace {

TEST(SessionTimelineTest, RoundsPropagateAndBothSinksRecord) {
  SessionConfig cfg;
  cfg.cosim.sync.quantum(100);
  cfg.obs.timeline.enabled = true;
  CosimSession session{cfg};
  session.start_board();
  ASSERT_TRUE(session.run_cycles(1000).ok());
  const u64 rounds = session.hw().rounds();
  EXPECT_GE(rounds, 9u);
  session.finish();

  const auto spans = session.obs().timeline().snapshot();
  ASSERT_FALSE(spans.empty());
  bool wait = false, compute = false, barrier = false;
  u64 max_round = 0;
  for (const auto& s : spans) {
    max_round = std::max(max_round, s.round);
    if (s.phase == obs::SpanPhase::kNodeWait) wait = true;
    if (s.phase == obs::SpanPhase::kCompute) compute = true;
    if (s.phase == obs::SpanPhase::kBarrier) barrier = true;
  }
  EXPECT_TRUE(wait) << "kernel-side wait spans";
  EXPECT_TRUE(compute) << "board-side compute spans (shared hub)";
  EXPECT_TRUE(barrier);
  EXPECT_EQ(max_round, rounds);

  const obs::TimelineAnalysis a = obs::analyze_spans(spans);
  EXPECT_EQ(a.rounds.size(), rounds);
  EXPECT_LT(a.reconciliation_error, 0.05);
}

TEST(SessionTimelineTest, DefaultSessionStampsNoRounds) {
  CosimSession session{
      SessionConfigBuilder{}.t_sync(100).record().build_or_throw()};
  session.start_board();
  ASSERT_TRUE(session.run_cycles(500).ok());
  session.finish();
  EXPECT_EQ(session.hw().rounds(), 0u);
  EXPECT_TRUE(session.obs().timeline().snapshot().empty());
  // Every CLOCK_TICK and TIME_ACK, as either side saw it, carries round 0.
  u64 ticks = 0, acks = 0;
  for (obs::FlightRecorder* recorder :
       {&session.obs().hw_recorder(), &session.obs().board_recorder()}) {
    for (const obs::FrameRecord& f : recorder->snapshot()) {
      if (f.port != obs::LinkPort::kClock) continue;
      auto msg = net::decode(f.payload);
      ASSERT_TRUE(msg.ok()) << msg.status();
      if (const auto* tick = std::get_if<net::ClockTick>(&msg.value())) {
        ++ticks;
        EXPECT_EQ(tick->round, 0u);
      } else if (const auto* ack = std::get_if<net::TimeAck>(&msg.value())) {
        ++acks;
        EXPECT_EQ(ack->round, 0u);
      }
    }
  }
  EXPECT_EQ(ticks, 2u * 5);  // 5 grants, sent and received
  EXPECT_EQ(acks, 2u * 6);   // the boot ack and one per grant
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(SessionTraceTest, OneRecorderTracesRoundsReadsSlicesAndFrames) {
  // The paper's case study, observed and recorded: one Chrome trace from
  // the hub's span rings and flight recorders, on one clock.
  CosimSession session{SessionConfigBuilder{}
                           .t_sync(1000)
                           .cycles_per_tick(10)
                           .observability()
                           .record()
                           .build_or_throw()};
  router::TestbenchConfig tb_cfg;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.packets_per_port = 2;
  tb_cfg.gap_cycles = 8000;
  router::RouterTestbench tb{session.hw().kernel(), tb_cfg,
                             &session.hw().registry()};
  session.hw().watch_interrupt(tb.router().irq(),
                               board::Board::kDeviceVector);
  router::ChecksumApp app{session.board(), router::ChecksumAppConfig{}};
  session.start_board();
  for (int step = 0; step < 400 && !tb.traffic_done(); ++step) {
    ASSERT_TRUE(session.run_cycles(500).ok());
  }
  session.finish();
  ASSERT_TRUE(tb.traffic_done());

  const std::string trace = session.obs().trace_json();
  const u64 syncs = session.hw().stats().syncs;
  const u64 reads = session.board().stats().dev_reads;
  ASSERT_GT(syncs, 0u);
  ASSERT_GT(reads, 0u);
  EXPECT_EQ(count_of(trace, "\"name\":\"barrier\""), syncs)
      << "one barrier span per sync";
  EXPECT_EQ(count_of(trace, "\"name\":\"dev_read\""), reads)
      << "one dev_read span per driver read";
  for (const char* thread : {"systemc", "channel", "idle", "checksum_app"}) {
    EXPECT_NE(trace.find("\"name\":\"" + std::string(thread) + "\""),
              std::string::npos)
        << "RTOS slices of " << thread;
  }

  const auto hw = session.obs().hw_recorder().snapshot();
  const auto board = session.obs().board_recorder().snapshot();
  ASSERT_FALSE(hw.empty());
  EXPECT_EQ(count_of(trace, "\"ph\":\"i\""), hw.size() + board.size())
      << "one instant per recorded frame";

  // Frames and spans stamp on the hub's one epoch: every frame lies within
  // the span range, from the board's first slice to its last.
  const auto spans = session.obs().timeline().snapshot();
  ASSERT_FALSE(spans.empty());
  u64 first = ~u64{0}, last = 0;
  for (const obs::SpanRecord& s : spans) {
    first = std::min(first, s.start_ns);
    last = std::max(last, s.end_ns);
  }
  for (const auto* side : {&hw, &board}) {
    for (const obs::FrameRecord& f : *side) {
      EXPECT_GE(f.wall_ns, first) << "frame seq " << f.seq;
      EXPECT_LE(f.wall_ns, last) << "frame seq " << f.seq;
    }
  }
}

}  // namespace
}  // namespace vhp::cosim
