// The cross-node causal timeline, fiber-free ("timeline-tsan" label): the
// round-id codec, span rings, the critical-path analyzer on synthetic spans,
// offline extraction from recordings, and the SyncCoordinator driven over
// raw inproc channel pairs by plain threads — including the
// metrics-continuity-across-eviction+rejoin satellite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <variant>
#include <vector>

#include "vhp/cosim/sync_coordinator.hpp"
#include "vhp/net/inproc.hpp"
#include "vhp/net/message.hpp"
#include "vhp/net/replay.hpp"
#include "vhp/obs/chrome_trace.hpp"
#include "vhp/obs/hub.hpp"
#include "vhp/obs/metrics.hpp"
#include "vhp/obs/recording.hpp"
#include "vhp/obs/timeline.hpp"

// ---------------------------------------------------------------------------
// Round ids on CLOCK_TICK / TIME_ACK (0 = unstamped), in the one fixed
// layout of each

namespace vhp::net {
namespace {

TEST(MessageCodecV3, ClockTickRoundRoundTrips) {
  const Message original{ClockTick{4000, 7, 42}};
  const Bytes v3 = encode(original);
  EXPECT_EQ(v3.size(), 1u + 8u + 4u + 8u);
  auto decoded = decode(v3);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), original);
}

TEST(MessageCodecV3, ClockTickRejectsTruncatedRound) {
  Bytes frame = encode(Message{ClockTick{4000, 7, 42}});
  frame.resize(frame.size() - 3);
  EXPECT_FALSE(decode(frame).ok());
}

TEST(MessageCodecV3, TimeAckCarriesLookaheadAndRound) {
  const Message original{TimeAck{500, 9000, 42}};
  const Bytes v3 = encode(original);
  EXPECT_EQ(v3.size(), 1u + 8u + 8u + 8u + 8u);
  auto decoded = decode(v3);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), original);
}

TEST(MessageCodecV3, TimeAckWithoutLookaheadUsesSentinelInvisibly) {
  // A round with no lookahead puts kNoLookahead on the wire; the decoder
  // must map it back to nullopt, never surface the sentinel.
  const Message original{TimeAck{500, std::nullopt, 42}};
  auto decoded = decode(encode(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const auto& ack = std::get<TimeAck>(decoded.value());
  EXPECT_FALSE(ack.lookahead.has_value());
  EXPECT_EQ(ack.round, 42u);
}

TEST(MessageCodecV3, TimeAckUnboundedLookaheadCoexistsWithRound) {
  const Message original{TimeAck{1, kLookaheadUnbounded, 3}};
  auto decoded = decode(encode(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), original);
}

TEST(MessageCodecV3, TimeAckRejectsTruncatedRound) {
  Bytes frame = encode(Message{TimeAck{500, 9000, 42}});
  frame.resize(frame.size() - 8 - 5);  // no data_sent, half a round
  EXPECT_FALSE(decode(frame).ok());
}

TEST(MessageCodecV3, TimeAckRejectsTrailingGarbageAfterRound) {
  Bytes frame = encode(Message{TimeAck{500, 9000, 42}});
  frame.push_back(0xAB);
  EXPECT_FALSE(decode(frame).ok());
}

}  // namespace
}  // namespace vhp::net

// ---------------------------------------------------------------------------
// Span rings, analyzer, exports

namespace vhp::obs {
namespace {

TEST(SpanSinkTest, DisabledSinkRecordsNothing) {
  TimelineConfig cfg;  // enabled defaults to false
  SpanSink sink{cfg, "test"};
  EXPECT_FALSE(sink.enabled());
  sink.record({1, 0, SpanPhase::kBarrier, 10, 20, 100});
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.total(SpanPhase::kBarrier).count, 0u);
  EXPECT_TRUE(sink.snapshot().empty());
}

TEST(SpanSinkTest, ZeroCapacityRingSnapshotsEmpty) {
  // Validation rejects a zero ring, but a hand-built sink must not divide
  // by its capacity.
  TimelineConfig cfg;
  cfg.enabled = true;
  cfg.ring_spans = 0;
  Timeline tl{cfg};
  SpanSink& sink = tl.sink("test");
  sink.record({1, 0, SpanPhase::kBarrier, 10, 20, 100});
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_TRUE(sink.snapshot().empty());
  EXPECT_TRUE(tl.snapshot().empty());
}

TEST(SpanSinkTest, RingOverwritesOldestAndCountsDrops) {
  TimelineConfig cfg;
  cfg.enabled = true;
  cfg.ring_spans = 4;
  SpanSink sink{cfg, "test"};
  for (u64 r = 0; r < 6; ++r) {
    sink.record({r, 0, SpanPhase::kBarrier, r * 10, r * 10 + 5, 0});
  }
  EXPECT_EQ(sink.recorded(), 6u);
  EXPECT_EQ(sink.dropped(), 2u);
  const auto spans = sink.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].round, i + 2) << "oldest-first, oldest two evicted";
  }
}

TEST(TimelineTest, SinkIsGetOrCreateAndSnapshotMergesSorted) {
  TimelineConfig cfg;
  cfg.enabled = true;
  Timeline tl{cfg};
  SpanSink& a = tl.sink("fabric");
  SpanSink& a2 = tl.sink("fabric");
  EXPECT_EQ(&a, &a2);
  SpanSink& b = tl.sink("board");
  a.record({1, 0, SpanPhase::kScatter, 50, 60, 0});
  b.record({1, 0, SpanPhase::kCompute, 10, 40, 0});
  const auto merged = tl.snapshot();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].phase, SpanPhase::kCompute);  // sorted by start_ns
  EXPECT_EQ(merged[1].phase, SpanPhase::kScatter);
}

TEST(TimelineTest, ExportPublishesSpanAndDropGauges) {
  TimelineConfig cfg;
  cfg.enabled = true;
  cfg.ring_spans = 2;
  Timeline tl{cfg};
  SpanSink& s = tl.sink("fabric");
  for (u64 r = 0; r < 3; ++r) {
    s.record({r, 0, SpanPhase::kBarrier, r, r + 1, 0});
  }
  MetricsRegistry reg;
  tl.export_to(reg);
  EXPECT_EQ(reg.gauge("timeline.spans").value(), 3);
  EXPECT_EQ(reg.gauge("timeline.dropped_spans").value(), 1);
}

TEST(TimelineTest, NowNsIsMonotoneOnTheEpoch) {
  Timeline tl{TimelineConfig{.enabled = true}};
  const u64 a = tl.now_ns();
  const u64 b = tl.now_ns();
  EXPECT_LE(a, b);
}

/// Synthetic two-round, two-node window with exact round-trip numbers so
/// every analyzer output is checkable by hand. Round 1 (cycle 1000): node 1
/// straggles (ack at 100 vs node 0's at 40). Round 2 (cycle 2000): node 0
/// straggles.
std::vector<SpanRecord> synthetic_spans() {
  return {
      // round 1
      {1, 0, SpanPhase::kScatter, 0, 2, 1000},
      {1, 0, SpanPhase::kNodeWait, 0, 40, 1000},
      {1, 1, SpanPhase::kNodeWait, 0, 100, 1000},
      {1, 0, SpanPhase::kCompute, 10, 30, 1000},
      {1, 1, SpanPhase::kCompute, 20, 80, 1000},
      {1, 0, SpanPhase::kGather, 0, 100, 1000},
      {1, 0, SpanPhase::kBarrier, 0, 100, 1000},
      // round 2 (master computes 100..200 between the rounds)
      {2, 0, SpanPhase::kScatter, 200, 201, 2000},
      {2, 0, SpanPhase::kNodeWait, 200, 260, 2000},
      {2, 1, SpanPhase::kNodeWait, 200, 230, 2000},
      {2, 0, SpanPhase::kCompute, 210, 250, 2000},
      {2, 1, SpanPhase::kCompute, 205, 215, 2000},
      {2, 0, SpanPhase::kGather, 200, 260, 2000},
      {2, 0, SpanPhase::kBarrier, 200, 260, 2000},
  };
}

TEST(AnalyzerTest, DecomposesWallClockAndNamesStragglers) {
  const TimelineAnalysis a =
      analyze_spans(synthetic_spans(), {{0, "alpha"}, {1, "beta"}});

  ASSERT_EQ(a.rounds.size(), 2u);
  EXPECT_EQ(a.rounds[0].round, 1u);
  EXPECT_EQ(a.rounds[0].cycle, 1000u);
  EXPECT_EQ(a.rounds[0].straggler, 1u);
  EXPECT_EQ(a.rounds[0].straggler_wait_ns, 60u);  // 100 − 40
  EXPECT_EQ(a.rounds[1].straggler, 0u);
  EXPECT_EQ(a.rounds[1].straggler_wait_ns, 30u);  // 260 − 230

  EXPECT_EQ(a.wall_ns, 260u);
  EXPECT_EQ(a.barrier_wall_ns, 160u);    // 100 + 60
  EXPECT_EQ(a.master_compute_ns, 100u);  // the 100..200 gap
  EXPECT_EQ(a.virtual_cycles, 1000u);
  EXPECT_DOUBLE_EQ(a.slowdown, 260.0 / 1000.0);
  // critical = 100 (round 1) + 60 (round 2); attributed = 100 + 160 = wall.
  EXPECT_DOUBLE_EQ(a.reconciliation_error, 0.0);

  ASSERT_EQ(a.nodes.size(), 2u);
  const NodeAttribution& alpha = a.nodes[0];
  EXPECT_EQ(alpha.name, "alpha");
  EXPECT_EQ(alpha.rounds, 2u);
  EXPECT_EQ(alpha.wait_ns, 100u);     // 40 + 60
  EXPECT_EQ(alpha.compute_ns, 60u);   // 20 + 40
  EXPECT_EQ(alpha.transport_ns, 40u); // (40−20) + (60−40)
  EXPECT_EQ(alpha.straggler_rounds, 1u);
  const NodeAttribution& beta = a.nodes[1];
  EXPECT_EQ(beta.wait_ns, 130u);      // 100 + 30
  EXPECT_EQ(beta.compute_ns, 70u);    // 60 + 10
  EXPECT_EQ(beta.straggler_rounds, 1u);
}

TEST(AnalyzerTest, EmptySpansYieldEmptyAnalysis) {
  const TimelineAnalysis a = analyze_spans({});
  EXPECT_TRUE(a.rounds.empty());
  EXPECT_TRUE(a.nodes.empty());
  EXPECT_EQ(a.wall_ns, 0u);
  EXPECT_DOUBLE_EQ(a.slowdown, 0.0);
  EXPECT_DOUBLE_EQ(a.reconciliation_error, 0.0);
}

TEST(AnalyzerTest, ReportsRenderNamesAndHeadlines) {
  const TimelineAnalysis a =
      analyze_spans(synthetic_spans(), {{0, "alpha"}, {1, "beta"}});
  const std::string timeline = timeline_report_text(a);
  EXPECT_NE(timeline.find("rounds: 2"), std::string::npos);
  EXPECT_NE(timeline.find("straggler"), std::string::npos);
  const std::string critical = critical_report_text(a);
  EXPECT_NE(critical.find("alpha"), std::string::npos);
  EXPECT_NE(critical.find("slowdown"), std::string::npos);
  EXPECT_NE(critical.find("reconciliation"), std::string::npos);
}

TEST(AnalyzerTest, JsonCarriesTotalsAndPerNodeAttribution) {
  const std::string json = timeline_analysis_json(analyze_spans(
      synthetic_spans(), {{0, "alpha"}, {1, "beta"}}));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"wall_ns\":260", "\"barrier_wall_ns\":160",
        "\"master_compute_ns\":100", "\"slowdown\":", "\"rounds\":2",
        "\"reconciliation_error\":", "\"nodes\":[", "\"alpha\"", "\"beta\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(AnalyzerTest, IgnoresTheNonRoundPhases) {
  // Slices, driver reads, evictions and rejoins annotate the run; the
  // round analysis must come out exactly as without them.
  std::vector<SpanRecord> spans = synthetic_spans();
  spans.push_back({1, 0, SpanPhase::kSlice, 0, 300, 1000, span_label("app")});
  spans.push_back({7, 1, SpanPhase::kDevRead, 5, 500, 1000, 0x40});
  spans.push_back({2, 1, SpanPhase::kEvict, 400, 400, 2000});
  spans.push_back({3, 1, SpanPhase::kRejoin, 450, 450, 9000});
  const TimelineAnalysis plain =
      analyze_spans(synthetic_spans(), {{0, "alpha"}, {1, "beta"}});
  const TimelineAnalysis mixed =
      analyze_spans(spans, {{0, "alpha"}, {1, "beta"}});
  EXPECT_EQ(timeline_analysis_json(mixed), timeline_analysis_json(plain));
  ASSERT_EQ(mixed.rounds.size(), 2u);
  EXPECT_EQ(mixed.wall_ns, 260u);
  EXPECT_DOUBLE_EQ(mixed.reconciliation_error, 0.0);
  // Only annotations: no rounds at all.
  EXPECT_TRUE(analyze_spans({spans.begin() + 14, spans.end()}).rounds.empty());
}

TEST(AnalyzerTest, ChromeExportHasOneTrackPerNode) {
  const std::string json =
      chrome_trace_json(synthetic_spans(), {}, {{1, "beta"}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("beta"), std::string::npos);
  EXPECT_NE(json.find("compute"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Percentile satellite: p50/p95/p99 on the power-of-two histograms

TEST(PercentileTest, QuantilesAreBucketUpperEdgesAndOrdered) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile_ns(0.5), 0u);  // empty
  for (u64 i = 0; i < 90; ++i) h.record_ns(1000);    // bucket [512, 1024)
  for (u64 i = 0; i < 9; ++i) h.record_ns(100000);   // ~2^16
  h.record_ns(2000000);                              // ~2^20
  const u64 p50 = h.percentile_ns(0.5);
  const u64 p95 = h.percentile_ns(0.95);
  const u64 p99 = h.percentile_ns(0.99);
  EXPECT_EQ(p50, (u64{1} << 10) - 1);  // upper edge of the 1000ns bucket
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p95, 100000u);  // the tail samples pull p95 up an octave stack
  EXPECT_GE(h.percentile_ns(1.0), 2000000u);  // max lands in the top sample
}

TEST(PercentileTest, HistogramJsonCarriesP50P95P99) {
  MetricsRegistry reg;
  reg.histogram("sync.wait").record_ns(5000);
  const std::string json = reg.to_json();
  for (const char* key : {"\"p50_ns\":", "\"p95_ns\":", "\"p99_ns\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// ---------------------------------------------------------------------------
// Recording reader hardening satellite

class RecordingFileTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs this fixture's tests as concurrent
  // processes, which must not write or remove each other's file.
  std::string path_ =
      (std::filesystem::temp_directory_path() /
       (std::string("vhp_timeline_rec_test.") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".vhprec"))
          .string();
  void TearDown() override { std::filesystem::remove(path_); }

  Recording small_recording() {
    Recording rec;
    rec.meta.side = "hw";
    FrameRecord f;
    f.seq = 0;
    f.port = LinkPort::kClock;
    f.dir = LinkDir::kTx;
    f.payload = net::encode(net::Message{net::ClockTick{10, 10}});
    f.payload_size = static_cast<u32>(f.payload.size());
    f.msg_type = f.payload.empty() ? 0 : f.payload[0];
    rec.frames.push_back(std::move(f));
    return rec;
  }
};

TEST_F(RecordingFileTest, RejectsTrailingBytesAfterLastFrame) {
  ASSERT_TRUE(write_recording(path_, small_recording(), RecordingFormat::kBinary).ok());
  {
    std::ofstream f(path_, std::ios::binary | std::ios::app);
    f << "JUNKJUNK";
  }
  const auto result = read_recording(path_);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("trailing"), std::string::npos)
      << result.status();
}

TEST_F(RecordingFileTest, RejectsTruncatedFile) {
  ASSERT_TRUE(write_recording(path_, small_recording(), RecordingFormat::kBinary).ok());
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size / 2);
  EXPECT_FALSE(read_recording(path_).ok());
}

TEST_F(RecordingFileTest, RejectsGarbageMagic) {
  // Garbage, and a well-formed file under an earlier layout's magic.
  ASSERT_TRUE(write_recording(path_, small_recording(), RecordingFormat::kBinary).ok());
  std::string body;
  {
    std::ifstream f(path_, std::ios::binary);
    body.assign(std::istreambuf_iterator<char>(f), {});
  }
  ASSERT_TRUE(read_recording(path_).ok());
  for (const std::string& head :
       {std::string("NOTAVHPRECFILE_WITH_SOME_PADDING_BYTES"),
        "VHPREC01" + body.substr(8)}) {
    {
      std::ofstream f(path_, std::ios::binary | std::ios::trunc);
      f << head;
    }
    EXPECT_FALSE(read_recording(path_).ok()) << head.substr(0, 8);
  }
}

}  // namespace
}  // namespace vhp::obs

// ---------------------------------------------------------------------------
// Offline extraction: spans out of .vhprec frame streams

namespace vhp::net {
namespace {

obs::FrameRecord clock_frame(u64 seq, u32 node, obs::LinkDir dir,
                             const Message& msg, u64 wall_ns) {
  obs::FrameRecord f;
  f.seq = seq;
  f.port = obs::LinkPort::kClock;
  f.dir = dir;
  f.node = node;
  f.wall_ns = wall_ns;
  f.payload = encode(msg);
  f.payload_size = static_cast<u32>(f.payload.size());
  f.msg_type = f.payload[0];
  return f;
}

TEST(TimelineFromRecordingsTest, JoinsTicksAndAcksIntoRoundSpans) {
  obs::Recording hw;
  hw.meta.side = "hw";
  u64 seq = 0;
  // Round 1 at cycle 100: both nodes ticked, node 1 straggles.
  hw.frames.push_back(clock_frame(seq++, 0, obs::LinkDir::kTx,
                                  Message{ClockTick{100, 10, 1}}, 10));
  hw.frames.push_back(clock_frame(seq++, 1, obs::LinkDir::kTx,
                                  Message{ClockTick{100, 10, 1}}, 12));
  hw.frames.push_back(clock_frame(seq++, 0, obs::LinkDir::kRx,
                                  Message{TimeAck{10, std::nullopt, 1}}, 40));
  hw.frames.push_back(clock_frame(seq++, 1, obs::LinkDir::kRx,
                                  Message{TimeAck{10, std::nullopt, 1}}, 90));
  // Round 2 at cycle 200: node 0 only.
  hw.frames.push_back(clock_frame(seq++, 0, obs::LinkDir::kTx,
                                  Message{ClockTick{200, 10, 2}}, 150));
  hw.frames.push_back(clock_frame(seq++, 0, obs::LinkDir::kRx,
                                  Message{TimeAck{20, std::nullopt, 2}}, 180));

  obs::Recording board;  // node 0's own side: compute span 15..35
  board.meta.side = "board";
  board.frames.push_back(clock_frame(0, 0, obs::LinkDir::kRx,
                                     Message{ClockTick{100, 10, 1}}, 15));
  board.frames.push_back(clock_frame(1, 0, obs::LinkDir::kTx,
                                     Message{TimeAck{10, std::nullopt, 1}},
                                     35));

  const auto spans = timeline_from_recordings(hw, {board});
  const obs::TimelineAnalysis a = obs::analyze_spans(spans);
  ASSERT_EQ(a.rounds.size(), 2u);
  EXPECT_EQ(a.rounds[0].round, 1u);
  EXPECT_EQ(a.rounds[0].cycle, 100u);
  EXPECT_EQ(a.rounds[0].straggler, 1u);
  EXPECT_EQ(a.rounds[1].round, 2u);

  u64 waits = 0, computes = 0;
  for (const auto& s : spans) {
    if (s.phase == obs::SpanPhase::kNodeWait) ++waits;
    if (s.phase == obs::SpanPhase::kCompute) {
      ++computes;
      EXPECT_EQ(s.start_ns, 15u);
      EXPECT_EQ(s.end_ns, 35u);
    }
  }
  EXPECT_EQ(waits, 3u);
  EXPECT_EQ(computes, 1u);
}

TEST(TimelineFromRecordingsTest, SynthesizesRoundsForUnstampedRecordings) {
  // Every tick and ack at round 0 (an unobserved run): grouping by grant
  // sim-cycle must still produce one round per barrier, and the board
  // side's spans must join those synthesized rounds.
  obs::Recording hw;
  hw.meta.side = "hw";
  hw.frames.push_back(clock_frame(0, 0, obs::LinkDir::kTx,
                                  Message{ClockTick{100, 10}}, 10));
  hw.frames.push_back(clock_frame(1, 0, obs::LinkDir::kRx,
                                  Message{TimeAck{10}}, 30));
  hw.frames.push_back(clock_frame(2, 0, obs::LinkDir::kTx,
                                  Message{ClockTick{200, 10}}, 50));
  hw.frames.push_back(clock_frame(3, 0, obs::LinkDir::kRx,
                                  Message{TimeAck{20}}, 70));
  obs::Recording board;
  board.meta.side = "board";
  board.frames.push_back(clock_frame(0, 0, obs::LinkDir::kRx,
                                     Message{ClockTick{200, 10}}, 55));
  board.frames.push_back(clock_frame(1, 0, obs::LinkDir::kTx,
                                     Message{TimeAck{20}}, 65));
  const auto spans = timeline_from_recordings(hw, {board});
  const obs::TimelineAnalysis a = obs::analyze_spans(spans);
  ASSERT_EQ(a.rounds.size(), 2u);
  EXPECT_NE(a.rounds[0].round, 0u);
  EXPECT_NE(a.rounds[0].round, a.rounds[1].round);
  EXPECT_EQ(a.rounds[0].cycle, 100u);
  EXPECT_EQ(a.rounds[1].cycle, 200u);
  u64 computes = 0;
  for (const auto& s : spans) {
    if (s.phase != obs::SpanPhase::kCompute) continue;
    ++computes;
    EXPECT_EQ(s.round, a.rounds[1].round);
  }
  EXPECT_EQ(computes, 1u);
}

TEST(TimelineFromRecordingsTest, SkipsBootAcksInjectedAndTruncatedFrames) {
  obs::Recording hw;
  hw.meta.side = "hw";
  // Boot ack with no preceding tick: must not fabricate a wait span.
  hw.frames.push_back(clock_frame(0, 0, obs::LinkDir::kRx,
                                  Message{TimeAck{0}}, 5));
  auto injected = clock_frame(1, 0, obs::LinkDir::kTx,
                              Message{ClockTick{100, 10, 1}}, 8);
  injected.flags = obs::kFrameFlagInjected;
  hw.frames.push_back(injected);
  auto truncated = clock_frame(2, 0, obs::LinkDir::kTx,
                               Message{ClockTick{100, 10, 1}}, 9);
  truncated.truncated = true;
  hw.frames.push_back(truncated);
  EXPECT_TRUE(timeline_from_recordings(hw).empty());
}

}  // namespace
}  // namespace vhp::net

// ---------------------------------------------------------------------------
// SyncCoordinator round stamping + metrics continuity across evict/rejoin

namespace vhp::fabric {
namespace {

using namespace std::chrono_literals;
using cosim::SyncCoordinator;
using cosim::SyncPolicy;

struct NodeLog {
  std::vector<net::ClockTick> ticks;
  std::vector<u64> ack_rounds_sent;
};

/// A node emulator: boot frozen TIME_ACK, then answers every
/// CLOCK_TICK echoing the round id it saw (exactly what board::Board does).
std::thread spawn_echo_node(net::Channel& clock, NodeLog& log) {
  return std::thread([&clock, &log] {
    ASSERT_TRUE(net::send_msg(clock, net::TimeAck{0}).ok());
    u64 board_tick = 0;
    for (;;) {
      auto msg = net::recv_msg(clock, 2000ms);
      if (!msg.ok()) return;
      if (std::holds_alternative<net::Shutdown>(msg.value())) return;
      ASSERT_TRUE(std::holds_alternative<net::ClockTick>(msg.value()));
      const auto tick = std::get<net::ClockTick>(msg.value());
      log.ticks.push_back(tick);
      board_tick += tick.n_ticks;
      log.ack_rounds_sent.push_back(tick.round);
      ASSERT_TRUE(net::send_msg(
                      clock, net::TimeAck{board_tick, std::nullopt,
                                          tick.round})
                      .ok());
    }
  });
}

/// Flaky variant for the eviction/rejoin continuity test: answers (with the
/// round echoed) only while `answering`; `announce` raises one frozen ack.
std::thread spawn_flaky_echo_node(net::Channel& clock,
                                  std::atomic<bool>& answering,
                                  std::atomic<bool>& announce) {
  return std::thread([&clock, &answering, &announce] {
    ASSERT_TRUE(net::send_msg(clock, net::TimeAck{0}).ok());
    u64 board_tick = 0;
    for (;;) {
      auto msg = net::recv_msg(clock, 25ms);
      if (!msg.ok()) {
        if (msg.status().code() != StatusCode::kDeadlineExceeded) return;
        if (announce.exchange(false)) {
          ASSERT_TRUE(net::send_msg(clock, net::TimeAck{board_tick}).ok());
        }
        continue;
      }
      if (std::holds_alternative<net::Shutdown>(msg.value())) return;
      ASSERT_TRUE(std::holds_alternative<net::ClockTick>(msg.value()));
      const auto tick = std::get<net::ClockTick>(msg.value());
      if (!answering.load()) continue;  // swallow the grant: straggle
      board_tick += tick.n_ticks;
      ASSERT_TRUE(net::send_msg(
                      clock, net::TimeAck{board_tick, std::nullopt,
                                          tick.round})
                      .ok());
    }
  });
}

obs::ObsConfig timeline_obs_config() {
  obs::ObsConfig cfg;
  cfg.timeline.enabled = true;
  return cfg;
}

TEST(CoordinatorTimelineTest, StampsMonotoneRoundsAndRecordsSpans) {
  auto [m0, b0] = net::make_inproc_channel_pair();
  auto [m1, b1] = net::make_inproc_channel_pair();
  obs::Hub hub{timeline_obs_config()};
  SyncCoordinator coord{SyncPolicy{}.quantum(10), {m0.get(), m1.get()},
                        {"a", "b"}, &hub};
  NodeLog log0, log1;
  std::thread t0 = spawn_echo_node(*b0, log0);
  std::thread t1 = spawn_echo_node(*b1, log1);

  ASSERT_TRUE(coord.handshake().ok());
  EXPECT_EQ(coord.rounds(), 0u);
  for (u64 cycle = 10; cycle <= 30; cycle += 10) {
    ASSERT_TRUE(coord.run_barrier(cycle).ok());
  }
  EXPECT_EQ(coord.rounds(), 3u);
  coord.shutdown();
  t0.join();
  t1.join();

  for (const NodeLog* log : {&log0, &log1}) {
    ASSERT_EQ(log->ticks.size(), 3u);
    for (std::size_t i = 0; i < log->ticks.size(); ++i) {
      EXPECT_EQ(log->ticks[i].round, i + 1) << "rounds start at 1";
    }
  }

  const auto spans = hub.timeline().snapshot();
  ASSERT_FALSE(spans.empty());
  bool saw_scatter = false, saw_gather = false, saw_wait = false,
       saw_barrier = false;
  for (const auto& s : spans) {
    EXPECT_GE(s.round, 1u);
    EXPECT_LE(s.round, 3u);
    EXPECT_LE(s.start_ns, s.end_ns);
    switch (s.phase) {
      case obs::SpanPhase::kScatter: saw_scatter = true; break;
      case obs::SpanPhase::kGather: saw_gather = true; break;
      case obs::SpanPhase::kNodeWait: saw_wait = true; break;
      case obs::SpanPhase::kBarrier:
        saw_barrier = true;
        EXPECT_EQ(s.cycle % 10, 0u);
        break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_scatter);
  EXPECT_TRUE(saw_gather);
  EXPECT_TRUE(saw_wait);
  EXPECT_TRUE(saw_barrier);

  const obs::TimelineAnalysis a = obs::analyze_spans(spans, {{0, "a"},
                                                            {1, "b"}});
  EXPECT_EQ(a.rounds.size(), 3u);
  EXPECT_EQ(a.virtual_cycles, 20u);  // grants at cycles 10, 20, 30
}

TEST(CoordinatorTimelineTest, DisabledTimelineStampsRoundZero) {
  auto [m0, b0] = net::make_inproc_channel_pair();
  SyncCoordinator coord{SyncPolicy{}.quantum(10), {m0.get()}};  // no hub

  NodeLog log;
  std::thread t = spawn_echo_node(*b0, log);
  ASSERT_TRUE(coord.handshake().ok());
  ASSERT_TRUE(coord.run_barrier(10).ok());
  ASSERT_TRUE(coord.run_barrier(20).ok());
  coord.shutdown();
  t.join();
  EXPECT_EQ(coord.rounds(), 0u);
  ASSERT_EQ(log.ticks.size(), 2u);
  for (const net::ClockTick& tick : log.ticks) {
    EXPECT_EQ(tick.round, 0u)
        << "default runs send unstamped ticks, byte-exact across runs";
  }
}

TEST(CoordinatorTimelineTest, MetricsAndRoundsContinueAcrossEvictAndRejoin) {
  // The eviction/rejoin continuity satellite: counters must neither reset
  // nor double-count across an eviction and a rejoin, and wire round ids
  // must stay strictly monotone (never reissued to the returning node).
  auto [m0, b0] = net::make_inproc_channel_pair();
  auto [m1, b1] = net::make_inproc_channel_pair();
  obs::Hub hub{timeline_obs_config()};
  SyncCoordinator coord{
      SyncPolicy{}.quantum(10).watchdog(100ms).evict_after(2),
      {m0.get(), m1.get()},
      {"good", "flaky"},
      &hub};

  std::atomic<bool> good_on{true}, good_announce{false};
  std::atomic<bool> flaky_on{true}, flaky_announce{false};
  std::thread good = spawn_flaky_echo_node(*b0, good_on, good_announce);
  std::thread flaky = spawn_flaky_echo_node(*b1, flaky_on, flaky_announce);

  ASSERT_TRUE(coord.handshake().ok());
  const u64 acks_boot = coord.acks_received();
  EXPECT_EQ(acks_boot, 2u);

  ASSERT_TRUE(coord.run_barrier(10).ok());
  const u64 rounds_before = coord.rounds();
  const u64 acks_before = coord.acks_received();
  EXPECT_EQ(rounds_before, 1u);
  EXPECT_EQ(acks_before, acks_boot + 2);

  // Eviction: two missed watchdog intervals; only the survivor acks.
  flaky_on = false;
  ASSERT_TRUE(coord.run_barrier(20).ok());
  EXPECT_FALSE(coord.alive(1));
  const u64 rounds_evicted = coord.rounds();
  const u64 acks_evicted = coord.acks_received();
  EXPECT_GT(rounds_evicted, rounds_before) << "rounds must not reset";
  EXPECT_EQ(acks_evicted, acks_before + 1) << "one ack, not double-counted";

  ASSERT_TRUE(coord.run_barrier(30).ok());
  EXPECT_EQ(coord.acks_received(), acks_evicted + 1);

  // Rejoin: the handshake ack is counted once; rounds keep climbing from
  // where they were, and the barrier histogram keeps its history.
  flaky_on = true;
  flaky_announce = true;
  ASSERT_TRUE(coord.rejoin(1, 30).ok());
  const u64 acks_rejoined = coord.acks_received();
  EXPECT_EQ(acks_rejoined, acks_evicted + 2);

  ASSERT_TRUE(coord.run_barrier(40).ok());
  EXPECT_EQ(coord.rounds(), rounds_evicted + 2);
  EXPECT_GT(coord.rounds(), rounds_evicted);
  EXPECT_EQ(coord.acks_received(), acks_rejoined + 2);
  EXPECT_EQ(coord.barriers(), 4u);
  EXPECT_EQ(coord.evictions(), 1u);
  EXPECT_EQ(coord.rejoins(), 1u);

  coord.shutdown();
  good.join();
  flaky.join();

  // Every round id that reached the wire is distinct and increasing.
  std::vector<u64> wire_rounds;
  for (const auto& s : hub.timeline().snapshot()) {
    if (s.phase == obs::SpanPhase::kBarrier) wire_rounds.push_back(s.round);
  }
  ASSERT_FALSE(wire_rounds.empty());
  for (std::size_t i = 1; i < wire_rounds.size(); ++i) {
    EXPECT_GT(wire_rounds[i], wire_rounds[i - 1])
        << "round ids reissued across rejoin";
  }
}

}  // namespace
}  // namespace vhp::fabric
