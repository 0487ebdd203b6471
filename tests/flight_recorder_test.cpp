// Flight recorder unit tests: ring semantics (eviction, truncation,
// sequence/digest bookkeeping), the on-disk recording round-trip in both
// encodings, the divergence checker, and the report renderers backing the
// vhptrace subcommands.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "vhp/common/checksum.hpp"
#include "vhp/obs/chrome_trace.hpp"
#include "vhp/obs/flight_recorder.hpp"
#include "vhp/obs/metrics.hpp"
#include "vhp/obs/recording.hpp"

namespace vhp::obs {
namespace {

Bytes frame_of(std::initializer_list<u8> bytes) { return Bytes{bytes}; }

FlightRecorderConfig enabled_config() {
  FlightRecorderConfig cfg;
  cfg.enabled = true;
  return cfg;
}

/// A fully self-consistent FrameRecord, the way the recorder would stamp it.
FrameRecord make_frame(u64 seq, LinkPort port, LinkDir dir,
                       std::initializer_list<u8> payload) {
  FrameRecord r;
  r.seq = seq;
  r.port = port;
  r.dir = dir;
  r.payload = Bytes{payload};
  r.msg_type = r.payload.empty() ? 0 : r.payload[0];
  r.payload_size = static_cast<u32>(r.payload.size());
  r.digest = crc32(r.payload);
  r.hw_cycle = 10 * seq;
  r.board_tick = seq;
  r.wall_ns = 1000 * seq;
  return r;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// The clock a standalone recorder stamps on (a hub passes its timeline).
const Timeline& test_clock() {
  static const Timeline clock;
  return clock;
}

// ---------------------------------------------------------------------------
// FlightRecorder (the ring)

TEST(FlightRecorderTest, DisabledRecorderIsANoOp) {
  // FlightRecorderConfig::enabled defaults to false.
  FlightRecorder rec{FlightRecorderConfig{}, "hw", test_clock()};
  EXPECT_FALSE(rec.enabled());
  const auto frame = frame_of({5, 1, 2, 3});
  rec.record(LinkPort::kClock, LinkDir::kTx, frame);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.evicted(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(FlightRecorderTest, RecordsFullFrameMetadata) {
  FlightRecorder rec{enabled_config(), "hw", test_clock()};
  const auto frame = frame_of({6, 0x10, 0x20, 0x30});
  rec.record(LinkPort::kClock, LinkDir::kRx, frame);

  const auto ring = rec.snapshot();
  ASSERT_EQ(ring.size(), 1u);
  const FrameRecord& r = ring[0];
  EXPECT_EQ(r.seq, 0u);
  EXPECT_EQ(r.port, LinkPort::kClock);
  EXPECT_EQ(r.dir, LinkDir::kRx);
  EXPECT_EQ(r.msg_type, 6u);  // first body byte (MsgType::kTimeAck)
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.payload_size, 4u);
  EXPECT_EQ(r.payload, frame);
  EXPECT_EQ(r.digest, crc32(frame));
}

TEST(FlightRecorderTest, SequenceIsGlobalAcrossPorts) {
  FlightRecorder rec{enabled_config(), "hw", test_clock()};
  rec.record(LinkPort::kData, LinkDir::kTx, frame_of({1}));
  rec.record(LinkPort::kInt, LinkDir::kTx, frame_of({4}));
  rec.record(LinkPort::kClock, LinkDir::kRx, frame_of({6}));
  const auto ring = rec.snapshot();
  ASSERT_EQ(ring.size(), 3u);
  for (u64 i = 0; i < 3; ++i) EXPECT_EQ(ring[i].seq, i);
  EXPECT_EQ(ring[0].port, LinkPort::kData);
  EXPECT_EQ(ring[1].port, LinkPort::kInt);
  EXPECT_EQ(ring[2].port, LinkPort::kClock);
}

TEST(FlightRecorderTest, RingEvictsOldestAndCounts) {
  FlightRecorderConfig cfg = enabled_config();
  cfg.ring_frames = 4;
  FlightRecorder rec{cfg, "hw", test_clock()};
  for (u8 i = 0; i < 7; ++i) {
    rec.record(LinkPort::kData, LinkDir::kTx, frame_of({1, i}));
  }
  EXPECT_EQ(rec.recorded(), 7u);
  EXPECT_EQ(rec.evicted(), 3u);
  const auto ring = rec.snapshot();
  ASSERT_EQ(ring.size(), 4u);
  // Oldest-first, the survivors are seq 3..6.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].seq, 3 + i);
    EXPECT_EQ(ring[i].payload[1], static_cast<u8>(3 + i));
  }
}

TEST(FlightRecorderTest, TruncatesLongPayloadsButKeepsSizeAndDigest) {
  FlightRecorderConfig cfg = enabled_config();
  cfg.max_payload_bytes = 4;
  FlightRecorder rec{cfg, "hw", test_clock()};
  const Bytes full{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  rec.record(LinkPort::kData, LinkDir::kTx, full);

  const auto ring = rec.snapshot();
  ASSERT_EQ(ring.size(), 1u);
  const FrameRecord& r = ring[0];
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.payload, (Bytes{1, 2, 3, 4}));   // stored prefix
  EXPECT_EQ(r.payload_size, 10u);              // true size
  EXPECT_EQ(r.digest, crc32(full));            // digest of the whole frame
}

TEST(FlightRecorderTest, StampsVirtualTimeFromWiredSources) {
  FlightRecorder rec{enabled_config(), "hw", test_clock()};
  rec.set_hw_time_source([] { return u64{1234}; });
  rec.set_board_time_source([] { return u64{56}; });
  rec.record(LinkPort::kClock, LinkDir::kTx, frame_of({5}));
  const auto ring = rec.snapshot();
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring[0].hw_cycle, 1234u);
  EXPECT_EQ(ring[0].board_tick, 56u);
}

TEST(FlightRecorderTest, ExportsGaugesUnderSideName) {
  FlightRecorderConfig cfg = enabled_config();
  cfg.ring_frames = 2;
  FlightRecorder rec{cfg, "board", test_clock()};
  for (int i = 0; i < 5; ++i) {
    rec.record(LinkPort::kInt, LinkDir::kRx, frame_of({4}));
  }
  MetricsRegistry registry;
  rec.export_to(registry);
  EXPECT_EQ(registry.gauge("obs.record.board.frames").value(), 5);
  EXPECT_EQ(registry.gauge("obs.record.board.evicted").value(), 3);
}

// ---------------------------------------------------------------------------
// On-disk recording round-trip

Recording sample_recording() {
  Recording rec;
  rec.meta.side = "hw";
  rec.meta.tags = {{"t_sync", "100"}, {"n_packets", "8"}};
  rec.frames.push_back(make_frame(0, LinkPort::kClock, LinkDir::kRx, {6, 0}));
  rec.frames.push_back(
      make_frame(1, LinkPort::kData, LinkDir::kTx, {3, 0x04, 0x02, 0xff}));
  rec.frames.push_back(make_frame(2, LinkPort::kInt, LinkDir::kTx, {4, 9}));
  // A truncated record: stored prefix shorter than the true payload.
  FrameRecord cut = make_frame(3, LinkPort::kData, LinkDir::kTx, {1, 2});
  cut.truncated = true;
  cut.payload_size = 40;
  cut.digest = 0xdeadbeef;
  rec.frames.push_back(cut);
  return rec;
}

void expect_recordings_equal(const Recording& a, const Recording& b) {
  EXPECT_EQ(a.meta.side, b.meta.side);
  EXPECT_EQ(a.meta.tags, b.meta.tags);
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    const FrameRecord& x = a.frames[i];
    const FrameRecord& y = b.frames[i];
    EXPECT_EQ(x.seq, y.seq) << "frame " << i;
    EXPECT_EQ(x.port, y.port) << "frame " << i;
    EXPECT_EQ(x.dir, y.dir) << "frame " << i;
    EXPECT_EQ(x.msg_type, y.msg_type) << "frame " << i;
    EXPECT_EQ(x.truncated, y.truncated) << "frame " << i;
    EXPECT_EQ(x.hw_cycle, y.hw_cycle) << "frame " << i;
    EXPECT_EQ(x.board_tick, y.board_tick) << "frame " << i;
    EXPECT_EQ(x.wall_ns, y.wall_ns) << "frame " << i;
    EXPECT_EQ(x.payload_size, y.payload_size) << "frame " << i;
    EXPECT_EQ(x.digest, y.digest) << "frame " << i;
    EXPECT_EQ(x.payload, y.payload) << "frame " << i;
  }
}

TEST(RecordingFormatTest, BinaryRoundTripPreservesEverything) {
  const Recording rec = sample_recording();
  const std::string path = temp_path("fr_roundtrip.vhprec");
  ASSERT_TRUE(write_recording(path, rec, RecordingFormat::kBinary).ok());
  auto back = read_recording(path);
  ASSERT_TRUE(back.ok()) << back.status();
  expect_recordings_equal(rec, back.value());
  std::remove(path.c_str());
}

TEST(RecordingFormatTest, JsonlRoundTripPreservesEverything) {
  const Recording rec = sample_recording();
  const std::string path = temp_path("fr_roundtrip.jsonl");
  ASSERT_TRUE(write_recording(path, rec, RecordingFormat::kJsonl).ok());
  auto back = read_recording(path);  // auto-detected from the '{' header
  ASSERT_TRUE(back.ok()) << back.status();
  expect_recordings_equal(rec, back.value());
  std::remove(path.c_str());
}

TEST(RecordingFormatTest, JsonlRejectsNumbersThatDoNotFit) {
  const std::string header =
      R"({"format":"vhp-recording","version":1,"side":"hw","frames":1,)"
      R"("tags":{}})";
  const std::string tail =
      R"(,"type":5,"hw_cycle":1,"board_tick":0,"wall_ns":1,"size":0,)"
      R"("digest":0,"payload":""})";
  const auto read_line = [&](const std::string& frame) {
    const std::string path = temp_path(
        std::string("fr_numbers.") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".jsonl");
    {
      std::FILE* f = std::fopen(path.c_str(), "w");
      std::fputs((header + "\n" + frame + tail + "\n").c_str(), f);
      std::fclose(f);
    }
    auto r = read_recording(path);
    std::remove(path.c_str());
    return r;
  };
  // Past 2^64 and past 2^32: the reader used to wrap these to seq 1, node 1.
  auto wrapped = read_line(
      R"({"seq":18446744073709551617,"node":4294967297,"port":"data","dir":"tx")");
  ASSERT_FALSE(wrapped.ok());
  EXPECT_NE(wrapped.status().message().find("line 2"), std::string::npos)
      << wrapped.status();
  EXPECT_NE(wrapped.status().message().find("\"seq\""), std::string::npos)
      << wrapped.status();
  auto node = read_line(
      R"({"seq":1,"node":4294967297,"port":"data","dir":"tx")");
  ASSERT_FALSE(node.ok());
  EXPECT_NE(node.status().message().find("\"node\""), std::string::npos)
      << node.status();
  auto flags = read_line(R"({"seq":1,"flags":256,"port":"data","dir":"tx")");
  EXPECT_FALSE(flags.ok());
  auto text = read_line(R"({"seq":1,"node":x1,"port":"data","dir":"tx")");
  EXPECT_FALSE(text.ok());
  // The largest values that fit still read back exactly.
  auto max = read_line(
      R"({"seq":18446744073709551615,"node":4294967295,"flags":255,)"
      R"("port":"data","dir":"tx")");
  ASSERT_TRUE(max.ok()) << max.status();
  ASSERT_EQ(max.value().frames.size(), 1u);
  EXPECT_EQ(max.value().frames[0].seq, ~u64{0});
  EXPECT_EQ(max.value().frames[0].node, ~u32{0});
  EXPECT_EQ(max.value().frames[0].flags, 255u);
}

TEST(RecordingFormatTest, FormatFollowsExtension) {
  EXPECT_EQ(format_for_path("run.hw.vhprec"), RecordingFormat::kBinary);
  EXPECT_EQ(format_for_path("dump.jsonl"), RecordingFormat::kJsonl);
  EXPECT_EQ(format_for_path("dump.json"), RecordingFormat::kJsonl);
  EXPECT_EQ(format_for_path("no_extension"), RecordingFormat::kBinary);
}

TEST(RecordingFormatTest, ReadRejectsMissingFile) {
  auto r = read_recording(temp_path("does_not_exist.vhprec"));
  EXPECT_FALSE(r.ok());
}

TEST(RecordingFormatTest, FrameJsonNamesPortDirAndPayload) {
  const std::string line = frame_record_to_json(
      make_frame(7, LinkPort::kData, LinkDir::kTx, {1, 0xab}));
  EXPECT_NE(line.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(line.find("\"port\":\"data\""), std::string::npos);
  EXPECT_NE(line.find("\"dir\":\"tx\""), std::string::npos);
  EXPECT_NE(line.find("\"payload\":\"01ab\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Divergence checking

TEST(DivergenceTest, CompareFramesReportsFirstDifference) {
  const auto a = make_frame(0, LinkPort::kData, LinkDir::kTx, {1, 2, 3});
  EXPECT_EQ(compare_frames(a, a), "");

  auto type = a;
  type.msg_type = 4;
  EXPECT_NE(compare_frames(a, type).find("msg type"), std::string::npos);

  const auto size = make_frame(0, LinkPort::kData, LinkDir::kTx, {1, 2});
  EXPECT_NE(compare_frames(a, size).find("payload size"), std::string::npos);

  auto byte = make_frame(0, LinkPort::kData, LinkDir::kTx, {1, 2, 9});
  const std::string reason = compare_frames(a, byte);
  EXPECT_NE(reason.find("payload byte 2"), std::string::npos) << reason;
}

TEST(DivergenceTest, CompareFramesPrefersFieldDiff) {
  const auto a = make_frame(0, LinkPort::kClock, LinkDir::kTx, {5, 100});
  const auto b = make_frame(0, LinkPort::kClock, LinkDir::kTx, {5, 60});
  const FrameDiffFn named = [](const FrameRecord&, const FrameRecord&) {
    return std::string{"ClockTick.n_ticks: 100 vs 60"};
  };
  EXPECT_EQ(compare_frames(a, b, named), "ClockTick.n_ticks: 100 vs 60");
}

TEST(DivergenceTest, CheckerMatchesInPerPortOrder) {
  Recording ref;
  ref.frames.push_back(make_frame(0, LinkPort::kClock, LinkDir::kTx, {5, 1}));
  ref.frames.push_back(make_frame(1, LinkPort::kData, LinkDir::kTx, {3, 7}));
  ref.frames.push_back(make_frame(2, LinkPort::kClock, LinkDir::kTx, {5, 2}));

  DivergenceChecker checker{ref};
  // The data frame may arrive between the clock frames — queues are
  // independent per (port, dir).
  EXPECT_TRUE(checker.check(LinkPort::kClock, LinkDir::kTx, frame_of({5, 1})));
  EXPECT_TRUE(checker.check(LinkPort::kClock, LinkDir::kTx, frame_of({5, 2})));
  EXPECT_TRUE(checker.check(LinkPort::kData, LinkDir::kTx, frame_of({3, 7})));
  EXPECT_EQ(checker.matched(), 3u);
  EXPECT_FALSE(checker.divergence().has_value());
}

TEST(DivergenceTest, CheckerLatchesFirstMismatch) {
  Recording ref;
  ref.frames.push_back(make_frame(0, LinkPort::kClock, LinkDir::kTx, {5, 1}));
  ref.frames.push_back(make_frame(1, LinkPort::kClock, LinkDir::kTx, {5, 2}));

  DivergenceChecker checker{ref};
  EXPECT_TRUE(checker.check(LinkPort::kClock, LinkDir::kTx, frame_of({5, 1})));
  EXPECT_FALSE(
      checker.check(LinkPort::kClock, LinkDir::kTx, frame_of({5, 99})));
  ASSERT_TRUE(checker.divergence().has_value());
  const Divergence& d = *checker.divergence();
  EXPECT_EQ(d.seq, 1u);
  EXPECT_EQ(d.port, LinkPort::kClock);
  EXPECT_EQ(d.dir, LinkDir::kTx);
  EXPECT_EQ(d.hw_cycle, 10u);  // make_frame stamps hw_cycle = 10 * seq
  EXPECT_FALSE(d.reason.empty());
  EXPECT_NE(d.to_string().find("divergence at seq 1"), std::string::npos);
  // Latched: even a matching frame is rejected after the first mismatch.
  EXPECT_FALSE(
      checker.check(LinkPort::kClock, LinkDir::kTx, frame_of({5, 2})));
  EXPECT_EQ(checker.matched(), 1u);
}

TEST(DivergenceTest, CheckerFlagsFramesBeyondTheRecording) {
  Recording ref;
  ref.frames.push_back(make_frame(0, LinkPort::kInt, LinkDir::kTx, {4, 1}));
  DivergenceChecker checker{ref};
  EXPECT_TRUE(checker.check(LinkPort::kInt, LinkDir::kTx, frame_of({4, 1})));
  EXPECT_FALSE(checker.check(LinkPort::kInt, LinkDir::kTx, frame_of({4, 2})));
  ASSERT_TRUE(checker.divergence().has_value());
  EXPECT_NE(checker.divergence()->reason.find("beyond the recording"),
            std::string::npos);
}

TEST(DivergenceTest, CheckerMatchesTruncatedReferenceByDigest) {
  // Reference kept only a 2-byte prefix of a 4-byte frame; the live frame
  // must still match via the prefix + full-payload digest.
  const Bytes full{3, 10, 20, 30};
  FrameRecord cut = make_frame(0, LinkPort::kData, LinkDir::kTx, {3, 10});
  cut.truncated = true;
  cut.payload_size = static_cast<u32>(full.size());
  cut.digest = crc32(full);
  Recording ref;
  ref.frames.push_back(cut);

  DivergenceChecker ok{ref};
  EXPECT_TRUE(ok.check(LinkPort::kData, LinkDir::kTx, full));

  DivergenceChecker bad{ref};
  const Bytes tampered{3, 10, 20, 31};  // same prefix, different tail
  EXPECT_FALSE(bad.check(LinkPort::kData, LinkDir::kTx, tampered));
}

TEST(DivergenceTest, DiffRecordingsFindsFirstMismatchAndShortfall) {
  const Recording a = sample_recording();
  EXPECT_FALSE(diff_recordings(a, a).has_value());

  Recording perturbed = a;
  perturbed.frames[2].payload[1] = 99;
  perturbed.frames[2].digest = crc32(perturbed.frames[2].payload);
  const auto d = diff_recordings(a, perturbed);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->seq, a.frames[2].seq);
  EXPECT_EQ(d->port, a.frames[2].port);

  Recording prefix = a;
  prefix.frames.pop_back();
  const auto short_d = diff_recordings(a, prefix);
  ASSERT_TRUE(short_d.has_value());
  EXPECT_NE(short_d->reason.find("second recording ends early"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Report renderers (the vhptrace subcommand logic)

TEST(RecordingReportTest, StatsTextTabulatesPortsAndTypes) {
  const std::string text = recording_stats_text(sample_recording());
  EXPECT_NE(text.find("side: hw"), std::string::npos);
  EXPECT_NE(text.find("frames: 4"), std::string::npos);
  EXPECT_NE(text.find("tag t_sync = 100"), std::string::npos);
  EXPECT_NE(text.find("data"), std::string::npos);
  EXPECT_NE(text.find("clock"), std::string::npos);
  EXPECT_NE(text.find("msg type 6: 1 frames"), std::string::npos);
  EXPECT_NE(text.find("virtual span"), std::string::npos);
}

TEST(RecordingReportTest, ChromeJsonEmitsOneInstantPerFrame) {
  const Recording rec = sample_recording();
  const std::string json = chrome_trace_json({}, {rec});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("clock.rx.t6"), std::string::npos);
  std::size_t instants = 0;
  for (std::size_t at = json.find("\"ph\":\"i\""); at != std::string::npos;
       at = json.find("\"ph\":\"i\"", at + 1)) {
    ++instants;
  }
  EXPECT_EQ(instants, rec.frames.size());
}

}  // namespace
}  // namespace vhp::obs
