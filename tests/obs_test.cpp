// vhp::obs unit tests: metric primitives, registry identity, Chrome-trace
// JSON well-formedness, stall profiler buckets, and the disabled-mode
// no-op contract the hot paths rely on.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "vhp/obs/chrome_trace.hpp"
#include "vhp/obs/hub.hpp"
#include "vhp/obs/metrics.hpp"
#include "vhp/obs/recording.hpp"
#include "vhp/obs/stall_profiler.hpp"

namespace vhp::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON structural validator — enough to prove the dumps are parseable
// (balanced syntax, legal literals/strings/numbers) without a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    if (peek() == '-') ++pos_;
    const std::size_t digits_start = pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (pos_ == digits_start) return false;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metric primitives

TEST(CounterTest, IncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr u64 kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (u64 i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddRead) {
  Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(HistogramTest, PowerOfTwoBucketing) {
  LatencyHistogram h;
  h.record_ns(0);    // bucket 0
  h.record_ns(1);    // bucket 0: [1, 2)
  h.record_ns(2);    // bucket 1: [2, 4)
  h.record_ns(3);    // bucket 1
  h.record_ns(4);    // bucket 2: [4, 8)
  h.record_ns(7);    // bucket 2
  h.record_ns(8);    // bucket 3
  h.record_ns(1024); // bucket 10
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.sum_ns(), 0u + 1 + 2 + 3 + 4 + 7 + 8 + 1024);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 1049.0 / 8.0);
}

TEST(HistogramTest, HugeSamplesClampToLastBucket) {
  LatencyHistogram h;
  h.record_ns(~u64{0});
  EXPECT_EQ(h.bucket(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, BucketFloors) {
  EXPECT_EQ(LatencyHistogram::bucket_floor_ns(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_floor_ns(1), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_floor_ns(10), 1024u);
}

TEST(HistogramTest, EmptyMeanIsZero) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.mean_ns(), 0.0);
}

// ---------------------------------------------------------------------------
// Registry

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("cosim.syncs");
  Counter& b = reg.counter("cosim.syncs");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  // Kinds are independent namespaces but share contains().
  Gauge& g1 = reg.gauge("rtos.ticks");
  Gauge& g2 = reg.gauge("rtos.ticks");
  EXPECT_EQ(&g1, &g2);
  LatencyHistogram& h1 = reg.histogram("cosim.sync_rtt_ns");
  LatencyHistogram& h2 = reg.histogram("cosim.sync_rtt_ns");
  EXPECT_EQ(&h1, &h2);
  EXPECT_TRUE(reg.contains("cosim.syncs"));
  EXPECT_TRUE(reg.contains("rtos.ticks"));
  EXPECT_TRUE(reg.contains("cosim.sync_rtt_ns"));
  EXPECT_FALSE(reg.contains("nonexistent"));
}

TEST(MetricsRegistryTest, InstrumentPointersSurviveGrowth) {
  MetricsRegistry reg;
  Counter& first = reg.counter("c.0");
  for (int i = 1; i < 200; ++i) {
    (void)reg.counter("c." + std::to_string(i));
  }
  first.inc(7);
  EXPECT_EQ(reg.counter("c.0").value(), 7u);
}

TEST(MetricsRegistryTest, ToJsonIsWellFormedAndSorted) {
  MetricsRegistry reg;
  reg.counter("b.count").inc(2);
  reg.counter("a.count").inc(1);
  reg.gauge("depth").set(-4);
  reg.histogram("lat").record_ns(100);
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // Sorted iteration: "a.count" serialized before "b.count".
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
  EXPECT_NE(json.find("\"depth\":-4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonEscaping) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
  // A registry with a hostile name still dumps valid JSON.
  MetricsRegistry reg;
  reg.counter("weird\"name\n").inc();
  EXPECT_TRUE(JsonChecker(reg.to_json()).valid()) << reg.to_json();
}

// ---------------------------------------------------------------------------
// Span totals and the stall profiler over them

TEST(SpanTotalsTest, WrappedRingKeepsExactPerPhaseTotals) {
  // The ring holds the last 4 spans; the per-phase totals count all 25.
  TimelineConfig config;
  config.enabled = true;
  config.ring_spans = 4;
  SpanSink sink{config, "test"};
  for (u64 i = 0; i < 10; ++i) {
    sink.record({i, 0, SpanPhase::kBarrier, 100 * i, 100 * i + i + 1, 0});
  }
  for (u64 i = 0; i < 15; ++i) {
    sink.record({i, 0, SpanPhase::kSimulate, 1000 * i, 1000 * i + 7, 0});
  }
  EXPECT_EQ(sink.snapshot().size(), 4u);
  EXPECT_EQ(sink.dropped(), 21u);
  const PhaseTotal barrier = sink.total(SpanPhase::kBarrier);
  EXPECT_EQ(barrier.count, 10u);
  EXPECT_EQ(barrier.ns, 55u);  // 1 + 2 + ... + 10
  const PhaseTotal simulate = sink.total(SpanPhase::kSimulate);
  EXPECT_EQ(simulate.count, 15u);
  EXPECT_EQ(simulate.ns, 105u);
  EXPECT_EQ(sink.total(SpanPhase::kCompute).count, 0u);
}

TEST(StallProfilerTest, BucketsAreSpanTotalsAcrossSinks) {
  TimelineConfig config;
  config.enabled = true;
  Timeline timeline{config};
  timeline.sink("master").record({1, 0, SpanPhase::kSimulate, 0, 100, 0});
  timeline.sink("master").record({2, 0, SpanPhase::kSimulate, 300, 350, 0});
  timeline.sink("fabric").record({1, 0, SpanPhase::kBarrier, 100, 300, 0});
  // Other phases feed no bucket.
  timeline.sink("fabric").record({1, 0, SpanPhase::kGather, 110, 290, 0});
  timeline.sink("board").record({1, 0, SpanPhase::kCompute, 120, 280, 0});
  StallProfiler p{timeline};
  EXPECT_TRUE(p.enabled());
  EXPECT_EQ(p.total_ns(StallProfiler::Bucket::kSimulate), 150u);
  EXPECT_EQ(p.total_ns(StallProfiler::Bucket::kAckWait), 200u);
  EXPECT_EQ(p.total_ns(StallProfiler::Bucket::kDataService), 0u);

  MetricsRegistry reg;
  p.export_to(reg);
  EXPECT_EQ(reg.gauge("cosim.wall.simulate_ns").value(), 150);
  EXPECT_EQ(reg.gauge("cosim.wall.simulate_intervals").value(), 2);
  EXPECT_EQ(reg.gauge("cosim.wall.ack_wait_ns").value(), 200);
  EXPECT_EQ(reg.gauge("cosim.wall.ack_wait_intervals").value(), 1);
  EXPECT_EQ(reg.gauge("cosim.wall.data_service_ns").value(), 0);
}

// ---------------------------------------------------------------------------
// Hub

TEST(HubTest, DisabledByDefaultButCountersLive) {
  Hub hub;
  EXPECT_FALSE(hub.enabled());
  EXPECT_FALSE(hub.timeline().enabled());
  EXPECT_FALSE(hub.profiler().enabled());
  hub.metrics().counter("always.on").inc(5);
  EXPECT_EQ(hub.metrics().counter("always.on").value(), 5u);
}

ObsConfig armed_config(std::size_t ring_spans = 1u << 13) {
  ObsConfig config;
  config.timeline.enabled = true;
  config.timeline.ring_spans = ring_spans;
  return config;
}

TEST(HubTest, OneSwitchArmsTimelineAndProfiler) {
  Hub hub{armed_config()};
  EXPECT_TRUE(hub.enabled());
  EXPECT_TRUE(hub.timeline().enabled());
  EXPECT_TRUE(hub.profiler().enabled());
  // The recorder stays independent of the switch.
  EXPECT_FALSE(hub.hw_recorder().enabled());
}

TEST(HubTest, ProfilerBucketsAppearInDump) {
  Hub hub{armed_config()};
  hub.timeline().sink("fabric").record({1, 0, SpanPhase::kBarrier, 23, 800,
                                        0});
  const std::string json = hub.metrics_json();
  EXPECT_NE(json.find("\"cosim.wall.ack_wait_ns\":777"), std::string::npos)
      << json;
}


TEST(HubTest, SpanDropCountAppearsInDump) {
  // A full span ring overwrites its oldest spans; the loss is counted and
  // surfaced in the metrics dump so a clipped trace is visibly clipped.
  Hub hub{armed_config(/*ring_spans=*/4)};
  SpanSink& sink = hub.timeline().sink("test");
  for (u64 r = 0; r < 10; ++r) {
    sink.record({r, 0, SpanPhase::kBarrier, r, r + 1, 0});
  }
  EXPECT_EQ(hub.timeline().snapshot().size(), 4u);
  const std::string json = hub.metrics_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"timeline.spans\":10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"timeline.dropped_spans\":6"), std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// The one Chrome writer

TEST(ChromeTraceTest, RendersSpansAndFramesOnTheirTracks) {
  const std::vector<SpanRecord> spans = {
      {1, 0, SpanPhase::kBarrier, 1000, 3500, 100},
      {1, 1, SpanPhase::kCompute, 1200, 3000, 100},
      {1, 1, SpanPhase::kSlice, 1200, 2000, 100, span_label("app \"x\"")},
      {1, 1, SpanPhase::kDevRead, 1300, 1900, 100, 0x40},
      {1, 1, SpanPhase::kEvict, 3400, 3400, 100},
      {1, 0, SpanPhase::kSimulate, 3500, 4000, 100},
  };
  Recording hw;
  hw.meta.side = "hw";
  FrameRecord tick;
  tick.port = LinkPort::kClock;
  tick.msg_type = 5;
  tick.node = 1;
  tick.wall_ns = 1100;
  hw.frames.push_back(tick);
  const std::string json = chrome_trace_json(spans, {hw}, {{1, "beta"}});
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // 1000 ns -> "1.000" µs; 2500 ns duration -> "2.500" µs (zero-padded).
  EXPECT_NE(json.find("\"name\":\"barrier\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos) << json;
  EXPECT_NE(json.find("app \\\"x\\\""), std::string::npos)
      << "slice named by its escaped thread label: " << json;
  EXPECT_NE(json.find("\"address\":64"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"evict\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"clock.tx.t5\",\"cat\":\"link\",\"ph\":\"i\""),
            std::string::npos)
      << json;
  for (const char* track : {"\"coordinator\"", "\"rounds\"", "\"rtos\"",
                            "\"driver\"", "\"hw frames\"", "\"beta\""}) {
    EXPECT_NE(json.find(track), std::string::npos) << track << " " << json;
  }
  // The master's stretches sit on the master row's own track.
  EXPECT_NE(json.find("\"pid\":1,\"tid\":2,\"name\":\"simulate\""),
            std::string::npos)
      << json;
}

TEST(ChromeTraceTest, EscapesAFaultPayloadReadBackFromDisk) {
  // A fault marker's payload is free text; a quote or a newline in it must
  // not break the document.
  Recording rec;
  rec.meta.side = "hw";
  FrameRecord marker;
  marker.port = LinkPort::kData;
  marker.flags = kFrameFlagInjected;
  const std::string kind = "dr\"op\nnow";
  marker.payload.assign(kind.begin(), kind.end());
  marker.payload_size = static_cast<u32>(kind.size());
  rec.frames.push_back(marker);
  const std::string path =
      (std::filesystem::temp_directory_path() / "vhp_chrome_fault.vhprec")
          .string();
  ASSERT_TRUE(write_recording(path, rec, RecordingFormat::kBinary).ok());
  auto loaded = read_recording(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded.value().frames.size(), 1u);
  const std::string json = chrome_trace_json({}, {loaded.value()});
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("data.tx.fault.dr\\\"op\\nnow"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cat\":\"fault\""), std::string::npos) << json;
}

}  // namespace
}  // namespace vhp::obs
