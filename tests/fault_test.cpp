// vhp::fault unit coverage, fiber-free (label "fault-tsan": selected by both
// the tsan preset and the fault gate in scripts/check.sh).
//
// Layers under test, bottom up: FaultPlan (JSON round trip, validation),
// FaultSchedule (seeded determinism, lane independence, budgets, blackouts),
// the fault::inject channel decorator (every FaultKind over an inproc pair),
// the recovery layer (retransmit, dup filtering, CRC drops, out-of-order
// reassembly, give-up, TCP redial resync), fault markers in flight
// recordings, and SyncCoordinator eviction/rejoin.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "vhp/fabric/fabric.hpp"
#include "vhp/fault/inject.hpp"
#include "vhp/fault/plan.hpp"
#include "vhp/fault/reliable.hpp"
#include "vhp/net/inproc.hpp"
#include "vhp/net/tcp.hpp"
#include "vhp/obs/recording.hpp"

namespace vhp::fault {
namespace {

using namespace std::chrono_literals;

Bytes bytes_of(std::string_view text) {
  return Bytes{text.begin(), text.end()};
}

/// FaultRule has too many knobs for warning-free designated initializers;
/// tests spell rules as a kind plus a mutation.
template <typename Mutate>
FaultRule rule_of(FaultKind kind, Mutate&& mutate) {
  FaultRule rule;
  rule.kind = kind;
  mutate(rule);
  return rule;
}

FaultRule rule_of(FaultKind kind) {
  return rule_of(kind, [](FaultRule&) {});
}

std::string text_of(std::span<const u8> frame) {
  return std::string{frame.begin(), frame.end()};
}

// ---------------------------------------------------------------------------
// FaultPlan

TEST(FaultPlanTest, JsonRoundTripPreservesEveryField) {
  FaultPlan plan;
  plan.seed = 42;
  plan.add(rule_of(FaultKind::kDrop, [](FaultRule& r) {
    r.port = obs::LinkPort::kClock;
    r.dir = obs::LinkDir::kTx;
    r.probability = 0.25;
    r.first_frame = 3;
    r.last_frame = 90;
    r.max_events = 5;
  }));
  plan.add(rule_of(FaultKind::kDisconnect, [](FaultRule& r) {
    r.node = 2;
    r.burst = 40;
    r.max_events = 1;
  }));
  plan.add(rule_of(FaultKind::kDelay, [](FaultRule& r) {
    r.delay = std::chrono::microseconds{750};
  }));

  auto round = plan_from_json(plan_to_json(plan));
  ASSERT_TRUE(round.ok()) << round.status();
  const FaultPlan& p = round.value();
  EXPECT_EQ(p.seed, 42u);
  ASSERT_EQ(p.rules.size(), 3u);
  EXPECT_EQ(p.rules[0].kind, FaultKind::kDrop);
  EXPECT_EQ(p.rules[0].port, obs::LinkPort::kClock);
  EXPECT_EQ(p.rules[0].dir, obs::LinkDir::kTx);
  EXPECT_DOUBLE_EQ(p.rules[0].probability, 0.25);
  EXPECT_EQ(p.rules[0].first_frame, 3u);
  EXPECT_EQ(p.rules[0].last_frame, 90u);
  EXPECT_EQ(p.rules[0].max_events, 5u);
  EXPECT_EQ(p.rules[1].kind, FaultKind::kDisconnect);
  EXPECT_EQ(p.rules[1].node, 2u);
  EXPECT_EQ(p.rules[1].burst, 40u);
  EXPECT_EQ(p.rules[2].kind, FaultKind::kDelay);
  EXPECT_EQ(p.rules[2].delay.count(), 750);
}

TEST(FaultPlanTest, ParserRejectsMalformedPlans) {
  EXPECT_FALSE(plan_from_json("not json at all").ok());
  EXPECT_FALSE(plan_from_json(R"({"rules": 7})").ok());
  EXPECT_FALSE(plan_from_json(R"({"rules": [{"kind": "melt"}]})").ok());
  EXPECT_FALSE(
      plan_from_json(R"({"rules": [{"kind": "drop", "port": "usb"}]})").ok());
  EXPECT_FALSE(
      plan_from_json(R"({"rules": [{"kind": "drop", "dir": "up"}]})").ok());
  // Seed-only plan: valid but unarmed.
  auto empty = plan_from_json(R"({"seed": 9})");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty.value().armed());
  EXPECT_EQ(empty.value().seed, 9u);
}

TEST(FaultPlanTest, ParserRejectsNumbersThatDoNotFit) {
  // Past 2^64, past a u32 node, a negative count and a non-number: each
  // used to wrap, narrow or vanish into the default.
  for (const char* json : {
           R"({"seed": 18446744073709551617})",
           R"({"rules": [{"kind": "drop", "node": 4294967297}]})",
           R"({"rules": [{"kind": "drop", "max_events": -1}]})",
           R"({"rules": [{"kind": "delay", "delay_us": 9223372036854775808}]})",
           R"({"rules": [{"kind": "drop", "probability": "often"}]})"}) {
    auto plan = plan_from_json(json);
    EXPECT_FALSE(plan.ok()) << json;
  }
  // The error names the field and its line.
  auto burst = plan_from_json(
      "{\"seed\": 3, \"rules\": [\n"
      "  {\"kind\": \"drop\"},\n"
      "  {\"kind\": \"disconnect\", \"burst\": 99999999999999999999}]}");
  ASSERT_FALSE(burst.ok());
  EXPECT_NE(burst.status().message().find("line 3"), std::string::npos)
      << burst.status();
  EXPECT_NE(burst.status().message().find("\"burst\""), std::string::npos)
      << burst.status();
  // load_plan reads through the same parser.
  const std::string path =
      ::testing::TempDir() + "vhp_fault_plan_numbers.json";
  {
    std::ofstream out{path};
    out << R"({"seed": 1, "rules": [{"kind": "drop", "first_frame": 1x}]})";
  }
  auto loaded = load_plan(path);
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("\"first_frame\""),
            std::string::npos)
      << loaded.status();
  // The largest values that fit are accepted.
  auto max = plan_from_json(
      R"({"seed": 18446744073709551615, "rules": [{"kind": "drop", )"
      R"("node": 4294967295, "last_frame": 18446744073709551615}]})");
  ASSERT_TRUE(max.ok()) << max.status();
  EXPECT_EQ(max.value().seed, ~u64{0});
  EXPECT_EQ(max.value().rules[0].node, ~u32{0});
}

TEST(FaultPlanTest, ValidateRejectsImpossibleRules) {
  FaultPlan bad_probability;
  bad_probability.add(
      rule_of(FaultKind::kDrop, [](FaultRule& r) { r.probability = 1.5; }));
  EXPECT_FALSE(bad_probability.validate().ok());

  FaultPlan inverted_window;
  inverted_window.add(rule_of(FaultKind::kDrop, [](FaultRule& r) {
    r.first_frame = 10;
    r.last_frame = 2;
  }));
  EXPECT_FALSE(inverted_window.validate().ok());

  FaultPlan zero_burst;
  zero_burst.add(
      rule_of(FaultKind::kDisconnect, [](FaultRule& r) { r.burst = 0; }));
  EXPECT_FALSE(zero_burst.validate().ok());
}

TEST(FaultPlanTest, LosslessMeansOnlyDelayAndStall) {
  FaultPlan plan;
  plan.add(rule_of(FaultKind::kDelay));
  plan.add(rule_of(FaultKind::kStall));
  EXPECT_TRUE(plan.lossless());
  plan.add(rule_of(FaultKind::kDuplicate));
  EXPECT_FALSE(plan.lossless());
}

// ---------------------------------------------------------------------------
// FaultSchedule

/// The decision trace of `n` frames on one lane, as fault-kind names.
std::vector<std::string> lane_trace(FaultSchedule& schedule, u32 node,
                                    obs::LinkPort port, obs::LinkDir dir,
                                    int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    const auto event = schedule.next(node, port, dir, 64);
    out.push_back(event.has_value() ? std::string(to_string(event->kind))
                                    : std::string("-"));
  }
  return out;
}

TEST(FaultScheduleTest, SameSeedReplaysTheSameDecisions) {
  FaultPlan plan;
  plan.seed = 7;
  plan.add(
      rule_of(FaultKind::kDrop, [](FaultRule& r) { r.probability = 0.3; }));
  FaultSchedule a{plan};
  FaultSchedule b{plan};
  const auto trace_a =
      lane_trace(a, 0, obs::LinkPort::kData, obs::LinkDir::kTx, 200);
  EXPECT_EQ(trace_a,
            lane_trace(b, 0, obs::LinkPort::kData, obs::LinkDir::kTx, 200));

  FaultPlan other = plan;
  other.seed = 8;
  FaultSchedule c{other};
  EXPECT_NE(trace_a,
            lane_trace(c, 0, obs::LinkPort::kData, obs::LinkDir::kTx, 200));
  EXPECT_GT(a.injected(), 0u);
}

TEST(FaultScheduleTest, LanesDrawFromIndependentStreams) {
  // Pumping one lane must not shift another lane's decisions: each
  // (rule, lane) stream is seeded from the lane identity, not creation or
  // interleaving order.
  FaultPlan plan;
  plan.seed = 11;
  plan.add(
      rule_of(FaultKind::kDrop, [](FaultRule& r) { r.probability = 0.3; }));
  FaultSchedule undisturbed{plan};
  FaultSchedule interleaved{plan};
  (void)lane_trace(interleaved, 1, obs::LinkPort::kClock, obs::LinkDir::kRx,
                   50);
  EXPECT_EQ(
      lane_trace(undisturbed, 0, obs::LinkPort::kData, obs::LinkDir::kTx, 100),
      lane_trace(interleaved, 0, obs::LinkPort::kData, obs::LinkDir::kTx,
                 100));
}

TEST(FaultScheduleTest, WindowAndBudgetBoundTheRule) {
  FaultPlan windowed;
  windowed.add(rule_of(FaultKind::kDrop, [](FaultRule& r) {
    r.first_frame = 2;
    r.last_frame = 4;
  }));
  FaultSchedule ws{windowed};
  EXPECT_EQ(lane_trace(ws, 0, obs::LinkPort::kData, obs::LinkDir::kTx, 7),
            (std::vector<std::string>{"-", "-", "drop", "drop", "drop", "-",
                                      "-"}));

  FaultPlan budgeted;
  budgeted.add(
      rule_of(FaultKind::kCorrupt, [](FaultRule& r) { r.max_events = 3; }));
  FaultSchedule bs{budgeted};
  EXPECT_EQ(lane_trace(bs, 0, obs::LinkPort::kData, obs::LinkDir::kTx, 6),
            (std::vector<std::string>{"corrupt", "corrupt", "corrupt", "-",
                                      "-", "-"}));
  EXPECT_EQ(bs.injected(), 3u);
}

TEST(FaultScheduleTest, DisconnectBlacksOutTheBurst) {
  FaultPlan plan;
  plan.add(rule_of(FaultKind::kDisconnect, [](FaultRule& r) {
    r.max_events = 1;
    r.burst = 3;
  }));
  FaultSchedule schedule{plan};
  // Frame 0 fires the rule; frames 1 and 2 fall inside the blackout; the
  // budget is spent so frame 3 passes clean.
  EXPECT_EQ(
      lane_trace(schedule, 0, obs::LinkPort::kData, obs::LinkDir::kTx, 5),
      (std::vector<std::string>{"disconnect", "disconnect", "disconnect", "-",
                                "-"}));
  EXPECT_EQ(schedule.injected(), 3u);
}

// ---------------------------------------------------------------------------
// fault::inject over an inproc pair

/// hw-side injected endpoint + raw board endpoint for one port.
struct InjectedPair {
  net::ChannelPtr hw;
  net::ChannelPtr board;
  std::shared_ptr<FaultSchedule> schedule;

  explicit InjectedPair(FaultPlan plan) {
    auto [a, b] = net::make_inproc_channel_pair();
    schedule = compile(plan, nullptr);
    hw = inject(std::move(a), schedule, obs::LinkPort::kData);
    board = std::move(b);
  }
};

TEST(FaultInjectTest, NullOrUnarmedScheduleIsZeroHop) {
  auto [a, b] = net::make_inproc_channel_pair();
  net::Channel* raw = a.get();
  auto same = inject(std::move(a), nullptr, obs::LinkPort::kData);
  EXPECT_EQ(same.get(), raw);
  EXPECT_EQ(compile(FaultPlan{}, nullptr), nullptr);
  b->close();
}

TEST(FaultInjectTest, DropsExactlyTheScheduledFrame) {
  FaultPlan plan;
  plan.add(rule_of(FaultKind::kDrop, [](FaultRule& r) {
    r.dir = obs::LinkDir::kTx;
    r.max_events = 1;
  }));
  InjectedPair pair{plan};
  ASSERT_TRUE(pair.hw->send(bytes_of("lost")).ok());
  ASSERT_TRUE(pair.hw->send(bytes_of("kept")).ok());
  auto got = pair.board->recv(1000ms);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(text_of(got.value()), "kept");
  EXPECT_EQ(pair.schedule->injected(), 1u);
}

TEST(FaultInjectTest, DuplicatesTheScheduledFrame) {
  FaultPlan plan;
  plan.add(rule_of(FaultKind::kDuplicate, [](FaultRule& r) {
    r.dir = obs::LinkDir::kTx;
    r.max_events = 1;
  }));
  InjectedPair pair{plan};
  ASSERT_TRUE(pair.hw->send(bytes_of("twin")).ok());
  for (int i = 0; i < 2; ++i) {
    auto got = pair.board->recv(1000ms);
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(text_of(got.value()), "twin") << i;
  }
}

TEST(FaultInjectTest, ReordersAdjacentFrames) {
  FaultPlan plan;
  plan.add(rule_of(FaultKind::kReorder, [](FaultRule& r) {
    r.dir = obs::LinkDir::kTx;
    r.max_events = 1;
  }));
  InjectedPair pair{plan};
  ASSERT_TRUE(pair.hw->send(bytes_of("first")).ok());   // held
  ASSERT_TRUE(pair.hw->send(bytes_of("second")).ok());  // overtakes
  auto a = pair.board->recv(1000ms);
  auto b = pair.board->recv(1000ms);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(text_of(a.value()), "second");
  EXPECT_EQ(text_of(b.value()), "first");
}

TEST(FaultInjectTest, CorruptsOneByteInPlace) {
  FaultPlan plan;
  plan.add(rule_of(FaultKind::kCorrupt, [](FaultRule& r) {
    r.dir = obs::LinkDir::kTx;
    r.max_events = 1;
  }));
  InjectedPair pair{plan};
  ASSERT_TRUE(pair.hw->send(bytes_of("pristine")).ok());
  auto got = pair.board->recv(1000ms);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().size(), 8u);
  int diffs = 0;
  const std::string sent = "pristine";
  for (std::size_t i = 0; i < sent.size(); ++i) {
    diffs += got.value()[i] != static_cast<u8>(sent[i]) ? 1 : 0;
  }
  EXPECT_EQ(diffs, 1);  // exactly one byte XOR-flipped
}

TEST(FaultInjectTest, RxFaultsApplyOnTheReceivePath) {
  FaultPlan plan;
  plan.add(rule_of(FaultKind::kDrop, [](FaultRule& r) {
    r.dir = obs::LinkDir::kRx;
    r.max_events = 1;
  }));
  InjectedPair pair{plan};
  ASSERT_TRUE(pair.board->send(bytes_of("eaten")).ok());
  ASSERT_TRUE(pair.board->send(bytes_of("served")).ok());
  auto got = pair.hw->recv(1000ms);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(text_of(got.value()), "served");
}

// ---------------------------------------------------------------------------
// Recovery layer

RecoveryConfig fast_recovery() {
  RecoveryConfig config;
  config.enabled = true;
  config.rto = 2ms;
  config.rto_max = 20ms;
  return config;
}

TEST(ReliableTest, RetransmissionSurvivesHeavyDrops) {
  // A 30% drop rate on the hw->board direction (payloads AND acks both
  // cross the injector) still delivers every frame exactly once, in order.
  FaultPlan plan;
  plan.seed = 3;
  plan.add(
      rule_of(FaultKind::kDrop, [](FaultRule& r) { r.probability = 0.3; }));
  auto [a, b] = net::make_inproc_channel_pair();
  auto schedule = compile(plan, nullptr);
  auto hw = reliable(inject(std::move(a), schedule, obs::LinkPort::kData),
                     fast_recovery(), nullptr, "hw");
  auto board = reliable(std::move(b), fast_recovery(), nullptr, "board");

  constexpr int kFrames = 40;
  auto* hw_rel = static_cast<ReliableChannel*>(hw.get());
  std::atomic<bool> sender_done{false};
  std::thread sender([&] {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(hw->send(bytes_of("frame-" + std::to_string(i))).ok());
    }
    // flush keeps pumping retransmissions while the receiver drains; a
    // dropped tail frame would otherwise never be repaired.
    ASSERT_TRUE(hw_rel->flush(10000ms).ok());
    sender_done = true;
  });
  for (int i = 0; i < kFrames; ++i) {
    auto got = board->recv(5000ms);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(text_of(got.value()), "frame-" + std::to_string(i));
  }
  // A live peer keeps servicing its side of the link (the board pumps
  // until Shutdown in the real protocol): if the final cumulative ack got
  // dropped, the sender keeps retransmitting and needs our re-acks.
  while (!sender_done) {
    (void)board->try_recv();
    std::this_thread::sleep_for(std::chrono::microseconds{200});
  }
  sender.join();
  EXPECT_GT(schedule->injected(), 0u);
  EXPECT_EQ(hw_rel->unacked(), 0u);
}

TEST(ReliableTest, RedeliveredFramesAreFilteredAndReAcked) {
  auto [a, b] = net::make_inproc_channel_pair();
  auto board = reliable(std::move(b), fast_recovery(), nullptr, "board");
  auto* rel = static_cast<ReliableChannel*>(board.get());
  // Handcrafted peer: the same seq twice, as a retransmission would.
  ASSERT_TRUE(a->send(wire::encode_payload(1, 0, bytes_of("once"))).ok());
  ASSERT_TRUE(a->send(wire::encode_payload(1, 0, bytes_of("once"))).ok());
  auto got = board->recv(1000ms);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(text_of(got.value()), "once");
  auto none = board->try_recv();
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().has_value());
  EXPECT_EQ(rel->dup_filtered(), 1u);
  // Both deliveries were acked (the re-ack stops the peer's retransmits).
  int acks = 0;
  while (true) {
    auto frame = a->try_recv();
    ASSERT_TRUE(frame.ok());
    if (!frame.value().has_value()) break;
    EXPECT_EQ((*frame.value())[0], wire::kAck);
    ++acks;
  }
  EXPECT_EQ(acks, 2);
}

TEST(ReliableTest, CrcRejectsCorruptionAnywhereInTheFrame) {
  auto [a, b] = net::make_inproc_channel_pair();
  auto board = reliable(std::move(b), fast_recovery(), nullptr, "board");
  auto* rel = static_cast<ReliableChannel*>(board.get());
  // Flip one payload byte and one header (seq) byte of two copies: both
  // must be dropped; the intact retransmission repairs the stream.
  Bytes wire_frame = wire::encode_payload(1, 0, bytes_of("fragile"));
  Bytes payload_hit = wire_frame;
  payload_hit[wire_frame.size() - 2] ^= 0x40;
  Bytes header_hit = wire_frame;
  header_hit[3] ^= 0x01;  // inside the seq field
  ASSERT_TRUE(a->send(payload_hit).ok());
  ASSERT_TRUE(a->send(header_hit).ok());
  auto nothing = board->try_recv();
  ASSERT_TRUE(nothing.ok());
  EXPECT_FALSE(nothing.value().has_value());
  EXPECT_EQ(rel->crc_dropped(), 2u);
  ASSERT_TRUE(a->send(wire_frame).ok());
  auto got = board->recv(1000ms);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(text_of(got.value()), "fragile");
}

TEST(ReliableTest, OutOfOrderFramesAreReassembled) {
  auto [a, b] = net::make_inproc_channel_pair();
  auto board = reliable(std::move(b), fast_recovery(), nullptr, "board");
  ASSERT_TRUE(a->send(wire::encode_payload(2, 0, bytes_of("two"))).ok());
  ASSERT_TRUE(a->send(wire::encode_payload(1, 0, bytes_of("one"))).ok());
  auto first = board->recv(1000ms);
  auto second = board->recv(1000ms);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(text_of(first.value()), "one");
  EXPECT_EQ(text_of(second.value()), "two");
}

TEST(ReliableTest, StaleAcksAreHarmless) {
  // A duplicated ack (the dup-filter re-ack path produces them) must not
  // confuse the sender's window.
  auto [a, b] = net::make_inproc_channel_pair();
  auto hw = reliable(std::move(a), fast_recovery(), nullptr, "hw");
  auto* rel = static_cast<ReliableChannel*>(hw.get());
  ASSERT_TRUE(hw->send(bytes_of("x")).ok());
  EXPECT_EQ(rel->unacked(), 1u);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(b->send(wire::encode_ack(1)).ok());
  ASSERT_TRUE(rel->flush(1000ms).ok());
  EXPECT_EQ(rel->unacked(), 0u);
  auto idle = hw->try_recv();  // pumps the two stale acks
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle.value().has_value());
  EXPECT_EQ(rel->unacked(), 0u);
}

TEST(ReliableTest, GivesUpAfterBoundedRetransmitRounds) {
  RecoveryConfig config = fast_recovery();
  config.rto = 1ms;
  config.rto_max = 2ms;
  config.max_retransmit_rounds = 3;
  auto [a, b] = net::make_inproc_channel_pair();
  auto hw = reliable(std::move(a), config, nullptr, "hw");
  auto* rel = static_cast<ReliableChannel*>(hw.get());
  ASSERT_TRUE(hw->send(bytes_of("doomed")).ok());  // the peer never acks
  Status s = rel->flush(2000ms);
  EXPECT_EQ(s.code(), StatusCode::kAborted) << s;
  EXPECT_NE(s.message().find("gave up"), std::string::npos) << s;
  EXPECT_GE(rel->retransmits(), 3u);
  b->close();
}

TEST(ReliableTest, ClockSendFlushesSiblingsAcrossTheQuantumBoundary) {
  // The virtual-time barrier property end to end: a DATA frame held back by
  // a reorder fault is forced through (via retransmission) BEFORE the next
  // CLOCK frame crosses the link, so quantum contents never smear.
  FaultPlan plan;
  plan.add(rule_of(FaultKind::kReorder, [](FaultRule& r) {
    r.port = obs::LinkPort::kData;
    r.dir = obs::LinkDir::kTx;
    r.max_events = 1;
  }));
  auto schedule = compile(plan, nullptr);

  net::LinkPair pair = net::make_inproc_link_pair();
  pair.hw = inject_link(std::move(pair.hw), schedule);
  pair.hw = reliable_link(std::move(pair.hw), fast_recovery(), nullptr, "hw");
  pair.board = reliable_link(std::move(pair.board), fast_recovery(), nullptr,
                             "board");

  std::atomic<int> data_before_clock{-1};
  std::thread board([&] {
    int data_seen = 0;
    for (;;) {
      auto d = pair.board.data->try_recv();
      ASSERT_TRUE(d.ok());
      if (d.value().has_value()) ++data_seen;
      auto c = pair.board.clock->try_recv();
      ASSERT_TRUE(c.ok());
      if (c.value().has_value()) {
        data_before_clock = data_seen;
        return;
      }
      std::this_thread::sleep_for(200us);
    }
  });

  ASSERT_TRUE(pair.hw.data->send(bytes_of("quantum-data")).ok());
  ASSERT_TRUE(pair.hw.clock->send(bytes_of("tick")).ok());  // flushes DATA
  board.join();
  EXPECT_EQ(data_before_clock.load(), 1);
  auto* hw_data = static_cast<ReliableChannel*>(pair.hw.data.get());
  EXPECT_GE(hw_data->retransmits(), 1u);  // the retransmit punched through
}

TEST(ReliableTcpTest, RedialResyncsAfterTransportLoss) {
  net::TcpListener listener;
  const u16 port = listener.port();
  Result<net::ChannelPtr> dialed = Status{StatusCode::kInternal, "unset"};
  std::thread dialer([&] { dialed = net::connect_tcp_channel(port); });
  auto accepted = listener.accept(2000ms);
  dialer.join();
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  ASSERT_TRUE(dialed.ok()) << dialed.status();
  net::Channel* transport = accepted.value().get();

  RecoveryConfig config = fast_recovery();
  config.redial_backoff = 5ms;
  ReliableChannel hw{std::move(accepted).value(), config, nullptr, "hw",
                     [&listener] { return listener.accept(2000ms); }};
  ReliableChannel board{std::move(dialed).value(), config, nullptr, "board",
                        [port] { return net::connect_tcp_channel(port); }};

  ASSERT_TRUE(hw.send(bytes_of("before")).ok());
  auto first = board.recv(2000ms);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(text_of(first.value()), "before");

  // Tear the wire out under both endpoints; the next traffic must redial
  // (accept side re-accepts, dial side re-connects) and resync via kHello.
  std::thread receiver([&] {
    auto got = board.recv(10000ms);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(text_of(got.value()), "after");
  });
  transport->close();
  ASSERT_TRUE(hw.send(bytes_of("after")).ok());
  receiver.join();
  EXPECT_GE(hw.reconnects() + board.reconnects(), 1u);
}

// ---------------------------------------------------------------------------
// Fault markers in flight recordings

TEST(FaultMarkerTest, MarkersSurviveTheRecordingRoundTripAndAreSkipped) {
  obs::ObsConfig obs_cfg;
  obs_cfg.record.enabled = true;
  obs::Hub hub{obs_cfg};
  hub.hw_recorder().record(obs::LinkPort::kData, obs::LinkDir::kTx,
                           bytes_of("real"), 0);
  hub.hw_recorder().note_fault(obs::LinkPort::kData, obs::LinkDir::kTx,
                               "drop", 3);
  hub.hw_recorder().record(obs::LinkPort::kData, obs::LinkDir::kTx,
                           bytes_of("also-real"), 0);

  obs::Recording rec;
  rec.meta.side = "hw";
  rec.frames = hub.hw_recorder().snapshot();
  ASSERT_EQ(rec.frames.size(), 3u);
  EXPECT_EQ(rec.frames[1].flags, obs::kFrameFlagInjected);
  EXPECT_EQ(rec.frames[1].node, 3u);
  EXPECT_EQ(text_of(rec.frames[1].payload), "drop");

  const std::string path =
      ::testing::TempDir() + "/fault_marker_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  for (auto format :
       {obs::RecordingFormat::kBinary, obs::RecordingFormat::kJsonl}) {
    ASSERT_TRUE(obs::write_recording(path, rec, format).ok());
    auto back = obs::read_recording(path);
    ASSERT_TRUE(back.ok()) << back.status();
    ASSERT_EQ(back.value().frames.size(), 3u);
    EXPECT_EQ(back.value().frames[1].flags, obs::kFrameFlagInjected);
    EXPECT_EQ(text_of(back.value().frames[1].payload), "drop");
  }

  // The divergence checker treats markers as annotations: a clean reference
  // (no markers) still matches the faulted recording.
  obs::Recording clean = rec;
  std::erase_if(clean.frames, [](const obs::FrameRecord& f) {
    return (f.flags & obs::kFrameFlagInjected) != 0;
  });
  EXPECT_FALSE(obs::diff_recordings(clean, rec, nullptr).has_value());
  EXPECT_FALSE(obs::diff_recordings(rec, clean, nullptr).has_value());
}

TEST(FaultMarkerTest, ScheduleObserverReceivesEveryInjection) {
  FaultPlan plan;
  plan.add(
      rule_of(FaultKind::kDrop, [](FaultRule& r) { r.max_events = 2; }));
  FaultSchedule schedule{plan};
  std::vector<FaultEvent> seen;
  schedule.set_observer([&seen](const FaultEvent& e) { seen.push_back(e); });
  for (int i = 0; i < 5; ++i) {
    (void)schedule.next(1, obs::LinkPort::kInt, obs::LinkDir::kRx, 16);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].kind, FaultKind::kDrop);
  EXPECT_EQ(seen[0].node, 1u);
  EXPECT_EQ(seen[0].port, obs::LinkPort::kInt);
  EXPECT_EQ(seen[0].dir, obs::LinkDir::kRx);
  EXPECT_EQ(seen[1].frame_index, 1u);
}

}  // namespace
}  // namespace vhp::fault

// ---------------------------------------------------------------------------
// SyncCoordinator eviction / rejoin (fiber-free, like fabric_test)

namespace vhp::fabric {
namespace {

using namespace std::chrono_literals;
using cosim::SyncCoordinator;
using cosim::SyncPolicy;

TEST(SyncEvictionTest, ValidateRequiresAWatchdogForEviction) {
  SyncPolicy policy;
  policy.watchdog(0ms).evict_after(2);
  EXPECT_FALSE(policy.validate(1).ok());
  policy.watchdog(100ms);
  EXPECT_TRUE(policy.validate(1).ok());
}

TEST(SyncEvictionTest, WatchdogMessageReportsWaitAndQuantum) {
  // ISSUE 5 satellite: the fail-fast straggler Status must carry the
  // wall-clock actually waited, the configured bound and the expected
  // quantum — diagnosable without logs.
  auto [m0, b0] = net::make_inproc_channel_pair();
  SyncCoordinator coord{SyncPolicy{}.quantum(10).watchdog(150ms), {m0.get()},
                        {"mute"}};
  ASSERT_TRUE(net::send_msg(*b0, net::TimeAck{0}).ok());  // handshake only
  ASSERT_TRUE(coord.handshake().ok());
  const Status status = coord.run_barrier(10);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("expired after"), std::string::npos)
      << status;
  EXPECT_NE(status.message().find("(bound 150 ms)"), std::string::npos)
      << status;
  EXPECT_NE(status.message().find("mute (node 0, quantum 10 cycles, "
                                  "last granted at cycle 10)"),
            std::string::npos)
      << status;
  b0->close();
}

/// A node emulator thread that answers ticks only while `answering`, and
/// volunteers one frozen TIME_ACK whenever `announce` is raised (the rejoin
/// handshake).
std::thread spawn_flaky_node(net::Channel& clock, std::atomic<bool>& answering,
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
      if (!answering.load()) continue;  // swallow the grant: straggle
      board_tick += std::get<net::ClockTick>(msg.value()).n_ticks;
      ASSERT_TRUE(net::send_msg(clock, net::TimeAck{board_tick}).ok());
    }
  });
}

TEST(SyncEvictionTest, EvictsAfterKMissesAndSurvivorsContinue) {
  auto [m0, b0] = net::make_inproc_channel_pair();
  auto [m1, b1] = net::make_inproc_channel_pair();
  SyncCoordinator coord{
      SyncPolicy{}.quantum(10).watchdog(100ms).evict_after(2),
      {m0.get(), m1.get()},
      {"good", "flaky"}};

  std::atomic<bool> good_on{true}, good_announce{false};
  std::atomic<bool> flaky_on{true}, flaky_announce{false};
  std::thread good = spawn_flaky_node(*b0, good_on, good_announce);
  std::thread flaky = spawn_flaky_node(*b1, flaky_on, flaky_announce);

  ASSERT_TRUE(coord.handshake().ok());
  ASSERT_TRUE(coord.run_barrier(10).ok());
  EXPECT_EQ(coord.alive_count(), 2u);

  flaky_on = false;
  // Two consecutive watchdog expiries evict "flaky"; the barrier still
  // completes for the survivor instead of failing the fabric.
  ASSERT_TRUE(coord.run_barrier(20).ok());
  EXPECT_FALSE(coord.alive(1));
  EXPECT_TRUE(coord.alive(0));
  EXPECT_EQ(coord.alive_count(), 1u);
  EXPECT_EQ(coord.evictions(), 1u);

  // Dead nodes are not ticked and do not gate next_due.
  ASSERT_TRUE(coord.run_barrier(30).ok());
  EXPECT_EQ(coord.next_due(), 40u);

  // Rejoin: the node announces itself frozen, then takes grants again.
  flaky_on = true;
  flaky_announce = true;
  ASSERT_TRUE(coord.rejoin(1, 30).ok());
  EXPECT_TRUE(coord.alive(1));
  EXPECT_EQ(coord.alive_count(), 2u);
  EXPECT_EQ(coord.rejoins(), 1u);
  ASSERT_TRUE(coord.run_barrier(40).ok());

  EXPECT_FALSE(coord.rejoin(0, 40).ok());  // alive node: precondition fails
  coord.shutdown();
  good.join();
  flaky.join();
}

TEST(FabricEvictionTest, FabricOutlivesAnEvictedNodeAndReadmitsIt) {
  // N=4 fabric, all external parties on plain threads: node 3 goes silent,
  // is evicted after 2 missed watchdog intervals, the 3 survivors keep
  // simulating, and the node rejoins later.
  auto cfg = FabricConfigBuilder{}
                 .sync(SyncPolicy{}.quantum(10).watchdog(100ms).evict_after(2))
                 .add_external_node("a")
                 .add_external_node("b")
                 .add_external_node("c")
                 .add_external_node("flaky")
                 .build_or_throw();
  Fabric fab{cfg};

  std::array<net::CosimLink, 4> links;
  for (std::size_t i = 0; i < 4; ++i) links[i] = fab.take_board_link(i);
  std::array<std::atomic<bool>, 4> answering{true, true, true, true};
  std::array<std::atomic<bool>, 4> announce{false, false, false, false};
  std::vector<std::thread> parties;
  for (std::size_t i = 0; i < 4; ++i) {
    parties.push_back(
        spawn_flaky_node(*links[i].clock, answering[i], announce[i]));
  }

  ASSERT_TRUE(fab.run_cycles(20).ok());
  EXPECT_EQ(fab.alive_nodes(), 4u);

  answering[3] = false;
  ASSERT_TRUE(fab.run_cycles(10).ok());  // eviction barrier
  EXPECT_FALSE(fab.node_alive(3));
  EXPECT_EQ(fab.alive_nodes(), 3u);
  EXPECT_EQ(fab.coordinator().evictions(), 1u);
  ASSERT_TRUE(fab.run_cycles(30).ok());  // survivors keep the barrier live

  answering[3] = true;
  announce[3] = true;
  ASSERT_TRUE(fab.rejoin_node(3).ok());
  EXPECT_TRUE(fab.node_alive(3));
  EXPECT_EQ(fab.alive_nodes(), 4u);
  ASSERT_TRUE(fab.run_cycles(20).ok());
  EXPECT_EQ(fab.coordinator().rejoins(), 1u);

  fab.finish();
  for (auto& t : parties) t.join();
}

}  // namespace
}  // namespace vhp::fabric
