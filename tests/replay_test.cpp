// Replay transport tests: the causality and virtual-time gates of
// net::ReplaySession at channel level, the Message-aware field diff, and the
// ISSUE acceptance round-trip — a recorded co-simulation replayed into a
// lone CosimKernel reproduces the identical virtual-time trajectory, and a
// perturbed recording names the first divergent frame.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "vhp/common/checksum.hpp"
#include "vhp/cosim/session.hpp"
#include "vhp/net/replay.hpp"
#include "vhp/rtos/sync.hpp"
#include "vhp/sim/module.hpp"

namespace vhp {
namespace {

using obs::LinkDir;
using obs::LinkPort;

/// A FrameRecord the way record_link would have captured `msg`.
obs::FrameRecord msg_frame(u64 seq, LinkPort port, LinkDir dir,
                           const net::Message& msg, u64 hw_cycle = 0) {
  obs::FrameRecord r;
  r.seq = seq;
  r.port = port;
  r.dir = dir;
  Bytes body = net::encode(msg);
  r.msg_type = body.empty() ? 0 : body[0];
  r.payload_size = static_cast<u32>(body.size());
  r.digest = crc32(body);
  r.payload = std::move(body);
  r.hw_cycle = hw_cycle;
  return r;
}

/// The hw side of a one-sync conversation: handshake ack, clock tick, ack.
obs::Recording tiny_hw_recording() {
  obs::Recording rec;
  rec.meta.side = "hw";
  rec.frames.push_back(
      msg_frame(0, LinkPort::kClock, LinkDir::kRx, net::TimeAck{0}));
  rec.frames.push_back(
      msg_frame(1, LinkPort::kClock, LinkDir::kTx, net::ClockTick{20, 2}));
  rec.frames.push_back(
      msg_frame(2, LinkPort::kClock, LinkDir::kRx, net::TimeAck{2}));
  return rec;
}

TEST(MessageFieldDiffTest, NamesTheFirstDifferingField) {
  const auto tick_a = msg_frame(0, LinkPort::kClock, LinkDir::kTx,
                                net::ClockTick{100, 100});
  const auto tick_b =
      msg_frame(0, LinkPort::kClock, LinkDir::kTx, net::ClockTick{100, 60});
  EXPECT_EQ(net::message_field_diff(tick_a, tick_b),
            "ClockTick.n_ticks: 100 vs 60");

  const auto wr_a = msg_frame(0, LinkPort::kData, LinkDir::kRx,
                              net::DataWrite{4, Bytes{1, 2}});
  const auto wr_b = msg_frame(0, LinkPort::kData, LinkDir::kRx,
                              net::DataWrite{8, Bytes{1, 2}});
  EXPECT_EQ(net::message_field_diff(wr_a, wr_b), "DataWrite.address: 4 vs 8");

  const auto wr_c = msg_frame(0, LinkPort::kData, LinkDir::kRx,
                              net::DataWrite{4, Bytes{1, 9}});
  EXPECT_EQ(net::message_field_diff(wr_a, wr_c), "DataWrite.data[1]: 2 vs 9");

  // An observed run against an unobserved one differs in the round only.
  const auto stamped = msg_frame(0, LinkPort::kClock, LinkDir::kTx,
                                 net::ClockTick{100, 100, 7});
  EXPECT_EQ(net::message_field_diff(stamped, tick_a),
            "ClockTick.round: 7 vs 0");
  const auto ack_a = msg_frame(0, LinkPort::kClock, LinkDir::kRx,
                               net::TimeAck{5, std::nullopt, 2, 3});
  const auto ack_b = msg_frame(0, LinkPort::kClock, LinkDir::kRx,
                               net::TimeAck{5, std::nullopt, 2, 4});
  EXPECT_EQ(net::message_field_diff(ack_a, ack_b), "TimeAck.data_sent: 3 vs 4");

  // Truncated payloads cannot decode — the byte-level report takes over.
  auto cut = tick_a;
  cut.truncated = true;
  EXPECT_EQ(net::message_field_diff(cut, tick_b), "");
}

TEST(ReplaySessionTest, ServesTheRecordedConversation) {
  auto opened = net::ReplaySession::open(tiny_hw_recording());
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto replay = std::move(opened).value();
  net::CosimLink link = replay->make_link();

  // The handshake ack (seq 0) precedes every recorded tx: deliverable now.
  auto first = link.clock->try_recv();
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first.value().has_value());
  auto first_msg = net::decode(*first.value());
  ASSERT_TRUE(first_msg.ok());
  EXPECT_EQ(std::get<net::TimeAck>(first_msg.value()).board_tick, 0u);

  // The second ack (seq 2) sits behind the unsent tick (seq 1): held back.
  auto held = link.clock->try_recv();
  ASSERT_TRUE(held.ok()) << held.status();
  EXPECT_FALSE(held.value().has_value());

  // Re-sending the recorded tick opens the causality gate.
  ASSERT_TRUE(net::send_msg(*link.clock, net::ClockTick{20, 2}).ok());
  auto second = link.clock->recv(std::chrono::milliseconds{100});
  ASSERT_TRUE(second.ok()) << second.status();
  auto second_msg = net::decode(second.value());
  ASSERT_TRUE(second_msg.ok());
  EXPECT_EQ(std::get<net::TimeAck>(second_msg.value()).board_tick, 2u);

  EXPECT_TRUE(replay->complete());
  EXPECT_EQ(replay->consumed(), 3u);
  EXPECT_EQ(replay->total(), 3u);
  EXPECT_FALSE(replay->divergence().has_value());

  // Past the end of the recording there is nothing left to impersonate.
  auto done = link.clock->recv(std::chrono::milliseconds{5});
  EXPECT_EQ(done.status().code(), StatusCode::kAborted);
}

TEST(ReplaySessionTest, MismatchedSendDiverges) {
  auto opened = net::ReplaySession::open(tiny_hw_recording());
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto replay = std::move(opened).value();
  net::CosimLink link = replay->make_link();

  Status s = net::send_msg(*link.clock, net::ClockTick{20, 60});
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  const auto divergence = replay->divergence();
  ASSERT_TRUE(divergence.has_value());
  const obs::Divergence& d = *divergence;
  EXPECT_EQ(d.seq, 1u);
  EXPECT_EQ(d.port, LinkPort::kClock);
  EXPECT_EQ(d.dir, LinkDir::kTx);
  EXPECT_NE(d.reason.find("ClockTick.n_ticks: 2 vs 60"), std::string::npos)
      << d.reason;
  EXPECT_FALSE(replay->complete());
}

TEST(ReplaySessionTest, ExtraSendBeyondRecordingDiverges) {
  auto opened = net::ReplaySession::open(tiny_hw_recording());
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto replay = std::move(opened).value();
  net::CosimLink link = replay->make_link();

  ASSERT_TRUE(net::send_msg(*link.clock, net::ClockTick{20, 2}).ok());
  Status s = net::send_msg(*link.clock, net::ClockTick{40, 2});
  EXPECT_FALSE(s.ok());
  ASSERT_TRUE(replay->divergence().has_value());
  EXPECT_NE(replay->divergence()->reason.find("extra frame"),
            std::string::npos);
}

TEST(ReplaySessionTest, RejectsTruncatedRxFrames) {
  obs::Recording rec = tiny_hw_recording();
  rec.frames[2].truncated = true;
  rec.frames[2].payload.resize(1);
  auto opened = net::ReplaySession::open(std::move(rec));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().to_string().find("not replayable"),
            std::string::npos);
}

TEST(ReplaySessionTest, VirtualTimeGateHoldsRxUntilTheRecordedStamp) {
  obs::Recording rec;
  rec.meta.side = "hw";  // gate on hw_cycle
  rec.frames.push_back(msg_frame(0, LinkPort::kClock, LinkDir::kRx,
                                 net::TimeAck{1}, /*hw_cycle=*/100));
  u64 now = 0;
  net::ReplayOptions options;
  options.time_source = [&now] { return now; };
  auto opened = net::ReplaySession::open(std::move(rec), std::move(options));
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto replay = std::move(opened).value();
  net::CosimLink link = replay->make_link();

  auto early = link.clock->try_recv();
  ASSERT_TRUE(early.ok());
  EXPECT_FALSE(early.value().has_value());  // clock at 0 < recorded 100
  now = 99;
  EXPECT_FALSE(link.clock->try_recv().value().has_value());
  now = 100;
  auto due = link.clock->try_recv();
  ASSERT_TRUE(due.ok());
  ASSERT_TRUE(due.value().has_value());
  EXPECT_TRUE(replay->complete());
}

// ---------------------------------------------------------------------------
// Integration: record a real co-simulation, replay it into a lone kernel.

/// The session tests' echo device: write v to 0x0, read v+1 at 0x4 plus an
/// interrupt pulse. Deterministic given the same driver traffic — exactly
/// what replay needs.
struct EchoDevice : sim::Module {
  cosim::DriverIn<u32> in;
  cosim::DriverOut<u32> out;
  sim::BoolSignal& irq_line;
  u64 requests = 0;

  explicit EchoDevice(cosim::CosimKernel& hw)
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

struct RecordedRun {
  obs::Recording hw_recording;
  u64 cycles = 0;
  u64 requests = 0;
  std::size_t board_frames = 0;
};

/// Runs the echo workload with the flight recorder on and returns the
/// written-and-reloaded hw-side recording (exercising the full disk path).
RecordedRun record_echo_run(const std::string& tag) {
  const auto cfg = cosim::SessionConfigBuilder{}
                       .inproc()
                       .t_sync(20)
                       .cycles_per_tick(10)
                       .record(true)
                       .postmortem_prefix("")
                       .build_or_throw();
  cosim::CosimSession session{cfg};
  EchoDevice echo{session.hw()};

  auto& board = session.board();
  rtos::Semaphore reply_ready{board.kernel(), 0};
  board.attach_device_dsr([&](u32) { reply_ready.post(); });
  constexpr u32 kRounds = 5;
  std::vector<u32> replies;
  board.spawn_app("echo_app", 8, [&] {
    for (u32 i = 0; i < kRounds; ++i) {
      if (!board.dev_write(0x0, cosim::DriverCodec<u32>::encode(100 + i))
               .ok()) {
        return;
      }
      reply_ready.wait();
      auto resp = board.dev_read(0x4, 4);
      if (!resp.ok()) return;
      u32 value = 0;
      (void)cosim::DriverCodec<u32>::decode(resp.value(), value);
      replies.push_back(value);
      board.kernel().consume(50);
    }
  });

  session.start_board();
  for (int chunk = 0; chunk < 400 && replies.size() < kRounds; ++chunk) {
    EXPECT_TRUE(session.run_cycles(50).ok());
  }
  session.finish();
  EXPECT_EQ(replies.size(), static_cast<std::size_t>(kRounds));

  const std::string prefix = ::testing::TempDir() + "replay_it_" + tag;
  EXPECT_TRUE(session.write_recordings(prefix).ok());
  auto loaded = obs::read_recording(prefix + ".hw.vhprec");
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  auto board_rec = obs::read_recording(prefix + ".node0.board.vhprec");
  EXPECT_TRUE(board_rec.ok()) << board_rec.status();
  std::remove((prefix + ".hw.vhprec").c_str());
  std::remove((prefix + ".node0.board.vhprec").c_str());

  RecordedRun run;
  run.hw_recording = std::move(loaded).value();
  run.cycles = session.hw().cycle();
  run.requests = echo.requests;
  run.board_frames = board_rec.ok() ? board_rec.value().frames.size() : 0;
  EXPECT_EQ(run.hw_recording.meta.side, "hw");
  EXPECT_EQ(run.hw_recording.meta.tags.at("t_sync"), "20");
  if (board_rec.ok()) {
    EXPECT_EQ(board_rec.value().meta.side, "board");
  }
  return run;
}

TEST(RecordReplayTest, RecordingReplaysIntoLoneKernelIdentically) {
  RecordedRun run = record_echo_run("ok");
  ASSERT_GT(run.hw_recording.frames.size(), 0u);
  ASSERT_GT(run.cycles, 0u);
  // Both sides saw the same conversation (the board may have recorded one
  // final ack the kernel no longer waited for at finish).
  EXPECT_GE(run.board_frames, run.hw_recording.frames.size());
  EXPECT_LE(run.board_frames - run.hw_recording.frames.size(), 1u);
  const std::size_t total_frames = run.hw_recording.frames.size();

  auto opened = net::ReplaySession::open(std::move(run.hw_recording));
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto replay = std::move(opened).value();

  cosim::CosimConfig cc;
  cc.sync.quantum(20);  // the recorded session's knobs (echoed in the tags)
  cosim::CosimKernel kernel{replay->make_link(), cc};
  replay->set_time_source([&kernel] { return kernel.cycle(); });
  EchoDevice echo{kernel};

  while (kernel.cycle() < run.cycles) {
    ASSERT_TRUE(kernel.run_cycles(50).ok());
  }
  kernel.finish();

  ASSERT_FALSE(replay->divergence().has_value())
      << replay->divergence()->to_string();
  EXPECT_EQ(kernel.cycle(), run.cycles);  // identical trajectory
  EXPECT_EQ(echo.requests, run.requests);  // identical device activity
  EXPECT_TRUE(replay->complete());
  EXPECT_EQ(replay->consumed(), total_frames);
}

TEST(RecordReplayTest, PerturbedRecordingNamesTheFirstDivergentFrame) {
  RecordedRun run = record_echo_run("diverge");

  // Corrupt the first recorded CLOCK_TICK the hw side sent: the replayed
  // kernel will send the original and must be called out on that frame.
  std::size_t victim = run.hw_recording.frames.size();
  for (std::size_t i = 0; i < run.hw_recording.frames.size(); ++i) {
    const auto& f = run.hw_recording.frames[i];
    if (f.port == LinkPort::kClock && f.dir == LinkDir::kTx &&
        f.msg_type == static_cast<u8>(net::MsgType::kClockTick)) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, run.hw_recording.frames.size());
  obs::FrameRecord& frame = run.hw_recording.frames[victim];
  auto msg = net::decode(frame.payload);
  ASSERT_TRUE(msg.ok());
  auto tick = std::get<net::ClockTick>(msg.value());
  tick.n_ticks += 1;
  frame.payload = net::encode(net::Message{tick});
  frame.payload_size = static_cast<u32>(frame.payload.size());
  frame.digest = crc32(frame.payload);
  const u64 victim_seq = frame.seq;

  auto opened = net::ReplaySession::open(std::move(run.hw_recording));
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto replay = std::move(opened).value();
  cosim::CosimConfig cc;
  cc.sync.quantum(20);
  cosim::CosimKernel kernel{replay->make_link(), cc};
  replay->set_time_source([&kernel] { return kernel.cycle(); });
  EchoDevice echo{kernel};

  Status status;
  while (kernel.cycle() < run.cycles) {
    status = kernel.run_cycles(50);
    if (!status.ok()) break;
  }
  kernel.finish();

  EXPECT_FALSE(status.ok());
  const auto divergence = replay->divergence();
  ASSERT_TRUE(divergence.has_value());
  const obs::Divergence& d = *divergence;
  EXPECT_EQ(d.seq, victim_seq);
  EXPECT_EQ(d.port, LinkPort::kClock);
  EXPECT_EQ(d.dir, LinkDir::kTx);
  EXPECT_NE(d.reason.find("ClockTick.n_ticks"), std::string::npos)
      << d.reason;
}

}  // namespace
}  // namespace vhp
