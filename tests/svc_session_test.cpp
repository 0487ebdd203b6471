// vhp::svc end-to-end (ISSUE 10 acceptance): the router case study must
// produce the SAME application-level outcome — and bit-exact flight
// recordings on every port — whether the session runs over the classic
// blocking inproc drive, the shm ring transport, per-quantum frame
// batching, or event-driven hosting on a svc::EventLoop. The conservative
// barrier makes batching's delivery-at-the-boundary invisible in virtual
// time, so unlike the adaptive suite nothing is stripped: CLOCK, DATA and
// INT all have to match.
//
// Fiber-bound (real RTOS boards), so labeled "svc", not "-tsan".
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "vhp/cosim/session.hpp"
#include "vhp/fabric/fabric.hpp"
#include "vhp/net/replay.hpp"
#include "vhp/obs/recording.hpp"
#include "vhp/router/checksum_app.hpp"
#include "vhp/router/testbench.hpp"
#include "vhp/svc/event_loop.hpp"
#include "vhp/svc/session_host.hpp"

namespace vhp::cosim {
namespace {

using namespace std::chrono_literals;

constexpr u64 kTsync = 200;
constexpr u64 kTotalCycles = 30000;

router::TestbenchConfig testbench_config() {
  router::TestbenchConfig tb_cfg;
  tb_cfg.router.n_ports = 2;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.router.buffer_depth = 4;
  tb_cfg.packets_per_port = 2;
  tb_cfg.gap_cycles = 800;
  tb_cfg.payload_bytes = 8;
  tb_cfg.corrupt_probability = 0.25;
  return tb_cfg;
}

router::ChecksumAppConfig app_config() {
  router::ChecksumAppConfig app_cfg;
  app_cfg.cost_base = 20;
  app_cfg.cost_per_byte = 1;
  return app_cfg;
}

struct RunResult {
  u64 emitted = 0;
  u64 forwarded = 0;
  u64 received = 0;
  u64 dropped = 0;
  u64 syncs = 0;
  bool drained = false;
  obs::Recording hw_recording;
};

void collect(RunResult& result, router::RouterTestbench& tb,
             CosimSession& session) {
  result.emitted = tb.total_emitted();
  result.forwarded = tb.router().stats().forwarded;
  result.received = tb.total_received();
  result.dropped = tb.router().stats().dropped_bad_checksum;
  result.syncs = session.hw().stats().syncs;
  result.drained = tb.traffic_done();
  result.hw_recording.meta.side = "hw";
  result.hw_recording.frames = session.obs().hw_recorder().snapshot();
}

SessionConfigBuilder session_builder(TransportKind transport, bool batch) {
  SessionConfigBuilder builder;
  builder.t_sync(kTsync).cycles_per_tick(10).postmortem_prefix("");
  builder.transport(transport).batching(batch);
  builder.record().record_ring(1u << 14);
  return builder;
}

/// The classic drive: board on its own host thread, caller blocking in
/// run_cycles(). The reference all other drives must match bit-exactly.
RunResult run_blocking(TransportKind transport, bool batch) {
  CosimSession session{session_builder(transport, batch).build_or_throw()};
  router::RouterTestbench tb{session.hw().kernel(), testbench_config(),
                             &session.hw().registry()};
  session.hw().watch_interrupt(tb.router().irq(),
                               board::Board::kDeviceVector);
  router::ChecksumApp app{session.board(), app_config()};

  session.start_board();
  for (u64 cycles = 0; cycles < kTotalCycles; cycles += 500) {
    EXPECT_TRUE(session.run_cycles(500).ok());
  }
  session.finish();

  RunResult result;
  collect(result, tb, session);
  return result;
}

/// The svc drive: no board thread, no blocking run_cycles — a SessionHost
/// steps the session from EventLoop callbacks.
RunResult run_hosted(TransportKind transport, bool batch,
                     u64 cycles_per_step) {
  CosimSession session{session_builder(transport, batch).build_or_throw()};
  router::RouterTestbench tb{session.hw().kernel(), testbench_config(),
                             &session.hw().registry()};
  session.hw().watch_interrupt(tb.router().irq(),
                               board::Board::kDeviceVector);
  router::ChecksumApp app{session.board(), app_config()};

  svc::EventLoop loop;
  svc::SessionHostConfig host_cfg;
  host_cfg.cycles = kTotalCycles;
  host_cfg.cycles_per_step = cycles_per_step;
  svc::SessionHost host{loop, session, host_cfg,
                        [&](Status) { loop.stop(); }};
  host.start();
  loop.run();

  EXPECT_TRUE(host.done());
  EXPECT_TRUE(host.status().ok()) << host.status();
  EXPECT_EQ(host.cycles_done(), kTotalCycles);
  // The host holds both ends of every frame: every frame a step waits for
  // was sent by an earlier step, so the host never parks on a timer.
  EXPECT_EQ(loop.timers_fired(), 0u);

  RunResult result;
  collect(result, tb, session);
  return result;
}

void expect_identical(const RunResult& reference, const RunResult& actual,
                      const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_TRUE(actual.drained) << what << " did not drain";
  EXPECT_EQ(actual.emitted, reference.emitted);
  EXPECT_EQ(actual.forwarded, reference.forwarded);
  EXPECT_EQ(actual.received, reference.received);
  EXPECT_EQ(actual.dropped, reference.dropped);
  EXPECT_EQ(actual.syncs, reference.syncs);
  // The whole wire stream — CLOCK, DATA and INT — must be bit-exact.
  const auto divergence =
      obs::diff_recordings(reference.hw_recording, actual.hw_recording,
                           &net::message_field_diff);
  EXPECT_FALSE(divergence.has_value())
      << what << " diverged: " << divergence->to_string();
}

TEST(SvcTransportParity, RouterSessionBitExactAcrossTransports) {
  const RunResult inproc = run_blocking(TransportKind::kInProc, false);
  ASSERT_TRUE(inproc.drained) << "inproc baseline did not drain";
  ASSERT_GT(inproc.emitted, 0u);

  expect_identical(inproc, run_blocking(TransportKind::kShm, false), "shm");
  expect_identical(inproc, run_blocking(TransportKind::kShm, true),
                   "shm+batching");
  expect_identical(inproc, run_blocking(TransportKind::kTcp, true),
                   "tcp+batching");
}

TEST(SvcSessionHost, HostedSessionMatchesBlockingRun) {
  const RunResult blocking = run_blocking(TransportKind::kInProc, false);
  ASSERT_TRUE(blocking.drained) << "blocking baseline did not drain";
  ASSERT_GT(blocking.emitted, 0u);

  // Slice size is a scheduling knob, not a protocol one: any value must
  // reproduce the reference bit-exactly.
  expect_identical(blocking, run_hosted(TransportKind::kInProc, false, 1024),
                   "hosted inproc");
  expect_identical(blocking, run_hosted(TransportKind::kShm, true, 128),
                   "hosted shm+batching");
}

TEST(SvcSessionHost, ReportsDoneOnlyOnceTheBoardHasHalted) {
  // A 2 ms link holds the SHUTDOWN in the board-side latency decorator for
  // 2 ms after the host sends it: the host must keep pumping the board
  // until it has taken it, and only then report done.
  CosimSession session{
      SessionConfigBuilder{}.t_sync(500).link_latency(2ms).build_or_throw()};
  svc::EventLoop loop;
  svc::SessionHostConfig host_cfg;
  host_cfg.cycles = 2000;
  Status final = Status{StatusCode::kInternal, "on_done never ran"};
  bool halted = false;
  svc::SessionHost host{loop, session, host_cfg, [&](Status s) {
                          final = std::move(s);
                          halted = session.board().kernel().shutting_down();
                          loop.stop();
                        }};
  host.start();
  loop.run();

  EXPECT_TRUE(final.ok()) << final;
  EXPECT_TRUE(halted) << "on_done ran with the board still live";
  EXPECT_EQ(host.cycles_done(), 2000u);
  // No fd announces a held frame: the host parked on its re-poll timer.
  EXPECT_GT(loop.timers_fired(), 0u);
}

TEST(SvcSessionHost, ManySessionsShareOneLoop) {
  // The density model in miniature: 8 independent router sessions hosted
  // on ONE loop thread, no per-board host threads anywhere. Every session
  // must run to its cycle target and drain its traffic.
  constexpr std::size_t kSessions = 8;
  constexpr u64 kCycles = 12000;
  router::TestbenchConfig tb_cfg = testbench_config();
  tb_cfg.packets_per_port = 1;

  svc::EventLoop loop;
  struct Hosted {
    std::unique_ptr<CosimSession> session;
    std::unique_ptr<router::RouterTestbench> tb;
    std::unique_ptr<router::ChecksumApp> app;
    std::unique_ptr<svc::SessionHost> host;
  };
  std::vector<Hosted> hosted;
  hosted.reserve(kSessions);
  std::size_t remaining = kSessions;
  for (std::size_t i = 0; i < kSessions; ++i) {
    Hosted h;
    h.session = std::make_unique<CosimSession>(
        session_builder(TransportKind::kShm, true).build_or_throw());
    h.tb = std::make_unique<router::RouterTestbench>(
        h.session->hw().kernel(), tb_cfg, &h.session->hw().registry());
    h.session->hw().watch_interrupt(h.tb->router().irq(),
                                    board::Board::kDeviceVector);
    h.app = std::make_unique<router::ChecksumApp>(h.session->board(),
                                                  app_config());
    svc::SessionHostConfig host_cfg;
    host_cfg.cycles = kCycles;
    host_cfg.cycles_per_step = 256;
    h.host = std::make_unique<svc::SessionHost>(
        loop, *h.session, host_cfg, [&](Status) {
          if (--remaining == 0) loop.stop();  // on_done runs on the loop
        });
    hosted.push_back(std::move(h));
  }
  for (auto& h : hosted) h.host->start();
  loop.run();

  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(loop.timers_fired(), 0u) << "a self-contained session parked";
  for (std::size_t i = 0; i < kSessions; ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    const Hosted& h = hosted[i];
    EXPECT_TRUE(h.host->done());
    EXPECT_TRUE(h.host->status().ok()) << h.host->status();
    EXPECT_EQ(h.host->cycles_done(), kCycles);
    EXPECT_TRUE(h.tb->traffic_done()) << "session did not drain";
    EXPECT_GT(h.tb->total_received(), 0u);
  }
}

TEST(SvcSessionConfig, RejectedCombinations) {
  // Batching needs a quantum boundary to flush at: free-running boards
  // have none, and the recovery layer's acks must not sit in the peer's
  // batch buffer past an RTO.
  EXPECT_FALSE(SessionConfigBuilder{}.untimed().batching().build().ok());
  fault::RecoveryConfig recovery;
  recovery.enabled = true;
  EXPECT_FALSE(
      SessionConfigBuilder{}.batching().recovery(recovery).build().ok());
  EXPECT_TRUE(SessionConfigBuilder{}.batching().build().ok());

  fabric::FabricConfigBuilder fb;
  fb.add_node("n0");
  EXPECT_TRUE(fb.shm().batching().event_loop().build().ok());
  fb.recovery(recovery);
  EXPECT_FALSE(fb.build().ok());
}

}  // namespace
}  // namespace vhp::cosim
