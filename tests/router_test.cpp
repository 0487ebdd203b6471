// Case-study tests: packet codec, the router HDL model standalone (local
// checksum), and the full co-simulated configuration with the checksum
// application on the virtual board.
#include <gtest/gtest.h>

#include "vhp/cosim/session.hpp"
#include "vhp/router/checksum_app.hpp"
#include "vhp/router/testbench.hpp"

namespace vhp::router {
namespace {

// ---------- packet ----------

TEST(Packet, PackUnpackRoundTrip) {
  Packet p;
  p.src = 3;
  p.dst = 9;
  p.id = 0x12345678;
  p.payload = {1, 2, 3, 4, 5};
  p.finalize_checksum();
  auto back = Packet::unpack(p.pack());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, p);
}

TEST(Packet, FinalizedChecksumVerifies) {
  Packet p;
  p.payload = Bytes(64, 0x5a);
  p.finalize_checksum();
  EXPECT_TRUE(p.checksum_ok());
  EXPECT_TRUE(packed_checksum_ok(p.pack()));
}

TEST(Packet, CorruptionDetected) {
  Packet p;
  p.src = 1;
  p.payload = {10, 20, 30, 40};
  p.finalize_checksum();
  for (std::size_t i = 0; i < p.payload.size(); ++i) {
    Packet bad = p;
    bad.payload[i] ^= 0x01;
    EXPECT_FALSE(bad.checksum_ok()) << "flip at " << i;
  }
}

TEST(Packet, EmptyPayloadLegal) {
  Packet p;
  p.finalize_checksum();
  EXPECT_TRUE(p.checksum_ok());
  EXPECT_TRUE(Packet::unpack(p.pack()).has_value());
}

TEST(Packet, UnpackRejectsTruncation) {
  Packet p;
  p.payload = {1, 2, 3};
  p.finalize_checksum();
  Bytes raw = p.pack();
  for (std::size_t cut = 1; cut < raw.size(); ++cut) {
    EXPECT_FALSE(
        Packet::unpack(std::span(raw.data(), raw.size() - cut)).has_value());
  }
}

TEST(Packet, UnpackRejectsBadLengthField) {
  Packet p;
  p.payload = {1, 2, 3};
  p.finalize_checksum();
  Bytes raw = p.pack();
  raw[6] = 0xff;  // inflate the length field
  EXPECT_FALSE(Packet::unpack(raw).has_value());
}

TEST(Packet, PeekIdWithoutParse) {
  Packet p;
  p.id = 0xabcdef01;
  p.payload = {1};
  p.finalize_checksum();
  EXPECT_EQ(Packet::peek_id(p.pack()), 0xabcdef01u);
  EXPECT_FALSE(Packet::peek_id(Bytes{1, 2}).has_value());
}

// ---------- router, standalone (local checksum) ----------

TestbenchConfig local_cfg() {
  TestbenchConfig cfg;
  cfg.router.remote_checksum = false;
  cfg.router.buffer_depth = 8;
  cfg.packets_per_port = 10;
  cfg.gap_cycles = 20;
  cfg.payload_bytes = 16;
  return cfg;
}

TEST(RouterLocal, ForwardsAllGoodPackets) {
  sim::Kernel k;
  RouterTestbench tb{k, local_cfg()};
  k.run(200000);
  EXPECT_TRUE(tb.traffic_done());
  EXPECT_EQ(tb.total_emitted(), 40u);
  EXPECT_EQ(tb.router().stats().forwarded, 40u);
  EXPECT_EQ(tb.total_received(), 40u);
  EXPECT_EQ(tb.total_integrity_failures(), 0u);
  EXPECT_EQ(tb.router().stats().dropped_input_full, 0u);
  EXPECT_DOUBLE_EQ(tb.forward_ratio(), 1.0);
}

TEST(RouterLocal, DropsCorruptPackets) {
  auto cfg = local_cfg();
  cfg.corrupt_probability = 1.0;  // every packet corrupted
  sim::Kernel k;
  RouterTestbench tb{k, cfg};
  k.run(200000);
  EXPECT_TRUE(tb.traffic_done());
  EXPECT_EQ(tb.router().stats().dropped_bad_checksum, 40u);
  EXPECT_EQ(tb.router().stats().forwarded, 0u);
  EXPECT_EQ(tb.total_received(), 0u);
}

TEST(RouterLocal, MixedTrafficSplitsCorrectly) {
  auto cfg = local_cfg();
  cfg.corrupt_probability = 0.5;
  sim::Kernel k;
  RouterTestbench tb{k, cfg};
  k.run(400000);
  EXPECT_TRUE(tb.traffic_done());
  const auto& s = tb.router().stats();
  EXPECT_EQ(s.forwarded + s.dropped_bad_checksum, 40u);
  EXPECT_GT(s.dropped_bad_checksum, 0u);
  EXPECT_GT(s.forwarded, 0u);
  EXPECT_EQ(tb.total_received(), s.forwarded);
  EXPECT_EQ(tb.total_integrity_failures(), 0u);  // bad ones never forwarded
}

TEST(RouterLocal, InputOverflowDropsWhenRouterIsSlow) {
  auto cfg = local_cfg();
  cfg.router.buffer_depth = 2;
  cfg.router.proc_cycles = 200;  // router far slower than arrivals
  cfg.gap_cycles = 10;
  sim::Kernel k;
  RouterTestbench tb{k, cfg};
  k.run(2000000);
  EXPECT_GT(tb.router().stats().dropped_input_full, 0u);
  EXPECT_EQ(tb.router().stats().accepted + tb.router().stats().dropped_input_full,
            40u);
}

TEST(RouterLocal, RoutingTableOverridesModulo) {
  auto cfg = local_cfg();
  // Everything to port 2, whatever the destination byte.
  for (int d = 0; d < 256; ++d) {
    cfg.router.routes[static_cast<u8>(d)] = 2;
  }
  sim::Kernel k;
  RouterTestbench tb{k, cfg};
  k.run(200000);
  EXPECT_TRUE(tb.traffic_done());
  EXPECT_EQ(tb.router().output(2).size() +
                /* consumer drained them */ tb.total_received(),
            40u + tb.router().output(2).size());
  EXPECT_EQ(tb.total_received(), 40u);
}

TEST(RouterLocal, UnroutableDestinationCounted) {
  auto cfg = local_cfg();
  cfg.router.routes[0] = 0;  // only destination 0 is routable
  sim::Kernel k;
  RouterTestbench tb{k, cfg};
  k.run(400000);
  EXPECT_TRUE(tb.traffic_done());
  const auto& s = tb.router().stats();
  EXPECT_EQ(s.forwarded + s.dropped_no_route, s.processed);
  EXPECT_GT(s.dropped_no_route, 0u);
}

TEST(RouterLocal, RoundRobinServesAllPorts) {
  auto cfg = local_cfg();
  cfg.packets_per_port = 5;
  sim::Kernel k;
  RouterTestbench tb{k, cfg};
  k.run(200000);
  EXPECT_TRUE(tb.traffic_done());
  EXPECT_EQ(tb.router().stats().processed, 20u);
}

// ---------- router, co-simulated with the board checksum app ----------

struct CosimRouterRig {
  cosim::SessionConfig session_cfg;
  std::unique_ptr<cosim::CosimSession> session;
  std::unique_ptr<RouterTestbench> tb;
  std::unique_ptr<ChecksumApp> app;

  explicit CosimRouterRig(u64 t_sync, TestbenchConfig tb_cfg,
                          cosim::TransportKind transport =
                              cosim::TransportKind::kInProc) {
    session_cfg.transport = transport;
    session_cfg.cosim.sync.quantum(t_sync);
    session_cfg.board.rtos.cycles_per_tick = 10;
    session = std::make_unique<cosim::CosimSession>(session_cfg);
    tb_cfg.router.remote_checksum = true;
    tb = std::make_unique<RouterTestbench>(session->hw().kernel(), tb_cfg,
                                           &session->hw().registry());
    session->hw().watch_interrupt(tb->router().irq(),
                                  board::Board::kDeviceVector);
    ChecksumAppConfig app_cfg;
    app_cfg.cost_base = 20;
    app_cfg.cost_per_byte = 1;
    app = std::make_unique<ChecksumApp>(session->board(), app_cfg);
    session->start_board();
  }

  /// Runs until traffic drains or the cycle limit hits; returns cycles run.
  u64 run_until_done(u64 limit) {
    u64 cycles = 0;
    while (cycles < limit && !tb->traffic_done()) {
      EXPECT_TRUE(session->run_cycles(100).ok());
      cycles += 100;
    }
    return cycles;
  }
};

TEST(RouterCosim, VerdictTimeoutUnwedgesDeadBoard) {
  // Remote checksum with NO checksum application on the board: verdicts
  // never come. With a timeout configured, the router must drop every
  // packet and drain instead of wedging forever.
  cosim::SessionConfig scfg;
  scfg.transport = cosim::TransportKind::kInProc;
  scfg.cosim.sync.quantum(10);
  cosim::CosimSession session{scfg};
  TestbenchConfig cfg;
  cfg.packets_per_port = 2;
  cfg.gap_cycles = 50;
  cfg.router.remote_checksum = true;
  cfg.router.verdict_timeout_cycles = 100;
  RouterTestbench tb{session.hw().kernel(), cfg, &session.hw().registry()};
  session.hw().watch_interrupt(tb.router().irq(),
                               board::Board::kDeviceVector);
  // Deliberately: no ChecksumApp, no DSR.
  session.start_board();
  u64 cycles = 0;
  while (cycles < 100000 && !tb.traffic_done()) {
    ASSERT_TRUE(session.run_cycles(100).ok());
    cycles += 100;
  }
  session.finish();
  EXPECT_TRUE(tb.traffic_done());
  EXPECT_EQ(tb.router().stats().dropped_verdict_timeout, 8u);
  EXPECT_EQ(tb.router().stats().forwarded, 0u);
}

TEST(RouterCosim, TightSyncForwardsEverything) {
  TestbenchConfig cfg;
  cfg.packets_per_port = 5;
  cfg.gap_cycles = 200;
  cfg.payload_bytes = 16;
  cfg.router.buffer_depth = 8;
  CosimRouterRig rig{/*t_sync=*/10, cfg};
  rig.run_until_done(2000000);
  rig.session->finish();
  EXPECT_TRUE(rig.tb->traffic_done());
  EXPECT_EQ(rig.tb->total_emitted(), 20u);
  EXPECT_EQ(rig.tb->router().stats().forwarded, 20u);
  EXPECT_EQ(rig.app->processed(), 20u);
  EXPECT_EQ(rig.app->rejected(), 0u);
  EXPECT_EQ(rig.tb->total_received(), 20u);
}

TEST(RouterCosim, BoardRejectsCorruptPackets) {
  TestbenchConfig cfg;
  cfg.packets_per_port = 4;
  cfg.gap_cycles = 300;
  cfg.corrupt_probability = 1.0;
  cfg.router.buffer_depth = 8;
  CosimRouterRig rig{/*t_sync=*/10, cfg};
  rig.run_until_done(2000000);
  rig.session->finish();
  EXPECT_TRUE(rig.tb->traffic_done());
  EXPECT_EQ(rig.app->processed(), 16u);
  EXPECT_EQ(rig.app->rejected(), 16u);
  EXPECT_EQ(rig.tb->router().stats().dropped_bad_checksum, 16u);
  EXPECT_EQ(rig.tb->router().stats().forwarded, 0u);
}

TEST(RouterCosim, LooseSyncLosesPacketsUnderLoad) {
  // The Figure 7 mechanism in miniature: long sync quanta delay the verdict
  // round trip; with fast arrivals and shallow buffers, packets drop.
  TestbenchConfig cfg;
  cfg.packets_per_port = 10;
  cfg.gap_cycles = 30;  // aggressive arrival rate
  cfg.router.buffer_depth = 2;
  CosimRouterRig rig{/*t_sync=*/5000, cfg};
  rig.run_until_done(3000000);
  rig.session->finish();
  const auto& s = rig.tb->router().stats();
  EXPECT_GT(s.dropped_input_full, 0u);
  EXPECT_LT(rig.tb->forward_ratio(), 1.0);
}

}  // namespace
}  // namespace vhp::router
