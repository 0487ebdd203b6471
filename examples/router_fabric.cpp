// The case study scaled out on the co-simulation fabric: the same 4-port
// packet router, but checksum verification is sharded across FOUR virtual
// boards — one per router input port — orchestrated by the N-party
// virtual-tick barrier (vhp::fabric).
//
// Usage: router_fabric [t_sync] [n_packets]
//          [--inproc] [--no-baseline]
//          [--metrics-json path] [--record prefix]
//
// Each node runs its own RTOS instance (own fiber group, own host thread),
// its own ChecksumApp, and its own DriverRegistry — all four boards use the
// SAME device addresses (0x0/0x4) without colliding, because DATA traffic
// of node i consults only registry i.
//
// After the fabric run the program replays the identical traffic through
// the classic two-party CosimSession (one board verifying all four ports)
// and compares the packet accounting: the fabric must deliver exactly the
// packet counts of the single-session baseline — the barrier changes who
// verifies, not what happens.
//
// Artifacts: router_fabric.metrics.json — ONE merged document spanning the
// master hub (fabric.* barrier metrics, unprefixed) and the four node hubs
// ("port0."... prefixes, obs::merged_metrics_json). --record writes the
// node-stamped master recording "<prefix>.hw.vhprec" (diff/replay per node
// with vhptrace --node / net::ReplayOptions::node) plus one board-side
// recording per node.
#include <cstdio>
#include <string>
#include <vector>

#include "cli.hpp"
#include "vhp/cosim/session.hpp"
#include "vhp/fabric/fabric.hpp"
#include "vhp/router/checksum_app.hpp"
#include "vhp/router/testbench.hpp"

using namespace vhp;

namespace {

constexpr u64 kMaxCycles = 2000000;
constexpr u64 kStepCycles = 500;
constexpr std::size_t kPorts = 4;

router::TestbenchConfig testbench_config(u64 n_packets) {
  // Identical to router_cosim's, so the baseline comparison is exact.
  router::TestbenchConfig tb_cfg;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.router.buffer_depth = 4;
  tb_cfg.packets_per_port = n_packets / kPorts;
  tb_cfg.gap_cycles = 8000;
  tb_cfg.payload_bytes = 32;
  tb_cfg.corrupt_probability = 0.1;
  return tb_cfg;
}

router::ChecksumAppConfig app_config() {
  router::ChecksumAppConfig app_cfg;
  app_cfg.cost_base = 20;
  app_cfg.cost_per_byte = 1;
  return app_cfg;
}

struct Counts {
  u64 emitted = 0;
  u64 forwarded = 0;
  u64 received = 0;
  u64 dropped_bad_checksum = 0;
};

/// The two-party reference: one board verifies all four ports (the exact
/// router_cosim configuration, minus the console theater).
Counts run_baseline(u64 t_sync, u64 n_packets, bool inproc) {
  auto builder = cosim::SessionConfigBuilder{}.t_sync(t_sync)
                     .cycles_per_tick(10);
  if (!inproc) builder.tcp();
  cosim::CosimSession session{builder.build_or_throw()};
  router::RouterTestbench tb{session.hw().kernel(),
                             testbench_config(n_packets),
                             &session.hw().registry()};
  session.hw().watch_interrupt(tb.router().irq(),
                               board::Board::kDeviceVector);
  router::ChecksumApp app{session.board(), app_config()};
  session.start_board();
  u64 cycles = 0;
  while (cycles < kMaxCycles && !tb.traffic_done()) {
    if (!session.run_cycles(kStepCycles).ok()) break;
    cycles += kStepCycles;
  }
  session.finish();
  return Counts{tb.total_emitted(), tb.router().stats().forwarded,
                tb.total_received(), tb.router().stats().dropped_bad_checksum};
}

}  // namespace

int main(int argc, char** argv) {
  examples::ArgList args{argc, argv,
                         "[t_sync] [n_packets] [--inproc] [--no-baseline] "
                         "[--metrics-json path] [--record prefix]"};
  const bool inproc = args.take_flag("--inproc");
  const bool baseline = !args.take_flag("--no-baseline");
  const std::string metrics_path =
      args.take_value("--metrics-json").value_or("router_fabric.metrics.json");
  const auto record_prefix = args.take_value("--record");
  args.reject_unknown_flags();
  const u64 t_sync = args.positional_u64(0, 1000);
  const u64 n_packets = args.positional_u64(1, 100);

  fabric::FabricConfigBuilder builder;
  builder.sync(cosim::SyncPolicy{}.quantum(t_sync).watchdog(
      std::chrono::milliseconds{30000}));
  if (!inproc) builder.tcp();
  if (record_prefix.has_value()) builder.record();
  for (std::size_t p = 0; p < kPorts; ++p) {
    builder.add_node("port" + std::to_string(p));
    builder.last_board().rtos.cycles_per_tick = 10;
  }
  auto built = builder.build();
  if (!built.ok()) args.usage_error(built.status().message());

  std::printf("router fabric: %zu boards (one per port), T_sync=%llu, "
              "N=%llu packets, %s links\n\n",
              kPorts, (unsigned long long)t_sync,
              (unsigned long long)n_packets, inproc ? "inproc" : "TCP");
  fabric::Fabric fab{std::move(built).value()};

  // The router verifies the packet of input port p on board p: hand the
  // testbench all four per-node registries and wire each verifier's
  // interrupt line to its node.
  std::vector<cosim::DriverRegistry*> registries;
  for (std::size_t p = 0; p < kPorts; ++p) {
    registries.push_back(&fab.registry(p));
  }
  router::RouterTestbench tb{fab.kernel(), testbench_config(n_packets),
                             registries};
  for (std::size_t p = 0; p < kPorts; ++p) {
    fab.watch_interrupt(p, tb.router().irq(p), board::Board::kDeviceVector);
  }
  std::vector<std::unique_ptr<router::ChecksumApp>> apps;
  for (std::size_t p = 0; p < kPorts; ++p) {
    apps.push_back(std::make_unique<router::ChecksumApp>(fab.board(p),
                                                         app_config()));
  }

  fab.start_boards();
  Status status;
  u64 cycles = 0;
  while (cycles < kMaxCycles && !tb.traffic_done()) {
    status = fab.run_cycles(kStepCycles);
    if (!status.ok()) break;
    cycles += kStepCycles;
  }
  fab.finish();
  if (!status.ok()) {
    std::fprintf(stderr, "fabric stopped: %s\n", status.to_string().c_str());
    return 2;
  }

  const auto& rs = tb.router().stats();
  const Counts fabric_counts{tb.total_emitted(), rs.forwarded,
                             tb.total_received(), rs.dropped_bad_checksum};
  std::printf("--- HDL model (master kernel) ---------------------------\n");
  std::printf("cycles simulated        %10llu\n",
              (unsigned long long)fab.cycle());
  std::printf("packets emitted         %10llu\n",
              (unsigned long long)fabric_counts.emitted);
  std::printf("forwarded               %10llu\n",
              (unsigned long long)fabric_counts.forwarded);
  std::printf("dropped (bad checksum)  %10llu\n",
              (unsigned long long)fabric_counts.dropped_bad_checksum);
  std::printf("received by consumers   %10llu\n",
              (unsigned long long)fabric_counts.received);
  std::printf("--- fabric barrier --------------------------------------\n");
  std::printf("barriers                %10llu\n",
              (unsigned long long)fab.coordinator().barriers());
  std::printf("clock ticks scattered   %10llu\n",
              (unsigned long long)fab.coordinator().ticks_sent());
  std::printf("time acks gathered      %10llu\n",
              (unsigned long long)fab.coordinator().acks_received());
  std::printf("--- boards ----------------------------------------------\n");
  for (std::size_t p = 0; p < kPorts; ++p) {
    const auto& bk = fab.board(p).kernel();
    std::printf("  port%zu: %6llu SW ticks, %4llu checksums (%llu rejected), "
                "%llu ctx switches\n",
                p, (unsigned long long)bk.tick_count().value(),
                (unsigned long long)apps[p]->processed(),
                (unsigned long long)apps[p]->rejected(),
                (unsigned long long)bk.stats().context_switches);
  }

  if (record_prefix.has_value()) {
    Status rec = fab.write_recordings(
        *record_prefix, {{"n_packets", std::to_string(n_packets)}});
    std::printf("recordings %s.hw.vhprec + per-node board files (%s)\n",
                record_prefix->c_str(),
                rec.ok() ? "ok" : rec.to_string().c_str());
  }
  Status ms = fab.write_metrics_json(metrics_path);
  std::printf("wrote %s (%s) — merged across master + %zu node hubs\n",
              metrics_path.c_str(), ms.ok() ? "ok" : ms.to_string().c_str(),
              kPorts);

  if (!baseline) return tb.traffic_done() ? 0 : 1;

  std::printf("\nrunning single-session baseline for comparison...\n");
  const Counts base = run_baseline(t_sync, n_packets, inproc);
  const bool match = base.emitted == fabric_counts.emitted &&
                     base.forwarded == fabric_counts.forwarded &&
                     base.received == fabric_counts.received &&
                     base.dropped_bad_checksum ==
                         fabric_counts.dropped_bad_checksum;
  std::printf("--- fabric vs single-session baseline -------------------\n");
  std::printf("                         fabric    baseline\n");
  std::printf("emitted              %10llu  %10llu\n",
              (unsigned long long)fabric_counts.emitted,
              (unsigned long long)base.emitted);
  std::printf("forwarded            %10llu  %10llu\n",
              (unsigned long long)fabric_counts.forwarded,
              (unsigned long long)base.forwarded);
  std::printf("received             %10llu  %10llu\n",
              (unsigned long long)fabric_counts.received,
              (unsigned long long)base.received);
  std::printf("dropped bad checksum %10llu  %10llu\n",
              (unsigned long long)fabric_counts.dropped_bad_checksum,
              (unsigned long long)base.dropped_bad_checksum);
  std::printf("%s\n", match ? "MATCH: the fabric delivers the baseline's "
                              "packet counts"
                            : "MISMATCH between fabric and baseline");
  return match && tb.traffic_done() ? 0 : 1;
}
