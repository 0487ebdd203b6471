// Fabric scaling: the N-party virtual-tick barrier under growing board
// counts (N = 1, 2, 4, 8, 16), fixed T_sync vs adaptive lookahead grants.
//
// Each run builds an N-port router whose port-p packets are verified on
// board p — per-node work is held constant while N grows, so wall time and
// the fabric.barrier_wait_ns histogram isolate what the conservative
// barrier itself costs as parties are added. N=1 degenerates to the paper's
// two-party protocol and anchors the trajectory.
//
// Every board additionally runs a housekeeping timer thread with a
// node-dependent period, so the boards are NOT in lockstep: each node's
// lookahead (next timer expiry) differs, and the adaptive rows exercise
// genuinely per-node variable quanta rather than N copies of one cadence.
//
// Output: BENCH_fabric_scale.metrics.json — one row per (N, mode) with wall
// time, barrier-wait and grant-size distributions, and the merged metrics
// document (master hub + per-node hubs; the per-node
// fabric.<name>.grant_cycles histograms ride along in metrics_json).
//
// --gate: run only N=8 fixed + adaptive and exit 1 if the adaptive mean
// barrier wait regresses above the fixed baseline (scripts/check.sh wires
// this into the adaptive gate). Mean wait per barrier is the comparable
// cost: adaptive barriers tick one desynchronized node each, so each
// gather waits on one catch-up instead of N.
#include "bench_util.hpp"

#include "vhp/fabric/fabric.hpp"

using namespace vhp;

namespace {

constexpr u64 kTsync = 1000;
// The accuracy bound on a sleeping board. Kept well under
// gap_cycles * buffer_depth so router input buffers cannot overflow while
// a board sleeps through one long grant.
constexpr u64 kMaxQuantum = 8000;
constexpr u64 kMinQuantum = 250;

struct ScaleResult {
  double wall_seconds = 0;
  u64 cycles = 0;
  u64 forwarded = 0;
  u64 emitted = 0;
  u64 barriers = 0;
  u64 acks = 0;
  u64 lookahead_acks = 0;
  u64 lookahead_unbounded = 0;
  double barrier_wait_mean_us = 0;
  double barrier_wait_total_ms = 0;
  /// Barrier wall-wait normalized by simulated cycles — the cost metric
  /// that is comparable across cadences (adaptive runs fewer barriers).
  double wait_us_per_kcycle = 0;
  u64 grants = 0;
  double grant_mean_cycles = 0;
  u64 grant_min_cycles = 0;
  u64 grant_max_cycles = 0;
  bool drained = false;
  std::string metrics_json;
};

ScaleResult run_scale_point(std::size_t n_nodes, bool adaptive,
                            u64 packets_per_port, bool inproc,
                            const std::string& record_prefix = {}) {
  fabric::FabricConfigBuilder builder;
  cosim::SyncPolicy policy = cosim::SyncPolicy{}.quantum(kTsync).watchdog(
      std::chrono::milliseconds{30000});
  if (adaptive) {
    policy.adaptive().min_quantum(kMinQuantum).max_quantum(kMaxQuantum);
  }
  builder.sync(policy);
  if (!record_prefix.empty()) builder.record().observability();
  if (!inproc) builder.tcp();
  for (std::size_t p = 0; p < n_nodes; ++p) {
    builder.add_node(strformat("node{}", p));
    builder.last_board().rtos.cycles_per_tick = 10;
  }
  fabric::Fabric fab{builder.build_or_throw()};

  router::TestbenchConfig tb_cfg;
  tb_cfg.router.n_ports = n_nodes;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.router.buffer_depth = 4;
  tb_cfg.packets_per_port = packets_per_port;
  tb_cfg.gap_cycles = 4000;
  tb_cfg.payload_bytes = 16;
  std::vector<cosim::DriverRegistry*> registries;
  for (std::size_t p = 0; p < n_nodes; ++p) {
    registries.push_back(&fab.registry(p));
  }
  router::RouterTestbench tb{fab.kernel(), tb_cfg, registries};
  for (std::size_t p = 0; p < n_nodes; ++p) {
    fab.watch_interrupt(p, tb.router().irq(p), board::Board::kDeviceVector);
  }
  router::ChecksumAppConfig app_cfg;
  app_cfg.cost_base = 20;
  app_cfg.cost_per_byte = 1;
  std::vector<std::unique_ptr<router::ChecksumApp>> apps;
  for (std::size_t p = 0; p < n_nodes; ++p) {
    apps.push_back(std::make_unique<router::ChecksumApp>(fab.board(p),
                                                         app_cfg));
    // Desynchronizing housekeeping: node p wakes every 150 + 37p SW ticks,
    // so each board's lookahead (and thus adaptive grant) is different.
    const u64 period = 150 + 37 * static_cast<u64>(p);
    auto& board = fab.board(p);
    board.spawn_app("housekeeping", 4, [&board, period] {
      for (;;) {
        board.kernel().delay(SwTicks{period});
        board.kernel().consume(10);
      }
    });
  }

  fab.start_boards();
  constexpr u64 kMaxCycles = 400000;
  constexpr u64 kChunk = 200;
  const auto start = std::chrono::steady_clock::now();
  u64 cycles = 0;
  while (cycles < kMaxCycles && !tb.traffic_done()) {
    if (!fab.run_cycles(kChunk).ok()) break;
    cycles += kChunk;
  }
  const auto end = std::chrono::steady_clock::now();
  fab.finish();

  if (!record_prefix.empty()) {
    // Feed the offline analyzers: `vhptrace critical <prefix>.hw.vhprec
    // <prefix>.<node>.board.vhprec ...` must reconcile with this run's wall
    // time (the check.sh timeline smoke drives exactly that).
    Status s = fab.write_recordings(record_prefix);
    if (s.ok()) {
      std::printf("recordings: %s.hw.vhprec + %zu board sides\n",
                  record_prefix.c_str(), n_nodes);
    } else {
      std::fprintf(stderr, "recording write failed: %s\n",
                   s.to_string().c_str());
    }
    const obs::TimelineAnalysis a = fab.timeline_analysis();
    std::printf("timeline: %zu rounds, slowdown %.1fx, reconciliation "
                "error %.2f%%\n",
                a.rounds.size(), a.slowdown, a.reconciliation_error * 100.0);
  }

  ScaleResult r;
  r.wall_seconds = std::chrono::duration<double>(end - start).count();
  r.cycles = cycles;
  r.forwarded = tb.router().stats().forwarded;
  r.emitted = tb.total_emitted();
  r.barriers = fab.coordinator().barriers();
  r.acks = fab.coordinator().acks_received();
  r.lookahead_acks = fab.coordinator().lookahead_acks();
  r.lookahead_unbounded = fab.coordinator().lookahead_unbounded();
  const auto& wait =
      fab.obs().metrics().histogram("fabric.barrier_wait_ns");
  r.barrier_wait_mean_us = wait.mean_ns() / 1e3;
  r.barrier_wait_total_ms = static_cast<double>(wait.sum_ns()) / 1e6;
  r.wait_us_per_kcycle =
      cycles == 0 ? 0
                  : static_cast<double>(wait.sum_ns()) / 1e3 /
                        (static_cast<double>(cycles) / 1e3);
  // Aggregate grant-size distribution across the per-node histograms
  // (recorded in cycles; the per-node split stays visible in metrics_json).
  u64 grant_sum = 0;
  r.grant_min_cycles = ~u64{0};
  for (std::size_t p = 0; p < n_nodes; ++p) {
    const auto& h = fab.obs().metrics().histogram(
        strformat("fabric.node{}.grant_cycles", p));
    r.grants += h.count();
    grant_sum += h.sum_ns();
    for (std::size_t b = 0; b < obs::LatencyHistogram::kBuckets; ++b) {
      if (h.bucket(b) == 0) continue;
      r.grant_min_cycles = std::min(
          r.grant_min_cycles, obs::LatencyHistogram::bucket_floor_ns(b));
      r.grant_max_cycles = std::max(
          r.grant_max_cycles,
          obs::LatencyHistogram::bucket_floor_ns(b + 1) - 1);
    }
  }
  if (r.grants == 0) r.grant_min_cycles = 0;
  r.grant_mean_cycles =
      r.grants == 0 ? 0
                    : static_cast<double>(grant_sum) /
                          static_cast<double>(r.grants);
  r.drained = tb.traffic_done();
  r.metrics_json = fab.metrics_json();
  return r;
}

bench::JsonRow to_row(std::size_t n, bool adaptive, u64 packets_per_port,
                      const ScaleResult& r) {
  bench::JsonRow row;
  row.params = strformat(
      "\"nodes\":{},\"mode\":\"{}\",\"t_sync\":{},\"min_quantum\":{},"
      "\"max_quantum\":{},\"packets_per_port\":{},\"cycles\":{},"
      "\"barriers\":{},\"acks\":{},\"lookahead_acks\":{},"
      "\"lookahead_unbounded\":{},\"barrier_wait_mean_us\":{},"
      "\"barrier_wait_total_ms\":{},\"wait_us_per_kcycle\":{},"
      "\"grants\":{},\"grant_mean_cycles\":{},\"grant_min_cycles\":{},"
      "\"grant_max_cycles\":{},\"forwarded\":{},\"emitted\":{},"
      "\"drained\":{}",
      n, adaptive ? "adaptive" : "fixed", kTsync,
      adaptive ? kMinQuantum : 0, adaptive ? kMaxQuantum : 0,
      packets_per_port, r.cycles, r.barriers, r.acks, r.lookahead_acks,
      r.lookahead_unbounded, r.barrier_wait_mean_us, r.barrier_wait_total_ms,
      r.wait_us_per_kcycle, r.grants, r.grant_mean_cycles,
      r.grant_min_cycles, r.grant_max_cycles, r.forwarded, r.emitted,
      r.drained ? "true" : "false");
  row.wall_seconds = r.wall_seconds;
  row.metrics_json = r.metrics_json;
  return row;
}

void print_row(std::size_t n, bool adaptive, const ScaleResult& r) {
  std::printf("%6zu %9s %10.3f %9llu %13.1f %15.2f %7llu-%-7llu %9llu%s\n",
              n, adaptive ? "adaptive" : "fixed", r.wall_seconds,
              (unsigned long long)r.barriers, r.barrier_wait_mean_us,
              r.wait_us_per_kcycle, (unsigned long long)r.grant_min_cycles,
              (unsigned long long)r.grant_max_cycles,
              (unsigned long long)r.forwarded,
              r.drained ? "" : "  [NOT DRAINED]");
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "fabric scale: barrier wait vs board count, fixed vs adaptive",
      "Section 5.3's virtual tick generalized to an N-party barrier with "
      "lookahead-driven variable quanta");
  const bool quick = bench::quick_mode(argc, argv);
  bool inproc = false;
  bool gate = false;
  std::string record_prefix;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--inproc") inproc = true;
    if (std::string(argv[i]) == "--gate") gate = true;
    if (std::string(argv[i]) == "--record" && i + 1 < argc) {
      record_prefix = argv[++i];
    }
  }
  const u64 packets_per_port = quick || gate || !record_prefix.empty()
                                   ? 6 : 12;

  std::printf("%6s %9s %10s %9s %13s %15s %15s %9s\n", "nodes", "mode",
              "wall_s", "barriers", "wait_mean_us", "wait_us/kcycle",
              "grant_min-max", "forwarded");

  // --record PREFIX: one observed N=8 adaptive run that writes the
  // .vhprec set for the vhptrace critical smoke (ISSUE 7 acceptance).
  const std::vector<std::size_t> node_counts =
      gate || !record_prefix.empty() ? std::vector<std::size_t>{8}
                                     : std::vector<std::size_t>{1, 2, 4, 8,
                                                                16};
  const std::vector<bool> modes = !record_prefix.empty()
                                      ? std::vector<bool>{true}
                                      : std::vector<bool>{false, true};
  std::vector<bench::JsonRow> rows;
  bool all_drained = true;
  double gate_fixed = -1, gate_adaptive = -1;
  for (const std::size_t n : node_counts) {
    for (const bool adaptive : modes) {
      const ScaleResult r = run_scale_point(n, adaptive, packets_per_port,
                                            inproc, record_prefix);
      all_drained = all_drained && r.drained;
      print_row(n, adaptive, r);
      rows.push_back(to_row(n, adaptive, packets_per_port, r));
      if (n == 8) {
        (adaptive ? gate_adaptive : gate_fixed) = r.barrier_wait_mean_us;
      }
    }
  }

  const std::string path = bench::json_output_path(
      argc, argv, "BENCH_fabric_scale.metrics.json");
  if (bench::write_bench_json(path, "fabric_scale", rows)) {
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "\nfailed to write %s\n", path.c_str());
    return 2;
  }
  if (gate_fixed >= 0 && gate_adaptive >= 0) {
    std::printf("gate (N=8): adaptive mean barrier wait %.2f us vs fixed "
                "%.2f us (%.1fx)\n",
                gate_adaptive, gate_fixed,
                gate_adaptive > 0 ? gate_fixed / gate_adaptive : 0.0);
    if (gate && gate_adaptive > gate_fixed) {
      std::fprintf(stderr,
                   "FAIL: adaptive barrier wait regressed above the fixed "
                   "baseline at N=8\n");
      return 1;
    }
  }
  return all_drained ? 0 : 1;
}
