// Session-server density: how many concurrent co-simulation sessions one
// event-loop process sustains, and what batching buys on the wire.
//
// Part 1 (density sweep): N independent router sessions (shm ring
// transport + per-quantum batching, the svc fast path) hosted on ONE
// svc::EventLoop thread — no per-board host threads, no blocked callers.
// The headline metric is per-session quantum overhead: wall time divided
// by total quanta driven across all sessions. The classic drive pays a
// parked OS thread per board; the loop pays one step callback.
//
// Part 2 (batching ratio): the sharded-router fabric over real TCP
// loopback with per-quantum batching. Each node board additionally runs a
// telemetry thread posting one-way dev_write bursts (the DMA-descriptor /
// stats-export pattern): those accumulate in the board's batched DATA
// channel all quantum and go out as ONE writev at the TIME_ACK flush.
// net.batch.board.data.frames / .flushes is the syscall amplification the
// batcher removed. The request/response directions stay near 1x by
// design — a read round trip must flush per request or the board would
// deadlock waiting for its response — so the master-side INT/DATA ratios
// are reported for contrast, not gated.
//
// --gate (scripts/check.sh): requires the 256-session row to complete
// cleanly at µs-level per-session quantum overhead and the board DATA
// batching ratio to reach 4x. Auto-skips on hosts with <4 cores.
#include <sys/resource.h>

#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "vhp/fabric/fabric.hpp"
#include "vhp/rtos/sync.hpp"
#include "vhp/svc/event_loop.hpp"
#include "vhp/svc/session_host.hpp"

namespace vhp::bench {
namespace {

// 256 shm sessions hold ~12 eventfds each (doorbells on three ports, both
// directions); the default 1024-fd soft limit is far too small.
void raise_fd_limit() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &lim);
  }
}

struct DensityResult {
  double wall_seconds = 0;
  u64 quanta = 0;        // syncs summed over every session
  u64 failed = 0;        // sessions that did not finish Ok
  u64 undrained = 0;     // sessions whose traffic did not complete
  double us_per_quantum_per_session() const {
    return quanta == 0 ? 0 : wall_seconds * 1e6 / static_cast<double>(quanta);
  }
  std::string metrics_json;  // the loop hub (svc.loop.*, svc.sessions)
};

constexpr u64 kDensityCycles = 6000;
constexpr u64 kDensityTsync = 200;

// `router` = true runs the full router case study in every session (a
// realistic mix: DATA/INT traffic, checksum app). false runs idle boards
// (one app thread parked on a semaphore): every quantum is then pure
// synchronization — the shm CLOCK round trip, the batch flush points, the
// loop dispatch — so us/quantum IS the svc overhead, not simulation work.
DensityResult run_density(std::size_t n_sessions, bool router) {
  svc::EventLoop loop;

  struct Hosted {
    std::unique_ptr<cosim::CosimSession> session;
    std::unique_ptr<router::RouterTestbench> tb;
    std::unique_ptr<router::ChecksumApp> app;
    std::unique_ptr<rtos::Semaphore> parked;
    std::unique_ptr<svc::SessionHost> host;
  };
  router::TestbenchConfig tb_cfg;
  tb_cfg.router.n_ports = 2;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.router.buffer_depth = 4;
  tb_cfg.packets_per_port = 1;
  tb_cfg.gap_cycles = 800;
  tb_cfg.payload_bytes = 8;
  router::ChecksumAppConfig app_cfg;
  app_cfg.cost_base = 20;
  app_cfg.cost_per_byte = 1;

  std::vector<Hosted> hosted;
  hosted.reserve(n_sessions);
  std::size_t remaining = n_sessions;
  for (std::size_t i = 0; i < n_sessions; ++i) {
    Hosted h;
    cosim::SessionConfigBuilder builder;
    builder.t_sync(kDensityTsync).cycles_per_tick(10).postmortem_prefix("");
    builder.shm().batching();
    h.session =
        std::make_unique<cosim::CosimSession>(builder.build_or_throw());
    if (router) {
      h.tb = std::make_unique<router::RouterTestbench>(
          h.session->hw().kernel(), tb_cfg, &h.session->hw().registry());
      h.session->hw().watch_interrupt(h.tb->router().irq(),
                                      board::Board::kDeviceVector);
      h.app = std::make_unique<router::ChecksumApp>(h.session->board(),
                                                    app_cfg);
    } else {
      h.parked = std::make_unique<rtos::Semaphore>(
          h.session->board().kernel(), 0);
      rtos::Semaphore* parked = h.parked.get();
      h.session->board().spawn_app("parked", 8,
                                   [parked] { parked->wait(); });
    }
    svc::SessionHostConfig host_cfg;
    host_cfg.cycles = kDensityCycles;
    host_cfg.cycles_per_step = 512;
    h.host = std::make_unique<svc::SessionHost>(
        loop, *h.session, host_cfg, [&remaining, &loop](Status) {
          if (--remaining == 0) loop.stop();
        });
    hosted.push_back(std::move(h));
  }

  const auto start = std::chrono::steady_clock::now();
  for (auto& h : hosted) h.host->start();
  loop.run();
  const auto end = std::chrono::steady_clock::now();

  DensityResult r;
  r.wall_seconds = std::chrono::duration<double>(end - start).count();
  for (auto& h : hosted) {
    r.quanta += h.session->hw().stats().syncs;
    r.failed += h.host->status().ok() ? 0 : 1;
    r.undrained += (h.tb != nullptr && !h.tb->traffic_done()) ? 1 : 0;
  }
  r.metrics_json = loop.obs().metrics_json();
  return r;
}

struct BatchingResult {
  double wall_seconds = 0;
  u64 barriers = 0;
  u64 emitted = 0;
  u64 forwarded = 0;
  u64 received = 0;
  bool drained = false;
  u64 int_frames = 0;
  u64 int_flushes = 0;
  u64 data_frames = 0;
  u64 data_flushes = 0;
  u64 board_data_frames = 0;
  u64 board_data_flushes = 0;
  u64 telemetry_writes = 0;
  static double ratio(u64 frames, u64 flushes) {
    return flushes == 0
               ? 0
               : static_cast<double>(frames) / static_cast<double>(flushes);
  }
  double int_ratio() const { return ratio(int_frames, int_flushes); }
  double data_ratio() const { return ratio(data_frames, data_flushes); }
  double board_data_ratio() const {
    return ratio(board_data_frames, board_data_flushes);
  }
  std::string metrics_json;  // master hub: net.batch.hw.* counters live here
};

// Sharded router over real TCP loopback, plus a telemetry thread on every
// node board posting one-way dev_write samples. dev_write is a posted
// send (no response), so the board's batched DATA channel accumulates the
// whole burst and emits it as one writev at the TIME_ACK flush — the
// direction batching exists for. The write cost paces the loop: one
// quantum holds roughly t_sync / dev_write_cost samples.
BatchingResult run_batching_fabric(u64 packets_per_port) {
  constexpr std::size_t kPorts = 4;
  constexpr u64 kMaxCycles = 120000;
  constexpr u32 kTelemetryAddr = 0x100;
  constexpr u64 kTelemetryWriteCost = 50;
  router::TestbenchConfig tb_cfg;
  tb_cfg.router.n_ports = kPorts;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.router.buffer_depth = 8;
  tb_cfg.packets_per_port = packets_per_port;
  tb_cfg.gap_cycles = 150;
  tb_cfg.payload_bytes = 8;
  router::ChecksumAppConfig app_cfg;
  app_cfg.cost_base = 20;
  app_cfg.cost_per_byte = 1;

  fabric::FabricConfigBuilder builder;
  builder.sync(cosim::SyncPolicy{}.quantum(1000).watchdog(
      std::chrono::milliseconds{15000}));
  builder.tcp().batching();
  for (std::size_t p = 0; p < kPorts; ++p) {
    builder.add_node("port" + std::to_string(p));
    builder.last_board().rtos.cycles_per_tick = 10;
    builder.last_board().dev_write_cost = kTelemetryWriteCost;
  }
  fabric::Fabric fab{builder.build_or_throw()};
  std::vector<cosim::DriverRegistry*> registries;
  std::array<std::atomic<u64>, kPorts> telemetry_received{};
  for (std::size_t p = 0; p < kPorts; ++p) {
    registries.push_back(&fab.registry(p));
    auto& count = telemetry_received[p];
    fab.registry(p).register_write(
        kTelemetryAddr, [&count](std::span<const u8>) {
          count.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        });
  }
  router::RouterTestbench tb{fab.kernel(), tb_cfg, registries};
  for (std::size_t p = 0; p < kPorts; ++p) {
    fab.watch_interrupt(p, tb.router().irq(p), board::Board::kDeviceVector);
  }
  std::vector<std::unique_ptr<router::ChecksumApp>> apps;
  for (std::size_t p = 0; p < kPorts; ++p) {
    apps.push_back(
        std::make_unique<router::ChecksumApp>(fab.board(p), app_cfg));
    // Below the checksum app: telemetry soaks up whatever budget the
    // quantum has left, so interrupt service latency is unaffected.
    board::Board& board = fab.board(p);
    board.spawn_app("telemetry", 12, [&board] {
      const std::array<u8, 8> sample{0xfe, 0xed, 0xfa, 0xce};
      while (!board.kernel().shutting_down()) {
        (void)board.dev_write(kTelemetryAddr, sample);
      }
    });
  }
  fab.start_boards();
  const auto start = std::chrono::steady_clock::now();
  u64 cycles = 0;
  while (cycles < kMaxCycles && !tb.traffic_done()) {
    if (!fab.run_cycles(500).ok()) break;
    cycles += 500;
  }
  const auto end = std::chrono::steady_clock::now();
  fab.finish();

  BatchingResult r;
  r.wall_seconds = std::chrono::duration<double>(end - start).count();
  r.barriers = fab.coordinator().barriers();
  r.emitted = tb.total_emitted();
  r.forwarded = tb.router().stats().forwarded;
  r.received = tb.total_received();
  r.drained = tb.traffic_done();
  auto& metrics = fab.obs().metrics();
  for (std::size_t p = 0; p < kPorts; ++p) {
    const std::string side = "hw.port" + std::to_string(p);
    r.int_frames += metrics.counter("net.batch." + side + ".int.frames")
                        .value();
    r.int_flushes += metrics.counter("net.batch." + side + ".int.flushes")
                         .value();
    r.data_frames += metrics.counter("net.batch." + side + ".data.frames")
                         .value();
    r.data_flushes += metrics.counter("net.batch." + side + ".data.flushes")
                          .value();
    // The gated direction lives on the node's own hub: the board-side
    // batcher tags its channels "board".
    auto& node_metrics = fab.node_obs(p).metrics();
    r.board_data_frames +=
        node_metrics.counter("net.batch.board.data.frames").value();
    r.board_data_flushes +=
        node_metrics.counter("net.batch.board.data.flushes").value();
    r.telemetry_writes +=
        telemetry_received[p].load(std::memory_order_relaxed);
  }
  r.metrics_json = fab.obs().metrics_json();
  return r;
}

}  // namespace
}  // namespace vhp::bench

int main(int argc, char** argv) {
  using namespace vhp;
  using namespace vhp::bench;

  raise_fd_limit();
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--gate") gate = true;
  }
  const bool quick = quick_mode(argc, argv);
  const unsigned cores = std::thread::hardware_concurrency();
  const bool low_core = cores > 0 && cores < 4;

  print_header("session_density: sessions per event-loop process",
               "ROADMAP co-simulation-as-a-service (beyond the paper)");

  std::vector<JsonRow> rows;
  int failures = 0;

  // ---- density sweep ----
  std::vector<std::size_t> sweep{1, 8, 64, 256};
  if (quick) sweep = {1, 8, 64};
  std::printf("%8s %9s %9s %12s %14s %8s\n", "workload", "sessions",
              "quanta", "wall_s", "us/quantum", "status");
  auto density_row = [&](std::size_t n, bool router) {
    const DensityResult r = run_density(n, router);
    const bool ok = r.failed == 0 && r.undrained == 0;
    std::printf("%8s %9zu %9" PRIu64 " %12.3f %14.2f %8s\n",
                router ? "router" : "idle", n, r.quanta, r.wall_seconds,
                r.us_per_quantum_per_session(), ok ? "ok" : "FAIL");
    if (gate && n >= 256) {
      if (!ok) {
        std::printf("gate: %" PRIu64 " session(s) failed, %" PRIu64
                    " undrained at N=%zu\n",
                    r.failed, r.undrained, n);
        ++failures;
      }
      // The µs-level bound applies to the idle rows, where a quantum is
      // pure synchronization. Generous so loaded CI hosts pass, but a
      // regression to per-thread-style ms-level overhead still trips.
      if (!router && r.us_per_quantum_per_session() > 150.0) {
        std::printf("gate: %.2f us/quantum/session exceeds 150 us budget\n",
                    r.us_per_quantum_per_session());
        ++failures;
      }
    }
    rows.push_back(JsonRow{
        std::string("\"workload\":\"") + (router ? "router" : "idle") +
            "\",\"sessions\":" + std::to_string(n) +
            ",\"cycles\":" + std::to_string(kDensityCycles) +
            ",\"t_sync\":" + std::to_string(kDensityTsync) +
            ",\"quanta\":" + std::to_string(r.quanta) +
            ",\"failed\":" + std::to_string(r.failed) +
            ",\"undrained\":" + std::to_string(r.undrained) +
            ",\"us_per_quantum_per_session\":" +
            std::to_string(r.us_per_quantum_per_session()),
        r.wall_seconds, r.metrics_json});
  };
  for (const std::size_t n : sweep) density_row(n, /*router=*/false);
  // One realistic-mix point: every session runs the full router case
  // study. us/quantum here includes the simulation work itself, so it is
  // reported but only completion is gated.
  density_row(quick ? 64 : 256, /*router=*/true);

  // ---- batching ratio ----
  const BatchingResult b = run_batching_fabric(quick ? 30 : 60);
  std::printf("\nbatching on the sharded router + telemetry (4 nodes, tcp):\n");
  std::printf("  board DATA (one-way writes, the coalescable direction): "
              "%.2f frames/flush (%" PRIu64 " frames / %" PRIu64 " flushes)\n",
              b.board_data_ratio(), b.board_data_frames,
              b.board_data_flushes);
  std::printf("  master INT %.2f, master DATA %.2f frames/flush "
              "(request/response-bound, ~1x by design)\n",
              b.int_ratio(), b.data_ratio());
  std::printf("  traffic: %" PRIu64 " emitted, %" PRIu64 " forwarded, %" PRIu64
              " received, %" PRIu64 " telemetry samples, drained=%s "
              "(%" PRIu64 " barriers, %.3f s)\n",
              b.emitted, b.forwarded, b.received, b.telemetry_writes,
              b.drained ? "yes" : "no", b.barriers, b.wall_seconds);
  std::printf("  (a flush is one writev; each frame in it was one send "
              "syscall unbatched)\n");
  if (gate && b.board_data_ratio() < 4.0) {
    std::printf("gate: board DATA batching ratio %.2f below 4x\n",
                b.board_data_ratio());
    ++failures;
  }
  rows.push_back(JsonRow{
      "\"workload\":\"sharded_router_tcp_batching\",\"board_data_frames\":" +
          std::to_string(b.board_data_frames) +
          ",\"board_data_flushes\":" + std::to_string(b.board_data_flushes) +
          ",\"telemetry_writes\":" + std::to_string(b.telemetry_writes) +
          ",\"int_frames\":" + std::to_string(b.int_frames) +
          ",\"int_flushes\":" + std::to_string(b.int_flushes) +
          ",\"data_frames\":" + std::to_string(b.data_frames) +
          ",\"data_flushes\":" + std::to_string(b.data_flushes) +
          ",\"barriers\":" + std::to_string(b.barriers),
      b.wall_seconds, b.metrics_json});

  const std::string path =
      json_output_path(argc, argv, "BENCH_session_density.metrics.json");
  if (!write_bench_json(path, "session_density", rows)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());

  if (gate && low_core) {
    std::printf("gate skipped: host has %u core(s); results above are "
                "informational\n",
                cores);
    return 0;
  }
  return gate && failures > 0 ? 1 : 0;
}
