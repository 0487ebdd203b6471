// The paper's full case study (Section 6): a 4-port packet router modeled
// in the HDL kernel, verified against the checksum application running on
// the virtual board under the RTOS, over TCP loopback with virtual-tick
// synchronization.
//
// Usage: router_cosim [t_sync] [n_packets]
//          [--no-obs] [--metrics-json path] [--trace-json path]
//          [--record prefix] [--replay recording.hw.vhprec]
//
// Also reproduces the paper's Figure 2/4 timeline: the first OS state
// transitions of the board (normal <-> idle around each virtual tick) are
// recorded and printed. The run executes with full observability on and
// leaves two artifacts next to the binary's working directory:
//   router_cosim.trace.json    — Chrome trace_event timeline
//                                (open in chrome://tracing or Perfetto)
//   router_cosim.metrics.json  — all counters/gauges/histograms of the run
//
// --record <prefix> additionally captures every frame of the three-port link
// in the flight recorder and writes "<prefix>.{hw,board}.vhprec" after the
// run (inspect them with the vhptrace tool). --replay <hw-recording> runs
// the HW side *alone* — no board thread, no TCP — against the recorded
// traffic and reports either "replay ok" (identical virtual-time trajectory
// and router outputs) or the first divergent frame.
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "cli.hpp"
#include "vhp/cosim/session.hpp"
#include "vhp/net/replay.hpp"
#include "vhp/router/checksum_app.hpp"
#include "vhp/router/testbench.hpp"

using namespace vhp;

namespace {

constexpr u64 kMaxCycles = 2000000;
constexpr u64 kStepCycles = 500;

router::TestbenchConfig testbench_config(u64 n_packets) {
  router::TestbenchConfig tb_cfg;
  tb_cfg.router.remote_checksum = true;
  tb_cfg.router.buffer_depth = 4;
  tb_cfg.packets_per_port = n_packets / 4;
  tb_cfg.gap_cycles = 8000;  // feasible at the default T_sync (cf. Figure 7)
  tb_cfg.payload_bytes = 32;
  tb_cfg.corrupt_probability = 0.1;  // exercise the drop path too
  return tb_cfg;
}

u64 tag_u64(const obs::Recording& rec, const std::string& key, u64 fallback) {
  const auto it = rec.meta.tags.find(key);
  return it == rec.meta.tags.end()
             ? fallback
             : std::strtoull(it->second.c_str(), nullptr, 10);
}

// Replays an hw-side recording into a lone CosimKernel: the same testbench
// drives the same router model, but the board's half of the conversation is
// served from the file. Deterministic HW model + identical frame delivery
// (the replay gates on sequence and recorded virtual time) reproduce the
// original trajectory; any difference in what the HW sends is reported as
// the first divergent frame.
int run_replay(const std::string& path) {
  auto loaded = obs::read_recording(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load recording: %s\n",
                 loaded.status().to_string().c_str());
    return 2;
  }
  obs::Recording recording = std::move(loaded).value();
  if (recording.meta.side != "hw") {
    std::fprintf(stderr,
                 "--replay wants the hw-side recording (got side \"%s\"); "
                 "pass the .hw.vhprec file\n",
                 recording.meta.side.c_str());
    return 2;
  }
  const u64 n_packets = tag_u64(recording, "n_packets", 100);
  cosim::CosimConfig cc;
  cc.sync.quantum(tag_u64(recording, "t_sync", cc.sync.quantum()));
  cc.data_poll_interval =
      tag_u64(recording, "data_poll_interval", cc.data_poll_interval);
  cc.timed = tag_u64(recording, "timed", 1) != 0;
  std::printf("replaying %s: T_sync=%llu, N=%llu packets, %zu frames\n\n",
              path.c_str(), (unsigned long long)cc.sync.quantum(),
              (unsigned long long)n_packets, recording.frames.size());

  auto opened = net::ReplaySession::open(std::move(recording));
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().to_string().c_str());
    return 2;
  }
  std::unique_ptr<net::ReplaySession> replay = std::move(opened).value();
  cosim::CosimKernel kernel{replay->make_link(), cc};
  replay->set_time_source([&kernel] { return kernel.cycle(); });
  router::RouterTestbench tb{kernel.kernel(), testbench_config(n_packets),
                             &kernel.registry()};
  kernel.watch_interrupt(tb.router().irq(), board::Board::kDeviceVector);

  Status status;
  u64 cycles = 0;
  while (cycles < kMaxCycles && !tb.traffic_done()) {
    status = kernel.run_cycles(kStepCycles);
    if (!status.ok()) break;
    cycles += kStepCycles;
  }
  kernel.finish();

  const auto& rs = tb.router().stats();
  std::printf("cycles simulated        %10llu\n",
              (unsigned long long)kernel.cycle());
  std::printf("frames replayed         %10llu / %llu\n",
              (unsigned long long)replay->consumed(),
              (unsigned long long)replay->total());
  std::printf("forwarded               %10llu\n",
              (unsigned long long)rs.forwarded);
  std::printf("received by consumers   %10llu\n",
              (unsigned long long)tb.total_received());
  if (const auto divergence = replay->divergence()) {
    std::printf("DIVERGED: %s\n", divergence->to_string().c_str());
    return 1;
  }
  if (!status.ok()) {
    std::printf("replay stopped: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("replay ok: live HW side matched the recording\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  examples::ArgList args{
      argc, argv,
      "[t_sync] [n_packets] [--no-obs] [--metrics-json path] "
      "[--trace-json path] [--record prefix] [--replay recording.hw.vhprec]"};
  const auto replay_path = args.take_value("--replay");
  const bool obs_on = !args.take_flag("--no-obs");
  const std::string metrics_path =
      args.take_value("--metrics-json").value_or("router_cosim.metrics.json");
  const std::string trace_path =
      args.take_value("--trace-json").value_or("router_cosim.trace.json");
  const auto record_prefix = args.take_value("--record");
  args.reject_unknown_flags();
  if (replay_path.has_value()) return run_replay(*replay_path);
  const u64 t_sync = args.positional_u64(0, 1000);
  const u64 n_packets = args.positional_u64(1, 100);

  auto built = cosim::SessionConfigBuilder{}
                   .tcp()
                   .t_sync(t_sync)
                   .cycles_per_tick(10)
                   .observability(obs_on)
                   .record(record_prefix.has_value())
                   .postmortem_prefix("router_cosim.postmortem")
                   .build();
  if (!built.ok()) args.usage_error(built.status().message());

  std::printf("router co-simulation: T_sync=%llu, N=%llu packets\n\n",
              (unsigned long long)t_sync, (unsigned long long)n_packets);

  cosim::CosimSession session{built.value()};
  cosim::CosimSession::install_postmortem_signal_handler();

  router::RouterTestbench tb{session.hw().kernel(),
                             testbench_config(n_packets),
                             &session.hw().registry()};
  session.hw().watch_interrupt(tb.router().irq(),
                               board::Board::kDeviceVector);

  router::ChecksumAppConfig app_cfg;
  app_cfg.cost_base = 20;
  app_cfg.cost_per_byte = 1;
  router::ChecksumApp app{session.board(), app_cfg};

  // Figure 2/4 timeline: record the first OS state switches. The trace
  // callback runs on the board thread; guard the vector.
  std::mutex timeline_mu;
  std::vector<std::pair<rtos::OsState, u64>> timeline;
  session.board().kernel().set_state_trace(
      [&](rtos::OsState state, SwTicks tick) {
        std::scoped_lock lock(timeline_mu);
        if (timeline.size() < 12) timeline.emplace_back(state, tick.value());
      });

  session.start_board();
  u64 cycles = 0;
  while (cycles < kMaxCycles && !tb.traffic_done()) {
    if (!session.run_cycles(kStepCycles).ok()) break;
    cycles += kStepCycles;
  }
  session.finish();

  if (record_prefix.has_value()) {
    Status rec = session.write_recordings(
        *record_prefix, {{"n_packets", std::to_string(n_packets)}});
    std::printf("recordings %s.{hw,board}.vhprec (%s)\n",
                record_prefix->c_str(),
                rec.ok() ? "ok" : rec.to_string().c_str());
  }

  const auto& rs = tb.router().stats();
  std::printf("--- HDL model (simulation kernel) ---------------------\n");
  std::printf("cycles simulated        %10llu\n",
              (unsigned long long)session.hw().cycle());
  std::printf("packets emitted         %10llu\n",
              (unsigned long long)tb.total_emitted());
  std::printf("accepted into buffers   %10llu\n",
              (unsigned long long)rs.accepted);
  std::printf("dropped (buffer full)   %10llu\n",
              (unsigned long long)rs.dropped_input_full);
  std::printf("dropped (bad checksum)  %10llu\n",
              (unsigned long long)rs.dropped_bad_checksum);
  std::printf("forwarded               %10llu\n",
              (unsigned long long)rs.forwarded);
  std::printf("received by consumers   %10llu\n",
              (unsigned long long)tb.total_received());
  std::printf("accuracy                %9.1f%%\n",
              100.0 * tb.forward_ratio());
  std::printf("--- board (RTOS) ---------------------------------------\n");
  const auto& bk = session.board().kernel();
  std::printf("SW ticks                %10llu\n",
              (unsigned long long)bk.tick_count().value());
  std::printf("checksums computed      %10llu (%llu rejected)\n",
              (unsigned long long)app.processed(),
              (unsigned long long)app.rejected());
  std::printf("context switches        %10llu\n",
              (unsigned long long)bk.stats().context_switches);
  std::printf("freezes / grants        %10llu / %llu\n",
              (unsigned long long)bk.stats().freezes,
              (unsigned long long)bk.stats().grants);
  std::printf("--- OS state timeline (paper Figure 2/4, first switches) -\n");
  {
    std::scoped_lock lock(timeline_mu);
    for (const auto& [state, tick] : timeline) {
      std::printf("  tick %6llu  -> %s\n", (unsigned long long)tick,
                  state == rtos::OsState::kIdle
                      ? "IDLE   (frozen, TIME_ACK sent; comm threads only)"
                      : "NORMAL (CLOCK_TICK received, budget granted)");
    }
  }
  std::printf("--- link ------------------------------------------------\n");
  std::printf("sync round trips        %10llu\n",
              (unsigned long long)session.hw().stats().syncs);
  std::printf("interrupts sent         %10llu\n",
              (unsigned long long)session.hw().stats().interrupts_sent);
  std::printf("driver writes / reads   %10llu / %llu\n",
              (unsigned long long)session.hw().stats().data_writes,
              (unsigned long long)session.hw().stats().data_reads);
  std::printf("--- observability ---------------------------------------\n");
  auto& hub = session.obs();
  std::printf("trace events            %10zu (%llu dropped)\n",
              hub.tracer().event_count(),
              (unsigned long long)hub.tracer().dropped());
  std::printf("sync RTT mean           %12.1f us\n",
              hub.metrics().histogram("cosim.sync_rtt_ns").mean_ns() / 1e3);
  Status ts = session.write_trace_json(trace_path);
  Status ms = session.write_metrics_json(metrics_path);
  std::printf("wrote %s (%s), %s (%s)\n", trace_path.c_str(),
              ts.ok() ? "ok" : ts.to_string().c_str(), metrics_path.c_str(),
              ms.ok() ? "ok" : ms.to_string().c_str());
  std::printf("open the trace in chrome://tracing or ui.perfetto.dev\n");
  return tb.traffic_done() ? 0 : 1;
}
