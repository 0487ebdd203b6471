// One-stop wiring of a complete two-party co-simulation: the HDL kernel on
// the calling thread, the virtual board on its own host thread, connected by
// either the in-process transport (deterministic unit tests) or real TCP
// over loopback (the paper's medium; used by the benchmarks). A session is
// a one-node fabric::Fabric — the same wiring, validation, recordings and
// post-mortems — behind the two-party API.
#pragma once

#include <map>
#include <string>

#include "vhp/board/board.hpp"
#include "vhp/cosim/cosim_kernel.hpp"
#include "vhp/cosim/links.hpp"
#include "vhp/fabric/fabric.hpp"
#include "vhp/obs/hub.hpp"

namespace vhp::cosim {

/// The session's knobs: everything of RunConfig (links, master,
/// observability, post-mortems), shared with the fabric, plus its one board.
struct SessionConfig : RunConfig {
  board::BoardConfig board{};

  /// Convenience: configure the matching untimed baseline (no sync traffic,
  /// free-running board) used as Figure 6's denominator.
  void set_untimed() {
    cosim.timed = false;
    board.free_running = true;
  }

  /// Validates the one-node FabricConfig the session builds
  /// (FabricConfig::validate): among its rules, a board that is
  /// free-running exactly when cosim.timed is false, batching only in timed
  /// mode, and no eviction (a session has one board). CosimSession's
  /// constructor enforces this by throwing std::invalid_argument with the
  /// status message; call it yourself first to handle misconfiguration as
  /// a Status instead.
  [[nodiscard]] Status validate() const;
};

/// Fluent construction of a validated SessionConfig — the examples' way of
/// spelling the paper's experimental knobs:
///
///   auto cfg = SessionConfigBuilder{}
///                  .tcp()
///                  .t_sync(1000)
///                  .cycles_per_tick(10)
///                  .observability()
///                  .build_or_throw();
class SessionConfigBuilder
    : public ConfigBuilder<SessionConfigBuilder, SessionConfig> {
 public:
  SessionConfigBuilder& untimed() {
    config_.set_untimed();
    return *this;
  }

  SessionConfigBuilder& cycles_per_tick(u64 cycles) {
    config_.board.rtos.cycles_per_tick = cycles;
    return *this;
  }
  SessionConfigBuilder& timeslice_ticks(u64 ticks) {
    config_.board.rtos.timeslice_ticks = ticks;
    return *this;
  }
  SessionConfigBuilder& cycles_per_sim_cycle(u64 cycles) {
    config_.board.cycles_per_sim_cycle = cycles;
    return *this;
  }

  /// Many-core board (DESIGN.md §13): M virtual cores under the SMP kernel.
  /// M > 1 requires a memory hierarchy — pair with memory(); validation
  /// rejects the combination otherwise.
  SessionConfigBuilder& cores(u32 m) {
    config_.board.rtos.cores = m;
    return *this;
  }
  /// Attaches a memory hierarchy (per-core L1 I/D caches, banked shared
  /// memory) to the board; ISS instruction cost becomes pipelined.
  SessionConfigBuilder& memory(mem::MemConfig config) {
    config_.board.memory = config;
    return *this;
  }
};

class CosimSession {
 public:
  /// Throws std::invalid_argument if `config.validate()` fails.
  explicit CosimSession(SessionConfig config);

  CosimSession(const CosimSession&) = delete;
  CosimSession& operator=(const CosimSession&) = delete;

  /// The simulation side. Build the HDL model against hw().kernel() and
  /// hw().registry() before calling start_board()/run_cycles().
  ///
  /// Lifetime rule (as in SystemC): everything built against the kernel —
  /// modules, signals, events, driver ports — must be destroyed BEFORE the
  /// session, i.e. declared after it.
  [[nodiscard]] CosimKernel& hw() { return fabric_.master(); }

  /// The board side. Configure applications and DSRs before start_board().
  [[nodiscard]] board::Board& board() { return fabric_.board(0); }

  /// The session-wide observability hub, holding both sides: metrics
  /// always, spans and stall profiling when obs.timeline.enabled.
  [[nodiscard]] obs::Hub& obs() { return fabric_.obs(); }

  /// The compiled fault schedule; nullptr when the plan is unarmed.
  [[nodiscard]] fault::FaultSchedule* fault_schedule() {
    return fabric_.fault_schedule();
  }

  /// Dumps all metrics (counters/gauges/histograms, both sides of the link)
  /// as one JSON object. Call after finish() for exact totals.
  Status write_metrics_json(const std::string& path) {
    return obs().write_metrics_json(path);
  }
  /// Dumps the recorded spans, and with obs.record the recorded frames, as
  /// Chrome trace_event JSON — open it in chrome://tracing or
  /// https://ui.perfetto.dev.
  Status write_trace_json(const std::string& path) {
    return obs().write_trace_json(path);
  }

  /// Boots the board host thread.
  void start_board() { fabric_.start_boards(); }

  /// Runs the co-simulation for `cycles` HW clock cycles. A non-OK Status
  /// (transport failure, a board that stops acking past the policy's
  /// watchdog, protocol error) triggers an automatic post-mortem dump
  /// (Fabric::dump_postmortem) before it is returned.
  Status run_cycles(u64 cycles) { return fabric_.run_cycles(cycles); }

  /// Sends SHUTDOWN and joins the board thread.
  void finish() { fabric_.finish(); }

  /// Writes both sides' flight-recorder rings as replayable recordings,
  /// "<prefix>.hw.vhprec" and "<prefix>.node0.board.vhprec"
  /// (Fabric::write_recordings).
  Status write_recordings(
      const std::string& prefix,
      const std::map<std::string, std::string>& tags = {}) {
    return fabric_.write_recordings(prefix, tags);
  }

  /// Flushes both sides' rings to "<postmortem_prefix>.hw.jsonl" and
  /// "<postmortem_prefix>.node0.board.jsonl" (Fabric::dump_postmortem).
  void dump_postmortem(const std::string& reason) {
    fabric_.dump_postmortem(reason);
  }

  /// Fabric::install_postmortem_signal_handler: on SIGINT/SIGTERM the most
  /// recently constructed live session or fabric flushes its rings.
  static void install_postmortem_signal_handler() {
    fabric::Fabric::install_postmortem_signal_handler();
  }

 private:
  fabric::Fabric fabric_;
};

}  // namespace vhp::cosim
