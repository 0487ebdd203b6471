// One-stop wiring of a complete co-simulation: the HDL kernel on the calling
// thread, the virtual board on its own host thread, connected by either the
// in-process transport (deterministic unit tests) or real TCP over loopback
// (the paper's medium; used by the benchmarks).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "vhp/board/board.hpp"
#include "vhp/cosim/cosim_kernel.hpp"
#include "vhp/cosim/links.hpp"
#include "vhp/net/latency.hpp"
#include "vhp/obs/hub.hpp"

namespace vhp::cosim {

/// The session's link knobs (transport, batching, fault plan, recovery)
/// come from LinkConfig, shared with the fabric.
struct SessionConfig : LinkConfig {
  CosimConfig cosim{};
  board::BoardConfig board{};
  /// Optional emulated link latency on every channel (see net/latency.hpp).
  /// The paper's physical medium (Ethernet + eCos IP stack) is much slower
  /// than loopback; absolute-overhead experiments emulate that here.
  net::LinkEmulationConfig link_emulation{};
  /// Observability (vhp::obs): off by default — the costly instruments
  /// (spans, stall profiling, per-frame link accounting) are opt-in behind
  /// obs.timeline.enabled; plain metric counters always run.
  obs::ObsConfig obs{};
  /// Where post-mortem flight-recorder dumps land when obs.record is on:
  /// "<prefix>.{hw,board}.jsonl" on an error Status from run_cycles() —
  /// a watchdog expiry (SyncPolicy::watchdog) included — or a fatal signal
  /// (install_postmortem_signal_handler). Empty disables automatic dumping.
  std::string postmortem_prefix = "vhp-postmortem";

  /// Convenience: configure the matching untimed baseline (no sync traffic,
  /// free-running board) used as Figure 6's denominator.
  void set_untimed() {
    cosim.timed = false;
    board.free_running = true;
  }

  /// Full consistency check: CosimConfig::validate(),
  /// BoardConfig::validate(), LinkConfig::validate() and
  /// ObsConfig::validate(), plus the
  /// cross-layer rules (timed kernel <-> budgeted board, no eviction — a
  /// session has one board).
  /// CosimSession's constructor enforces this by throwing
  /// std::invalid_argument with the status message; call it yourself first
  /// to handle misconfiguration as a Status instead.
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
  /// The paper's name for the policy quantum: sync.quantum(cycles).
  SessionConfigBuilder& t_sync(u64 cycles) {
    config_.cosim.sync.quantum(cycles);
    return *this;
  }
  /// The synchronization policy (CosimConfig::sync), replacing any earlier
  /// t_sync(). An adaptive policy automatically configures the board to
  /// advertise its lookahead on every TIME_ACK.
  SessionConfigBuilder& sync(SyncPolicy policy) {
    config_.cosim.sync = std::move(policy);
    return *this;
  }
  SessionConfigBuilder& clock_period(sim::SimTime period) {
    config_.cosim.clock_period = period;
    return *this;
  }
  /// Runs the master kernel's evaluation phase on `workers` lanes
  /// (including the calling thread); 0 = serial. Bit-identical results
  /// either way — see sim::Kernel::set_parallel.
  SessionConfigBuilder& parallel(u64 workers) {
    config_.cosim.parallel_workers = workers;
    return *this;
  }
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
  SessionConfigBuilder& dev_costs(u64 read_cycles, u64 write_cycles) {
    config_.board.dev_read_cost = read_cycles;
    config_.board.dev_write_cost = write_cycles;
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

  SessionConfigBuilder& link_latency(std::chrono::microseconds one_way) {
    config_.link_emulation.latency = one_way;
    return *this;
  }

  SessionConfigBuilder& record_ring(std::size_t frames) {
    config_.obs.record.ring_frames = frames;
    return *this;
  }
  SessionConfigBuilder& record_payload_bytes(std::size_t bytes) {
    config_.obs.record.max_payload_bytes = bytes;
    return *this;
  }
  SessionConfigBuilder& postmortem_prefix(std::string prefix) {
    config_.postmortem_prefix = std::move(prefix);
    return *this;
  }
};

class CosimSession {
 public:
  /// Throws std::invalid_argument if `config.validate()` fails.
  explicit CosimSession(SessionConfig config);
  ~CosimSession();

  CosimSession(const CosimSession&) = delete;
  CosimSession& operator=(const CosimSession&) = delete;

  /// The simulation side. Build the HDL model against hw().kernel() and
  /// hw().registry() before calling start_board()/run_cycles().
  ///
  /// Lifetime rule (as in SystemC): everything built against the kernel —
  /// modules, signals, events, driver ports — must be destroyed BEFORE the
  /// session, i.e. declared after it.
  [[nodiscard]] CosimKernel& hw() { return *hw_; }

  /// The board side. Configure applications and DSRs before start_board().
  [[nodiscard]] board::Board& board() { return host_->board(); }

  /// The session-wide observability hub: metrics always, spans and stall
  /// profiling when SessionConfig::obs.timeline.enabled.
  [[nodiscard]] obs::Hub& obs() { return *hub_; }

  /// The compiled fault schedule; nullptr when the plan is unarmed.
  [[nodiscard]] fault::FaultSchedule* fault_schedule() {
    return schedule_.get();
  }

  /// Dumps all metrics (counters/gauges/histograms, both sides of the link)
  /// as one JSON object. Call after finish() for exact totals.
  Status write_metrics_json(const std::string& path) {
    return hub_->write_metrics_json(path);
  }
  /// Dumps the recorded spans, and with obs.record the recorded frames, as
  /// Chrome trace_event JSON — open it in chrome://tracing or
  /// https://ui.perfetto.dev.
  Status write_trace_json(const std::string& path) {
    return hub_->write_trace_json(path);
  }

  /// Boots the board host thread.
  void start_board();

  /// Runs the co-simulation for `cycles` HW clock cycles. A non-OK Status
  /// (transport failure, a board that stops acking past the policy's
  /// watchdog, protocol error) triggers an automatic post-mortem dump of
  /// both flight-recorder rings (see SessionConfig::postmortem_prefix)
  /// before it is returned.
  Status run_cycles(u64 cycles);

  /// Sends SHUTDOWN and joins the board thread.
  void finish();

  /// Writes both sides' flight-recorder rings as replayable recordings:
  /// "<prefix>.hw.vhprec" and "<prefix>.board.vhprec" (binary). The standard
  /// config-echo tags (t_sync, timed, observability, RTOS timing) are
  /// embedded so a replay run can rebuild the matching lone-side
  /// configuration; `tags` adds workload-specific ones on top. No-op unless
  /// obs.record is enabled.
  Status write_recordings(
      const std::string& prefix,
      const std::map<std::string, std::string>& tags = {});

  /// Flushes the last N frames per side to "<postmortem_prefix>.<side>.jsonl"
  /// with a "reason" tag. Called automatically on run_cycles() errors;
  /// callable directly for watchdog-style tooling.
  void dump_postmortem(const std::string& reason);

  /// Best-effort crash dumps: on SIGINT/SIGTERM the most recently
  /// constructed live session flushes its rings, then the default handler
  /// runs. (File I/O from a signal handler is not strictly async-signal-safe
  /// — acceptable for a debug aid that fires on the way down.)
  static void install_postmortem_signal_handler();

 private:
  [[nodiscard]] std::map<std::string, std::string> config_tags() const;

  SessionConfig config_;
  std::shared_ptr<fault::FaultSchedule> schedule_;  // null when unarmed
  std::unique_ptr<obs::Hub> hub_;  // outlives both sides, they hold Hub*
  std::unique_ptr<CosimKernel> hw_;
  std::unique_ptr<board::BoardHost> host_;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace vhp::cosim
