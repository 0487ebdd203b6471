// The modified simulation engine: the paper's driver_simulate() (Section 5.2).
//
// Wraps a sim::Kernel and drives it cycle by cycle while servicing the three
// co-simulation channels:
//   * before each clock cycle, the DATA port is drained (driver writes are
//     delivered to DriverIn ports, read requests answered from DriverOut);
//   * after each cycle, watched interrupt lines are edge-sampled and
//     INT_RAISE packets emitted;
//   * every T_sync cycles, a CLOCK_TICK packet grants the board T_sync
//     cycles of execution and the kernel blocks until the TIME_ACK — while
//     still answering DATA traffic, so a board thread blocked mid-quantum on
//     a device read can never deadlock the session.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "vhp/common/log.hpp"
#include "vhp/common/status.hpp"
#include "vhp/cosim/driver_port.hpp"
#include "vhp/cosim/sync_policy.hpp"
#include "vhp/net/channel.hpp"
#include "vhp/obs/hub.hpp"
#include "vhp/sim/kernel.hpp"
#include "vhp/sim/signal.hpp"

namespace vhp::cosim {

struct CosimConfig {
  /// Synchronization interval in HW clock cycles (the paper's T_sync).
  /// Deprecated shim: honored only while `sync` is unset.
  u64 t_sync = 1000;
  /// The unified synchronization policy (ISSUE 6). When set it wins
  /// wholesale over the legacy `t_sync` field and may enable adaptive
  /// lookahead mode (pair with board::BoardConfig::advertise_lookahead;
  /// CosimSession wires that automatically).
  std::optional<SyncPolicy> sync;
  /// Simulation time units per clock cycle (posedge every period).
  sim::SimTime clock_period = 2;
  /// When true, run timed: exchange CLOCK_TICK/TIME_ACK. When false the
  /// simulation free-runs (the paper's untimed baseline, the denominator of
  /// Figure 6's overhead ratio) — the board then runs unsynchronized.
  bool timed = true;
  /// Send SHUTDOWN on finish() so the board's run() returns.
  bool shutdown_on_finish = true;
  /// Poll the DATA port every this many cycles (1 = the paper's
  /// driver_simulate, which checks for data each simulation cycle).
  /// Larger values amortize the empty check at the price of coarser
  /// driver-write delivery (an ablation knob; see bench/abl_data_poll).
  /// Only TCP gains much: there the check is a poll(2), the dominant
  /// per-cycle cost of an otherwise idle co-simulation, while on inproc
  /// and shm it is one atomic load.
  u64 data_poll_interval = 1;
  /// Evaluation lanes of the deterministic parallel kernel (including the
  /// calling thread); 0 = serial (default, byte-identical legacy path).
  /// Results are bit-identical across all values — see
  /// sim::Kernel::set_parallel and sim/partition.hpp for the model
  /// contract.
  u64 parallel_workers = 0;

  /// The policy in effect: `sync` when set, else the legacy fields
  /// repackaged (fixed mode at `t_sync`).
  [[nodiscard]] SyncPolicy resolved_sync() const {
    if (sync.has_value()) return *sync;
    return SyncPolicy{}.quantum(t_sync);
  }

  /// Rejects configurations that would divide by zero or stall the protocol
  /// (t_sync == 0 in timed mode, zero clock_period / data_poll_interval,
  /// an invalid `sync` policy).
  [[nodiscard]] Status validate() const;
};

class CosimKernel {
 public:
  /// `hub` is the session's observability hub; pass nullptr (standalone
  /// wiring, unit tests) to get a private hub with tracing disabled —
  /// metric counters still run, they back stats().
  CosimKernel(net::CosimLink link, CosimConfig config,
              obs::Hub* hub = nullptr);
  ~CosimKernel();

  CosimKernel(const CosimKernel&) = delete;
  CosimKernel& operator=(const CosimKernel&) = delete;

  [[nodiscard]] sim::Kernel& kernel() { return kernel_; }
  [[nodiscard]] sim::Clock& clock() { return clock_; }
  [[nodiscard]] DriverRegistry& registry() { return registry_; }
  [[nodiscard]] const CosimConfig& config() const { return config_; }
  [[nodiscard]] obs::Hub& obs() { return *hub_; }

  /// Registers `line` as a device interrupt source: a rising edge sampled
  /// at a cycle boundary sends INT_RAISE(vector) to the board.
  void watch_interrupt(sim::BoolSignal& line, u32 vector);

  /// Waits for the board's initial "frozen" TIME_ACK (timed mode only).
  /// Must be called once before the first run_cycles().
  Status handshake(std::optional<std::chrono::milliseconds> timeout =
                       std::chrono::milliseconds{10000});

  /// The paper's driver_simulate(): runs `cycles` HW clock cycles of the
  /// model with data service, interrupt propagation and timing sync.
  /// Fails with kInvalidArgument if the config did not validate.
  Status run_cycles(u64 cycles);

  /// Non-blocking variant for event-loop hosting (svc::SessionHost): runs
  /// up to `max_cycles`, but instead of spinning for the TIME_ACK (or the
  /// handshake) it returns with *blocked=true when the board owes a frame
  /// that has not arrived. *ran reports cycles completed this call. The
  /// protocol state (mid-sync vs running) persists across calls — resume
  /// by calling pump() again once the link shows readiness. A session
  /// uses either run_cycles() or pump(), not both.
  Status pump(u64 max_cycles, u64* ran, bool* blocked);

  /// True while a CLOCK_TICK is out and its TIME_ACK has not arrived
  /// (pump() mode only — the blocking path never exposes this state).
  [[nodiscard]] bool awaiting_ack() const { return awaiting_ack_; }

  /// Readiness fds of the hw side of the link (DATA/INT/CLOCK rx), for
  /// event-loop registration; channels without one are omitted.
  [[nodiscard]] std::vector<int> readable_fds();

  /// Current cycle count (completed cycles).
  [[nodiscard]] u64 cycle() const { return cycle_; }

  /// The policy in effect and the adaptive state: the cycle of the next
  /// CLOCK_TICK and the lookahead from the board's latest TIME_ACK
  /// (nullopt before the handshake or against a v1 board).
  [[nodiscard]] const SyncPolicy& sync_policy() const { return policy_; }
  [[nodiscard]] u64 next_sync() const { return next_sync_; }
  [[nodiscard]] std::optional<u64> board_lookahead() const {
    return board_lookahead_;
  }

  /// Barrier rounds stamped so far (wire v3; 0 unless the hub's timeline is
  /// enabled — round stamping is what grows the CLOCK/TIME_ACK frames, so
  /// it is gated on the timeline switch to keep default runs byte-exact).
  [[nodiscard]] u64 rounds() const { return round_; }

  /// Ends the co-simulation (sends SHUTDOWN if configured).
  void finish();

  /// Compatibility view over the metrics registry (the counters live under
  /// "cosim.*"); returned by value as a snapshot.
  struct Stats {
    u64 syncs = 0;
    u64 data_writes = 0;
    u64 data_reads = 0;
    u64 interrupts_sent = 0;
    u64 acks_received = 0;
  };
  [[nodiscard]] Stats stats() const {
    return Stats{syncs_.value(), data_writes_.value(), data_reads_.value(),
                 interrupts_sent_.value(), acks_received_.value()};
  }

 private:
  struct IntWatch {
    sim::BoolSignal* line;
    u32 vector;
    bool prev = false;
  };

  /// Drains pending DATA frames; returns first hard error.
  Status service_data_port();
  Status handle_data_msg(const net::Message& msg);
  /// Sends CLOCK_TICK and blocks for TIME_ACK, servicing DATA meanwhile.
  Status sync_with_board();
  /// Flushes DATA/INT and emits the CLOCK_TICK (shared by the blocking
  /// and pump() paths; spans bookkeeping lands in accept_ack).
  Status send_tick();
  /// Validates and applies a received TIME_ACK (grant policy, spans).
  Status accept_ack(const net::Message& msg);
  Status sample_interrupts();
  /// Captures a TIME_ACK's lookahead (adaptive state + cosim.lookahead_acks).
  void note_ack(const net::TimeAck& ack);

  net::CosimLink link_;
  CosimConfig config_;
  Status config_status_;
  Logger log_{"cosim"};

  // Declared before the counter references: init order matters.
  std::unique_ptr<obs::Hub> owned_hub_;
  obs::Hub* hub_;
  obs::Counter& syncs_;
  obs::Counter& data_writes_;
  obs::Counter& data_reads_;
  obs::Counter& interrupts_sent_;
  obs::Counter& acks_received_;
  obs::Counter& lookahead_acks_;
  obs::LatencyHistogram& sync_rtt_ns_;
  obs::LatencyHistogram& grant_cycles_;
  obs::SpanSink& spans_;  // timeline ring "cosim" (two-party spans)

  sim::Kernel kernel_;
  sim::Clock clock_;
  DriverRegistry registry_;
  std::vector<IntWatch> watches_;

  SyncPolicy policy_;           // config_.resolved_sync()
  u64 last_granted_ = 0;        // cycle of the previous CLOCK_TICK
  u64 next_sync_ = 0;           // cycle of the next CLOCK_TICK
  std::optional<u64> board_lookahead_;  // from the latest TIME_ACK

  u64 cycle_ = 0;
  u64 round_ = 0;  // wire-v3 round id of the latest CLOCK_TICK
  bool handshaken_ = false;
  bool finished_ = false;
  /// pump() protocol state: a CLOCK_TICK is in flight, TIME_ACK pending.
  bool awaiting_ack_ = false;
  /// Span bookkeeping across the send_tick/accept_ack split.
  u64 sync_span_start_ = 0;
  u64 tick_sent_ns_ = 0;
  /// Per-lane busy_ns already folded into the sim.worker*.busy_ns
  /// histograms (the collector records deltas between metric dumps).
  std::vector<u64> lane_busy_collected_;
};

}  // namespace vhp::cosim
