// The modified simulation engine: the paper's driver_simulate() (Section 5.2).
//
// Wraps a sim::Kernel and drives it cycle by cycle while servicing the three
// co-simulation channels of each of its 1..N board links:
//   * DATA ports are drained (driver writes delivered to DriverIn ports,
//     read requests answered from DriverOut) inside every barrier — and,
//     untimed, before each clock cycle as well;
//   * after each cycle, watched interrupt lines are edge-sampled and
//     INT_RAISE packets emitted on the watching link;
//   * whenever a board's grant expires, the SyncCoordinator barrier grants
//     the due boards their next quantum with CLOCK_TICKs and gathers the
//     TIME_ACKs — while still answering DATA traffic, so a board thread
//     blocked mid-quantum on a device read can never deadlock the run.
//
// Timed, the boards are frozen while the master simulates a quantum, and
// the barrier's DATA fence (SyncCoordinator) serves every frame they sent,
// so the paper's per-cycle DATA poll could only find nothing: a timed
// quantum polls no DATA port. Untimed, the poll is driver_simulate()'s.
//
// Timed, a quantum also skips quiet cycles: when the kernel has nothing
// pending and its next timed notification falls after cycle c+k, cycles
// c+1..c+k+1 run as one kernel run, bounded by the next barrier and the
// requested cycle count. No signal changes in a quiet cycle, so its
// interrupt sample would repeat the last one, and every barrier, DATA
// service and INT sample keeps its cycle number. An unlistened master
// clock schedules nothing (sim::Clock), so a clock-only model costs one
// kernel run per barrier. Untimed runs step every cycle: a free-running
// board can send DATA at any cycle.
//
// One loop body (pump) serves both drives: run_cycles() is pump() plus
// net::wait_until on the links' DATA and CLOCK ports, and an event loop
// calls pump() directly. A two-party session is the N=1 case of a fabric.
//
// Armed, each stretch of cycles run between two barriers (untimed: each
// call) is one kSimulate span in the timeline's "master" sink; with the
// coordinator's kBarrier spans they are the stall profiler's buckets.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "vhp/common/log.hpp"
#include "vhp/common/status.hpp"
#include "vhp/cosim/driver_port.hpp"
#include "vhp/cosim/sync_coordinator.hpp"
#include "vhp/cosim/sync_policy.hpp"
#include "vhp/net/channel.hpp"
#include "vhp/obs/hub.hpp"
#include "vhp/sim/kernel.hpp"
#include "vhp/sim/signal.hpp"

namespace vhp::cosim {

struct CosimConfig {
  /// The synchronization policy: quantum (the paper's T_sync), per-node
  /// quanta, adaptive lookahead mode (pair with
  /// board::BoardConfig::advertise_lookahead; fabric::Fabric, and so every
  /// session, wires that automatically), and the watchdog bounding every
  /// gather.
  SyncPolicy sync{};
  /// Simulation time units per clock cycle (posedge every period); at
  /// least 2, so the clock has a high and a low phase.
  sim::SimTime clock_period = 2;
  /// When true, run timed: exchange CLOCK_TICK/TIME_ACK. When false the
  /// simulation free-runs (the paper's untimed baseline, the denominator of
  /// Figure 6's overhead ratio) — the board then runs unsynchronized, and
  /// the master polls the DATA ports every cycle.
  bool timed = true;
  /// Evaluation lanes of the deterministic parallel kernel (including the
  /// calling thread); 0 = serial (default, byte-identical legacy path).
  /// Results are bit-identical across all values — see
  /// sim::Kernel::set_parallel and sim/partition.hpp for the model
  /// contract.
  u64 parallel_workers = 0;

  /// Rejects configurations that would divide by zero or stall the protocol
  /// (an invalid `sync` policy in timed mode, a clock_period below 2).
  [[nodiscard]] Status validate() const;
};

/// One board-facing link of the master. `name` labels the board in the
/// coordinator's errors and metrics: its grants, acks and the link's own
/// DATA/INT counters count under "fabric.<name>.*". Link i unnamed is
/// "node<i>".
struct MasterLink {
  std::string name;
  net::CosimLink link;
};

class CosimKernel {
 public:
  /// `hub` is the session's observability hub; pass nullptr (standalone
  /// wiring, unit tests) to get a private hub with tracing disabled —
  /// metric counters still run, they back stats().
  CosimKernel(net::CosimLink link, CosimConfig config,
              obs::Hub* hub = nullptr);
  /// The N-board master (a fabric): one slot per link, each with its own
  /// device address space and interrupt watches.
  CosimKernel(std::vector<MasterLink> links, CosimConfig config,
              obs::Hub* hub = nullptr);
  ~CosimKernel();

  CosimKernel(const CosimKernel&) = delete;
  CosimKernel& operator=(const CosimKernel&) = delete;

  [[nodiscard]] sim::Kernel& kernel() { return kernel_; }
  [[nodiscard]] sim::Clock& clock() { return clock_; }
  [[nodiscard]] const CosimConfig& config() const { return config_; }
  [[nodiscard]] obs::Hub& obs() { return *hub_; }

  /// Link i's device address space (its DATA traffic consults only this
  /// registry). The no-argument form is link 0 — a session's board.
  [[nodiscard]] DriverRegistry& registry(std::size_t link = 0);

  /// Registers `line` as a device interrupt source of link i: a rising edge
  /// sampled at a cycle boundary sends INT_RAISE(vector) to that board.
  /// The watch adds a change hook to `line`, so a sim::Clock used as an
  /// interrupt line keeps every edge (it counts as listened).
  void watch_interrupt(sim::BoolSignal& line, u32 vector) {
    watch_interrupt(0, line, vector);
  }
  void watch_interrupt(std::size_t link, sim::BoolSignal& line, u32 vector);

  /// The grant/gather engine; its watchdog (SyncPolicy::watchdog) bounds
  /// the handshake and every barrier.
  [[nodiscard]] SyncCoordinator& coordinator() { return *coordinator_; }

  /// Waits for every board's initial "frozen" TIME_ACK (timed mode only).
  /// Implied by the first run_cycles()/pump().
  Status handshake();

  /// The paper's driver_simulate(): runs `cycles` HW clock cycles of the
  /// model with data service, interrupt propagation and timing sync.
  /// Fails with kInvalidArgument if the config did not validate, and with
  /// kDeadlineExceeded naming the board when a gather outlives the watchdog.
  Status run_cycles(u64 cycles);

  /// Non-blocking variant for event-loop hosting (svc::SessionHost): runs
  /// up to `max_cycles`, but instead of waiting for a TIME_ACK (or the
  /// handshake) it returns with *blocked=true when a board owes a frame
  /// that has not arrived. *ran reports cycles completed this
  /// call. The protocol state (mid-sync vs running) persists across calls —
  /// resume by calling pump() again once the link shows readiness. A pump
  /// that ran cycles leaves a parallel kernel's sim.* gauges fresh.
  Status pump(u64 max_cycles, u64* ran, bool* blocked);

  /// True while CLOCK_TICKs are out and TIME_ACKs still owed (only pump()
  /// returns in that state; run_cycles() never does).
  [[nodiscard]] bool awaiting_ack() const {
    return coordinator_->gathering();
  }

  /// Current cycle count (completed cycles).
  [[nodiscard]] u64 cycle() const { return cycle_; }

  /// The adaptive state of link 0: the cycle of the next CLOCK_TICK and
  /// the lookahead from the board's latest TIME_ACK (nullopt before the
  /// handshake or when the board advertises none).
  [[nodiscard]] u64 next_sync() const { return coordinator_->next_due(); }
  [[nodiscard]] std::optional<u64> board_lookahead() const {
    return coordinator_->node_lookahead(0);
  }

  /// Barrier rounds stamped so far (0 unless the hub's timeline is enabled;
  /// see SyncCoordinator::rounds).
  [[nodiscard]] u64 rounds() const { return coordinator_->rounds(); }

  /// Ends the co-simulation: flushes every link and sends SHUTDOWN to every
  /// board. An evicted board's link is closed as well, so a peer still
  /// blocked on it wakes.
  void finish();

  /// Totals over all links: ticks sent, DATA writes/reads served,
  /// interrupts raised, and TIME_ACKs of ticks (the boot acks excluded).
  struct Stats {
    u64 syncs = 0;
    u64 data_writes = 0;
    u64 data_reads = 0;
    u64 interrupts_sent = 0;
    u64 acks_received = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct IntWatch {
    sim::BoolSignal* line;
    u32 vector;
    bool prev = false;
  };

  /// Per-link state: the hw side of the link, its device address space,
  /// its interrupt watches and its DATA/INT counters.
  struct Slot {
    net::CosimLink link;
    DriverRegistry registry;
    std::vector<IntWatch> watches;
    obs::Counter& data_writes;
    obs::Counter& data_reads;
    obs::Counter& interrupts_sent;
  };

  [[nodiscard]] Slot& slot_at(std::size_t link);
  /// Drains every live link's DATA port; returns the first hard error.
  Status service_links();
  /// Serves one DATA frame of link i and counts it toward the link's fence.
  Status handle_data_msg(std::size_t i, const net::Message& msg);
  Status sample_interrupts();
  /// One non-blocking step of the barrier due at cycle_: the first step
  /// flushes the batched links and scatters; *done once every ack is in.
  Status barrier_step(bool* done);
  /// pump()'s loop: runs cycles until cycle_ reaches `until` or a board
  /// owes a frame (*blocked).
  Status advance(u64 until, bool* blocked);
  /// Sets the parallel kernel's sim.* gauges (per lane, cumulative
  /// sim.worker<i>.busy_ns) on the thread that owns the kernel.
  void publish_parallel_stats();
  /// Timed: the cycles after cycle_ in which the kernel has nothing to do,
  /// bounded so that the cycle after them stays at or before `until` and
  /// the next barrier.
  [[nodiscard]] u64 quiet_cycles(u64 until);

  CosimConfig config_;
  Status config_status_;
  Logger log_{"cosim"};

  // Declared before the references into it: init order matters.
  std::unique_ptr<obs::Hub> owned_hub_;
  obs::Hub* hub_;
  obs::SpanSink& master_spans_;  // timeline ring "master": kSimulate spans

  sim::Kernel kernel_;
  sim::Clock clock_;
  std::vector<Slot> slots_;  // sized once: registry() references stay valid
  std::unique_ptr<SyncCoordinator> coordinator_;
  /// service_links() bound once, handed to every gather pass.
  std::function<Status()> service_;

  u64 cycle_ = 0;
  /// The coordinator's ack count after the handshake: stats() reports the
  /// acks of ticks only.
  u64 boot_acks_ = 0;
  bool finished_ = false;
};

}  // namespace vhp::cosim
