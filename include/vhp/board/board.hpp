// The virtual board: a host thread's worth of CPU running the RTOS, wired
// to the simulation kernel through the three-channel link. Implements the
// board-side half of the paper:
//   * the remote-device driver (devtab entry "/dev/sysc") whose read/write
//     travel over DATA_PORT,
//   * the *channel thread* listening on INT_PORT and dispatching interrupts
//     into the RTOS ISR/DSR machinery,
//   * the *systemc thread* listening on CLOCK_PORT, granting execution
//     budget on CLOCK_TICK and shutting the board down on SHUTDOWN,
//   * the freeze callback that reports the board tick (TIME_ACK) whenever
//     the OS enters the idle state.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "vhp/board/channel_waiter.hpp"
#include "vhp/common/log.hpp"
#include "vhp/mem/config.hpp"
#include "vhp/mem/system.hpp"
#include "vhp/net/channel.hpp"
#include "vhp/obs/hub.hpp"
#include "vhp/rtos/device.hpp"
#include "vhp/rtos/kernel.hpp"
#include "vhp/rtos/sync.hpp"

namespace vhp::board {

struct BoardConfig {
  rtos::KernelConfig rtos{};
  /// Log-line identity; empty means "board". Fabric nodes run N boards in
  /// one process; naming each ("node0", ...) keeps their logs tellable
  /// apart.
  std::string name;
  /// Board CPU cycles granted per simulated HW clock cycle in a CLOCK_TICK.
  u64 cycles_per_sim_cycle = 1;
  /// Modeled driver-write cost charged to the calling thread, in cycles.
  u64 dev_write_cost = 0;
  /// Untimed mode: no budget, no freeze/ack; the board free-runs
  /// (the Figure 6 baseline).
  bool free_running = false;
  /// Adaptive synchronization (DESIGN.md §10): when set, every TIME_ACK
  /// advertises the board's lookahead — the earliest future master
  /// sim-cycle at which the RTOS can next interact, derived from
  /// Kernel::next_event_cycles(). Off by default: the ack's lookahead slot
  /// then says "none" unless the master opted into adaptive mode.
  bool advertise_lookahead = false;
  /// Memory hierarchy (DESIGN.md §13): when set, the board owns a
  /// mem::MemorySystem with rtos.cores ports — the ISS runners attach to it
  /// and instruction cost becomes pipelined (caches, bank contention).
  /// Unset (default) keeps the flat cycle-budget board, bit-compatible with
  /// every existing recording. Required whenever rtos.cores > 1.
  std::optional<mem::MemConfig> memory;

  /// Nonzero RTOS timing divisors, at least one core, and a valid memory
  /// hierarchy wherever there is one (it is required for more than one
  /// core). Sessions and fabrics check every board they build with this.
  [[nodiscard]] Status validate() const;
};

class Board {
 public:
  /// Interrupt vector of the simulated device (must match the HDL side).
  static constexpr u32 kDeviceVector = 16;
  /// Devtab name of the remote simulated device.
  static constexpr const char* kDeviceName = "/dev/sysc";
  /// Priority of the communication threads (above applications).
  static constexpr int kCommPriority = 2;

  /// `hub` is the session's observability hub; nullptr (standalone wiring,
  /// unit tests) gets a private, disarmed hub — metric counters still run,
  /// they back stats().
  Board(BoardConfig config, net::CosimLink link, obs::Hub* hub = nullptr);
  ~Board();

  Board(const Board&) = delete;
  Board& operator=(const Board&) = delete;

  [[nodiscard]] rtos::Kernel& kernel() { return kernel_; }
  [[nodiscard]] rtos::DeviceTable& devtab() { return devtab_; }
  [[nodiscard]] const BoardConfig& config() const { return config_; }

  /// The memory hierarchy; nullptr on a flat (legacy) board — present
  /// exactly when BoardConfig::memory is set.
  [[nodiscard]] mem::MemorySystem* memory_system() { return memsys_.get(); }

  /// ----- remote device access (driver internals; applications normally
  /// go through devtab().lookup(kDeviceName)) -----

  /// Reads `nbytes` at device address `addr`: sends DATA_READ_REQ and
  /// blocks the calling thread (in virtual time too) until the response.
  Result<Bytes> dev_read(u32 addr, u32 nbytes);

  /// Writes to device address `addr` (fire-and-forget, like a posted bus
  /// write).
  Status dev_write(u32 addr, std::span<const u8> data);

  /// Registers the DSR-level handler for the simulated device's default
  /// interrupt vector (kDeviceVector). Runs at scheduler-safe points;
  /// typically wakes an application thread.
  void attach_device_dsr(std::function<void(u32 vector)> dsr);

  /// Multi-device prototyping: registers a DSR for an additional interrupt
  /// vector (each simulated device gets its own line; wire the HDL side
  /// with CosimKernel::watch_interrupt(line, vector)).
  void attach_interrupt(u32 vector, std::function<void(u32 vector)> dsr);

  /// Spawns an application thread (priority below the comm threads).
  rtos::Thread& spawn_app(std::string name, int priority,
                          rtos::Thread::Entry entry,
                          std::size_t stack_bytes = Fiber::kDefaultStackBytes);

  /// The one board loop, and the only code a board host thread runs. Boots
  /// every board, then until each has taken its SHUTDOWN (or seen its link
  /// close, or kernel().shutdown()) pumps the boards whose link delivered
  /// something and waits in net::wait_until on the ports of every board
  /// still live, the boards' idle polls as its readiness check. A starved
  /// board is frozen (or idle with no alarm pending), so only a frame on
  /// its link can move it. Call on the thread that owns the boards.
  static void run_boards(std::span<Board* const> boards);

  /// run_boards() over this board alone.
  void run();

  /// ----- cooperative hosting (svc::SessionHost) -----

  /// Spawns the comm threads without entering the run loop. Idempotent;
  /// run_boards() calls it too. All pump() calls must come from one thread
  /// (the board loop's, or the event loop's) — fibers are not migratable.
  /// A SessionHost pumps its board after every master slice and never
  /// waits on the link: it sent every frame the board is starved for.
  void boot();

  enum class PumpStatus {
    kLive,  // starved: parked until new input arrives on the link
    kDone,  // SHUTDOWN processed (or kernel shut down)
  };

  /// Runs the RTOS until it is starved (frozen with nothing pending on
  /// any channel) or shut down. Non-blocking in host terms: it never waits
  /// for the link. Requires boot().
  PumpStatus pump();

  [[nodiscard]] obs::Hub& obs() { return *hub_; }

  /// Compatibility view over the metrics registry (the counters live under
  /// "board.*"); returned by value as a snapshot.
  struct Stats {
    u64 interrupts_received = 0;
    u64 clock_ticks_received = 0;
    u64 acks_sent = 0;
    u64 dev_reads = 0;
    u64 dev_writes = 0;
  };
  [[nodiscard]] Stats stats() const {
    return Stats{interrupts_received_.value(), clock_ticks_received_.value(),
                 acks_sent_.value(), dev_reads_.value(), dev_writes_.value()};
  }

 private:
  void systemc_thread_body();
  void channel_thread_body();
  /// The idle thread's duty, and the board loop's readiness check: drains
  /// the link's three channels into their waiters; true if anything
  /// arrived.
  bool idle_poll();
  /// Records the open RTOS slice as ending at `now` (armed boards only).
  void end_slice(u64 now);
  /// The RTOS stopped for good: logs it and closes the open slice.
  void halted();
  void publish_rtos_stats();

  BoardConfig config_;
  net::CosimLink link_;
  Logger log_{config_.name.empty() ? std::string("board") : config_.name};

  // Declared before the counter references: init order matters.
  std::unique_ptr<obs::Hub> owned_hub_;
  obs::Hub* hub_;
  obs::Counter& interrupts_received_;
  obs::Counter& clock_ticks_received_;
  obs::Counter& acks_sent_;
  obs::Counter& dev_reads_;
  obs::Counter& dev_writes_;
  obs::LatencyHistogram& dev_read_ns_;
  obs::SpanSink& spans_;
  /// The RTOS kernel's totals, set by the board thread after every pump
  /// (with MemorySystem::publish_stats): a metrics dump taken while the
  /// board runs reads these atomics, never the kernel's plain counters
  /// (exact once the board has halted).
  struct RtosGauges {
    obs::Gauge& context_switches;
    obs::Gauge& ticks;
    obs::Gauge& freezes;
    obs::Gauge& grants;
    obs::Gauge& idle_cycles;
  } rtos_gauges_;

  rtos::Kernel kernel_;
  rtos::DeviceTable devtab_;
  /// Set iff config_.memory is (see memory_system()).
  std::unique_ptr<mem::MemorySystem> memsys_;

  std::unique_ptr<ChannelWaiter> data_rx_;
  std::unique_ptr<ChannelWaiter> int_rx_;
  std::unique_ptr<ChannelWaiter> clock_rx_;

  rtos::Mutex data_mutex_{kernel_};  // serializes DATA request/response
  std::function<void(u32)> device_dsr_;

  // RTOS slices (armed boards only, sink "<board>.rtos"): adjacent slices
  // of the same thread are merged (the idle loop would otherwise flood the
  // ring).
  obs::SpanSink* slices_ = nullptr;
  std::string slice_thread_;
  u64 slice_start_ns_ = 0;

  // Cross-node timeline (DESIGN.md §7.2): the round id of the last
  // CLOCK_TICK (0: unstamped), echoed on the next TIME_ACK, plus the rx/tx
  // stamps backing the compute (tick→ack) and frozen (ack→next tick) spans.
  // Touched only from the board's fibers (one host thread) — no
  // synchronization needed.
  u64 round_ = 0;
  u64 round_cycle_ = 0;
  u64 tick_rx_ns_ = 0;
  u64 ack_tx_ns_ = 0;
  // DATA frames sent (DATA_WRITE + DATA_READ_REQ) for TIME_ACK::data_sent,
  // counted above the recovery layer: a retransmitted frame counts once.
  u64 data_sent_ = 0;

  bool booted_ = false;
  bool halted_ = false;
};

}  // namespace vhp::board
