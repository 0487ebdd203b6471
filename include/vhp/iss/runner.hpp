// ISS-on-board integration: runs RV32IM machine code as a board application
// thread, charging every retired instruction to the board's cycle budget.
//
// This is the "native ISS integration" refinement of the methodology (the
// authors' companion DATE'04 work): instead of annotating C++ application
// code with consume() calls, the software timing model is the instruction
// stream itself. The remote simulated device appears as an MMIO window, so
// firmware drives the co-simulated hardware with plain loads/stores.
//
// Syscall convention (ECALL, number in a7):
//   0: exit(a0)            — stop the firmware; a0 is the exit code
//   1: wfi                 — block until the device interrupt (DSR posts)
//   2: a0 = board tick     — read the SW tick counter
//   3: yield               — give up the CPU voluntarily
//   4: a0 = core id        — which virtual core runs this firmware (0 on a
//                            single-core board; SPMD firmware branches on it)
#pragma once

#include <atomic>

#include "vhp/board/board.hpp"
#include "vhp/iss/bus.hpp"
#include "vhp/iss/cpu.hpp"
#include "vhp/iss/timed_bus.hpp"
#include "vhp/mem/system.hpp"
#include "vhp/rtos/sync.hpp"

namespace vhp::iss {

struct IssRunnerConfig {
  u32 entry_pc = 0x1000;
  u32 stack_top = 0x0008'0000;
  int priority = 8;
  /// Runaway-firmware backstop: a firmware that retires this many
  /// instructions is stopped with IssRunner::kFaultExitCode.
  u64 max_instructions = 100'000'000;
  /// Device MMIO window: a load/store at mmio_base + A becomes a
  /// dev_read/dev_write at device address A.
  u32 mmio_base = 0xf000'0000;
  u32 mmio_size = 0x0001'0000;
  /// Extra cycles charged per device access (bus bridge cost).
  u64 mmio_access_cost = 10;
  /// Instructions batched per consume() charge (throughput/fidelity knob:
  /// preemption points happen at batch ends). With flat timing the Cpu
  /// runs each batch in one Cpu::run() call.
  u64 batch_cycles = 64;
  /// Board-thread name ("firmware/2" on a many-core board).
  std::string thread_name = "firmware";
};

class IssRunner {
 public:
  /// exit_code() of a firmware stopped by a fault: an illegal instruction,
  /// a misaligned fetch or the instruction limit.
  static constexpr u32 kFaultExitCode = 0xdead;

  /// Spawns the firmware thread; the program must already be in `ram`.
  IssRunner(board::Board& board, sim::Memory& ram, IssRunnerConfig config);

  IssRunner(const IssRunner&) = delete;
  IssRunner& operator=(const IssRunner&) = delete;

  [[nodiscard]] Cpu& cpu() { return cpu_; }
  /// Safe to read from any host thread.
  [[nodiscard]] bool exited() const { return exited_.load(std::memory_order_acquire); }
  [[nodiscard]] u32 exit_code() const { return exit_code_; }
  [[nodiscard]] u64 instructions() const {
    return cpu_.instructions_retired();
  }

  /// Wire this to Board::attach_device_dsr: wakes a firmware blocked in
  /// the wfi syscall.
  void post_irq() { irq_sem_.post(); }

  /// Attaches a memory-hierarchy port (DESIGN.md §13): instruction cost
  /// switches from the flat StepResult cycles to the pipelined model —
  /// I-cache fetch latency, D-cache load/store latency, bank contention.
  /// Call before the board runs; MMIO accesses keep their flat bridge cost
  /// (they never traverse the cache hierarchy). Also pins the firmware
  /// thread to the port's core.
  void attach_memory(mem::CorePort& port);

  /// The firmware's board thread (for affinity/priority adjustments).
  [[nodiscard]] rtos::Thread& thread() { return *thread_; }

 private:
  void run_loop();
  /// Returns true to keep running.
  bool handle_ecall();

  [[nodiscard]] bool is_mmio(u32 addr) const {
    return addr >= config_.mmio_base &&
           addr - config_.mmio_base < config_.mmio_size;
  }

  board::Board& board_;
  IssRunnerConfig config_;
  Logger log_{"iss"};
  MemoryBus bus_;
  TimedBus timed_bus_{bus_};
  Cpu cpu_;
  mem::CorePort* mem_port_ = nullptr;
  rtos::Thread* thread_ = nullptr;
  rtos::Semaphore irq_sem_;
  std::atomic<bool> exited_{false};
  u32 exit_code_ = 0;
};

}  // namespace vhp::iss
