// The RTOS kernel (eCos-like), hosting the paper's OS-side modifications.
//
// Execution model: the whole kernel runs inside ONE host thread (the virtual
// board's CPU). RTOS threads are fibers; the kernel's run() loop dispatches
// the highest-priority ready thread and regains control whenever that thread
// blocks, yields, exits, or crosses a preemption point inside consume().
//
// Virtual time: application code models CPU work by calling consume(cycles).
// Every `cycles_per_tick` consumed cycles, the timer "interrupt" fires: the
// real-time clock counter advances (alarms, delays, timeouts), and the
// running thread's timeslice is charged. In co-simulation (budget mode),
// consumable cycles are granted by CLOCK_TICK packets; exhausting the budget
// freezes the OS into the *idle* state (paper Section 5.3): a freeze
// callback reports the board tick (the TIME_ACK), and only communication
// threads plus the idle thread are scheduled until grant_cycles() is called
// again.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "vhp/common/log.hpp"
#include "vhp/common/types.hpp"
#include "vhp/rtos/interrupt.hpp"
#include "vhp/rtos/scheduler.hpp"
#include "vhp/rtos/thread.hpp"
#include "vhp/rtos/timer.hpp"
#include "vhp/rtos/wait_queue.hpp"

namespace vhp::rtos {

/// OS execution states (paper Figure 3/4).
enum class OsState {
  kNormal,  // all threads scheduled by priority
  kIdle,    // frozen: only communication threads + idle thread run
};

struct KernelConfig {
  /// Virtual CPU cycles per SW tick (the HW-timer divider).
  u64 cycles_per_tick = 100;
  /// Round-robin timeslice, in SW ticks.
  u64 timeslice_ticks = 5;
  /// When true, consumable cycles must be granted (co-simulation mode).
  /// When false the kernel free-runs as fast as the host executes.
  bool budget_mode = false;
  /// Virtual cores (SMP, DESIGN.md §13). 1 (default) is the legacy
  /// single-core kernel, bit-exact with every existing recording. M > 1
  /// gives each core its own run queue view (per-core dispatch with thread
  /// affinity), its own cycle counter and its own slice of every budget
  /// grant; the timer interrupt (RTC, timeslices) stays on core 0, the
  /// boot core — as on real SMP hardware with one global timer.
  u32 cores = 1;
};

class Kernel {
 public:
  explicit Kernel(KernelConfig config = {});
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // ----- threads -----

  /// Creates a thread; it becomes ready immediately.
  Thread& spawn(std::string name, int priority, Thread::Entry entry,
                std::size_t stack_bytes = Fiber::kDefaultStackBytes);

  [[nodiscard]] Thread* current() const { return current_; }
  /// Virtual core the current (or most recently dispatched) thread runs on.
  [[nodiscard]] u32 current_core() const { return current_core_; }
  [[nodiscard]] u32 cores() const { return config_.cores; }

  /// Blocks the calling thread until `thread` exits (no-op if it already
  /// has). eCos exposes the same through cyg_thread_join-style helpers.
  void join(Thread& thread);

  /// Runs the scheduler until shutdown() is called (or every non-comm,
  /// non-idle thread has exited, if `until_quiescent`).
  void run(bool until_quiescent = false);

  /// Cooperative stepping (how every board is hosted: the board loop,
  /// Board::run_boards(), and svc::SessionHost's steps): runs the scheduler
  /// until the board is *starved* — frozen (or truly idle) with an idle
  /// poll reporting no external progress — or shut down. Fibers stay
  /// parked across calls; the caller re-invokes when new input arrives.
  /// Returns false once shut down.
  bool run_until_starved();

  /// Requests run() to return at the next safe point. Callable from thread
  /// context or externally before run().
  void shutdown();
  [[nodiscard]] bool shutting_down() const { return shutdown_; }

  /// Voluntary yield: current thread goes to the tail of its priority queue.
  void yield();

  // ----- virtual time -----

  /// Models `cycles` of CPU work by the current thread. Preemption point:
  /// ticks fire inside, other threads may run, and in budget mode the call
  /// blocks while the OS is frozen waiting for a grant. Returns the cycles
  /// actually consumed — less than `cycles` only for a communication/idle
  /// thread bailing out on budget exhaustion (those never block on the
  /// budget).
  u64 consume(u64 cycles);

  /// Sleeps the current thread for `ticks` SW ticks of virtual time.
  void delay(SwTicks ticks);

  [[nodiscard]] SwTicks tick_count() const { return tick_count_; }
  [[nodiscard]] u64 cycle_count() const { return cycle_count_; }
  /// Per-core consumed cycles (core 0 == cycle_count()).
  [[nodiscard]] u64 core_cycle_count(u32 core) const {
    return core == 0 ? cycle_count_ : extra_cycles_[core - 1];
  }
  [[nodiscard]] u64 cycles_per_tick() const { return config_.cycles_per_tick; }
  [[nodiscard]] Counter& real_time_clock() { return rtc_; }

  // ----- co-simulation budget (paper Sections 4 and 5.3) -----

  [[nodiscard]] OsState state() const { return state_; }
  [[nodiscard]] bool budget_mode() const { return config_.budget_mode; }
  [[nodiscard]] u64 budget_cycles() const { return budget_cycles_; }
  /// Per-core remaining budget (core 0 == budget_cycles()).
  [[nodiscard]] u64 core_budget_cycles(u32 core) const {
    return core == 0 ? budget_cycles_ : extra_budget_[core - 1];
  }

  /// Grants `cycles` of execution budget *per core* and thaws the OS into
  /// the normal state: every core advances through the same grant wall in
  /// lockstep virtual time. Called by the board's systemc thread on
  /// CLOCK_TICK reception.
  void grant_cycles(u64 cycles);

  /// Lookahead (adaptive synchronization, DESIGN.md §10): CPU cycles until
  /// this kernel can next initiate an interaction, as seen at the current
  /// freeze point. 0 when any application thread is runnable (or starved
  /// mid-consume on the budget, or a DSR is pending) — work would continue
  /// immediately on the next grant. Otherwise the distance to the earliest
  /// pending alarm (delays, timeouts, app alarms). nullopt when no future
  /// event exists at all: the board is idle until data arrives, and the
  /// master may grant its maximum quantum. Conservative by construction —
  /// it never *under*states how soon the board may act, and events injected
  /// by the master itself (interrupts, DATA responses) don't count: the
  /// master knows when it sends those.
  ///
  /// SMP: the result is the minimum over cores by construction — a runnable
  /// or budget-starved thread on *any* core yields 0, and alarms live on
  /// the shared core-0 RTC (at a freeze every core has drained the same
  /// grants, so core-0 distance is the board-wide distance).
  [[nodiscard]] std::optional<u64> next_event_cycles() const;

  /// Invoked (once per freeze) when the budget is exhausted and the OS
  /// enters the idle state; receives the current board tick. The board
  /// module sends the TIME_ACK packet from here.
  void set_freeze_callback(std::function<void(SwTicks)> cb) {
    freeze_cb_ = std::move(cb);
  }

  /// Invoked by the idle thread when it has nothing to do: the board module
  /// polls its channels here and returns whether anything arrived. Runs in
  /// idle-thread context; a false return while frozen is the "starved"
  /// signal that ends run_until_starved().
  void set_idle_poll(std::function<bool()> poll) {
    idle_poll_ = std::move(poll);
  }

  /// Observes every OS state transition (paper Figures 3/4): called with
  /// the new state and the tick at which the switch happened.
  void set_state_trace(std::function<void(OsState, SwTicks)> trace) {
    state_trace_ = std::move(trace);
  }

  /// Observes every dispatch of a thread onto the virtual CPU (the board's
  /// observability layer draws the paper's Figure 4 thread timeline from
  /// this). Called from the scheduler loop just before the switch; unset by
  /// default and free when unset — keep the callback cheap.
  void set_switch_trace(std::function<void(const Thread&)> trace) {
    switch_trace_ = std::move(trace);
  }

  // ----- interrupts -----

  [[nodiscard]] InterruptController& interrupts() { return interrupts_; }

  /// Changes a thread's *effective* priority (priority inheritance; the
  /// base priority is untouched). Requeues the thread if it is ready.
  void set_effective_priority(Thread* thread, int priority);

  // ----- statistics -----

  struct Stats {
    u64 context_switches = 0;
    u64 ticks = 0;
    u64 freezes = 0;
    u64 grants = 0;
    u64 idle_cycles = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  friend class WaitQueue;
  friend class Thread;

  /// Blocks `current_` on `queue` and switches away. Core of WaitQueue.
  void block_current(WaitQueue& queue);
  void make_ready(Thread* thread);
  /// Called from the exiting thread's fiber just before it finishes.
  void on_thread_exit(Thread* thread);
  /// A sleeping thread's wakeup alarm fired: ends its delay().
  void wake_sleeper(Thread* thread);

  /// Switches from the current thread back to the scheduler loop.
  void reschedule_current();

  /// The timer ISR: advances the RTC (alarms fire), charges the running
  /// thread's timeslice, rotates on expiry.
  void timer_tick();

  /// Budget-exhaustion transition to the idle state. SMP: freezes (and
  /// fires the TIME_ACK callback) only once EVERY core's budget is drained.
  void enter_idle_state();
  [[nodiscard]] bool all_cores_exhausted() const;

  /// Idle thread body (one instance per core; `core` is the pinned core).
  void idle_loop(u32 core);

  /// Per-core budget slot (core 0 aliases the legacy member, keeping the
  /// single-core hot path untouched).
  [[nodiscard]] u64& core_budget(u32 core) {
    return core == 0 ? budget_cycles_ : extra_budget_[core - 1];
  }
  [[nodiscard]] u64& core_cycles(u32 core) {
    return core == 0 ? cycle_count_ : extra_cycles_[core - 1];
  }

  [[nodiscard]] bool quiescent() const;
  [[nodiscard]] bool is_idle_thread(const Thread* t) const {
    for (const Thread* idle : idle_threads_) {
      if (t == idle) return true;
    }
    return false;
  }

  KernelConfig config_;
  Logger log_{"rtos"};

  Scheduler scheduler_;
  /// Declared before threads_ so it outlives them: each thread's wakeup
  /// alarm is attached to this clock.
  Counter rtc_{"rtc"};
  std::vector<std::unique_ptr<Thread>> threads_;
  Thread* current_ = nullptr;
  Thread* idle_thread_ = nullptr;
  /// Per-core idle threads; [0] == idle_thread_.
  std::vector<Thread*> idle_threads_;

  SwTicks tick_count_{};
  u64 cycle_count_ = 0;
  /// Cores 1..M-1 (empty on a single-core kernel).
  std::vector<u64> extra_cycles_;
  std::vector<u64> extra_budget_;
  u32 current_core_ = 0;
  /// Round-robin start index of the SMP dispatch sweep.
  u32 dispatch_rr_ = 0;

  OsState state_ = OsState::kNormal;
  u64 budget_cycles_ = 0;
  std::function<void(SwTicks)> freeze_cb_;
  std::function<bool()> idle_poll_;
  std::function<void(OsState, SwTicks)> state_trace_;
  std::function<void(const Thread&)> switch_trace_;
  WaitQueue budget_wait_{*this};

  InterruptController interrupts_{*this};
  WaitQueue join_wait_{*this};
  /// Threads in delay(), each woken by its own wakeup alarm.
  WaitQueue sleepers_{*this};

  bool shutdown_ = false;
  bool need_resched_ = false;
  bool in_run_loop_ = false;
  /// Cooperative stepping (run_until_starved): the loop exits when the
  /// core-0 idle poll reports no progress while nothing can advance.
  bool step_mode_ = false;
  bool starved_ = false;

  Stats stats_;
};

}  // namespace vhp::rtos
