// RTOS threads.
//
// A thread is a fiber plus scheduling state, modeled on eCos cyg_thread:
// fixed priority (0 = highest), round-robin timeslicing among equal
// priorities, and a "communication thread" flag implementing the paper's
// Section 5.3: while the OS is in the *idle* state, only communication
// threads (plus the idle thread) are schedulable.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "vhp/common/fiber.hpp"
#include "vhp/common/types.hpp"
#include "vhp/rtos/timer.hpp"

namespace vhp::rtos {

class Kernel;
class Mutex;
class Scheduler;
class WaitQueue;

class Thread {
 public:
  enum class State { kNew, kReady, kRunning, kBlocked, kExited };

  static constexpr int kPriorities = 32;  // 0 (highest) .. 31 (lowest)
  static constexpr int kIdlePriority = kPriorities - 1;
  /// Affinity wildcard: the thread may run on any core (SMP kernels).
  static constexpr int kAnyCore = -1;

  using Entry = std::function<void()>;

  Thread(Kernel& kernel, std::string name, int priority, Entry entry,
         std::size_t stack_bytes = Fiber::kDefaultStackBytes);

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Effective priority (may be boosted by priority inheritance).
  [[nodiscard]] int priority() const { return priority_; }
  /// Configured priority, never affected by inheritance.
  [[nodiscard]] int base_priority() const { return base_priority_; }
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool exited() const { return state_ == State::kExited; }

  /// Marks this thread as one of the paper's "communication threads": it
  /// stays schedulable while the OS is frozen in the idle state.
  void set_comm_thread(bool comm) { comm_thread_ = comm; }
  [[nodiscard]] bool is_comm_thread() const { return comm_thread_; }

  /// Core affinity (SMP kernels, DESIGN.md §13): pins the thread to one
  /// virtual core, or kAnyCore (default) to run wherever a core is free.
  /// Checked at dispatch, so it may be changed at any time.
  void set_affinity(int core) { affinity_ = core; }
  [[nodiscard]] int affinity() const { return affinity_; }
  [[nodiscard]] bool runs_on(u32 core) const {
    return affinity_ == kAnyCore || affinity_ == static_cast<int>(core);
  }

 private:
  friend class Kernel;
  friend class Scheduler;
  friend class WaitQueue;

  friend class Mutex;

  Kernel& kernel_;
  std::string name_;
  int priority_;
  int base_priority_;
  Entry entry_;
  /// Priority-inheriting mutexes currently held (for boost bookkeeping).
  std::vector<Mutex*> held_pi_mutexes_;
  /// Ends a Kernel::delay(); armed only while the thread sleeps. Owned
  /// here, not by the sleeping fiber's frame, so a thread torn down asleep
  /// leaves nothing behind on its stack (fiber.hpp).
  Alarm wakeup_;
  Fiber fiber_;
  State state_ = State::kNew;
  bool comm_thread_ = false;
  int affinity_ = kAnyCore;
  /// Remaining ticks of the current timeslice. Preserved across the OS
  /// normal->idle->normal freeze cycle (the paper's "saves the context, in
  /// particular the value of the timeslice").
  u64 timeslice_left_ = 0;
  /// Wait queue this thread is blocked on, if any.
  WaitQueue* waiting_on_ = nullptr;
  /// Set when a timed wait expired instead of being woken.
  bool timed_out_ = false;
};

}  // namespace vhp::rtos
