#include "vhp/rtos/kernel.hpp"

#include <cassert>
#include <thread>

namespace vhp::rtos {

Kernel::Kernel(KernelConfig config) : config_(config) {
  assert(config_.cycles_per_tick > 0);
  assert(config_.timeslice_ticks > 0);
  assert(config_.cores >= 1);
  extra_cycles_.assign(config_.cores - 1, 0);
  extra_budget_.assign(config_.cores - 1, 0);
  // One idle thread per core, each pinned: the per-core budget must drain
  // through its own core so a freeze happens exactly when every core has
  // reached the grant wall. Core 0 keeps the legacy name "idle".
  idle_threads_.reserve(config_.cores);
  for (u32 c = 0; c < config_.cores; ++c) {
    Thread& t = spawn(c == 0 ? "idle" : "idle/" + std::to_string(c),
                      Thread::kIdlePriority, [this, c] { idle_loop(c); });
    t.set_comm_thread(true);
    if (config_.cores > 1) t.set_affinity(static_cast<int>(c));
    idle_threads_.push_back(&t);
  }
  idle_thread_ = idle_threads_[0];
}

Kernel::~Kernel() = default;

Thread& Kernel::spawn(std::string name, int priority, Thread::Entry entry,
                      std::size_t stack_bytes) {
  auto thread = std::make_unique<Thread>(*this, std::move(name), priority,
                                         std::move(entry), stack_bytes);
  Thread& ref = *thread;
  threads_.push_back(std::move(thread));
  ref.timeslice_left_ = config_.timeslice_ticks;
  ref.state_ = Thread::State::kReady;
  scheduler_.make_ready(&ref);
  return ref;
}

void Kernel::run(bool until_quiescent) {
  assert(current_ == nullptr && "run() re-entered from thread context");
  in_run_loop_ = true;
  while (!shutdown_ && !(step_mode_ && starved_)) {
    Thread* next = nullptr;
    if (config_.cores <= 1) {
      interrupts_.run_pending_dsrs();
      if (until_quiescent && quiescent()) break;
      next = scheduler_.pick(state_ == OsState::kIdle);
    } else {
      // SMP sweep: visit cores round-robin from the rotation point, drain
      // each core's routed DSRs (they run "in that core's interrupt
      // context": current_core_ is set while they execute), and dispatch
      // the first core with an eligible thread. The rotation point advances
      // past the dispatched core so every core makes progress.
      u32 picked_core = 0;
      for (u32 i = 0; i < config_.cores; ++i) {
        const u32 core = (dispatch_rr_ + i) % config_.cores;
        current_core_ = core;
        interrupts_.run_pending_dsrs_for_core(core);
        if (next == nullptr) {
          Thread* t = scheduler_.pick_for_core(core, state_ == OsState::kIdle);
          if (t != nullptr) {
            next = t;
            picked_core = core;
          }
        }
      }
      if (until_quiescent && quiescent()) break;
      current_core_ = picked_core;
      dispatch_rr_ = (picked_core + 1) % config_.cores;
    }
    if (shutdown_) break;
    // The idle threads never block and are communication threads, so the
    // scheduler always finds at least one of them.
    assert(next != nullptr && "no runnable thread, idle thread missing?");
    current_ = next;
    current_->state_ = Thread::State::kRunning;
    ++stats_.context_switches;
    if (switch_trace_) switch_trace_(*next);
    current_->fiber_.resume();
    if (current_ != nullptr && current_->state_ == Thread::State::kRunning) {
      current_->state_ = Thread::State::kReady;
    }
    current_ = nullptr;
  }
  in_run_loop_ = false;
}

bool Kernel::run_until_starved() {
  if (shutdown_) return false;
  step_mode_ = true;
  starved_ = false;
  run(false);
  step_mode_ = false;
  return !shutdown_;
}

void Kernel::shutdown() {
  shutdown_ = true;
  // If called from thread context, bounce back to the run loop so it can
  // observe the flag; if called externally (before run()), this is a no-op.
  if (current_ != nullptr) reschedule_current();
}

void Kernel::yield() {
  assert(current_ != nullptr && "yield() outside thread context");
  scheduler_.rotate(current_->priority());
  reschedule_current();
}

void Kernel::reschedule_current() {
  assert(current_ != nullptr);
  Fiber::yield_to_resumer();
}

void Kernel::block_current(WaitQueue& queue) {
  Thread* self = current_;
  assert(self != nullptr && "blocking outside thread context");
  assert(!is_idle_thread(self) && "an idle thread must never block");
  self->state_ = Thread::State::kBlocked;
  self->waiting_on_ = &queue;
  scheduler_.remove(self);
  queue.waiters_.push_back(self);
  reschedule_current();
  // Woken (or timed out): we are ready and running again.
}

void Kernel::make_ready(Thread* thread) {
  if (thread->state_ == Thread::State::kReady ||
      thread->state_ == Thread::State::kRunning ||
      thread->state_ == Thread::State::kExited) {
    return;
  }
  thread->state_ = Thread::State::kReady;
  thread->waiting_on_ = nullptr;
  scheduler_.make_ready(thread);
  // SMP: a wake preempts only if the woken thread can run on the core the
  // current thread occupies — a thread pinned elsewhere waits for its own
  // core's next dispatch (single-core: runs_on() is always true).
  if (current_ != nullptr && thread->priority() < current_->priority() &&
      thread->runs_on(current_core_)) {
    need_resched_ = true;  // preempt at the next preemption point
  }
}

void Kernel::set_effective_priority(Thread* thread, int priority) {
  if (thread->priority_ == priority) return;
  const bool queued = thread->state_ == Thread::State::kReady ||
                      thread->state_ == Thread::State::kRunning;
  if (queued) scheduler_.remove(thread);
  thread->priority_ = priority;
  if (queued) scheduler_.make_ready(thread);
  if (current_ != nullptr && thread != current_ &&
      priority < current_->priority() && thread->runs_on(current_core_)) {
    need_resched_ = true;
  }
}

void Kernel::join(Thread& thread) {
  assert(current_ != &thread && "a thread cannot join itself");
  // Joiners all share one queue and re-check their target on every exit
  // broadcast; simple and adequate for the few joins an embedded app does.
  while (thread.state() != Thread::State::kExited) join_wait_.wait();
}

void Kernel::on_thread_exit(Thread* thread) {
  scheduler_.remove(thread);
  join_wait_.wake_all();
  // The fiber trampoline returns control to the run loop after this.
}

void Kernel::timer_tick() {
  ++tick_count_;
  ++stats_.ticks;
  rtc_.advance(1);  // fires due alarms: delays, timeouts, app alarms
  Thread* t = current_;
  if (t != nullptr && !is_idle_thread(t)) {
    if (t->timeslice_left_ > 0) --t->timeslice_left_;
    if (t->timeslice_left_ == 0) {
      t->timeslice_left_ = config_.timeslice_ticks;
      scheduler_.rotate(t->priority());
      need_resched_ = true;
    }
  }
}

u64 Kernel::consume(u64 cycles) {
  assert(current_ != nullptr && "consume() outside thread context");
  const u64 requested = cycles;
  while (cycles > 0) {
    // Re-read the core each iteration: an any-core thread that blocked (or
    // was preempted) inside this consume() may resume on a different core.
    const u32 core = current_core_;
    if (config_.budget_mode && core_budget(core) == 0) {
      enter_idle_state();
      if (is_idle_thread(current_) || current_->is_comm_thread()) {
        // Machinery threads never block on the budget; they are outside
        // the timing model and must stay runnable to thaw the OS.
        return requested - cycles;
      }
      // The freeze callback may have granted synchronously (tests do;
      // the real board grants later from the systemc thread) — re-check
      // before blocking or the wake is lost.
      if (core_budget(core) == 0) budget_wait_.wait();
      continue;
    }
    u64& count = core_cycles(core);
    u64 chunk =
        config_.cycles_per_tick - (count % config_.cycles_per_tick);
    chunk = std::min(chunk, cycles);
    if (config_.budget_mode) chunk = std::min(chunk, core_budget(core));
    count += chunk;
    cycles -= chunk;
    if (config_.budget_mode) core_budget(core) -= chunk;
    // The HW timer lives on core 0 (the boot core): RTC ticks follow core
    // 0's cycle counter, as on real SMP hardware with one global timer.
    if (core == 0 && count % config_.cycles_per_tick == 0) timer_tick();
    if (need_resched_) {
      need_resched_ = false;
      reschedule_current();
    }
  }
  return requested;
}

void Kernel::delay(SwTicks ticks) {
  assert(current_ != nullptr && "delay() outside thread context");
  if (ticks.value() == 0) {
    yield();
    return;
  }
  current_->wakeup_.arm_in(ticks.value());
  block_current(sleepers_);
}

void Kernel::wake_sleeper(Thread* thread) {
  if (sleepers_.remove(thread)) make_ready(thread);
}

void Kernel::grant_cycles(u64 cycles) {
  // Every core receives the same slice: the cores advance through the same
  // grant wall in lockstep virtual time, which is what keeps the freeze
  // (and thus the TIME_ACK) a board-wide event.
  budget_cycles_ += cycles;
  for (u64& budget : extra_budget_) budget += cycles;
  ++stats_.grants;
  if (state_ == OsState::kIdle) {
    state_ = OsState::kNormal;
    if (state_trace_) state_trace_(state_, tick_count_);
    budget_wait_.wake_all();
    need_resched_ = true;
  }
}

std::optional<u64> Kernel::next_event_cycles() const {
  // Work that resumes on the very next grant: a pending DSR, a thread
  // starved mid-consume on the budget, or any runnable application thread
  // (the freeze callback runs in the context of the thread that exhausted
  // the budget, so that thread shows up here as kRunning).
  if (interrupts_.dsr_pending()) return 0;
  if (!budget_wait_.empty()) return 0;
  for (const auto& t : threads_) {
    if (t.get() == idle_thread_ || t->is_comm_thread()) continue;
    if (t->state() == Thread::State::kReady ||
        t->state() == Thread::State::kRunning) {
      return 0;
    }
  }
  if (const auto trigger = rtc_.next_trigger()) {
    const u64 now = rtc_.value();
    if (*trigger <= now) return 0;
    const u64 ticks = *trigger - now;
    if (ticks > ~u64{0} / config_.cycles_per_tick) return std::nullopt;
    // The alarm fires when the RTC has advanced `ticks` more ticks; the
    // current tick is already partially consumed.
    return ticks * config_.cycles_per_tick -
           (cycle_count_ % config_.cycles_per_tick);
  }
  return std::nullopt;  // idle until data arrives
}

bool Kernel::all_cores_exhausted() const {
  if (budget_cycles_ != 0) return false;
  for (const u64 budget : extra_budget_) {
    if (budget != 0) return false;
  }
  return true;
}

void Kernel::enter_idle_state() {
  if (state_ == OsState::kIdle) return;
  // SMP: one drained core is not a board-wide freeze — the other cores
  // still owe their share of the grant. The last core to drain freezes.
  if (!all_cores_exhausted()) return;
  state_ = OsState::kIdle;
  ++stats_.freezes;
  log_.trace("freeze at tick {}", tick_count_.value());
  if (state_trace_) state_trace_(state_, tick_count_);
  if (freeze_cb_) freeze_cb_(tick_count_);
}

void Kernel::idle_loop(u32 core) {
  for (;;) {
    bool advanced = false;
    if (state_ == OsState::kNormal) {
      if (config_.budget_mode) {
        if (core_budget(core) > 0) {
          // Nothing else wants this core: idle time consumes the budget so
          // virtual time always reaches the next synchronization point.
          // The whole remaining budget goes in one consume() — its per-tick
          // loop fires alarms at their exact ticks and reschedules the
          // moment one wakes a thread, so a board sleeping through a long
          // adaptive grant costs per-tick arithmetic, not a scheduler
          // round-trip per tick.
          stats_.idle_cycles += consume(core_budget(core));
          advanced = true;
        } else {
          // This core drained its slice; freezes the board only if it was
          // the last one (enter_idle_state checks).
          enter_idle_state();
          advanced = true;
        }
      } else if (core == 0 && rtc_.has_pending_alarms()) {
        // Standalone mode: advance virtual time only when someone is
        // waiting for it, as fast as the host allows.
        const u64 chunk =
            config_.cycles_per_tick - (cycle_count_ % config_.cycles_per_tick);
        stats_.idle_cycles += chunk;
        consume(chunk);
        advanced = true;
      }
    }
    if (!advanced && core == 0) {
      // Frozen (or truly idle): poll the outside world, gently. Core 0
      // polls for the whole board; the other cores' idle threads just
      // rotate through so the sweep doesn't spin on the host. In
      // cooperative stepping, a fruitless poll means nothing can advance
      // until external input arrives — hand the host thread back.
      if (idle_poll_) {
        const bool progressed = idle_poll_();
        if (step_mode_ && !progressed) starved_ = true;
      } else {
        if (step_mode_) starved_ = true;
        std::this_thread::yield();
      }
    }
    yield();
  }
}

bool Kernel::quiescent() const {
  for (const auto& t : threads_) {
    if (is_idle_thread(t.get())) continue;
    if (t->state() != Thread::State::kExited) return false;
  }
  return true;
}

}  // namespace vhp::rtos
