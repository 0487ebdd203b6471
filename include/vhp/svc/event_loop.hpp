// Single-threaded task loop for the co-simulation session server
// (DESIGN.md §14).
//
// One EventLoop runs many concurrent sessions per process on one thread:
// instead of one blocked host thread per board, every session is stepped
// from callbacks (svc::SessionHost). The loop holds two kinds of work
// under one mutex:
//   * a posted-task queue (thread-safe post()) — the "keep stepping while
//     progressing" drive of hosted sessions;
//   * a timer heap (steady clock) — a parked session's re-poll, watchdogs.
// run() sleeps on one condition variable until a post, a stop() or the
// earliest timer is due, then runs the due timers and one batch of posted
// tasks. While it has work it makes no system call of its own. It waits
// on no fd: nothing but a post, a stop or a timer wakes it.
//
// Dispatch is strictly single-threaded: all callbacks run on the thread
// inside run(). post/schedule/cancel/stop are safe from any thread *and*
// from inside callbacks (callbacks run outside the lock).
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "vhp/common/types.hpp"
#include "vhp/obs/hub.hpp"

namespace vhp::svc {

class EventLoop {
 public:
  using Task = std::function<void()>;
  using TimerId = u64;

  /// The svc.loop.* instruments live on the loop's own hub (obs()).
  EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Enqueues `task` to run on the loop thread and wakes the loop.
  /// Thread-safe; usable before run() (tasks run once the loop starts).
  void post(Task task);

  /// One-shot timer: runs `task` on the loop thread once `delay` has
  /// elapsed. Returns an id for cancel(). Thread-safe.
  TimerId schedule(std::chrono::nanoseconds delay, Task task);
  /// Cancels a scheduled timer; false if it already fired (or never was).
  bool cancel(TimerId id);

  /// Dispatches until stop(). Call from exactly one thread — that thread
  /// becomes the loop thread, and every callback runs on it.
  void run();
  /// Makes run() return after the current iteration. Thread-safe; a stop
  /// that lands before run() makes that run() return at once.
  void stop();

  [[nodiscard]] u64 iterations() const { return iterations_.value(); }
  [[nodiscard]] u64 tasks_run() const { return tasks_run_.value(); }
  [[nodiscard]] u64 timers_fired() const { return timers_fired_.value(); }

  [[nodiscard]] obs::Hub& obs() { return hub_; }

 private:
  using Clock = std::chrono::steady_clock;

  obs::Hub hub_;
  obs::Counter& iterations_;
  obs::Counter& tasks_run_;
  obs::Counter& timers_fired_;
  /// One iteration's dispatch time (due timers plus one task batch) — the
  /// loop latency a hosted session sees on top of its own step cost.
  obs::LatencyHistogram& dispatch_ns_;

  std::mutex mu_;  // guards everything below
  std::condition_variable wake_;
  std::vector<Task> posted_;
  struct Timer {
    TimerId id;
    Task task;
  };
  std::multimap<Clock::time_point, Timer> timers_;
  TimerId next_timer_id_ = 1;
  /// Set by stop(), cleared when run() returns.
  bool stop_ = false;
};

}  // namespace vhp::svc
