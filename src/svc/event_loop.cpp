#include "vhp/svc/event_loop.hpp"

#include <algorithm>
#include <utility>

namespace vhp::svc {

namespace {

u64 mono_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

EventLoop::EventLoop()
    : iterations_(hub_.metrics().counter("svc.loop.iterations")),
      tasks_run_(hub_.metrics().counter("svc.loop.tasks")),
      timers_fired_(hub_.metrics().counter("svc.loop.timers")),
      dispatch_ns_(hub_.metrics().histogram("svc.loop.dispatch_ns")) {}

void EventLoop::post(Task task) {
  {
    std::scoped_lock lock(mu_);
    posted_.push_back(std::move(task));
  }
  wake_.notify_one();
}

EventLoop::TimerId EventLoop::schedule(std::chrono::nanoseconds delay,
                                       Task task) {
  const auto deadline =
      Clock::now() + std::max(delay, std::chrono::nanoseconds{0});
  bool new_earliest = false;
  TimerId id = 0;
  {
    std::scoped_lock lock(mu_);
    id = next_timer_id_++;
    new_earliest = timers_.empty() || deadline < timers_.begin()->first;
    timers_.emplace(deadline, Timer{id, std::move(task)});
  }
  // A sleeping loop re-reads the earliest deadline.
  if (new_earliest) wake_.notify_one();
  return id;
}

bool EventLoop::cancel(TimerId id) {
  std::scoped_lock lock(mu_);
  const auto it = std::find_if(timers_.begin(), timers_.end(), [id](auto& t) {
    return t.second.id == id;
  });
  if (it == timers_.end()) return false;
  timers_.erase(it);
  return true;
}

void EventLoop::run() {
  const auto due = [this] {
    return !timers_.empty() && timers_.begin()->first <= Clock::now();
  };
  std::unique_lock lock(mu_);
  while (!stop_) {
    if (posted_.empty() && !due()) {
      if (timers_.empty()) {
        wake_.wait(lock);
      } else {
        wake_.wait_until(lock, timers_.begin()->first);
      }
      continue;  // re-check: a post, a stop, a due timer or a spurious wake
    }
    iterations_.inc();
    const u64 t0 = mono_ns();
    // Callbacks run, and are destroyed, outside the lock: they may post,
    // schedule and cancel.
    while (due()) {
      Task task = std::move(timers_.begin()->second.task);
      timers_.erase(timers_.begin());
      lock.unlock();
      timers_fired_.inc();
      task();
      task = nullptr;
      lock.lock();
    }
    // One batch: tasks posted *by* these tasks run in the next iteration.
    std::vector<Task> batch;
    batch.swap(posted_);
    lock.unlock();
    for (Task& task : batch) {
      tasks_run_.inc();
      task();
    }
    batch.clear();
    dispatch_ns_.record_ns(mono_ns() - t0);
    lock.lock();
  }
  stop_ = false;
}

void EventLoop::stop() {
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
  }
  wake_.notify_one();
}

}  // namespace vhp::svc
