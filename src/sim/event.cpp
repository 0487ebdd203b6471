#include "vhp/sim/event.hpp"

#include "vhp/sim/kernel.hpp"
#include "vhp/sim/process.hpp"

namespace vhp::sim {

Event::Event(Kernel& kernel, std::string name)
    : kernel_(kernel), name_(std::move(name)) {
  kernel_.register_event(this);
}

Event::~Event() {
  cancel();
  kernel_.forget_event(this);
}

void Event::notify() {
  // Immediate notification: fire right now, within the evaluation phase.
  // Pending delta/timed notifications are unaffected (SystemC semantics:
  // immediate does not cancel, but the per-process runnable flag dedupes).
  trigger();
}

void Event::notify_delta() {
  if (pending_ == Pending::kDelta) return;
  if (pending_ == Pending::kTimed) {
    // Delta (earlier) overrides timed (later); invalidate the queue entry.
    ++pending_token_;
  }
  pending_ = Pending::kDelta;
  kernel_.schedule_delta(this);
}

void Event::notify_at(SimTime delay) {
  const SimTime abs = kernel_.now() + delay;
  if (pending_ == Pending::kDelta) return;  // delta is always earlier
  if (pending_ == Pending::kTimed && pending_time_ <= abs) return;
  ++pending_token_;  // invalidate any previously queued (later) entry
  pending_ = Pending::kTimed;
  pending_time_ = abs;
  kernel_.schedule_timed(this, abs, pending_token_);
}

void Event::cancel() {
  ++pending_token_;
  pending_ = Pending::kNone;
}

void Event::trigger() {
  pending_ = Pending::kNone;
  for (Process* p : static_sensitive_) p->trigger_from(*this);
  // One-shot: waiting processes resume once, then re-register if needed.
  // Stale registrations (a wait_any lost to another event) are filtered by
  // the token inside trigger_dynamic. trigger_dynamic only marks processes
  // runnable, so no waiter can register during the walk, and clearing in
  // place keeps the vector's capacity for the next wait.
  for (auto& [p, token] : dynamic_waiters_) p->trigger_dynamic(*this, token);
  dynamic_waiters_.clear();
}

}  // namespace vhp::sim
