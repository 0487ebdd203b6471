// Signals (sc_signal equivalent): delta-delayed single-driver channels.
//
// A write stores the next value and requests an update; the kernel applies
// updates after the evaluation phase, and only a real value change notifies
// the value-changed (and, for bool, posedge/negedge) events in the next
// delta cycle. This evaluate/update split is what makes zero-delay feedback
// loops in the HDL model well defined.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "vhp/sim/event.hpp"
#include "vhp/sim/time.hpp"

namespace vhp::sim {

class Kernel;

class SignalBase {
 public:
  SignalBase(Kernel& kernel, std::string name);
  virtual ~SignalBase();

  SignalBase(const SignalBase&) = delete;
  SignalBase& operator=(const SignalBase&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Kernel& kernel() const { return kernel_; }
  [[nodiscard]] Event& value_changed_event() { return changed_; }

  /// Tracing hook, invoked in the update phase after the value changed.
  void add_change_hook(std::function<void(SimTime)> hook) {
    change_hooks_.push_back(std::move(hook));
  }

 protected:
  friend class Kernel;
  friend class Partition;

  /// Applies the pending value; called by the kernel in the update phase.
  virtual void update() = 0;

  void request_update();
  /// Called by concrete signals from update() after a REAL value change.
  void notify_change_hooks();

  Kernel& kernel_;
  std::string name_;
  Event changed_;
  bool update_requested_ = false;
  std::vector<std::function<void(SimTime)>> change_hooks_;
  /// --- island partitioning (see vhp/sim/partition.hpp) ---
  std::uint64_t entity_id_ = 0;
  std::uint32_t affinity_ = 0;  // 0 = ungrouped
  std::uint32_t island_ = kNoIsland;
};

template <typename T>
class Signal : public SignalBase {
 public:
  Signal(Kernel& kernel, std::string name, T init = T{})
      : SignalBase(kernel, std::move(name)), cur_(init), next_(init) {}

  [[nodiscard]] const T& read() const { return cur_; }

  void write(const T& value) {
    next_ = value;
    request_update();
  }

 protected:
  void update() override {
    if (next_ == cur_) return;
    cur_ = next_;
    changed_.notify_delta();
    this->notify_change_hooks();
    this->on_changed();
  }

  /// Extension point for the bool specialization's edge events.
  virtual void on_changed() {}

  T cur_;
  T next_;
};

/// Boolean signal with edge events (the sc_signal<bool> special case).
class BoolSignal : public Signal<bool> {
 public:
  BoolSignal(Kernel& kernel, std::string name, bool init = false);

  [[nodiscard]] Event& posedge_event() { return posedge_; }
  [[nodiscard]] Event& negedge_event() { return negedge_; }

 protected:
  void on_changed() override;

  Event posedge_;
  Event negedge_;
};

/// Free-running clock: a BoolSignal with a posedge at start_time,
/// start_time + period, ... (start_time counts from construction) and a
/// negedge (period + 1) / 2 after each posedge. The period must be at least
/// 2, so both phases last at least one time unit (SystemC's sc_clock
/// likewise refuses a zero high or low time); a smaller one throws
/// std::invalid_argument.
///
/// A clock runs on one of two paths, chosen from whether anything listens:
///   * listened — a process is sensitive to, or waits on, its value-changed,
///     posedge or negedge event, or it has a change hook (a VCD trace, an
///     interrupt watch): a generator process toggles it from a timed tick
///     event, one delta cycle per edge, exactly as an SC_METHOD would;
///   * unlistened — no tick is armed and no process runs. The level is a
///     closed form of start, period and time. When the kernel visits a time
///     for another reason, the clock reads its pre-edge level in that
///     time's first evaluation phase and an edge at that time lands in the
///     first delta's update phase, where the generator's write would land;
///     run_until() leaves it at its level after the last edge at or before
///     now().
/// The kernel checks for listeners when it advances time and when an edge
/// fires, never on a read: a clock starts on the generator path, an edge
/// that fires with no listener left drops it to the lazy path, and a
/// listener that appears later (a spawned sensitive process, a dynamic
/// wait, a change hook) re-arms the tick at the clock's next edge.
///
/// One ordering difference remains: a re-armed tick is scheduled at the
/// re-arm time, so among timed notifications due at the same instant it
/// fires after any that were scheduled between the clock's previous edge
/// and the re-arm (the generator would have scheduled it at that edge).
/// Clocks that are always listened, and clocks that are never listened,
/// run exactly as a generator-only clock would.
class Clock : public BoolSignal {
 public:
  Clock(Kernel& kernel, std::string name, SimTime period,
        SimTime start_time = 0);
  ~Clock() override;

  [[nodiscard]] SimTime period() const { return period_; }

 private:
  friend class Kernel;

  /// The generator process body (listened path).
  void toggle();
  [[nodiscard]] bool listened() const;
  /// The level after every edge at or before `t`.
  [[nodiscard]] bool level_at(SimTime t) const;
  /// The first edge strictly after `t`.
  [[nodiscard]] SimTime next_edge_after(SimTime t) const;
  /// Lazy path, the kernel advancing to `t` (> now): take the level just
  /// before `t`, and request an edge at `t` as an update.
  void visit(SimTime t);
  /// Lazy path, the kernel parking at `t` (run_until's end): take the level
  /// after every edge at or before `t`.
  void settle(SimTime t);
  /// Back to the listened path: arm the tick at the next edge after now.
  void rearm();

  SimTime period_;
  SimTime high_;    // period_ - period_ / 2
  SimTime origin_;  // absolute time of the first posedge
  /// True while the tick event is pending (the generator path).
  bool armed_ = true;
  Event tick_;
};

}  // namespace vhp::sim
