// Simulation events (sc_event equivalent).
//
// An Event is the kernel's unit of causality: processes are statically
// sensitive to events or dynamically wait on them; signals notify their
// value-changed events in the update phase. Notification kinds follow
// SystemC semantics: immediate (same evaluation phase), delta (next delta
// cycle), timed (future simulation time); a pending earlier notification
// overrides a later one.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "vhp/sim/time.hpp"

namespace vhp::sim {

class Kernel;
class Process;
class SignalBase;

/// Island id of an entity the partitioner has not assigned yet.
inline constexpr std::uint32_t kNoIsland = ~std::uint32_t{0};

class Event {
 public:
  explicit Event(Kernel& kernel, std::string name = {});
  ~Event();

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Immediate notification: triggers sensitive processes within the current
  /// evaluation phase. Never visible across delta cycles.
  void notify();

  /// Delta notification: triggers at the next delta cycle.
  void notify_delta();

  /// Timed notification `delay` time units from now. A pending earlier
  /// notification (delta or earlier timed) wins; a pending later timed
  /// notification is rescheduled.
  void notify_at(SimTime delay);

  /// Cancels any pending delta/timed notification.
  void cancel();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Kernel& kernel() const { return kernel_; }

 private:
  friend class Kernel;
  friend class Process;
  friend class ThreadProcess;
  friend class SignalBase;
  friend class BoolSignal;
  friend class Clock;
  friend class Partition;

  enum class Pending { kNone, kDelta, kTimed };

  /// Kernel callback: fire to all sensitive/waiting processes.
  void trigger();

  /// True while a process is statically sensitive to this event or waits
  /// on it (a stale wait_any registration counts until the next trigger).
  [[nodiscard]] bool listened() const {
    return !static_sensitive_.empty() || !dynamic_waiters_.empty();
  }

  Kernel& kernel_;
  std::string name_;
  /// --- island partitioning (see vhp/sim/partition.hpp) ---
  /// Sensitivity to a signal-owned event (value-changed / edge events,
  /// owner_signal_ set by the signal constructor) is the cut edge between
  /// islands; everything else glues its endpoints into one island.
  std::uint64_t entity_id_ = 0;
  std::uint32_t affinity_ = 0;  // 0 = ungrouped
  std::uint32_t island_ = kNoIsland;
  SignalBase* owner_signal_ = nullptr;
  Process* owner_process_ = nullptr;
  std::vector<Process*> static_sensitive_;
  /// One-shot waiters with their registration token: a thread waiting on
  /// several events at once (wait_any) registers on each; the token lets
  /// the losers' stale registrations be discarded on their next trigger.
  std::vector<std::pair<Process*, std::uint64_t>> dynamic_waiters_;
  Pending pending_ = Pending::kNone;
  SimTime pending_time_ = 0;
  std::uint64_t pending_token_ = 0;  // invalidates stale queue entries
};

}  // namespace vhp::sim
