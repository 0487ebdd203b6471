// Deterministic, seed-driven fault plans (DESIGN.md §9).
//
// A FaultPlan is a declarative list of rules — "drop 5% of CLOCK frames in
// both directions", "blackout node 2's link for 40 frames once" — plus one
// seed. Compiling it into a FaultSchedule produces a decision engine whose
// verdicts depend only on (seed, rule set, per-lane frame index): two runs
// with the same plan see the identical fault sequence regardless of wall
// clock, thread scheduling or transport, which is what lets the chaos suite
// assert bit-exact convergence against a clean baseline.
//
// Plans come from code (designated initializers) or JSON (see plan_from_json;
// the README "chaos testing" section shows the format). The schedule is
// consumed by the fault::inject(...) link decorator and reports everything it
// does through the obs::Hub (fault.injected.* counters) and an optional
// observer hook (flight-recorder markers, which the Chrome trace renders as
// fault instants).
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "vhp/common/rng.hpp"
#include "vhp/common/status.hpp"
#include "vhp/obs/flight_recorder.hpp"
#include "vhp/obs/hub.hpp"

namespace vhp::fault {

enum class FaultKind : u8 {
  kDrop = 0,       // frame vanishes
  kDuplicate,      // frame delivered twice
  kReorder,        // frame swaps with the next frame on its lane
  kDelay,          // frame held for `delay` wall time, then delivered
  kCorrupt,        // one payload byte XOR-flipped
  kStall,          // lane frozen for `delay` wall time (frame intact)
  kDisconnect,     // lane blackout: this and the next `burst`-1 frames vanish
};

[[nodiscard]] std::string_view to_string(FaultKind kind);
[[nodiscard]] std::optional<FaultKind> fault_kind_from_name(
    std::string_view name);

/// FaultRule::node wildcard: the rule applies to every node's link.
inline constexpr u32 kAnyNode = ~u32{0};

/// One injection rule. A rule matches a lane — the (node, port, direction)
/// triple of a frame — and fires on each matching frame with `probability`,
/// within an optional frame-index window and total-event budget.
struct FaultRule {
  FaultKind kind = FaultKind::kDrop;
  u32 node = kAnyNode;                   // kAnyNode = every node
  std::optional<obs::LinkPort> port;     // nullopt = every port
  std::optional<obs::LinkDir> dir;       // nullopt = both directions
  double probability = 1.0;              // per matching frame
  u64 first_frame = 0;                   // lane frame index window [first,
  u64 last_frame = ~u64{0};              //   last], inclusive
  u64 max_events = ~u64{0};              // total firings across all lanes
  std::chrono::microseconds delay{500};  // kDelay / kStall hold time
  u64 burst = 8;                         // kDisconnect blackout length
};

struct FaultPlan {
  u64 seed = 1;
  std::vector<FaultRule> rules;

  [[nodiscard]] bool armed() const { return !rules.empty(); }
  /// True when no rule can lose or mutate a frame (only kDelay / kStall):
  /// such a plan is safe to run without the recovery layer.
  [[nodiscard]] bool lossless() const;
  [[nodiscard]] Status validate() const;

  FaultPlan& add(FaultRule rule) {
    rules.push_back(rule);
    return *this;
  }
};

/// JSON round trip. The format is a flat object per rule:
///   {"seed": 7, "rules": [
///     {"kind": "drop", "port": "clock", "probability": 0.05},
///     {"kind": "disconnect", "node": 1, "burst": 40, "max_events": 1}]}
/// Unknown keys are rejected-by-omission (ignored); missing keys take the
/// FaultRule defaults. `dir` is "tx" | "rx" (hw-side view), `port` is
/// "data" | "int" | "clock", `delay_us` maps to FaultRule::delay. A
/// numeric key that is present but not a number that fits its field fails
/// the parse, naming the key and its line.
[[nodiscard]] Result<FaultPlan> plan_from_json(std::string_view json);
[[nodiscard]] std::string plan_to_json(const FaultPlan& plan);
/// Reads a plan file (JSON as above).
[[nodiscard]] Result<FaultPlan> load_plan(const std::string& path);

/// One fault decision, as reported to counters / observer and
/// consumed by the injecting channel decorator.
struct FaultEvent {
  FaultKind kind = FaultKind::kDrop;
  u32 node = 0;
  obs::LinkPort port = obs::LinkPort::kData;
  obs::LinkDir dir = obs::LinkDir::kTx;
  u64 frame_index = 0;                  // per-lane index of the hit frame
  std::chrono::microseconds delay{0};   // kDelay / kStall hold
  std::size_t corrupt_offset = 0;       // kCorrupt byte offset
  u8 corrupt_mask = 0xff;               // kCorrupt XOR mask
};

/// A compiled plan: one shared, thread-safe decision engine consulted by
/// every injector decorator of a session/fabric. Deterministic — each
/// (rule, lane) pair owns an Rng stream seeded from (plan seed, rule index,
/// lane), advanced once per matching frame.
class FaultSchedule {
 public:
  using Observer = std::function<void(const FaultEvent&)>;

  explicit FaultSchedule(FaultPlan plan, obs::Hub* hub = nullptr);

  FaultSchedule(const FaultSchedule&) = delete;
  FaultSchedule& operator=(const FaultSchedule&) = delete;

  [[nodiscard]] bool armed() const { return plan_.armed(); }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Called (under the schedule lock — keep it fast) for every injected
  /// fault; the session/fabric wires it to FlightRecorder::note_fault.
  void set_observer(Observer observer);

  /// Decides the fate of the next frame on lane (node, port, dir).
  /// Advances the lane's frame index; returns the fault to apply, or
  /// nullopt for clean passage. `frame_size` bounds kCorrupt's offset.
  [[nodiscard]] std::optional<FaultEvent> next(u32 node, obs::LinkPort port,
                                               obs::LinkDir dir,
                                               std::size_t frame_size);

  /// Total faults injected so far.
  [[nodiscard]] u64 injected() const;

 private:
  struct LaneRule {
    std::size_t rule_index = 0;
    Rng rng;
  };
  struct Lane {
    u64 frames = 0;          // frames seen on this lane
    u64 blackout_until = 0;  // kDisconnect: drop frames with index < this
    std::vector<LaneRule> rules;
  };

  Lane& lane_at(u32 node, obs::LinkPort port, obs::LinkDir dir);
  void report(const FaultEvent& event);

  FaultPlan plan_;
  obs::Hub* hub_ = nullptr;

  mutable std::mutex mu_;
  std::map<u64, Lane> lanes_;            // key packs (node, port, dir)
  std::vector<u64> rule_events_;         // firings per rule (max_events)
  u64 injected_ = 0;
  Observer observer_;
};

/// Compiles an armed plan; returns nullptr for an empty one so callers can
/// keep the zero-hop path trivial.
[[nodiscard]] std::shared_ptr<FaultSchedule> compile(const FaultPlan& plan,
                                                     obs::Hub* hub = nullptr);

}  // namespace vhp::fault
