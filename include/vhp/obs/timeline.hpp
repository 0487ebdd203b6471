// Cross-node causal timeline for the co-simulation fabric (DESIGN.md §7.2).
//
// The paper's headline cost metric is slowdown versus real time; the barrier
// histograms say *that* a round was slow, this layer says *why*. Every
// barrier round gets a round id (stamped on CLOCK_TICK, echoed on TIME_ACK;
// 0 on the wire means unstamped), and both sides record
// per-round SpanRecords into fixed-size rings: the coordinator's scatter /
// gather / per-node wait phases and each board's compute (tick-rx → ack-tx)
// and frozen phases. The analyzer joins the spans on (round, node) and
// decomposes fabric wall-clock into compute / wait / transport per node,
// names the per-round straggler, and reports the slowdown factor.
//
// The timeline is also the run's one wall-clock recorder: the boards add
// their RTOS thread slices and driver reads, the master its simulate
// stretches, the coordinator its evictions and rejoins, and the flight
// recorders stamp frames against the same epoch, so chrome_trace_json()
// lays all of them on one clock. Per-phase span totals outlive the ring:
// the stall profiler's buckets are those totals.
//
// Cost model (flight-recorder discipline): when disabled — the default —
// every record call is one branch on a const bool, no clock read. When
// enabled, a record is two steady_clock reads bracketing the phase plus one
// mutex-guarded store into a pre-sized ring; the ring overwrites oldest and
// counts drops, so a forgotten timeline can never grow without bound.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "vhp/common/types.hpp"

namespace vhp::obs {

class MetricsRegistry;

/// Phase of one recorded span. The first six are the phases of a barrier
/// round, on either side of the link; the rest annotate the run and are
/// ignored by the round analysis (is_round_phase).
enum class SpanPhase : u8 {
  kScatter = 0,   // coordinator: CLOCK_TICK sends for this round
  kGather = 1,    // coordinator: first send until last TIME_ACK
  kNodeWait = 2,  // coordinator: node's tick send until its ack arrival
  kCompute = 3,   // board: tick receive until ack send (granted execution)
  kFrozen = 4,    // board: ack send until the next tick receive
  kBarrier = 5,   // coordinator: the whole round (scatter + gather)
  kSlice = 6,     // board: one RTOS thread holds the virtual CPU
  kDevRead = 7,   // board: a driver read, request sent until response taken
  kEvict = 8,     // coordinator: node evicted (zero length)
  kRejoin = 9,    // coordinator: node rejoined (zero length)
  kSimulate = 10,  // master: the cycles run between two barriers
};
inline constexpr std::size_t kSpanPhaseCount = 11;

[[nodiscard]] std::string_view to_string(SpanPhase p);

/// True for the six barrier-round phases the analyzer joins.
[[nodiscard]] bool is_round_phase(SpanPhase p);

/// One recorded phase of one round on one node. Timestamps are nanoseconds
/// on the owning Timeline's epoch (fabric aligns all node epochs to the
/// master's, so spans from different rings compare directly).
struct SpanRecord {
  u64 round = 0;
  u32 node = 0;
  SpanPhase phase = SpanPhase::kBarrier;
  u64 start_ns = 0;
  u64 end_ns = 0;
  /// Master sim-cycle of the round's grant (ClockTick::sim_cycle); lets the
  /// analyzer convert wall spans into the paper's slowdown factor.
  u64 cycle = 0;
  /// Phase argument: the device address of a kDevRead, the span_label() of
  /// a kSlice's thread name; 0 otherwise.
  u64 arg = 0;
};

/// Process-wide interned span names (RTOS thread names), so a label id
/// means the same name in every hub's rings — a fabric merges them.
[[nodiscard]] u32 span_label(std::string_view name);
[[nodiscard]] std::string span_label_name(u64 label);

struct TimelineConfig {
  /// The one observability switch (ObsConfig, `observability()`): arms the
  /// span rings and every other costly instrument of the hub. Off keeps
  /// every record call a single branch and every CLOCK/TIME_ACK frame at
  /// round 0 (no round stamped).
  bool enabled = false;
  /// Ring capacity per sink (> 0; sessions and fabrics validate it);
  /// oldest spans are overwritten and counted.
  std::size_t ring_spans = 1u << 13;
};

/// Spans of one phase recorded so far, and their summed durations.
struct PhaseTotal {
  u64 count = 0;
  u64 ns = 0;
};

/// Fixed-size overwrite-oldest span ring. One sink per recording thread
/// (master, coordinator, each board, each board's RTOS slices) so hot-path
/// contention is a short uncontended lock; snapshot() and the totals are
/// the only cross-thread readers.
class SpanSink {
 public:
  SpanSink(const TimelineConfig& config, std::string name);

  SpanSink(const SpanSink&) = delete;
  SpanSink& operator=(const SpanSink&) = delete;

  [[nodiscard]] bool enabled() const { return config_.enabled; }
  [[nodiscard]] const std::string& name() const { return name_; }

  void record(const SpanRecord& span);

  [[nodiscard]] u64 recorded() const;
  [[nodiscard]] u64 dropped() const;
  /// Every span of `phase` ever recorded here, overwritten ones included.
  [[nodiscard]] PhaseTotal total(SpanPhase phase) const;

  /// Ring contents oldest-first (empty for a zero-capacity ring).
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

 private:
  TimelineConfig config_;
  std::string name_;

  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;
  std::size_t next_ = 0;
  u64 recorded_ = 0;
  u64 dropped_ = 0;
  std::array<PhaseTotal, kSpanPhaseCount> totals_{};
};

/// The per-hub timeline: a shared epoch plus named sinks. Owned by obs::Hub;
/// the fabric re-bases every node hub's epoch onto the master's at
/// construction so cross-hub spans share one clock.
class Timeline {
 public:
  explicit Timeline(TimelineConfig config = {});

  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  [[nodiscard]] bool enabled() const { return config_.enabled; }
  [[nodiscard]] const TimelineConfig& config() const { return config_; }

  /// Nanoseconds since epoch (steady clock). Callers on the hot path must
  /// branch on enabled() first — this always reads the clock.
  [[nodiscard]] u64 now_ns() const;
  /// `t` in nanoseconds since epoch (a watchdog's clock read as a stamp).
  [[nodiscard]] u64 ns_at(std::chrono::steady_clock::time_point t) const;

  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const;
  void set_epoch(std::chrono::steady_clock::time_point epoch);

  /// Get-or-create a named sink ("master", "fabric", "board",
  /// "board.rtos"). The reference stays valid for the Timeline's lifetime;
  /// resolve once at construction.
  [[nodiscard]] SpanSink& sink(std::string_view name);

  /// SpanSink::total(phase) summed over the sinks.
  [[nodiscard]] PhaseTotal total(SpanPhase phase) const;

  /// All sinks' rings merged, sorted by start_ns.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Gauges `timeline.spans` / `timeline.dropped_spans` (totals across
  /// sinks); called from Hub::collect() when the timeline is enabled.
  void export_to(MetricsRegistry& registry) const;

 private:
  TimelineConfig config_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;  // guards the sink list, not the sinks
  std::vector<std::unique_ptr<SpanSink>> sinks_;
};

/// One barrier round as the analyzer sees it.
struct RoundSummary {
  u64 round = 0;
  u64 cycle = 0;     // grant sim-cycle
  u64 start_ns = 0;  // earliest span start in the round
  u64 end_ns = 0;    // latest span end
  u32 nodes = 0;     // parties seen this round
  /// Straggler chain: the node whose ack closed the round, and how long the
  /// coordinator waited on it beyond the fastest node's ack.
  u32 straggler = 0;
  u64 straggler_wait_ns = 0;
};

/// Per-node wall-clock attribution across the analyzed window.
struct NodeAttribution {
  u32 node = 0;
  std::string name;
  u64 rounds = 0;
  u64 wait_ns = 0;       // coordinator-side: tick send → ack arrival
  u64 compute_ns = 0;    // board-side: tick receive → ack send
  u64 transport_ns = 0;  // wait − compute, clamped at 0 (wire + queueing)
  u64 straggler_rounds = 0;  // rounds this node closed
};

/// Whole-window decomposition: where did the fabric's wall-clock go?
struct TimelineAnalysis {
  std::vector<RoundSummary> rounds;
  std::vector<NodeAttribution> nodes;
  u64 wall_ns = 0;            // first span start → last span end
  u64 barrier_wall_ns = 0;    // Σ per-round (max wait across nodes)
  u64 master_compute_ns = 0;  // wall − barrier_wall: master sim + data
  u64 virtual_cycles = 0;     // last grant cycle − first grant cycle
  /// Wall time per simulated cycle; with the 1 GHz reference (1 cycle ≡
  /// 1 ns, DESIGN.md §7.2) this is the paper's slowdown factor.
  double slowdown = 0.0;
  /// |Σ attributed − wall| / wall: how well the per-node decomposition
  /// reconciles with total fabric wall-clock (acceptance gate: ≤ 5%).
  double reconciliation_error = 0.0;
};

/// Joins coordinator- and board-side spans on (round, node). `node_names`
/// maps node id → display name (missing ids render as "node<i>").
[[nodiscard]] TimelineAnalysis analyze_spans(
    const std::vector<SpanRecord>& spans,
    const std::map<u32, std::string>& node_names = {});

/// Per-round table: round id, grant cycle, duration, straggler.
[[nodiscard]] std::string timeline_report_text(const TimelineAnalysis& a,
                                               std::size_t max_rounds = 32);

/// Critical-path report: per-node compute/wait/transport decomposition,
/// straggler ranking, slowdown factor, reconciliation.
[[nodiscard]] std::string critical_report_text(const TimelineAnalysis& a);

/// The analysis as one JSON object (rounds elided, per-node attribution +
/// totals); Fabric::metrics_json() embeds it under a "timeline" key.
[[nodiscard]] std::string timeline_analysis_json(const TimelineAnalysis& a);

}  // namespace vhp::obs
