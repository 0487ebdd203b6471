// The one observability object of a co-simulation: metrics, the timeline
// (the run's one wall-clock recorder), the stall profiler (a view over the
// timeline's span totals) and the flight recorders, with the costly
// instruments behind a single switch. Every gauge is set by the thread that
// owns its state (a board after each pump, the master after each pump that
// ran cycles), so a dump taken on any thread, mid-run included, reads only
// atomics and locked totals.
//
// Ownership pattern: a fabric::Fabric owns the hubs and hands a Hub* to
// every layer it wires (CosimKernel, Board, instrumented channels): one
// master hub, plus one hub per node once there are two or more nodes whose
// identical board.* keys must be kept apart — a one-node fabric (every
// CosimSession) runs both sides on the master's hub. Components built
// without a fabric (unit tests, custom wiring) may pass nullptr and get a
// private, disarmed Hub — metrics still count (they back the stats()
// compatibility views), spans and wall-time profiling stay off.
#pragma once

#include <span>
#include <string>
#include <utility>

#include "vhp/common/status.hpp"
#include "vhp/obs/flight_recorder.hpp"
#include "vhp/obs/metrics.hpp"
#include "vhp/obs/stall_profiler.hpp"
#include "vhp/obs/timeline.hpp"

namespace vhp::obs {

struct ObsConfig {
  /// Flight recorder: independent of the switch below — ring-only frame
  /// capture is cheap enough to leave on while the costly instruments stay
  /// off.
  FlightRecorderConfig record{};
  /// The span recorder; `timeline.enabled` is the one switch for every
  /// *costly* instrument (`observability()` sets it): span rings with
  /// round ids stamped on the CLOCK traffic (their per-phase totals are
  /// the stall buckets), the sync-RTT and dev-read histograms, per-frame
  /// link accounting. Disarmed, each costs one branch per call site and every
  /// frame carries round 0. Plain metric counters are always
  /// live — they are the components' stats() backing store and cost one
  /// relaxed increment each.
  TimelineConfig timeline{};

  /// ring_spans > 0; `owner` prefixes the message.
  [[nodiscard]] Status validate(std::string_view owner) const;
};

class Hub {
 public:
  explicit Hub(ObsConfig config = {});

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  /// The one switch: ObsConfig::timeline.enabled.
  [[nodiscard]] bool enabled() const { return timeline_.enabled(); }
  [[nodiscard]] const ObsConfig& config() const { return config_; }

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  /// The stall buckets: read-only sums of the timeline's kSimulate and
  /// kBarrier spans.
  [[nodiscard]] StallProfiler& profiler() { return profiler_; }

  /// Per-side flight recorders (rings stay empty unless config.record is
  /// enabled). The session wires these into the link via net::record_link.
  [[nodiscard]] FlightRecorder& hw_recorder() { return hw_recorder_; }
  [[nodiscard]] FlightRecorder& board_recorder() { return board_recorder_; }

  /// The wall-clock recorder and the epoch every stamp of this hub uses
  /// (rings stay empty unless config.timeline is enabled). Coordinator and
  /// board resolve their SpanSinks here.
  [[nodiscard]] Timeline& timeline() { return timeline_; }

  /// Refreshes the derived gauges (collect()), then serializes every
  /// instrument to JSON.
  /// `node_prefix` is prepended to every key ("node0." makes
  /// "board.acks_sent" into "node0.board.acks_sent"), so the per-node hubs
  /// of a fabric merge into one document without key collisions — see
  /// merged_metrics_json().
  [[nodiscard]] std::string metrics_json(std::string_view node_prefix = {});
  Status write_metrics_json(const std::string& path);

  /// Sets the gauges derived from this hub's own instruments (profiler
  /// buckets, recorder and span counts) without serializing. Thread-safe:
  /// it reads only the timeline's and recorders' locked totals.
  /// merged_metrics_json() calls this per hub before emitting the combined
  /// document.
  void collect();

  /// The run as Chrome trace_event JSON (obs::chrome_trace_json): the
  /// timeline's spans plus one instant per frame in each armed recorder.
  [[nodiscard]] std::string trace_json() const;
  Status write_trace_json(const std::string& path) const;

 private:
  ObsConfig config_;
  MetricsRegistry metrics_;
  Timeline timeline_;  // before the recorders: they stamp on its epoch
  StallProfiler profiler_;
  FlightRecorder hw_recorder_;
  FlightRecorder board_recorder_;
};

/// Writes `text` to `path`, replacing the file: the one writer behind every
/// metrics and trace dump.
Status write_text_file(const std::string& path, const std::string& text);

/// One metrics document spanning several hubs: each entry's prefix is
/// prepended to its hub's keys ("" for the lead hub, "node0."/"node1."/...
/// for the per-node hubs of a fabric). Runs every hub's collect() first.
[[nodiscard]] std::string merged_metrics_json(
    std::span<const std::pair<std::string, Hub*>> hubs);

}  // namespace vhp::obs
