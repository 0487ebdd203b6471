// Where does run_cycles() wall time actually go?
//
// The paper's overhead numbers (Figures 5/6) fold three very different costs
// into one wall-clock figure: executing the HDL model, servicing driver DATA
// traffic, and stalling for the board's TIME_ACK. The StallProfiler splits
// them, as a read-only view over its hub's timeline: `simulate` is the sum
// of the master's kSimulate spans (the cycles run between two barriers),
// `ack_wait` the sum of the coordinator's kBarrier spans (scatter to the
// last ack). `data_service` reads 0: a timed master polls no DATA inside a
// quantum (the barrier's DATA fence serves it), and an untimed one's
// per-cycle poll falls inside its simulate span. The buckets land in the
// metrics dump (cosim.wall.<bucket>_ns), so a BENCH trajectory can say "94%
// of the overhead at T_sync=10 is ack-wait" instead of just "it is 100x
// slower".
//
// Disarmed (default) every bucket reads 0: the timeline records nothing.
#pragma once

#include <cstddef>

#include "vhp/common/types.hpp"
#include "vhp/obs/timeline.hpp"

namespace vhp::obs {

class MetricsRegistry;

class StallProfiler {
 public:
  enum class Bucket : std::size_t {
    kSimulate = 0,     // the master's kSimulate spans
    kDataService = 1,  // 0: inside the simulate spans or the barriers
    kAckWait = 2,      // the coordinator's kBarrier spans
  };

  explicit StallProfiler(const Timeline& timeline) : timeline_(timeline) {}

  StallProfiler(const StallProfiler&) = delete;
  StallProfiler& operator=(const StallProfiler&) = delete;

  /// The timeline's switch: disarmed, every bucket stays 0.
  [[nodiscard]] bool enabled() const { return timeline_.enabled(); }

  [[nodiscard]] u64 total_ns(Bucket bucket) const {
    return total(bucket).ns;
  }

  /// Publishes the buckets as gauges: cosim.wall.<bucket>_ns and
  /// cosim.wall.<bucket>_intervals (the span count).
  void export_to(MetricsRegistry& metrics) const;

 private:
  [[nodiscard]] PhaseTotal total(Bucket bucket) const;

  const Timeline& timeline_;
};

}  // namespace vhp::obs
