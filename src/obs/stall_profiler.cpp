#include "vhp/obs/stall_profiler.hpp"

#include <string>
#include <utility>

#include "vhp/obs/metrics.hpp"

namespace vhp::obs {

PhaseTotal StallProfiler::total(Bucket bucket) const {
  if (bucket == Bucket::kSimulate) return timeline_.total(SpanPhase::kSimulate);
  if (bucket == Bucket::kAckWait) return timeline_.total(SpanPhase::kBarrier);
  return {};
}

void StallProfiler::export_to(MetricsRegistry& metrics) const {
  for (const auto& [bucket, name] :
       {std::pair{Bucket::kSimulate, "simulate"},
        std::pair{Bucket::kDataService, "data_service"},
        std::pair{Bucket::kAckWait, "ack_wait"}}) {
    const PhaseTotal t = total(bucket);
    const std::string base = std::string("cosim.wall.") + name;
    metrics.gauge(base + "_ns").set(static_cast<i64>(t.ns));
    metrics.gauge(base + "_intervals").set(static_cast<i64>(t.count));
  }
}

}  // namespace vhp::obs
