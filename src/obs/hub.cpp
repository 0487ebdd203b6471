#include "vhp/obs/hub.hpp"

#include <fstream>

#include "vhp/common/format.hpp"
#include "vhp/obs/chrome_trace.hpp"
#include "vhp/obs/recording.hpp"

namespace vhp::obs {

Status write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return Status{StatusCode::kUnavailable, "cannot open " + path};
  f << text;
  f.close();
  if (!f) return Status{StatusCode::kUnavailable, "write failed: " + path};
  return Status::Ok();
}

Status ObsConfig::validate(std::string_view owner) const {
  if (timeline.ring_spans == 0) {
    return Status{StatusCode::kInvalidArgument,
                  strformat("{}: obs.timeline.ring_spans must be > 0",
                            owner)};
  }
  return Status::Ok();
}

Hub::Hub(ObsConfig config)
    : config_(config),
      timeline_(config.timeline),
      profiler_(timeline_),
      hw_recorder_(config.record, "hw", timeline_),
      board_recorder_(config.record, "board", timeline_) {}

void Hub::collect() {
  profiler_.export_to(metrics_);
  hw_recorder_.export_to(metrics_);
  board_recorder_.export_to(metrics_);
  // A truncated timeline is self-announcing: the dump carries the
  // overwritten-span count next to the span count.
  if (timeline_.enabled()) timeline_.export_to(metrics_);
}

std::string Hub::trace_json() const {
  std::vector<Recording> recordings;
  for (const FlightRecorder* recorder : {&hw_recorder_, &board_recorder_}) {
    if (recorder->enabled()) {
      recordings.push_back({{recorder->side(), {}}, recorder->snapshot()});
    }
  }
  return chrome_trace_json(timeline_.snapshot(), recordings);
}

Status Hub::write_trace_json(const std::string& path) const {
  return write_text_file(path, trace_json());
}

std::string Hub::metrics_json(std::string_view node_prefix) {
  collect();
  return metrics_.to_json(node_prefix);
}

std::string merged_metrics_json(
    std::span<const std::pair<std::string, Hub*>> hubs) {
  std::string counters, gauges, histograms;
  bool first_counter = true, first_gauge = true, first_histogram = true;
  for (const auto& [prefix, hub] : hubs) {
    hub->collect();
    hub->metrics().append_json_sections(counters, gauges, histograms, prefix,
                                        first_counter, first_gauge,
                                        first_histogram);
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + histograms + "}}";
}

Status Hub::write_metrics_json(const std::string& path) {
  return write_text_file(path, metrics_json());
}

}  // namespace vhp::obs
