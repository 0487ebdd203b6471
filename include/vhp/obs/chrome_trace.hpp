// The one Chrome trace_event writer (chrome://tracing, Perfetto): the
// paper's Figure 2/4 timeline of a run from the two sources that stamp on
// one epoch, the hub's Timeline spans and its flight recorders' frames.
// Process row "master" holds the coordinator and simulate tracks; each
// node's row holds its "rounds", "rtos", "driver", "hw frames" and "board
// frames" tracks (DESIGN.md §7).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "vhp/common/types.hpp"
#include "vhp/obs/recording.hpp"
#include "vhp/obs/timeline.hpp"

namespace vhp::obs {

/// Renders `spans` as complete events and every frame of `recordings` as an
/// instant on its node's side track (meta.side "hw" or anything else for
/// the board side). Timestamps are microseconds with nanosecond fractions;
/// `node_names` maps node ids to process names (missing: "node<i>").
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<SpanRecord>& spans,
    const std::vector<Recording>& recordings = {},
    const std::map<u32, std::string>& node_names = {});

}  // namespace vhp::obs
