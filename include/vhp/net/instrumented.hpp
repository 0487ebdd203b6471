// Observability decorator for co-simulation channels.
//
// Wraps any Channel so every frame is accounted in the MetricsRegistry
// (net.<side>.<port>.{tx,rx}_{frames,bytes}) — making the sync-traffic
// volume of Figures 5/6 directly readable from a metrics dump instead of
// inferred from wall time.
//
// The wrap is applied only when observability is on (it adds a virtual hop
// and a few relaxed increments per frame), so the disabled path keeps the
// transport untouched.
#pragma once

#include "vhp/net/channel.hpp"
#include "vhp/obs/flight_recorder.hpp"
#include "vhp/obs/hub.hpp"

namespace vhp::net {

/// Wraps one channel; `name` keys the metric series ("hw.data", ...).
[[nodiscard]] ChannelPtr instrument_channel(ChannelPtr inner, obs::Hub& hub,
                                            const std::string& name);

/// Wraps all three ports of a link; `side` is "hw" or "board".
[[nodiscard]] CosimLink instrument_link(CosimLink link, obs::Hub& hub,
                                        const std::string& side);

/// Flight-recorder decorator: every frame sent or received on the channel is
/// appended to `recorder`'s ring as `port` traffic on fabric node `node`
/// (0 for the classic two-party link). When the recorder is disabled this
/// returns `inner` unchanged — no decorator hop, same pointer (the
/// cheap-enough-to-leave-on contract from obs/flight_recorder.hpp).
[[nodiscard]] ChannelPtr record_channel(ChannelPtr inner,
                                        obs::FlightRecorder& recorder,
                                        obs::LinkPort port, u32 node = 0);

/// Wraps all three ports of one side's link with record_channel.
[[nodiscard]] CosimLink record_link(CosimLink link,
                                    obs::FlightRecorder& recorder,
                                    u32 node = 0);

}  // namespace vhp::net
