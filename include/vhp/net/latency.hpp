// Link-latency emulation.
//
// The paper's board and host talk over 100 Mbit Ethernet through the eCos
// IP stack — a link whose latency is orders of magnitude above loopback.
// Reproducing the paper's absolute overhead ratios therefore needs a slower
// link; this decorator emulates one *uniformly* (every frame on the wrapped
// channel is delayed, not just sync packets), with optional deterministic
// jitter.
//
// Mechanism: the sending side prepends a monotonic timestamp plus the
// per-frame target latency; the receiving side strips it and holds the
// frame until its delivery time: try_recv() reports nothing pending before
// then, and held_until() tells a waiter when to poll again. Both endpoints of
// a link direction must be wrapped (wrap_link_pair does this for a whole
// 3-channel pair).
#pragma once

#include <chrono>

#include "vhp/common/rng.hpp"
#include "vhp/net/channel.hpp"

namespace vhp::net {

struct LinkEmulationConfig {
  /// One-way frame latency added on top of the real transport.
  std::chrono::microseconds latency{0};
  /// Uniform jitter in [0, jitter] added per frame (deterministic, seeded).
  std::chrono::microseconds jitter{0};
  u64 seed = 1;

  [[nodiscard]] bool enabled() const {
    return latency.count() > 0 || jitter.count() > 0;
  }
};

/// Wraps one channel endpoint. Frames sent through it carry a delivery
/// deadline; frames received through it are held until their deadline.
/// Both peers must be wrapped with the same config for symmetric delay.
[[nodiscard]] ChannelPtr emulate_latency(ChannelPtr inner,
                                         LinkEmulationConfig config);

/// Wraps all six endpoints of a link pair.
[[nodiscard]] LinkPair emulate_latency(LinkPair pair,
                                       LinkEmulationConfig config);

}  // namespace vhp::net
