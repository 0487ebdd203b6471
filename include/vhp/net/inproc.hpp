// In-process channel: a pair of bounded FIFO queues guarded by a mutex.
// Deterministic, and syscall-free until a waiter arms the doorbell; the
// unit-test transport. Implements the same Channel contract as the TCP
// transport.
#pragma once

#include "vhp/net/channel.hpp"

namespace vhp::net {

/// Creates a connected pair of in-process channel endpoints.
/// `capacity` bounds each direction's queue; send blocks when full, which
/// models TCP back-pressure.
std::pair<ChannelPtr, ChannelPtr> make_inproc_channel_pair(
    std::size_t capacity = 1024);

/// Creates a full 3-channel co-simulation link in process.
LinkPair make_inproc_link_pair(std::size_t capacity = 1024);

}  // namespace vhp::net
