// Shared-memory ring transport (DESIGN.md §14).
//
// ShmRingChannel carries the same u32-length-prefixed frames as the TCP
// transport, but over an mmap'd single-producer/single-consumer byte ring
// instead of a socket: a send is two memcpys (length prefix + payload,
// possibly split at the wrap point) and two atomic stores; no syscall
// touches the data path. The producer and consumer each keep a *cached*
// copy of the peer's index and only re-load the shared atomic when the
// cache says full/empty, so the hot path does one acquire load per
// refresh instead of one per frame (the classic Lamport SPSC
// optimization).
//
// Wakeups use eventfd doorbells, rung only when the other side said it
// is (or may be) waiting: the consumer's doorbell is the channel's
// readable_fd(), and the first readable_fd() call (by an event loop or
// by net::wait_until once its spin is over) arms it for good: from then
// on every publish
// rings it and then raises a `rung` flag in the mapping. The
// consumer drains the bell only while that flag is up, so a pop of an
// empty ring is loads only — no system call, armed or not. The
// producer's "space" doorbell is rung by the consumer only while a writer
// is blocked on a full ring.
//
// The ring lives in MAP_SHARED|MAP_ANONYMOUS memory: both endpoints of a
// pair are in-process today (the svc session server's fast path), but
// the layout is fork-inheritable and contains no pointers, so a
// memfd-backed cross-process variant needs only a different allocation.
#pragma once

#include <cstddef>
#include <utility>

#include "vhp/net/channel.hpp"

namespace vhp::net {

/// One bidirectional channel over two SPSC rings. `capacity_bytes` is the
/// per-direction ring size (rounded up to a power of two, min 4 KiB); a
/// frame needs size + 4 bytes of ring space and must fit entirely, so
/// size the ring to several times the largest frame.
[[nodiscard]] std::pair<ChannelPtr, ChannelPtr> make_shm_channel_pair(
    std::size_t capacity_bytes = std::size_t{1} << 16);

/// A three-port co-simulation link over shm rings.
[[nodiscard]] LinkPair make_shm_link_pair(
    std::size_t capacity_bytes = std::size_t{1} << 16);

}  // namespace vhp::net
