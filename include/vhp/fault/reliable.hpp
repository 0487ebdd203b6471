// Link-level recovery: sequence numbers, ack/retransmit, redelivery
// filtering and reconnect-with-resync (DESIGN.md §9).
//
// ReliableChannel speaks a small sub-frame protocol over any net::Channel:
//   kPayload  [tag=1][u64 seq][u64 ack][u32 crc][payload...]
//   kAck      [tag=2][u64 ack][u32 crc]
//   kHello    [tag=3][u64 rx_next][u32 crc]   (reconnect resync)
// The CRC covers the whole sub-frame, so a byte corrupted *anywhere* —
// header or payload — turns the frame into garbage that is dropped and
// later repaired by retransmission. Acks are cumulative; redelivered
// frames (seq < rx_next) are filtered and re-acked, out-of-order frames
// buffered until the gap fills. Retransmission backs off exponentially
// from `rto` to `rto_max` and gives up (kAborted) after
// `max_retransmit_rounds` rounds without progress.
//
// The virtual-time guarantee: reliable_link() couples a link's three
// channels so that any CLOCK send first *flushes* the sibling DATA and INT
// channels (waits until every frame they sent is acked) and then flushes
// itself. Since ClockTick / TimeAck are the protocol's sync points, every
// frame belonging to a quantum is delivered before the quantum boundary
// crosses the link — which is why a faulted run converges to the clean
// run's virtual-time trace bit-exactly instead of smearing deliveries into
// later quanta. The protocol's last frame, SHUTDOWN, is confirmed by its
// ack or by the peer hanging up: the receiving endpoint closes its
// transport once the application has taken SHUTDOWN, since nothing will
// pump it again to repeat a lost ack.
//
// Transport loss (a dropped TCP connection) is recovered through an
// optional redial callback: the channel redials with bounded backoff,
// sends kHello carrying its receive cursor, and both sides retransmit
// whatever the other has not acknowledged.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "vhp/net/channel.hpp"
#include "vhp/obs/hub.hpp"

namespace vhp::fault {

struct RecoveryConfig {
  bool enabled = false;
  /// Initial retransmission timeout; doubles per silent round up to
  /// rto_max.
  std::chrono::milliseconds rto{5};
  std::chrono::milliseconds rto_max{200};
  /// Consecutive retransmission rounds without ack progress before the
  /// channel gives up with kAborted.
  u32 max_retransmit_rounds = 2000;
  /// How long a CLOCK send waits for its sibling and own frames to be
  /// acknowledged (see header comment).
  std::chrono::milliseconds flush_timeout{10000};
  /// Reconnect: first redial delay (doubles per attempt) and attempt cap.
  std::chrono::milliseconds redial_backoff{20};
  u32 max_redials = 10;
};

/// Produces a replacement transport for a lost one (e.g. re-dial the TCP
/// port, or re-accept on the listening side).
using RedialFn = std::function<Result<net::ChannelPtr>()>;

/// Wire helpers, public for tests that handcraft peer frames.
namespace wire {
inline constexpr u8 kPayload = 1;
inline constexpr u8 kAck = 2;
inline constexpr u8 kHello = 3;
[[nodiscard]] Bytes encode_payload(u64 seq, u64 ack,
                                   std::span<const u8> payload);
[[nodiscard]] Bytes encode_ack(u64 ack);
[[nodiscard]] Bytes encode_hello(u64 rx_next);
}  // namespace wire

class ReliableChannel final : public net::Channel {
 public:
  /// `name` tags this endpoint's counters: fault.<name>.retransmits etc.
  ReliableChannel(net::ChannelPtr inner, RecoveryConfig config,
                  obs::Hub* hub = nullptr, std::string name = {},
                  RedialFn redial = {});
  ~ReliableChannel() override;

  Status send(std::span<const u8> frame) override;
  /// Pumps the transport (acks, retransmission timer, redial on a lost
  /// link) and hands over the next in-order payload. A receiver waiting in
  /// Channel::recv re-polls at least every net::kRepollPeriod, so recovery
  /// keeps running while it waits.
  Result<std::optional<Bytes>> try_recv() override;
  void close() override;

  /// Blocks (pumping acks and retransmissions) until every sent frame has
  /// been acknowledged, or the timeout expires.
  Status flush(std::chrono::milliseconds timeout);

  /// Transport-level flush/readiness (net::Channel overrides): forwarded
  /// to the inner transport. Distinct from the ack-flush above.
  Status flush() override;
  int readable_fd() override;

  /// Channels whose in-flight frames must land before this channel sends
  /// (the CLOCK -> {DATA, INT} coupling; see header comment).
  void set_flush_siblings(std::vector<ReliableChannel*> siblings);

  /// The other channels of this link side. A blocked flush() pumps them so
  /// cross-lane acks keep flowing: the peer may be flushing a *different*
  /// channel (its DATA flush awaits our DATA ack while our CLOCK flush
  /// awaits its CLOCK ack), and without mutual pumping the two flushes
  /// deadlock until timeout. reliable_link() wires all three.
  void set_pump_peers(std::vector<ReliableChannel*> peers);

  /// Introspection for tests.
  [[nodiscard]] u64 retransmits() const;
  [[nodiscard]] u64 dup_filtered() const;
  [[nodiscard]] u64 crc_dropped() const;
  [[nodiscard]] u64 reconnects() const;
  [[nodiscard]] u64 unacked() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Wraps one side of a link. `side` tags the counters ("hw" / "board" /
/// "node3.board"). Zero-hop: returns `link` unchanged unless
/// config.enabled. The CLOCK channel gets the sibling-flush coupling.
[[nodiscard]] net::CosimLink reliable_link(net::CosimLink link,
                                           const RecoveryConfig& config,
                                           obs::Hub* hub,
                                           const std::string& side);

/// Single-channel variant for custom wiring and tests.
[[nodiscard]] net::ChannelPtr reliable(net::ChannelPtr inner,
                                       const RecoveryConfig& config,
                                       obs::Hub* hub = nullptr,
                                       std::string name = {},
                                       RedialFn redial = {});

}  // namespace vhp::fault
