// Per-quantum frame batching (DESIGN.md §14).
//
// BatchingChannel buffers sent frames and hands the whole run to the
// inner transport as one send_many() — one writev on TCP, one publish +
// doorbell on shm — when flush() is called. The co-simulation protocol
// supplies the flush points (see the flush rules in DESIGN.md §14): the
// master flushes DATA and INT just before every CLOCK_TICK and after
// answering a DataReadReq; the board flushes DATA right after sending a
// DataReadReq and just before every TIME_ACK. Because the conservative
// barrier makes each side consume a quantum's traffic only at the
// quantum boundary anyway, deferring delivery to the boundary is
// invisible in virtual time — recordings stay bit-identical — while the
// syscall count drops from one per frame to one per quantum per port.
//
// The batcher wraps the *raw transport* (innermost, below latency /
// fault / recording decorators), so every layer above sees the exact
// frame sequence it would see unbatched and the receive path needs no
// changes at all. Only timed runs may batch: a free-running board has
// no quantum boundary to flush at (FabricConfig::validate rejects the
// combination).
#pragma once

#include <string>

#include "vhp/net/channel.hpp"
#include "vhp/obs/hub.hpp"

namespace vhp::net {

struct BatchingConfig {
  /// Safety valve: auto-flush once this many bytes are pending, so a
  /// pathological quantum cannot buffer unbounded memory. Generous by
  /// default — the protocol flush points are the intended trigger.
  std::size_t max_pending_bytes = std::size_t{1} << 20;
  /// Auto-flush after this many pending frames (same safety valve).
  std::size_t max_pending_frames = 4096;
};

class BatchingChannel final : public Channel {
 public:
  /// `name` tags the obs counters: net.batch.<name>.frames / .flushes
  /// (frames ÷ flushes = frames-per-flush, the syscall amplification the
  /// batcher removed).
  BatchingChannel(ChannelPtr inner, BatchingConfig config = {},
                  obs::Hub* hub = nullptr, std::string name = {});
  ~BatchingChannel() override;

  Status send(std::span<const u8> frame) override;
  Status send_many(std::span<const Bytes> frames) override;
  Status flush() override;
  Result<std::optional<Bytes>> try_recv() override;
  void close() override;
  int readable_fd() override;
  std::chrono::steady_clock::time_point held_until() override;

  /// Introspection for tests and the session_density bench.
  [[nodiscard]] u64 frames_batched() const;
  [[nodiscard]] u64 flushes() const;
  [[nodiscard]] std::size_t pending_frames() const;

 private:
  Status flush_locked();

  ChannelPtr inner_;
  BatchingConfig config_;
  mutable std::mutex mu_;  // sender-side state (send + flush may race)
  std::vector<Bytes> pending_;
  std::size_t pending_bytes_ = 0;
  u64 frames_batched_ = 0;
  u64 flushes_ = 0;
  obs::Counter* frames_counter_ = nullptr;
  obs::Counter* flushes_counter_ = nullptr;
};

/// Wraps the DATA and INT channels of one link side in batchers (CLOCK
/// stays direct: ticks/acks are the flush boundaries themselves and must
/// never sit in a buffer). `side` tags the counters ("hw", "board",
/// "node3.hw", ...). Returns the link unchanged when `enabled` is false.
[[nodiscard]] CosimLink batch_link(CosimLink link, bool enabled,
                                   const BatchingConfig& config,
                                   obs::Hub* hub, const std::string& side);

}  // namespace vhp::net
