// Co-simulation flight recorder: a bounded per-side ring buffer of every
// frame crossing the three-port link (DATA/INT/CLOCK), cheap enough to
// leave on in production runs.
//
// The paper's whole methodology hinges on the frame traffic across the
// board<->kernel boundary; when a run hangs, drifts or produces a wrong
// router output, aggregate counters say *that* something went wrong but not
// *which frame*. The recorder keeps the last N frames per side — port,
// direction, message type, sequence number, HW virtual time, board SW tick,
// wall-clock delta and the payload (or a digest once it exceeds the cap) —
// so a post-mortem dump or a full recording can reproduce either side in
// isolation (see net/replay.hpp) or pinpoint the first divergent frame.
//
// Cost model: ring-only, no I/O until an explicit dump. A record is one
// mutex-guarded copy of at most `max_payload_bytes` into a pre-sized slot;
// when disabled the channel decorators are not even installed
// (net::record_channel returns the inner transport unchanged).
#pragma once

#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "vhp/common/bytes.hpp"
#include "vhp/common/types.hpp"
#include "vhp/obs/metrics.hpp"
#include "vhp/obs/timeline.hpp"

namespace vhp::obs {

/// The three ports of the co-simulation link (DESIGN.md §6).
enum class LinkPort : u8 { kData = 0, kInt = 1, kClock = 2 };
/// Direction as seen by the recording side.
enum class LinkDir : u8 { kTx = 0, kRx = 1 };

[[nodiscard]] std::string_view to_string(LinkPort port);
[[nodiscard]] std::string_view to_string(LinkDir dir);
/// The inverse of to_string(LinkPort); nullopt for any other name.
[[nodiscard]] std::optional<LinkPort> link_port_from_name(
    std::string_view name);

/// One recorded frame. `payload` holds at most the configured cap;
/// `payload_size` and `digest` (CRC-32 of the full frame) always describe
/// the complete original, so truncated records still compare.
/// FrameRecord::flags bit: the record is a synthetic fault marker stamped by
/// the fault injector (vhp::fault), not a frame that crossed the link. Its
/// payload names the injected fault kind. Divergence checking skips flagged
/// records so injected loss is never mistaken for real divergence.
inline constexpr u8 kFrameFlagInjected = 1u << 0;

struct FrameRecord {
  u64 seq = 0;        // per-side monotone sequence, global across ports
  LinkPort port = LinkPort::kData;
  LinkDir dir = LinkDir::kTx;
  /// Fabric node the frame's link belongs to; 0 for a session's one link.
  u32 node = 0;
  /// kFrameFlag* bits; 0 for ordinary frames.
  u8 flags = 0;
  u8 msg_type = 0;    // first body byte (net::MsgType), 0 for empty frames
  bool truncated = false;
  u64 hw_cycle = 0;   // HW virtual time at record (kernel side)
  u64 board_tick = 0; // board SW tick at record (board side)
  u64 wall_ns = 0;    // wall clock on the recorder's Timeline epoch
  u32 payload_size = 0;
  u32 digest = 0;     // CRC-32 of the full payload
  Bytes payload;
};

struct FlightRecorderConfig {
  /// Independent of the observability switch (ObsConfig::timeline):
  /// recording is cheap enough to leave on while the costly instruments
  /// stay off.
  bool enabled = false;
  /// Ring capacity per side; the oldest frames are evicted (and counted).
  std::size_t ring_frames = 4096;
  /// Payload bytes stored verbatim; longer frames keep size + digest only
  /// plus this prefix. Raise it when the recording feeds a replay.
  std::size_t max_payload_bytes = 256;
};

/// One per side of the link ("hw" / "board"), owned by the obs::Hub.
class FlightRecorder {
 public:
  /// Frames are stamped with `clock.now_ns()` — the hub's timeline, so
  /// frames and spans share one epoch (the fabric re-bases that epoch per
  /// node onto the master's). `clock` must outlive the recorder.
  FlightRecorder(FlightRecorderConfig config, std::string side,
                 const Timeline& clock);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  [[nodiscard]] bool enabled() const { return config_.enabled; }
  [[nodiscard]] const FlightRecorderConfig& config() const { return config_; }
  [[nodiscard]] const std::string& side() const { return side_; }

  /// Virtual-time stamp hooks, wired by fabric::Fabric: the kernel side
  /// reports its cycle count, the board side its SW tick count. Each is
  /// invoked on the recording side's own thread.
  void set_hw_time_source(std::function<u64()> source);
  void set_board_time_source(std::function<u64()> source);

  /// The stamp record() takes by default: now on the recorder's clock.
  [[nodiscard]] u64 now_ns() const { return clock_.now_ns(); }

  /// Appends one frame to the ring (no-op when disabled). `node` labels the
  /// fabric node whose link carried the frame; the classic two-party link
  /// records everything as node 0. `wall_ns` overrides the stamp: a sender
  /// takes it before the send, so a tx stamp never follows its rx stamp.
  void record(LinkPort port, LinkDir dir, std::span<const u8> frame,
              u32 node = 0, std::optional<u64> wall_ns = std::nullopt);

  /// Appends a synthetic fault marker (kFrameFlagInjected) naming an
  /// injected fault, so recordings distinguish injected loss from real
  /// divergence. `kind` is the fault kind name ("drop", "reorder", ...),
  /// stored as the marker's payload. No-op when disabled.
  void note_fault(LinkPort port, LinkDir dir, std::string_view kind,
                  u32 node = 0);

  /// Frames ever recorded / evicted by ring wrap-around.
  [[nodiscard]] u64 recorded() const;
  [[nodiscard]] u64 evicted() const;

  /// The ring's current contents in sequence order (oldest first).
  [[nodiscard]] std::vector<FrameRecord> snapshot() const;

  /// Dump-time stats: obs.record.<side>.{frames,evicted} gauges.
  void export_to(MetricsRegistry& registry) const;

 private:
  FlightRecorderConfig config_;
  std::string side_;
  const Timeline& clock_;

  mutable std::mutex mu_;
  std::function<u64()> hw_time_;
  std::function<u64()> board_time_;
  std::vector<FrameRecord> ring_;  // ring_[seq % ring_frames]
  u64 next_seq_ = 0;
};

}  // namespace vhp::obs
