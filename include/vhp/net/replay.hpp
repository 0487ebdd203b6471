// Replay transport: plays a flight recording back into a lone side.
//
// A recording captured on one side of the link (obs::FlightRecorder via
// net::record_link) contains, in one global sequence, every frame that side
// sent (tx) and received (rx). ReplaySession turns it into a CosimLink whose
// three channels impersonate the missing peer: the live side's sends are
// checked frame-by-frame against the recorded tx stream (first mismatch =
// divergence, reported with a field-level diff), and its receives are served
// the recorded rx frames.
//
// Delivery is gated so the lone run reproduces the original timing:
//   * causality — an rx record becomes visible only once every tx record
//     with a smaller sequence number has been re-sent by the live side;
//   * virtual time — with a time source wired (kernel cycle for an "hw"
//     recording, board SW tick for a "board" one), an rx record is held
//     until the live side's virtual clock reaches the recorded stamp, so a
//     polling loop picks it up on exactly the original poll.
// Under those two gates a deterministic side re-produces the identical
// virtual-time trajectory it had against the real peer (ISSUE 2 acceptance).
#pragma once

#include <memory>
#include <vector>

#include "vhp/net/channel.hpp"
#include "vhp/obs/recording.hpp"
#include "vhp/obs/timeline.hpp"

namespace vhp::net {

/// Field-level frame diff for divergence reports: decodes both payloads as
/// protocol Messages and names the first differing field ("ClockTick.n_ticks:
/// 100 vs 60"). Returns "" when it cannot decode (truncated payloads) or
/// finds no field difference — the byte-level report takes over.
[[nodiscard]] std::string message_field_diff(const obs::FrameRecord& expected,
                                             const obs::FrameRecord& actual);

/// Per-node synchronization summary of a recording's CLOCK traffic: grant
/// count and size distribution (min/mean/max cycles per CLOCK_TICK) and how
/// many TIME_ACKs advertised a lookahead — the quickest way to see
/// whether, and how far, an adaptive run actually stretched its quanta.
/// Lives here rather than in vhp::obs because decoding frames needs the
/// protocol codec. Empty string when the recording holds no CLOCK frames.
[[nodiscard]] std::string grant_stats_text(const obs::Recording& recording);

/// Offline timeline extraction: reconstructs per-round SpanRecords from a
/// master-side ("hw") recording's CLOCK traffic, optionally joined with
/// board-side recordings for the compute/frozen phases. Rounds are grouped
/// by ClockTick::sim_cycle — a barrier ticks every due node at one master
/// cycle — so unstamped recordings (round 0) analyze too; when ticks carry
/// a round id it is used verbatim. Wall stamps come from
/// FrameRecord::wall_ns: the fabric re-bases every recorder onto the master
/// epoch, so hw- and board-side spans share one clock. Feeds the same
/// analyzer as the live timeline (obs::analyze_spans) — this is what
/// `vhptrace timeline`/`critical` run on a .vhprec set. Lives here because
/// extraction needs the protocol codec.
[[nodiscard]] std::vector<obs::SpanRecord> timeline_from_recordings(
    const obs::Recording& hw,
    const std::vector<obs::Recording>& boards = {});

struct ReplayOptions {
  /// The live side's virtual clock (CosimKernel::cycle or the board's tick
  /// count). Unset disables the virtual-time gate; causality still holds.
  std::function<u64()> time_source;
  /// Diff provider for divergence reports.
  obs::FrameDiffFn diff = &message_field_diff;
  /// Fabric recordings interleave N nodes' links in one global sequence;
  /// open() keeps only this node's frames, so one recording replays any
  /// single node's link. 0 matches classic two-party recordings unchanged.
  u32 node = 0;
};

/// One replay of one recording. Keep the session alive for as long as the
/// link it made is in use; query it afterwards for the verdict.
class ReplaySession {
 public:
  /// Fails (kInvalidArgument) if any rx frame in the recording is truncated
  /// — a clipped payload cannot be re-delivered. Record with
  /// FlightRecorderConfig::max_payload_bytes large enough to hold frames
  /// whole (SessionConfigBuilder::record() does).
  static Result<std::unique_ptr<ReplaySession>> open(
      obs::Recording recording, ReplayOptions options = {});

  /// The link to hand to the lone CosimKernel / Board in place of a real
  /// transport. Callable once.
  [[nodiscard]] CosimLink make_link();

  /// Late wiring of ReplayOptions::time_source, for when the virtual clock
  /// belongs to an object constructed *from* make_link()'s result (the lone
  /// CosimKernel). Call before the first run_cycles.
  void set_time_source(std::function<u64()> source);

  /// First mismatch between the live side's sends and the recorded tx
  /// stream, if any.
  [[nodiscard]] std::optional<obs::Divergence> divergence() const;
  /// Frames consumed so far (tx matched + rx delivered) / total recorded.
  [[nodiscard]] u64 consumed() const;
  [[nodiscard]] u64 total() const;
  /// True when every recorded frame was matched or delivered.
  [[nodiscard]] bool complete() const;

  ~ReplaySession();

  /// Shared by the three channels of make_link(); opaque outside replay.cpp.
  struct State;

 private:
  ReplaySession();
  std::shared_ptr<State> state_;
};

}  // namespace vhp::net
