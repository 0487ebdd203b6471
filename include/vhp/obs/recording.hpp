// On-disk recording format for the flight recorder, plus the divergence
// checker that compares a live frame stream against a reference recording.
//
// Two interchangeable encodings, auto-detected on read:
//   * binary (".vhprec", magic "VHPREC04") — compact, the replay medium;
//   * JSONL (".jsonl", one JSON object per line after a header line) —
//     greppable, the post-mortem medium. Payloads are hex strings.
// Both carry the same data: a header naming the recording side ("hw" or
// "board") with free-form string tags (config echo: t_sync, packet counts,
// ...), then the FrameRecords in sequence order.
//
// The JSONL reader parses only what the writer emits (flat objects, known
// keys) — it is a recording loader, not a general JSON parser.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "vhp/common/status.hpp"
#include "vhp/obs/flight_recorder.hpp"

namespace vhp::obs {

struct RecordingMeta {
  std::string side;  // "hw" | "board"
  std::map<std::string, std::string> tags;
};

struct Recording {
  RecordingMeta meta;
  std::vector<FrameRecord> frames;  // ascending seq
};

enum class RecordingFormat { kBinary, kJsonl };

/// The recorder's current ring as a recording of its side, with `tags`.
[[nodiscard]] Recording snapshot_recording(
    FlightRecorder& recorder, std::map<std::string, std::string> tags);

/// ".jsonl" / ".json" paths get JSONL, everything else binary.
[[nodiscard]] RecordingFormat format_for_path(const std::string& path);

Status write_recording(const std::string& path, const Recording& recording,
                       RecordingFormat format);
/// Auto-detects the encoding from the file's first bytes. A JSONL frame
/// whose numeric field does not fit its type fails the read, naming the
/// field and the line.
[[nodiscard]] Result<Recording> read_recording(const std::string& path);

/// One frame as a single JSONL line (no trailing newline).
[[nodiscard]] std::string frame_record_to_json(const FrameRecord& record);

// ---------------------------------------------------------------------------
// Divergence checking

/// Optional field-level diff provider: given two same-type frames that
/// differ, return a human description ("ClockTick.n_ticks: 100 vs 60").
/// The net layer supplies a Message-aware one (net::message_field_diff);
/// without it the checker reports the first differing byte offset.
using FrameDiffFn = std::string (*)(const FrameRecord& expected,
                                    const FrameRecord& actual);

/// The first mismatching frame between a reference recording and a live
/// stream: sequence number, node, port, virtual time and a field-level diff.
struct Divergence {
  u64 seq = 0;          // reference-side sequence of the mismatch
  LinkPort port = LinkPort::kData;
  LinkDir dir = LinkDir::kTx;
  u32 node = 0;         // fabric node of the mismatching stream
  u64 hw_cycle = 0;     // reference virtual time at the mismatch
  u64 board_tick = 0;
  std::string reason;   // what differs (type / size / field / extra frame)
  [[nodiscard]] std::string to_string() const;
};

/// Byte-level frame equality via the stored prefix + full-payload digest
/// (works for truncated records too). Returns a reason string on mismatch,
/// empty when equal; `diff` refines same-type payload mismatches.
[[nodiscard]] std::string compare_frames(const FrameRecord& expected,
                                         const FrameRecord& actual,
                                         FrameDiffFn diff = nullptr);

/// Feeds a live side's frames, in emission order, against the reference
/// recording of the same side and direction-expects. Per-(node,port,dir)
/// FIFO order — fabric recordings interleave N nodes' links in one global
/// sequence and stay diffable per node; the first mismatch is latched and
/// everything after it ignored.
class DivergenceChecker {
 public:
  explicit DivergenceChecker(const Recording& reference,
                             FrameDiffFn diff = nullptr);

  /// Checks the live side's next frame on `node`'s `port`/`dir`. Returns
  /// false once diverged (this call or earlier).
  bool check(LinkPort port, LinkDir dir, std::span<const u8> frame,
             u32 node = 0);

  /// Record-level variant for comparing two recordings: `live` carries its
  /// own full-frame size and digest, so truncated records on either side
  /// compare by common stored prefix + digest instead of falsely diverging
  /// on the clipped payload.
  bool check(const FrameRecord& live);

  [[nodiscard]] const std::optional<Divergence>& divergence() const {
    return divergence_;
  }
  [[nodiscard]] u64 matched() const { return matched_; }

 private:
  static constexpr std::size_t kQueuesPerNode = 6;  // 3 ports x 2 directions
  /// Queue storage grows with the highest node id seen (fabrics are small).
  std::size_t queue_index(u32 node, LinkPort port, LinkDir dir);

  struct Queue {
    std::vector<FrameRecord> frames;
    std::size_t next = 0;
  };

  FrameDiffFn diff_;
  std::vector<Queue> queues_;
  std::optional<Divergence> divergence_;
  u64 matched_ = 0;
};

/// Offline variant for `vhptrace diff`: first mismatch between two
/// recordings (walked in per-(port,dir) FIFO order, `a` as the reference).
[[nodiscard]] std::optional<Divergence> diff_recordings(
    const Recording& a, const Recording& b, FrameDiffFn diff = nullptr);

// ---------------------------------------------------------------------------
// Report rendering (the vhptrace subcommands, kept here so tests cover them
// without spawning the binary)

/// Per-port/type frame counts, byte totals and time span, as a text table.
[[nodiscard]] std::string recording_stats_text(const Recording& recording);

}  // namespace vhp::obs
