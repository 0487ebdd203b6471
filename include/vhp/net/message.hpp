// Wire messages of the co-simulation protocol (DESIGN.md §6).
//
// The paper routes three kinds of traffic over three TCP/IP ports:
//   DATA_PORT  — device payload (driver reads/writes),
//   INT_PORT   — interrupt notifications from the simulated HW to the board,
//   CLOCK_PORT — the timing packets that implement the virtual tick.
// Each message is a tagged, length-framed, little-endian record.
#pragma once

#include <optional>
#include <span>
#include <variant>

#include "vhp/common/bytes.hpp"
#include "vhp/common/status.hpp"
#include "vhp/common/types.hpp"

namespace vhp::net {

enum class MsgType : u8 {
  kDataWrite = 1,    // SW -> HW: driver write to device register/FIFO
  kDataReadReq = 2,  // SW -> HW: driver read request
  kDataReadResp = 3, // HW -> SW: read response
  kIntRaise = 4,     // HW -> SW: interrupt line asserted
  kClockTick = 5,    // HW -> SW: advance T_sync worth of ticks (virtual tick)
  kTimeAck = 6,      // SW -> HW: board frozen again, reports its tick count
  kShutdown = 7,     // HW -> SW: end of co-simulation
};

[[nodiscard]] std::string_view to_string(MsgType t);

/// Driver write: `data` bytes land at device address `address`.
struct DataWrite {
  u32 address = 0;
  Bytes data;
  bool operator==(const DataWrite&) const = default;
};

/// Driver read request for `nbytes` bytes at `address`.
struct DataReadReq {
  u32 address = 0;
  u32 nbytes = 0;
  bool operator==(const DataReadReq&) const = default;
};

/// Response to a DataReadReq.
struct DataReadResp {
  u32 address = 0;
  Bytes data;
  bool operator==(const DataReadResp&) const = default;
};

/// HW interrupt: the simulated device asserted interrupt vector `vector`.
struct IntRaise {
  u32 vector = 0;
  bool operator==(const IntRaise&) const = default;
};

/// Virtual tick: the kernel reached simulated cycle `sim_cycle` and grants
/// the board `n_ticks` software ticks of execution (paper §4.2, T_sync).
/// `round` is the master's barrier round id (DESIGN.md §7.2), stamped only
/// while the timeline is armed; 0 means unstamped. One fixed layout
/// (DESIGN.md §6): sim_cycle u64, n_ticks u32, round u64.
struct ClockTick {
  u64 sim_cycle = 0;
  u32 n_ticks = 0;
  u64 round = 0;
  bool operator==(const ClockTick&) const = default;
};

/// TimeAck::lookahead value for "idle until data arrives": the board has no
/// future event of its own scheduled.
inline constexpr u64 kLookaheadUnbounded = ~u64{0};

/// On-wire value of TimeAck's lookahead slot when none is advertised. The
/// codec maps it to and from nullopt, so it never appears in a decoded
/// TimeAck::lookahead, and encode() refuses an ack that advertises it.
inline constexpr u64 kNoLookahead = ~u64{0} - 1;

/// Board answer: it consumed its tick budget and froze at `board_tick`.
/// One fixed layout (DESIGN.md §6): board_tick u64, lookahead u64
/// (kNoLookahead = none), round u64, data_sent u64.
///
///   * `lookahead` (adaptive synchronization, DESIGN.md §10): the earliest
///     future master sim-cycle at which the board can next interact (next
///     RTOS timer expiry, or kLookaheadUnbounded when idle until data
///     arrives);
///   * `round`: the round id of the CLOCK_TICK this freeze answers, echoed
///     back (0: unstamped, or the boot ack);
///   * `data_sent`: the board's cumulative count of DATA frames sent
///     (DATA_WRITE + DATA_READ_REQ). The master's gather completes the node
///     only once it has served that many (DESIGN.md §14), so every frame a
///     quantum sent takes effect at the barrier that ends it.
struct TimeAck {
  u64 board_tick = 0;
  std::optional<u64> lookahead = std::nullopt;
  u64 round = 0;
  u64 data_sent = 0;
  bool operator==(const TimeAck&) const = default;
};

struct Shutdown {
  bool operator==(const Shutdown&) const = default;
};

using Message = std::variant<DataWrite, DataReadReq, DataReadResp, IntRaise,
                             ClockTick, TimeAck, Shutdown>;

[[nodiscard]] MsgType type_of(const Message& msg);

/// Serializes `msg` to a frame body (type byte + payload). The transport adds
/// the u32 length prefix. Throws std::invalid_argument for a TimeAck whose
/// lookahead is the kNoLookahead sentinel: it would decode as "none".
[[nodiscard]] Bytes encode(const Message& msg);

/// Parses a frame body produced by encode(). A frame must hold exactly its
/// type's fields: a truncated frame or trailing bytes are rejected, so
/// CLOCK_TICK and TIME_ACK each decode from one length only.
[[nodiscard]] Result<Message> decode(std::span<const u8> frame);

}  // namespace vhp::net
