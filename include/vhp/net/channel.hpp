// Transport abstraction for one co-simulation channel.
//
// The protocol logic (kernel loop, board driver) is written against this
// interface; the concrete transport is either real TCP over loopback (the
// paper's setup, used by the benchmarks so socket round trips are really
// paid) or an in-process queue (used by unit tests for determinism).
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "vhp/common/bytes.hpp"
#include "vhp/common/status.hpp"
#include "vhp/net/message.hpp"

namespace vhp::net {

/// How long a waiter spins before it blocks, and the longest it then
/// sleeps between two polls. Readiness is advisory, and a decorator may run
/// a timer that no fd announces (a retransmission timeout), so every wait
/// on a channel re-polls at least this often: wait_until, which the board
/// loop and the master wait in, and a parked svc::SessionHost's re-poll
/// timer.
inline constexpr std::chrono::milliseconds kRepollPeriod{1};

/// A bidirectional, framed, ordered, reliable byte-message channel.
/// Thread-safety contract: one sender thread and one receiver thread per
/// direction may operate concurrently (the co-simulation uses exactly that).
///
/// A transport or decorator implements send(), try_recv() and close(), and
/// optionally send_many(), flush() and readable_fd(). The blocking recv() is
/// not an extension point: it is one wait built on those.
class Channel {
 public:
  virtual ~Channel() = default;

  /// Sends one frame. Blocking; returns kAborted if the peer closed.
  virtual Status send(std::span<const u8> frame) = 0;

  /// Receives one frame, waiting up to `timeout` (forever if nullopt).
  /// Returns kDeadlineExceeded on timeout, kAborted once a closed peer is
  /// drained. It flush()es first (the peer may be waiting on exactly the
  /// frames this endpoint holds), then waits in wait_until() with
  /// try_recv() as the readiness check.
  Result<Bytes> recv(
      std::optional<std::chrono::milliseconds> timeout = std::nullopt);

  /// Non-blocking receive; ok()+nullopt when no frame is pending. This is
  /// also the readiness check of every poller, so an empty poll
  /// is cheap: one acquire load on inproc and shm (no lock, no system
  /// call), one non-blocking recv(2) on TCP.
  virtual Result<std::optional<Bytes>> try_recv() = 0;

  /// Closes this endpoint; pending and future receives on the peer fail
  /// with kAborted once drained.
  virtual void close() = 0;

  /// Sends many frames as one transport operation where the transport
  /// supports it (writev on TCP, one doorbell on shm). Frame boundaries
  /// are preserved; the byte stream is identical to N individual send()
  /// calls. Default: loop over send().
  virtual Status send_many(std::span<const Bytes> frames) {
    for (const auto& f : frames) {
      if (auto s = send(f); !s.ok()) return s;
    }
    return Status::Ok();
  }

  /// Pushes any frames the channel (or a batching decorator) is holding
  /// toward the peer. No-op for unbuffered transports. Decorators forward.
  virtual Status flush() { return Status::Ok(); }

  /// A pollable fd that becomes readable when a frame may be pending, or
  /// -1 when the transport has none (callers must then poll try_recv()).
  /// wait_until is the one caller; decorators forward it. Calling this may
  /// arm a doorbell: in-process queues lazily create an eventfd the first
  /// time a wait asks, and it stays armed for good. Readiness is advisory and
  /// level-triggered; always confirm with try_recv(), and drain with it
  /// until it reports nothing pending before waiting on the fd again. The
  /// in-memory doorbells follow one drain rule: the consumer drains its
  /// bell when a pop empties the queue or a ring is outstanding, never on
  /// a poll that merely finds the queue empty. So after a try_recv() that
  /// found nothing, the fd turns readable as soon as a frame is pending,
  /// and a fully drained channel leaves it quiet.
  virtual int readable_fd() { return -1; }

  /// When a frame this channel holds back (a latency decorator's, until
  /// its delivery time) comes due, so that a waiter can sleep exactly that
  /// long: no fd announces it. time_point::max() (the default) when none
  /// is held. Decorators forward their inner channel's.
  virtual std::chrono::steady_clock::time_point held_until() {
    return std::chrono::steady_clock::time_point::max();
  }
};

using ChannelPtr = std::unique_ptr<Channel>;

/// The one wait of a host thread that waits for a frame. Calls `ready()`
/// back to back, yielding the CPU between calls, for up to kRepollPeriod.
/// Then it asks `channels` for their readable_fd()s (only now: asking arms
/// an in-memory doorbell for good, which costs the peer a system call per
/// frame) and sleeps in ppoll(2) until an fd turns readable, `deadline`
/// passes, a held frame comes due (Channel::held_until) or kRepollPeriod
/// elapses, calling `ready()` after every sleep. Returns true once
/// `ready()` does, false once `deadline` has passed without it.
bool wait_until(const std::function<bool()>& ready,
                std::span<Channel* const> channels,
                std::chrono::steady_clock::time_point deadline =
                    std::chrono::steady_clock::time_point::max());

/// Typed convenience wrappers: Message <-> frame.
Status send_msg(Channel& ch, const Message& msg);
Result<Message> recv_msg(
    Channel& ch,
    std::optional<std::chrono::milliseconds> timeout = std::nullopt);
/// ok()+nullopt when no message is pending.
Result<std::optional<Message>> try_recv_msg(Channel& ch);

/// The three-port link of the paper (Section 5.1).
struct CosimLink {
  ChannelPtr data;   // DATA_PORT
  ChannelPtr intr;   // INT_PORT
  ChannelPtr clock;  // CLOCK_PORT

  void close_all() {
    if (data) data->close();
    if (intr) intr->close();
    if (clock) clock->close();
  }
};

/// Both ends of a link, for in-process wiring.
struct LinkPair {
  CosimLink hw;     // held by the simulation kernel side
  CosimLink board;  // held by the (virtual) board side
};

}  // namespace vhp::net
