// Transport abstraction for one co-simulation channel.
//
// The protocol logic (kernel loop, board driver) is written against this
// interface; the concrete transport is either real TCP over loopback (the
// paper's setup, used by the benchmarks so socket round trips are really
// paid) or an in-process queue (used by unit tests for determinism).
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "vhp/common/bytes.hpp"
#include "vhp/common/status.hpp"
#include "vhp/net/message.hpp"

namespace vhp::net {

/// A bidirectional, framed, ordered, reliable byte-message channel.
/// Thread-safety contract: one sender thread and one receiver thread per
/// direction may operate concurrently (the co-simulation uses exactly that).
class Channel {
 public:
  virtual ~Channel() = default;

  /// Sends one frame. Blocking; returns kAborted if the peer closed.
  virtual Status send(std::span<const u8> frame) = 0;

  /// Receives one frame, waiting up to `timeout` (forever if nullopt).
  /// Returns kDeadlineExceeded on timeout, kAborted if the peer closed.
  virtual Result<Bytes> recv(
      std::optional<std::chrono::milliseconds> timeout = std::nullopt) = 0;

  /// Non-blocking receive; ok()+nullopt when no frame is pending. This is
  /// also the readiness check of every per-cycle poller, so an empty poll
  /// is cheap: one acquire load on inproc and shm (no lock, no system
  /// call), one zero-timeout poll(2) on TCP.
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
  /// Calling this may arm a doorbell: in-process queues lazily create an
  /// eventfd the first time an event loop asks. Readiness is advisory and
  /// level-triggered; always confirm with try_recv(), and drain with it
  /// until it reports nothing pending before waiting on the fd again. The
  /// in-memory doorbells follow one drain rule: the consumer drains its
  /// bell when a pop empties the queue or a ring is outstanding, never on
  /// a poll that merely finds the queue empty. So after a try_recv() that
  /// found nothing, the fd turns readable as soon as a frame is pending,
  /// and a fully drained channel leaves it quiet.
  virtual int readable_fd() { return -1; }
};

using ChannelPtr = std::unique_ptr<Channel>;

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
