#include "vhp/fault/reliable.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "vhp/common/checksum.hpp"
#include "vhp/common/format.hpp"
#include "vhp/common/log.hpp"

namespace vhp::fault {

namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

const Logger kLog{"fault"};

/// The CRC field sits at a fixed offset per tag; it is computed over the
/// whole sub-frame with the field zeroed, so corruption anywhere — header
/// or payload — invalidates the frame.
constexpr std::size_t kPayloadCrcOffset = 1 + 8 + 8;
constexpr std::size_t kSmallCrcOffset = 1 + 8;  // kAck / kHello

void patch_crc(Bytes& frame, std::size_t offset) {
  const u32 crc = crc32(frame);
  frame[offset + 0] = static_cast<u8>(crc);
  frame[offset + 1] = static_cast<u8>(crc >> 8);
  frame[offset + 2] = static_cast<u8>(crc >> 16);
  frame[offset + 3] = static_cast<u8>(crc >> 24);
}

bool check_crc(std::span<const u8> frame, std::size_t offset) {
  if (frame.size() < offset + 4) return false;
  Bytes scratch{frame.begin(), frame.end()};
  const u32 stored = static_cast<u32>(scratch[offset]) |
                     (static_cast<u32>(scratch[offset + 1]) << 8) |
                     (static_cast<u32>(scratch[offset + 2]) << 16) |
                     (static_cast<u32>(scratch[offset + 3]) << 24);
  scratch[offset] = scratch[offset + 1] = scratch[offset + 2] =
      scratch[offset + 3] = 0;
  return crc32(scratch) == stored;
}

bool link_down(StatusCode code) {
  return code == StatusCode::kAborted || code == StatusCode::kUnavailable ||
         code == StatusCode::kConnectionReset;
}

/// SHUTDOWN is the protocol's last frame; see ReliableChannel::send.
bool is_shutdown(std::span<const u8> payload) {
  return !payload.empty() &&
         payload[0] == static_cast<u8>(net::MsgType::kShutdown);
}

}  // namespace

namespace wire {

Bytes encode_payload(u64 seq, u64 ack, std::span<const u8> payload) {
  Bytes out;
  ByteWriter w{out};
  w.u8v(kPayload);
  w.u64v(seq);
  w.u64v(ack);
  w.u32v(0);
  w.bytes(payload);
  patch_crc(out, kPayloadCrcOffset);
  return out;
}

Bytes encode_ack(u64 ack) {
  Bytes out;
  ByteWriter w{out};
  w.u8v(kAck);
  w.u64v(ack);
  w.u32v(0);
  patch_crc(out, kSmallCrcOffset);
  return out;
}

Bytes encode_hello(u64 rx_next) {
  Bytes out;
  ByteWriter w{out};
  w.u8v(kHello);
  w.u64v(rx_next);
  w.u32v(0);
  patch_crc(out, kSmallCrcOffset);
  return out;
}

}  // namespace wire

struct ReliableChannel::Impl {
  Impl(net::ChannelPtr transport, RecoveryConfig cfg, obs::Hub* obs_hub,
       std::string tag, RedialFn redial_fn)
      : inner(std::move(transport)), config(cfg), hub(obs_hub),
        name(tag.empty() ? std::string{"link"} : std::move(tag)),
        redial(std::move(redial_fn)), rto_cur(cfg.rto) {}

  // ---- state (mu guards everything) ----
  net::ChannelPtr inner;
  const RecoveryConfig config;
  obs::Hub* hub;
  const std::string name;
  RedialFn redial;

  mutable std::mutex mu;
  Status dead;  // latched terminal failure

  // Sender.
  u64 next_seq = 1;
  std::deque<std::pair<u64, Bytes>> unacked;  // (seq, app payload)
  milliseconds rto_cur;
  steady_clock::time_point retransmit_due{};
  u32 silent_rounds = 0;

  // Receiver.
  u64 rx_next = 1;
  std::map<u64, Bytes> ooo;  // out-of-order buffer
  std::deque<Bytes> ready;

  // Flush coupling + stats.
  std::vector<ReliableChannel*> siblings;
  std::vector<ReliableChannel*> pump_peers;
  bool flush_self_on_send = false;
  u64 n_retransmits = 0;
  u64 n_dup_filtered = 0;
  u64 n_crc_dropped = 0;
  u64 n_ooo_buffered = 0;
  u64 n_reconnects = 0;

  void count(const char* what, u64& local) {
    ++local;
    if (hub != nullptr) {
      hub->metrics().counter(strformat("fault.{}.{}", name, what)).inc();
    }
  }
  void count_recovered() {
    if (hub != nullptr) hub->metrics().counter("fault.recovered_total").inc();
  }

  [[nodiscard]] Status dead_status() const {
    return dead.ok() ? Status::Ok() : dead;
  }

  void ack_progress() {
    silent_rounds = 0;
    rto_cur = config.rto;
    retransmit_due = steady_clock::now() + rto_cur;
  }

  void handle_ack(u64 acked) {
    bool progressed = false;
    while (!unacked.empty() && unacked.front().first <= acked) {
      unacked.pop_front();
      progressed = true;
    }
    if (progressed) ack_progress();
  }

  Status raw_send(const Bytes& frame) {
    Status s = inner->send(frame);
    if (s.ok() || !link_down(s.code())) return s;
    return reconnect(s);
  }

  /// Replaces a lost transport via the redial callback, announces our
  /// receive cursor (kHello) and retransmits everything outstanding.
  Status reconnect(const Status& cause) {
    if (!dead.ok()) return dead;
    if (!redial) {
      dead = cause;
      return dead;
    }
    milliseconds backoff = config.redial_backoff;
    for (u32 attempt = 0; attempt < config.max_redials; ++attempt) {
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, milliseconds{1000});
      Result<net::ChannelPtr> r = redial();
      if (!r.ok()) continue;
      inner = std::move(r).value();
      count("reconnects", n_reconnects);
      count_recovered();
      kLog.info("{}: transport reconnected (attempt {}), resync rx_next={}",
                name, attempt + 1, rx_next);
      (void)inner->send(wire::encode_hello(rx_next));
      retransmit_now();
      return Status::Ok();
    }
    dead = Status{StatusCode::kUnavailable,
                  strformat("fault: {} redial failed after {} attempts ({})",
                            name, config.max_redials, cause.to_string())};
    return dead;
  }

  void retransmit_now() {
    for (const auto& [seq, payload] : unacked) {
      (void)inner->send(wire::encode_payload(seq, rx_next - 1, payload));
      ++n_retransmits;
      if (hub != nullptr) {
        hub->metrics()
            .counter(strformat("fault.{}.retransmits", name))
            .inc();
      }
    }
    silent_rounds = 0;
    rto_cur = config.rto;
    retransmit_due = steady_clock::now() + rto_cur;
  }

  Status maybe_retransmit() {
    if (!dead.ok()) return dead;
    if (unacked.empty()) return Status::Ok();
    const auto now = steady_clock::now();
    if (now < retransmit_due) return Status::Ok();
    if (++silent_rounds > config.max_retransmit_rounds) {
      dead = Status{
          StatusCode::kAborted,
          strformat("fault: {} gave up after {} retransmission rounds "
                    "({} unacked, oldest seq {})",
                    name, config.max_retransmit_rounds, unacked.size(),
                    unacked.front().first)};
      return dead;
    }
    for (const auto& [seq, payload] : unacked) {
      Status s = inner->send(wire::encode_payload(seq, rx_next - 1, payload));
      ++n_retransmits;
      if (hub != nullptr) {
        hub->metrics()
            .counter(strformat("fault.{}.retransmits", name))
            .inc();
      }
      if (!s.ok() && link_down(s.code())) {
        Status rs = reconnect(s);
        if (!rs.ok()) return rs;
        return Status::Ok();  // reconnect already retransmitted
      }
    }
    rto_cur = std::min(rto_cur * 2, config.rto_max);
    retransmit_due = now + rto_cur;
    return Status::Ok();
  }

  /// Hands the oldest delivered payload to the application. Taking
  /// SHUTDOWN hangs up the transport: its ack is already out, and nothing
  /// will pump this side again to repeat a lost one.
  Bytes take_ready() {
    Bytes out = std::move(ready.front());
    ready.pop_front();
    if (is_shutdown(out)) inner->close();
    return out;
  }

  void send_ack() {
    Status s = inner->send(wire::encode_ack(rx_next - 1));
    if (!s.ok() && link_down(s.code())) (void)reconnect(s);
  }

  /// Classifies and consumes one wire frame.
  void process_wire(Bytes frame) {
    if (frame.empty()) return;
    const u8 tag = frame[0];
    if (tag == wire::kPayload) {
      if (!check_crc(frame, kPayloadCrcOffset)) {
        count("crc_dropped", n_crc_dropped);
        count_recovered();
        return;  // retransmission repairs it
      }
      ByteReader r{frame};
      (void)r.u8v();
      const u64 seq = r.u64v();
      const u64 acked = r.u64v();
      (void)r.u32v();  // crc, already checked
      Bytes payload = r.bytes(r.remaining());
      handle_ack(acked);
      if (seq < rx_next) {
        // Redelivery of something we already consumed: filter it and
        // re-ack so the peer stops retransmitting (idempotent delivery).
        count("dup_filtered", n_dup_filtered);
        count_recovered();
        send_ack();
        return;
      }
      if (seq == rx_next) {
        ready.push_back(std::move(payload));
        ++rx_next;
        while (true) {
          auto it = ooo.find(rx_next);
          if (it == ooo.end()) break;
          ready.push_back(std::move(it->second));
          ooo.erase(it);
          ++rx_next;
          count_recovered();
        }
      } else {
        if (ooo.size() < 4096 && ooo.emplace(seq, std::move(payload)).second) {
          count("ooo_buffered", n_ooo_buffered);
        }
      }
      send_ack();
      return;
    }
    if (tag == wire::kAck) {
      if (!check_crc(frame, kSmallCrcOffset)) {
        count("crc_dropped", n_crc_dropped);
        return;
      }
      ByteReader r{frame};
      (void)r.u8v();
      handle_ack(r.u64v());
      return;
    }
    if (tag == wire::kHello) {
      if (!check_crc(frame, kSmallCrcOffset)) {
        count("crc_dropped", n_crc_dropped);
        return;
      }
      ByteReader r{frame};
      (void)r.u8v();
      const u64 peer_rx_next = r.u64v();
      // The peer reconnected: everything below its cursor arrived; the
      // rest must be resent on the fresh transport.
      handle_ack(peer_rx_next - 1);
      retransmit_now();
      return;
    }
    // Unknown tag: a corrupted tag byte. Drop; retransmission repairs it.
    count("crc_dropped", n_crc_dropped);
    count_recovered();
  }

  /// Drains the inner channel without blocking, then services the
  /// retransmission timer.
  Status pump() {
    if (!dead.ok()) return dead;
    while (true) {
      Result<std::optional<Bytes>> r = inner->try_recv();
      if (!r.ok()) {
        if (link_down(r.status().code())) {
          Status rs = reconnect(r.status());
          if (!rs.ok()) return rs;
          continue;
        }
        return r.status();
      }
      if (!r.value().has_value()) break;
      process_wire(std::move(*r.value()));
    }
    return maybe_retransmit();
  }
};

ReliableChannel::ReliableChannel(net::ChannelPtr inner, RecoveryConfig config,
                                 obs::Hub* hub, std::string name,
                                 RedialFn redial)
    : impl_(std::make_unique<Impl>(std::move(inner), config, hub,
                                   std::move(name), std::move(redial))) {}

ReliableChannel::~ReliableChannel() = default;

Status ReliableChannel::send(std::span<const u8> frame) {
  // Sibling flush happens before taking our own lock: the CLOCK barrier
  // semantics (all of the quantum's DATA/INT frames land before the sync
  // point crosses). Siblings lock themselves.
  std::vector<ReliableChannel*> siblings;
  {
    std::scoped_lock lock(impl_->mu);
    siblings = impl_->siblings;
  }
  for (ReliableChannel* sibling : siblings) {
    Status s = sibling->flush(impl_->config.flush_timeout);
    if (!s.ok()) return s;
  }
  {
    std::scoped_lock lock(impl_->mu);
    if (!impl_->dead.ok()) return impl_->dead;
    // Drain our receive queue before the potentially-blocking push: on a
    // bounded transport (inproc) back-to-back sends can fill both
    // directions — the peer blocks pushing acks at us while we block
    // pushing payloads at it. Draining first guarantees the peer a free
    // slot, which breaks the cycle.
    Status ps = impl_->pump();
    if (!ps.ok()) return ps;
    const u64 seq = impl_->next_seq++;
    if (impl_->unacked.empty()) {
      impl_->retransmit_due = steady_clock::now() + impl_->rto_cur;
    }
    impl_->unacked.emplace_back(seq, Bytes{frame.begin(), frame.end()});
    Status s = impl_->raw_send(
        wire::encode_payload(seq, impl_->rx_next - 1, frame));
    if (!s.ok()) return s;
  }
  if (impl_->flush_self_on_send) {
    // Sync-point frames (ClockTick / TimeAck / Shutdown) are confirmed
    // delivered before the protocol proceeds; see reliable.hpp.
    Status s = flush(impl_->config.flush_timeout);
    // SHUTDOWN is the protocol's last frame. Its receiver hangs up once it
    // has taken it (take_ready) and pumps no more, so a lost ack is never
    // repeated: the hang-up confirms the delivery as well as the ack would.
    // A lost SHUTDOWN is still retransmitted, since the receiver hangs up
    // only after taking it.
    if (!s.ok() && link_down(s.code()) && is_shutdown(frame)) {
      return Status::Ok();
    }
    return s;
  }
  return Status::Ok();
}

Result<std::optional<Bytes>> ReliableChannel::try_recv() {
  std::scoped_lock lock(impl_->mu);
  Status s = impl_->pump();
  if (!s.ok()) return s;
  if (!impl_->ready.empty()) return std::optional{impl_->take_ready()};
  return std::optional<Bytes>{};
}

void ReliableChannel::close() {
  std::scoped_lock lock(impl_->mu);
  impl_->inner->close();
}

Status ReliableChannel::flush() {
  std::scoped_lock lock(impl_->mu);
  return impl_->inner->flush();
}

int ReliableChannel::readable_fd() {
  std::scoped_lock lock(impl_->mu);
  return impl_->inner->readable_fd();
}

steady_clock::time_point ReliableChannel::held_until() {
  std::scoped_lock lock(impl_->mu);
  return impl_->inner->held_until();
}

Status ReliableChannel::flush(milliseconds timeout) {
  std::vector<ReliableChannel*> peers;
  {
    std::scoped_lock lock(impl_->mu);
    peers = impl_->pump_peers;
  }
  std::vector<net::Channel*> lanes{this};
  lanes.insert(lanes.end(), peers.begin(), peers.end());
  Status status;
  const bool flushed = net::wait_until(
      [&] {
        {
          std::scoped_lock lock(impl_->mu);
          status = impl_->pump();
          if (!status.ok() || impl_->unacked.empty()) return true;
        }
        // While blocked, keep the link's other lanes making ack progress:
        // the peer endpoint may itself be stuck flushing a *different*
        // channel (its DATA flush waits for a DATA ack we owe while our
        // CLOCK flush waits for a CLOCK ack it owes), and with dropped acks
        // neither side would otherwise pump the lane the other needs.
        // Impl::pump only moves wire frames into each peer's own ready
        // queue and services its retransmission timer — never try_recv,
        // which would steal application payloads. Peer errors are left to
        // surface on the peer's own ops.
        for (ReliableChannel* peer : peers) {
          std::scoped_lock lock(peer->impl_->mu);
          (void)peer->impl_->pump();
        }
        return false;
      },
      lanes, steady_clock::now() + timeout);
  if (flushed) return status;
  std::scoped_lock lock(impl_->mu);
  return Status{StatusCode::kDeadlineExceeded,
                strformat("fault: {} flush timed out with {} unacked frames",
                          impl_->name, impl_->unacked.size())};
}

void ReliableChannel::set_flush_siblings(
    std::vector<ReliableChannel*> siblings) {
  std::scoped_lock lock(impl_->mu);
  impl_->siblings = std::move(siblings);
  impl_->flush_self_on_send = true;
}

void ReliableChannel::set_pump_peers(std::vector<ReliableChannel*> peers) {
  std::scoped_lock lock(impl_->mu);
  impl_->pump_peers = std::move(peers);
}

u64 ReliableChannel::retransmits() const {
  std::scoped_lock lock(impl_->mu);
  return impl_->n_retransmits;
}
u64 ReliableChannel::dup_filtered() const {
  std::scoped_lock lock(impl_->mu);
  return impl_->n_dup_filtered;
}
u64 ReliableChannel::crc_dropped() const {
  std::scoped_lock lock(impl_->mu);
  return impl_->n_crc_dropped;
}
u64 ReliableChannel::reconnects() const {
  std::scoped_lock lock(impl_->mu);
  return impl_->n_reconnects;
}
u64 ReliableChannel::unacked() const {
  std::scoped_lock lock(impl_->mu);
  return impl_->unacked.size();
}

net::CosimLink reliable_link(net::CosimLink link,
                             const RecoveryConfig& config, obs::Hub* hub,
                             const std::string& side) {
  if (!config.enabled) return link;
  auto data = std::make_unique<ReliableChannel>(
      std::move(link.data), config, hub, side + ".data");
  auto intr = std::make_unique<ReliableChannel>(
      std::move(link.intr), config, hub, side + ".int");
  auto clock = std::make_unique<ReliableChannel>(
      std::move(link.clock), config, hub, side + ".clock");
  clock->set_flush_siblings({data.get(), intr.get()});
  data->set_pump_peers({intr.get(), clock.get()});
  intr->set_pump_peers({data.get(), clock.get()});
  clock->set_pump_peers({data.get(), intr.get()});
  link.data = std::move(data);
  link.intr = std::move(intr);
  link.clock = std::move(clock);
  return link;
}

net::ChannelPtr reliable(net::ChannelPtr inner, const RecoveryConfig& config,
                         obs::Hub* hub, std::string name, RedialFn redial) {
  if (!config.enabled) return inner;
  return std::make_unique<ReliableChannel>(std::move(inner), config, hub,
                                           std::move(name),
                                           std::move(redial));
}

}  // namespace vhp::fault
