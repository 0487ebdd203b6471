#include "vhp/fault/inject.hpp"

#include <chrono>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

namespace vhp::fault {

namespace {

class FaultChannel final : public net::Channel {
 public:
  FaultChannel(net::ChannelPtr inner, std::shared_ptr<FaultSchedule> schedule,
               obs::LinkPort port, u32 node)
      : inner_(std::move(inner)), schedule_(std::move(schedule)),
        port_(port), node_(node) {}

  Status send(std::span<const u8> frame) override {
    const auto event =
        schedule_->next(node_, port_, obs::LinkDir::kTx, frame.size());
    std::scoped_lock lock(tx_mu_);
    Status status = apply_tx(event, frame);
    if (!status.ok()) return status;
    // A frame held back by kReorder ships right after the frame that
    // overtook it (adjacent swap). A freshly held frame stays held.
    if (tx_held_.has_value() &&
        !(event.has_value() && event->kind == FaultKind::kReorder)) {
      const Bytes held = std::move(*tx_held_);
      tx_held_.reset();
      return inner_->send(held);
    }
    return Status::Ok();
  }

  Result<std::optional<Bytes>> try_recv() override {
    std::scoped_lock lock(rx_mu_);
    while (rx_ready_.empty()) {
      Result<std::optional<Bytes>> r = inner_->try_recv();
      if (!r.ok()) return r.status();
      if (!r.value().has_value()) break;
      admit_rx(std::move(*r.value()));
    }
    if (!rx_ready_.empty()) {
      Bytes out = std::move(rx_ready_.front());
      rx_ready_.pop_front();
      return std::optional{std::move(out)};
    }
    // Nothing else in flight: a frame held for kReorder has no successor to
    // swap with right now; deliver it rather than strand it.
    if (rx_held_.has_value()) {
      Bytes out = std::move(*rx_held_);
      rx_held_.reset();
      return std::optional{std::move(out)};
    }
    return std::optional<Bytes>{};
  }

  void close() override {
    {
      std::scoped_lock lock(tx_mu_);
      if (tx_held_.has_value()) {
        (void)inner_->send(*tx_held_);  // best effort on teardown
        tx_held_.reset();
      }
    }
    inner_->close();
  }

  Status flush() override { return inner_->flush(); }

  int readable_fd() override { return inner_->readable_fd(); }

  std::chrono::steady_clock::time_point held_until() override {
    return inner_->held_until();
  }

 private:
  /// Applies a TX verdict; sends 0, 1 or 2 copies of `frame` downstream.
  Status apply_tx(const std::optional<FaultEvent>& event,
                  std::span<const u8> frame) {
    if (!event.has_value()) return inner_->send(frame);
    switch (event->kind) {
      case FaultKind::kDrop:
      case FaultKind::kDisconnect:
        return Status::Ok();  // the frame vanishes into the "network"
      case FaultKind::kDuplicate: {
        Status first = inner_->send(frame);
        if (!first.ok()) return first;
        return inner_->send(frame);
      }
      case FaultKind::kReorder:
        tx_held_ = Bytes{frame.begin(), frame.end()};
        return Status::Ok();
      case FaultKind::kDelay:
      case FaultKind::kStall:
        std::this_thread::sleep_for(event->delay);
        return inner_->send(frame);
      case FaultKind::kCorrupt: {
        Bytes mutated{frame.begin(), frame.end()};
        if (!mutated.empty()) {
          mutated[event->corrupt_offset] ^= event->corrupt_mask;
        }
        return inner_->send(mutated);
      }
    }
    return inner_->send(frame);
  }

  /// Applies an RX verdict to a frame pumped from the inner channel,
  /// queueing whatever should reach the caller. Requires rx_mu_.
  void admit_rx(Bytes frame) {
    const auto event =
        schedule_->next(node_, port_, obs::LinkDir::kRx, frame.size());
    const auto deliver = [this](Bytes f) {
      rx_ready_.push_back(std::move(f));
      if (rx_held_.has_value()) {
        rx_ready_.push_back(std::move(*rx_held_));
        rx_held_.reset();
      }
    };
    if (!event.has_value()) {
      deliver(std::move(frame));
      return;
    }
    switch (event->kind) {
      case FaultKind::kDrop:
      case FaultKind::kDisconnect:
        return;
      case FaultKind::kDuplicate:
        deliver(Bytes{frame});
        rx_ready_.push_back(std::move(frame));
        return;
      case FaultKind::kReorder:
        if (rx_held_.has_value()) rx_ready_.push_back(std::move(*rx_held_));
        rx_held_ = std::move(frame);
        return;
      case FaultKind::kDelay:
      case FaultKind::kStall:
        std::this_thread::sleep_for(event->delay);
        deliver(std::move(frame));
        return;
      case FaultKind::kCorrupt:
        if (!frame.empty()) {
          frame[event->corrupt_offset] ^= event->corrupt_mask;
        }
        deliver(std::move(frame));
        return;
    }
    deliver(std::move(frame));
  }

  net::ChannelPtr inner_;
  std::shared_ptr<FaultSchedule> schedule_;
  const obs::LinkPort port_;
  const u32 node_;

  std::mutex tx_mu_;
  std::optional<Bytes> tx_held_;  // kReorder: awaiting its successor

  std::mutex rx_mu_;
  std::optional<Bytes> rx_held_;
  std::deque<Bytes> rx_ready_;
};

}  // namespace

net::ChannelPtr inject(net::ChannelPtr inner,
                       std::shared_ptr<FaultSchedule> schedule,
                       obs::LinkPort port, u32 node) {
  if (schedule == nullptr || !schedule->armed()) return inner;
  return std::make_unique<FaultChannel>(std::move(inner), std::move(schedule),
                                        port, node);
}

net::CosimLink inject_link(net::CosimLink link,
                           std::shared_ptr<FaultSchedule> schedule,
                           u32 node) {
  if (schedule == nullptr || !schedule->armed()) return link;
  link.data = inject(std::move(link.data), schedule, obs::LinkPort::kData,
                     node);
  link.intr = inject(std::move(link.intr), schedule, obs::LinkPort::kInt,
                     node);
  link.clock = inject(std::move(link.clock), schedule, obs::LinkPort::kClock,
                      node);
  return link;
}

}  // namespace vhp::fault
