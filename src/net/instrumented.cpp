#include "vhp/net/instrumented.hpp"

#include <utility>

namespace vhp::net {

namespace {

class InstrumentedChannel final : public Channel {
 public:
  InstrumentedChannel(ChannelPtr inner, obs::Hub& hub, const std::string& name)
      : inner_(std::move(inner)),
        tx_frames_(hub.metrics().counter("net." + name + ".tx_frames")),
        tx_bytes_(hub.metrics().counter("net." + name + ".tx_bytes")),
        rx_frames_(hub.metrics().counter("net." + name + ".rx_frames")),
        rx_bytes_(hub.metrics().counter("net." + name + ".rx_bytes")) {}

  Status send(std::span<const u8> frame) override {
    Status s = inner_->send(frame);
    if (s.ok()) {
      tx_frames_.inc();
      tx_bytes_.inc(frame.size());
    }
    return s;
  }

  Result<std::optional<Bytes>> try_recv() override {
    auto frame = inner_->try_recv();
    if (frame.ok() && frame.value().has_value()) {
      rx_frames_.inc();
      rx_bytes_.inc(frame.value()->size());
    }
    return frame;
  }

  void close() override { inner_->close(); }

  Status flush() override { return inner_->flush(); }

  int readable_fd() override { return inner_->readable_fd(); }

 private:
  ChannelPtr inner_;
  obs::Counter& tx_frames_;
  obs::Counter& tx_bytes_;
  obs::Counter& rx_frames_;
  obs::Counter& rx_bytes_;
};

// Appends every frame crossing the channel to the flight recorder's ring:
// tx after a successful send, rx after a successful (non-empty) receive, so
// the ring reflects frames that actually crossed the transport. A tx is
// stamped when its send starts, so on the shared clock it never follows
// the peer's rx of the same frame.
class RecordedChannel final : public Channel {
 public:
  RecordedChannel(ChannelPtr inner, obs::FlightRecorder& recorder,
                  obs::LinkPort port, u32 node)
      : inner_(std::move(inner)), recorder_(recorder), port_(port),
        node_(node) {}

  Status send(std::span<const u8> frame) override {
    const u64 sent_ns = recorder_.now_ns();
    Status s = inner_->send(frame);
    if (s.ok()) {
      recorder_.record(port_, obs::LinkDir::kTx, frame, node_, sent_ns);
    }
    return s;
  }

  Result<std::optional<Bytes>> try_recv() override {
    auto frame = inner_->try_recv();
    if (frame.ok() && frame.value().has_value()) {
      recorder_.record(port_, obs::LinkDir::kRx, *frame.value(), node_);
    }
    return frame;
  }

  void close() override { inner_->close(); }

  Status flush() override { return inner_->flush(); }

  int readable_fd() override { return inner_->readable_fd(); }

 private:
  ChannelPtr inner_;
  obs::FlightRecorder& recorder_;
  obs::LinkPort port_;
  u32 node_;
};

}  // namespace

ChannelPtr instrument_channel(ChannelPtr inner, obs::Hub& hub,
                              const std::string& name) {
  return std::make_unique<InstrumentedChannel>(std::move(inner), hub, name);
}

CosimLink instrument_link(CosimLink link, obs::Hub& hub,
                          const std::string& side) {
  link.data = instrument_channel(std::move(link.data), hub, side + ".data");
  link.intr = instrument_channel(std::move(link.intr), hub, side + ".int");
  link.clock = instrument_channel(std::move(link.clock), hub, side + ".clock");
  return link;
}

ChannelPtr record_channel(ChannelPtr inner, obs::FlightRecorder& recorder,
                          obs::LinkPort port, u32 node) {
  if (!recorder.enabled()) return inner;  // disabled: no decorator hop
  return std::make_unique<RecordedChannel>(std::move(inner), recorder, port,
                                           node);
}

CosimLink record_link(CosimLink link, obs::FlightRecorder& recorder,
                      u32 node) {
  link.data = record_channel(std::move(link.data), recorder,
                             obs::LinkPort::kData, node);
  link.intr = record_channel(std::move(link.intr), recorder,
                             obs::LinkPort::kInt, node);
  link.clock = record_channel(std::move(link.clock), recorder,
                              obs::LinkPort::kClock, node);
  return link;
}

}  // namespace vhp::net
