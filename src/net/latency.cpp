#include "vhp/net/latency.hpp"

namespace vhp::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Frame layout on the wrapped channel: [u64 deadline_ns][payload...].
class LatencyChannel final : public Channel {
 public:
  LatencyChannel(ChannelPtr inner, LinkEmulationConfig config)
      : inner_(std::move(inner)), config_(config), rng_(config.seed) {}

  Status send(std::span<const u8> frame) override {
    const auto now = Clock::now().time_since_epoch();
    auto delay = config_.latency;
    if (config_.jitter.count() > 0) {
      delay += std::chrono::microseconds{
          rng_.below(static_cast<u64>(config_.jitter.count()) + 1)};
    }
    const u64 deadline_ns = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now + delay)
            .count());
    Bytes wire;
    wire.reserve(frame.size() + 8);
    ByteWriter w{wire};
    w.u64v(deadline_ns);
    w.bytes(frame);
    return inner_->send(wire);
  }

  Result<std::optional<Bytes>> try_recv() override {
    // Hold back frames whose delivery time has not come: peek by buffering.
    if (held_.has_value()) {
      if (Clock::now() < held_deadline_) return std::optional<Bytes>{};
      Bytes ready = std::move(*held_);
      held_.reset();
      return std::optional<Bytes>{std::move(ready)};
    }
    auto frame = inner_->try_recv();
    if (!frame.ok()) return frame.status();
    if (!frame.value().has_value()) return std::optional<Bytes>{};
    auto res = strip(*std::move(frame).value());
    if (!res.ok()) return res.status();
    auto [payload, deadline] = std::move(res).value();
    if (Clock::now() < deadline) {
      held_ = std::move(payload);
      held_deadline_ = deadline;
      return std::optional<Bytes>{};
    }
    return std::optional<Bytes>{std::move(payload)};
  }

  void close() override { inner_->close(); }

  Status flush() override { return inner_->flush(); }

  int readable_fd() override { return inner_->readable_fd(); }

  Clock::time_point held_until() override {
    return held_.has_value() ? held_deadline_ : inner_->held_until();
  }

 private:
  Result<std::pair<Bytes, Clock::time_point>> strip(Bytes wire) {
    ByteReader r{wire};
    const u64 deadline_ns = r.u64v();
    if (!r.ok()) {
      return Status{StatusCode::kInternal, "latency frame too short"};
    }
    const auto deadline =
        Clock::time_point{std::chrono::nanoseconds{deadline_ns}};
    Bytes payload{wire.begin() + 8, wire.end()};
    return std::pair{std::move(payload), deadline};
  }

  ChannelPtr inner_;
  LinkEmulationConfig config_;
  Rng rng_;
  // Hold-back buffer for a frame whose deadline has not come (one frame is
  // enough: FIFO ordering means the head frame has the earliest deadline;
  // empty payloads are legal, hence optional).
  std::optional<Bytes> held_;
  Clock::time_point held_deadline_{};
};

}  // namespace

ChannelPtr emulate_latency(ChannelPtr inner, LinkEmulationConfig config) {
  if (!config.enabled()) return inner;
  return std::make_unique<LatencyChannel>(std::move(inner), config);
}

LinkPair emulate_latency(LinkPair pair, LinkEmulationConfig config) {
  if (!config.enabled()) return pair;
  auto wrap = [&config](CosimLink& link, u64 salt) {
    LinkEmulationConfig c = config;
    c.seed = config.seed ^ salt;
    link.data = emulate_latency(std::move(link.data), c);
    c.seed = config.seed ^ (salt + 1);
    link.intr = emulate_latency(std::move(link.intr), c);
    c.seed = config.seed ^ (salt + 2);
    link.clock = emulate_latency(std::move(link.clock), c);
  };
  wrap(pair.hw, 0x10);
  wrap(pair.board, 0x20);
  return pair;
}

}  // namespace vhp::net
