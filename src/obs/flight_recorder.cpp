#include "vhp/obs/flight_recorder.hpp"

#include "vhp/common/checksum.hpp"

namespace vhp::obs {

std::string_view to_string(LinkPort port) {
  switch (port) {
    case LinkPort::kData: return "data";
    case LinkPort::kInt: return "int";
    case LinkPort::kClock: return "clock";
  }
  return "?";
}

std::string_view to_string(LinkDir dir) {
  return dir == LinkDir::kTx ? "tx" : "rx";
}

std::optional<LinkPort> link_port_from_name(std::string_view name) {
  if (name == "data") return LinkPort::kData;
  if (name == "int") return LinkPort::kInt;
  if (name == "clock") return LinkPort::kClock;
  return std::nullopt;
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config, std::string side,
                               const Timeline& clock)
    : config_(config), side_(std::move(side)), clock_(clock) {
  if (config_.enabled && config_.ring_frames > 0) {
    ring_.resize(config_.ring_frames);
    for (auto& slot : ring_) slot.payload.reserve(config_.max_payload_bytes);
  }
}

void FlightRecorder::set_hw_time_source(std::function<u64()> source) {
  std::scoped_lock lock(mu_);
  hw_time_ = std::move(source);
}

void FlightRecorder::set_board_time_source(std::function<u64()> source) {
  std::scoped_lock lock(mu_);
  board_time_ = std::move(source);
}

void FlightRecorder::record(LinkPort port, LinkDir dir,
                            std::span<const u8> frame, u32 node,
                            std::optional<u64> wall_ns) {
  if (!config_.enabled || ring_.empty()) return;
  const u64 stamp = wall_ns ? *wall_ns : clock_.now_ns();
  const std::size_t stored =
      std::min(frame.size(), config_.max_payload_bytes);
  std::scoped_lock lock(mu_);
  FrameRecord& slot = ring_[next_seq_ % ring_.size()];
  slot.seq = next_seq_++;
  slot.port = port;
  slot.dir = dir;
  slot.node = node;
  slot.flags = 0;
  slot.msg_type = frame.empty() ? 0 : frame[0];
  slot.truncated = stored < frame.size();
  slot.hw_cycle = hw_time_ ? hw_time_() : 0;
  slot.board_tick = board_time_ ? board_time_() : 0;
  slot.wall_ns = stamp;
  slot.payload_size = static_cast<u32>(frame.size());
  slot.digest = crc32(frame);
  slot.payload.assign(frame.begin(),
                      frame.begin() + static_cast<std::ptrdiff_t>(stored));
}

void FlightRecorder::note_fault(LinkPort port, LinkDir dir,
                                std::string_view kind, u32 node) {
  if (!config_.enabled || ring_.empty()) return;
  const u64 wall_ns = clock_.now_ns();
  const auto* bytes = reinterpret_cast<const u8*>(kind.data());
  const std::size_t stored =
      std::min(kind.size(), config_.max_payload_bytes);
  std::scoped_lock lock(mu_);
  FrameRecord& slot = ring_[next_seq_ % ring_.size()];
  slot.seq = next_seq_++;
  slot.port = port;
  slot.dir = dir;
  slot.node = node;
  slot.flags = kFrameFlagInjected;
  slot.msg_type = 0;
  slot.truncated = stored < kind.size();
  slot.hw_cycle = hw_time_ ? hw_time_() : 0;
  slot.board_tick = board_time_ ? board_time_() : 0;
  slot.wall_ns = wall_ns;
  slot.payload_size = static_cast<u32>(kind.size());
  slot.digest = crc32({bytes, kind.size()});
  slot.payload.assign(bytes, bytes + stored);
}

u64 FlightRecorder::recorded() const {
  std::scoped_lock lock(mu_);
  return next_seq_;
}

u64 FlightRecorder::evicted() const {
  std::scoped_lock lock(mu_);
  return next_seq_ > ring_.size() ? next_seq_ - ring_.size() : 0;
}

std::vector<FrameRecord> FlightRecorder::snapshot() const {
  std::scoped_lock lock(mu_);
  std::vector<FrameRecord> out;
  if (ring_.empty() || next_seq_ == 0) return out;
  const u64 count = std::min<u64>(next_seq_, ring_.size());
  out.reserve(count);
  for (u64 seq = next_seq_ - count; seq < next_seq_; ++seq) {
    out.push_back(ring_[seq % ring_.size()]);
  }
  return out;
}

void FlightRecorder::export_to(MetricsRegistry& registry) const {
  if (!config_.enabled || side_.empty()) return;
  registry.gauge("obs.record." + side_ + ".frames")
      .set(static_cast<i64>(recorded()));
  registry.gauge("obs.record." + side_ + ".evicted")
      .set(static_cast<i64>(evicted()));
}

}  // namespace vhp::obs
