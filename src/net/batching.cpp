#include "vhp/net/batching.hpp"

#include "vhp/common/format.hpp"

namespace vhp::net {

BatchingChannel::BatchingChannel(ChannelPtr inner, BatchingConfig config,
                                 obs::Hub* hub, std::string name)
    : inner_(std::move(inner)), config_(config) {
  // Plain counters stay live even with obs disarmed (repo convention:
  // metric counters always land in metrics_json; only costly instruments
  // gate on the obs switch).
  if (hub != nullptr && !name.empty()) {
    frames_counter_ =
        &hub->metrics().counter(strformat("net.batch.{}.frames", name));
    flushes_counter_ =
        &hub->metrics().counter(strformat("net.batch.{}.flushes", name));
  }
}

BatchingChannel::~BatchingChannel() {
  // Best-effort: anything still pending goes out before the transport
  // drops (close() below also flushes; this covers destruction without
  // close).
  std::scoped_lock lock(mu_);
  (void)flush_locked();
}

Status BatchingChannel::send(std::span<const u8> frame) {
  std::scoped_lock lock(mu_);
  pending_.emplace_back(frame.begin(), frame.end());
  pending_bytes_ += frame.size();
  ++frames_batched_;
  if (frames_counter_ != nullptr) frames_counter_->inc();
  if (pending_bytes_ >= config_.max_pending_bytes ||
      pending_.size() >= config_.max_pending_frames) {
    return flush_locked();
  }
  return Status::Ok();
}

Status BatchingChannel::send_many(std::span<const Bytes> frames) {
  std::scoped_lock lock(mu_);
  for (const auto& f : frames) {
    pending_.push_back(f);
    pending_bytes_ += f.size();
    ++frames_batched_;
    if (frames_counter_ != nullptr) frames_counter_->inc();
  }
  if (pending_bytes_ >= config_.max_pending_bytes ||
      pending_.size() >= config_.max_pending_frames) {
    return flush_locked();
  }
  return Status::Ok();
}

Status BatchingChannel::flush() {
  std::scoped_lock lock(mu_);
  return flush_locked();
}

Status BatchingChannel::flush_locked() {
  if (pending_.empty()) return inner_->flush();
  ++flushes_;
  if (flushes_counter_ != nullptr) flushes_counter_->inc();
  Status s = inner_->send_many(pending_);
  pending_.clear();
  pending_bytes_ = 0;
  if (!s.ok()) return s;
  return inner_->flush();
}

Result<std::optional<Bytes>> BatchingChannel::try_recv() {
  return inner_->try_recv();
}

void BatchingChannel::close() {
  {
    std::scoped_lock lock(mu_);
    (void)flush_locked();
  }
  inner_->close();
}

int BatchingChannel::readable_fd() { return inner_->readable_fd(); }

std::chrono::steady_clock::time_point BatchingChannel::held_until() {
  return inner_->held_until();
}

u64 BatchingChannel::frames_batched() const {
  std::scoped_lock lock(mu_);
  return frames_batched_;
}

u64 BatchingChannel::flushes() const {
  std::scoped_lock lock(mu_);
  return flushes_;
}

std::size_t BatchingChannel::pending_frames() const {
  std::scoped_lock lock(mu_);
  return pending_.size();
}

CosimLink batch_link(CosimLink link, bool enabled,
                     const BatchingConfig& config, obs::Hub* hub,
                     const std::string& side) {
  if (!enabled) return link;
  link.data = std::make_unique<BatchingChannel>(std::move(link.data), config,
                                                hub, side + ".data");
  link.intr = std::make_unique<BatchingChannel>(std::move(link.intr), config,
                                                hub, side + ".int");
  return link;
}

}  // namespace vhp::net
