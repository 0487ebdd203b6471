#include "vhp/cosim/sync_coordinator.hpp"

#include <algorithm>

#include "vhp/common/format.hpp"

namespace vhp::cosim {

std::string node_name(const std::string& name, std::size_t i) {
  return name.empty() ? strformat("node{}", i) : name;
}

SyncCoordinator::SyncCoordinator(SyncPolicy policy,
                                 std::vector<net::Channel*> clocks,
                                 std::vector<std::string> names,
                                 obs::Hub* hub)
    : policy_(std::move(policy)),
      config_status_(policy_.validate(clocks.size())),
      owned_hub_(hub != nullptr ? nullptr : new obs::Hub()),
      hub_(hub != nullptr ? hub : owned_hub_.get()),
      barriers_(hub_->metrics().counter("fabric.barriers")),
      ticks_sent_(hub_->metrics().counter("fabric.ticks_sent")),
      acks_received_(hub_->metrics().counter("fabric.acks_received")),
      evictions_(hub_->metrics().counter("fabric.node_evicted")),
      rejoins_(hub_->metrics().counter("fabric.node_rejoined")),
      lookahead_acks_(hub_->metrics().counter("fabric.lookahead_acks")),
      lookahead_unbounded_(
          hub_->metrics().counter("fabric.lookahead_unbounded")),
      barrier_wait_ns_(hub_->metrics().histogram("fabric.barrier_wait_ns")),
      timeline_(hub_->timeline()),
      spans_(timeline_.sink("fabric")) {
  if (!config_status_.ok()) {
    log_.warn("invalid config: {}", config_status_.to_string());
  }
  nodes_.reserve(clocks.size());
  for (std::size_t i = 0; i < clocks.size(); ++i) {
    std::string name = node_name(i < names.size() ? names[i] : "", i);
    const u64 quantum = std::max<u64>(1, policy_.node_quantum(i));
    nodes_.push_back(Node{
        clocks[i], name, quantum, 0, quantum, std::nullopt,
        hub_->metrics().counter("fabric." + name + ".acks"),
        hub_->metrics().histogram("fabric." + name + ".grant_cycles")});
  }
  pending_.reserve(nodes_.size());
  ticked_.reserve(nodes_.size());
  update_next_due();
}

Status SyncCoordinator::handshake(const std::function<Status()>& service) {
  return wait_for([&](bool* done) { return step_handshake(service, done); });
}

Status SyncCoordinator::wait_for(
    const std::function<Status(bool* done)>& step) {
  Status s;
  std::vector<net::Channel*> clocks;
  clocks.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    if (node.alive && node.clock != nullptr) clocks.push_back(node.clock);
  }
  (void)net::wait_until(
      [&] {
        bool done = false;
        s = step(&done);
        return !s.ok() || done;
      },
      clocks);
  return s;
}

Status SyncCoordinator::step_handshake(const std::function<Status()>& service,
                                       bool* done) {
  *done = handshaken_;
  if (!config_status_.ok()) return config_status_;
  if (handshaken_) return Status::Ok();
  if (phase_ != Phase::kHandshake) {
    phase_ = Phase::kHandshake;
    pending_.clear();
    for (std::size_t i = 0; i < nodes_.size(); ++i) pending_.push_back(i);
    arm_watchdog();
  }
  Status s = gather_pass(service);
  if (!s.ok() || !pending_.empty()) return s;
  // The boot acks are the first chance to adapt: a node that already knows
  // it sleeps through the first default quantum gets a longer first grant.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    if (node.alive) {
      node.next_due = std::max<u64>(1, policy_.grant(i, 0, node.lookahead));
    }
  }
  update_next_due();
  phase_ = Phase::kIdle;
  handshaken_ = true;
  *done = true;
  log_.debug("handshake complete, {} nodes frozen", nodes_.size());
  return Status::Ok();
}

void SyncCoordinator::update_next_due() {
  next_due_ = ~u64{0};
  for (const Node& node : nodes_) {
    if (node.alive) next_due_ = std::min(next_due_, node.next_due);
  }
}

void SyncCoordinator::note_lookahead(const std::optional<u64>& lookahead) {
  if (!lookahead.has_value()) return;
  lookahead_acks_.inc();
  if (*lookahead == net::kLookaheadUnbounded) lookahead_unbounded_.inc();
}

std::size_t SyncCoordinator::alive_count() const {
  std::size_t n = 0;
  for (const Node& node : nodes_) n += node.alive ? 1 : 0;
  return n;
}

void SyncCoordinator::evict_node(std::size_t index, std::string_view why) {
  Node& node = nodes_[index];
  node.alive = false;
  node.lookahead.reset();  // a dead node's promise must not shape grants
  update_next_due();
  evictions_.inc();
  hub_->metrics().counter("fabric." + node.name + ".evicted").inc();
  mark(index, obs::SpanPhase::kEvict, node.last_granted);
  log_.warn("evicting {} (node {}): {}", node.name, index, why);
}

Status SyncCoordinator::rejoin(std::size_t index, u64 cycle) {
  if (!config_status_.ok()) return config_status_;
  if (index >= nodes_.size()) {
    return Status{StatusCode::kOutOfRange,
                  strformat("fabric: rejoin of unknown node {}", index)};
  }
  Node& node = nodes_[index];
  if (node.alive) {
    return Status{StatusCode::kFailedPrecondition,
                  strformat("fabric: {} is not evicted", node.name)};
  }
  // The returning party announces itself frozen with a TIME_ACK, exactly
  // like the boot handshake. Any ack counts — a stale one queued before the
  // eviction only means the node had already checked in.
  const auto timeout = policy_.watchdog().count() > 0
                           ? std::optional{policy_.watchdog()}
                           : std::nullopt;
  auto ack = net::recv_msg(*node.clock, timeout);
  if (!ack.ok()) {
    return Status{ack.status().code(),
                  strformat("fabric: rejoin of {} failed: {}", node.name,
                            ack.status().message())};
  }
  const auto* time_ack = std::get_if<net::TimeAck>(&ack.value());
  if (time_ack == nullptr) {
    return Status{StatusCode::kInternal,
                  strformat("fabric: rejoin of {} expected TIME_ACK, got {}",
                            node.name,
                            net::to_string(net::type_of(ack.value())))};
  }
  node.alive = true;
  node.missed = 0;
  node.last_granted = cycle;
  node.data_sent = node.data_served = time_ack->data_sent;
  // Re-base from the returning ack's lookahead (fixed mode: one quantum
  // out, as before). A stale pre-eviction promise is gone — evict_node
  // cleared it — so only this fresh ack shapes the next grant.
  node.lookahead = time_ack->lookahead;
  note_lookahead(node.lookahead);
  node.next_due = cycle + policy_.grant(index, cycle, node.lookahead);
  update_next_due();
  node.acks.inc();
  acks_received_.inc();
  rejoins_.inc();
  mark(index, obs::SpanPhase::kRejoin, cycle);
  log_.info("{} (node {}) rejoined at cycle {}", node.name, index, cycle);
  return Status::Ok();
}

Status SyncCoordinator::run_barrier(u64 cycle,
                                    const std::function<Status()>& service) {
  return wait_for(
      [&](bool* done) { return step_barrier(cycle, service, done); });
}

Status SyncCoordinator::step_barrier(u64 cycle,
                                     const std::function<Status()>& service,
                                     bool* done) {
  *done = false;
  if (!config_status_.ok()) return config_status_;
  if (phase_ != Phase::kBarrier) {
    // The step that scatters only starts the gather: no TIME_ACK can be
    // back yet, so the first pass waits for the next step.
    Status s = scatter(cycle);
    if (!s.ok() || !pending_.empty()) return s;
  }
  Status s = gather_pass(service);
  if (!s.ok() || !pending_.empty()) return s;
  finish_barrier(cycle);
  *done = true;
  return Status::Ok();
}

void SyncCoordinator::arm_watchdog() {
  wait_start_ = std::chrono::steady_clock::now();
  deadline_ = policy_.watchdog().count() > 0
                  ? wait_start_ + policy_.watchdog()
                  : std::chrono::steady_clock::time_point::max();
}

Status SyncCoordinator::scatter(u64 cycle) {
  barriers_.inc();
  arm_watchdog();
  // Stamp the round only when the timeline is armed, so default runs keep
  // round 0 and their frame bytes (bit-exact recording parity). Boards
  // echo whatever they received.
  const bool timed_spans = timeline_.enabled();
  if (timed_spans) ++round_;
  scatter_start_ = timed_spans ? timeline_.now_ns() : 0;

  // Scatter: one CLOCK_TICK per due node, granting the cycles elapsed since
  // its previous grant (== its quantum unless due-cycles coincide oddly).
  pending_.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    if (!node.alive || node.next_due > cycle) continue;
    const u64 elapsed = cycle - node.last_granted;
    net::ClockTick tick{cycle, static_cast<u32>(elapsed)};
    if (timed_spans) tick.round = round_;
    Status s = net::send_msg(*node.clock, tick);
    if (!s.ok()) {
      if (policy_.evict_after_misses() > 0) {
        // Under the eviction policy a dead transport degrades like a
        // straggler: drop the node, keep the survivors simulating.
        evict_node(i, strformat("CLOCK_TICK failed: {}", s.message()));
        continue;
      }
      return Status{s.code(), strformat("fabric: CLOCK_TICK to {} failed: {}",
                                        node.name, s.message())};
    }
    ticks_sent_.inc();
    node.grants.record_ns(elapsed);  // grant-size distribution, in cycles
    node.last_granted = cycle;
    if (timed_spans) {
      node.tick_sent_ns = timeline_.now_ns();
      node.ack_recv_ns = 0;
    }
    // Provisional fixed-cadence due-cycle; re-based from the fresh ack's
    // lookahead once the gather delivers it.
    node.next_due = cycle + node.quantum;
    node.acked = false;
    pending_.push_back(i);
  }
  scatter_end_ = timed_spans ? timeline_.now_ns() : 0;
  update_next_due();
  ticked_ = pending_;
  phase_ = Phase::kBarrier;
  return Status::Ok();
}

void SyncCoordinator::finish_barrier(u64 cycle) {
  phase_ = Phase::kIdle;
  // Adaptive re-base: every ticked node just froze again and its ack says
  // when it can next interact. max(min, min(lookahead - cycle, max)) keeps
  // the grant finite — a wrong (too large) lookahead costs at most
  // max_quantum of accuracy, never liveness.
  for (std::size_t i : ticked_) {
    Node& node = nodes_[i];
    if (!node.alive) continue;
    node.next_due = cycle + policy_.grant(i, cycle, node.lookahead);
  }
  update_next_due();

  barrier_wait_ns_.record_ns(static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wait_start_)
          .count()));
  if (timeline_.enabled() && !ticked_.empty()) {
    const u64 now = timeline_.now_ns();
    spans_.record({round_, 0, obs::SpanPhase::kScatter, scatter_start_,
                   scatter_end_, cycle});
    u64 last_ack = scatter_end_;
    for (std::size_t i : ticked_) {
      const Node& node = nodes_[i];
      // Evicted-mid-gather nodes never acked; they carry no wait span.
      if (!node.alive || node.ack_recv_ns < node.tick_sent_ns) continue;
      spans_.record({round_, static_cast<u32>(i), obs::SpanPhase::kNodeWait,
                     node.tick_sent_ns, node.ack_recv_ns, cycle});
      last_ack = std::max(last_ack, node.ack_recv_ns);
    }
    spans_.record({round_, 0, obs::SpanPhase::kGather, scatter_end_, last_ack,
                   cycle});
    spans_.record({round_, 0, obs::SpanPhase::kBarrier, scatter_start_, now,
                   cycle});
  }
}

void SyncCoordinator::mark(std::size_t index, obs::SpanPhase phase,
                           u64 cycle) {
  if (!timeline_.enabled()) return;
  const u64 now = timeline_.now_ns();
  spans_.record({round_, static_cast<u32>(index), phase, now, now, cycle});
}

Status SyncCoordinator::gather_pass(const std::function<Status()>& service) {
  for (std::size_t p = 0; p < pending_.size();) {
    Node& node = nodes_[pending_[p]];
    if (node.acked) {
      ++p;
      continue;
    }
    auto ack = net::try_recv_msg(*node.clock);
    if (!ack.ok()) {
      if (policy_.evict_after_misses() > 0) {
        evict_node(pending_[p], strformat("CLOCK channel failed: {}",
                                          ack.status().message()));
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(p));
        continue;
      }
      return Status{ack.status().code(),
                    strformat("fabric: CLOCK channel of {} failed: {}",
                              node.name, ack.status().message())};
    }
    ++p;
    if (!ack.value().has_value()) continue;
    const auto* time_ack = std::get_if<net::TimeAck>(&*ack.value());
    if (time_ack == nullptr) {
      return Status{StatusCode::kInternal,
                    strformat("fabric: expected TIME_ACK from {}, got {}",
                              node.name,
                              net::to_string(net::type_of(*ack.value())))};
    }
    acks_received_.inc();
    node.acks.inc();
    node.lookahead = time_ack->lookahead;
    note_lookahead(node.lookahead);
    node.data_sent = time_ack->data_sent;
    node.acked = true;
    node.missed = 0;
    if (timeline_.enabled()) node.ack_recv_ns = timeline_.now_ns();
  }
  // DATA service runs in every pass, after the acks it took: a board sends
  // its quantum's DATA before its TIME_ACK, but on separate ports either
  // may land first. The fence below waits for whatever the ack counts, so
  // the barrier always ends with the quantum's DATA handled — not, by host
  // timing, somewhere in the next quantum.
  if (service) {
    if (Status s = service(); !s.ok()) return s;
  }
  std::erase_if(pending_, [this](std::size_t index) {
    const Node& node = nodes_[index];
    return node.acked && node.data_served >= node.data_sent;
  });
  if (pending_.empty() ||
      deadline_ == std::chrono::steady_clock::time_point::max() ||
      std::chrono::steady_clock::now() < deadline_) {
    return Status::Ok();
  }
  const u64 watchdog_ms = static_cast<u64>(policy_.watchdog().count());
  if (policy_.evict_after_misses() == 0) {
    // The straggler report: name each node still missing — with its
    // quantum, its last grant and what it owes — so a wedged board is
    // diagnosable from the Status alone. pending_ is in node order.
    std::string stragglers;
    for (std::size_t index : pending_) {
      const Node& node = nodes_[index];
      if (!stragglers.empty()) stragglers += "; ";
      stragglers += strformat(
          "{} (node {}, quantum {} cycles, last granted at cycle {}) {}",
          node.name, index, node.quantum, node.last_granted,
          node.acked ? strformat("for DATA: TIME_ACK counts {} sent, {} "
                                 "served",
                                 node.data_sent, node.data_served)
                     : std::string("for its TIME_ACK"));
    }
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - wait_start_);
    return Status{
        StatusCode::kDeadlineExceeded,
        strformat("fabric: barrier watchdog expired after {} ms (bound {} "
                  "ms) waiting on {}",
                  waited.count(), watchdog_ms, stragglers)};
  }
  // Graceful degradation: charge every straggler one miss, evict the ones
  // that just reached the limit, and give the rest another watchdog
  // interval. The barrier stays live for the survivors.
  std::erase_if(pending_, [&](std::size_t index) {
    Node& node = nodes_[index];
    if (++node.missed < policy_.evict_after_misses()) return false;
    evict_node(index, strformat("missed {} consecutive barriers (watchdog {} "
                                "ms)",
                                node.missed, watchdog_ms));
    return true;
  });
  deadline_ += policy_.watchdog();
  return Status::Ok();
}

void SyncCoordinator::shutdown() {
  for (Node& node : nodes_) {
    if (node.alive && node.clock != nullptr) {
      (void)net::send_msg(*node.clock, net::Shutdown{});
    }
  }
}

}  // namespace vhp::cosim
