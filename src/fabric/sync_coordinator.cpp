#include "vhp/fabric/sync_coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <thread>

#include "vhp/common/format.hpp"

namespace vhp::fabric {

Status SyncConfig::validate(std::size_t n_nodes) const {
  if (n_nodes == 0) {
    return Status{StatusCode::kInvalidArgument,
                  "SyncConfig: at least one node required"};
  }
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (quantum(i) == 0) {
      return Status{StatusCode::kInvalidArgument,
                    strformat("SyncConfig: node {} quantum is 0", i)};
    }
  }
  if (evict_after_misses > 0 && watchdog.count() == 0) {
    return Status{StatusCode::kInvalidArgument,
                  "SyncConfig: eviction needs a nonzero watchdog"};
  }
  return Status::Ok();
}

cosim::SyncPolicy SyncConfig::to_policy() const {
  cosim::SyncPolicy policy;
  policy.quantum(t_sync).watchdog(watchdog).evict_after(evict_after_misses);
  for (std::size_t i = 0; i < t_sync_overrides.size(); ++i) {
    if (t_sync_overrides[i] != 0) policy.node_quantum(i, t_sync_overrides[i]);
  }
  return policy;
}

namespace {

/// Legacy view of a policy, backing SyncCoordinator::config().
SyncConfig mirror_config(const cosim::SyncPolicy& policy) {
  SyncConfig config;
  config.t_sync = policy.quantum();
  config.t_sync_overrides = policy.overrides();
  config.watchdog = policy.watchdog();
  config.evict_after_misses = policy.evict_after_misses();
  return config;
}

}  // namespace

SyncCoordinator::SyncCoordinator(cosim::SyncPolicy policy,
                                 std::vector<net::Channel*> clocks,
                                 std::vector<std::string> names,
                                 obs::Hub* hub)
    : policy_(std::move(policy)),
      config_(mirror_config(policy_)),
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
    std::string name =
        i < names.size() && !names[i].empty() ? names[i]
                                              : strformat("node{}", i);
    const u64 quantum = std::max<u64>(1, policy_.node_quantum(i));
    nodes_.push_back(Node{
        clocks[i], name, quantum, 0, quantum, std::nullopt,
        hub_->metrics().counter("fabric." + name + ".acks"),
        hub_->metrics().histogram("fabric." + name + ".grant_cycles")});
  }
}

SyncCoordinator::SyncCoordinator(const SyncConfig& config,
                                 std::vector<net::Channel*> clocks,
                                 std::vector<std::string> names,
                                 obs::Hub* hub)
    : SyncCoordinator(config.to_policy(), std::move(clocks), std::move(names),
                      hub) {}

Status SyncCoordinator::handshake() {
  if (!config_status_.ok()) return config_status_;
  if (handshaken_) return Status::Ok();
  std::vector<std::size_t> pending(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) pending[i] = i;
  Status s = gather(std::move(pending), {});
  if (!s.ok()) return s;
  // The boot acks are the first chance to adapt: a node that already knows
  // it sleeps through the first default quantum gets a longer first grant.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    if (node.alive) {
      node.next_due = std::max<u64>(1, policy_.grant(i, 0, node.lookahead));
    }
  }
  handshaken_ = true;
  log_.debug("handshake complete, {} nodes frozen", nodes_.size());
  return Status::Ok();
}

u64 SyncCoordinator::next_due() const {
  u64 due = ~u64{0};
  for (const Node& node : nodes_) {
    if (node.alive) due = std::min(due, node.next_due);
  }
  return due;
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
  evictions_.inc();
  hub_->metrics().counter("fabric." + node.name + ".evicted").inc();
  hub_->tracer().instant("fabric.node_evicted", "fabric", index, "node");
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
  const auto timeout = config_.watchdog.count() > 0
                           ? std::optional{config_.watchdog}
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
  // Re-base from the returning ack's lookahead (fixed mode: one quantum
  // out, as before). A stale pre-eviction promise is gone — evict_node
  // cleared it — so only this fresh ack shapes the next grant.
  node.lookahead = time_ack->lookahead;
  note_lookahead(node.lookahead);
  node.next_due = cycle + policy_.grant(index, cycle, node.lookahead);
  node.acks.inc();
  acks_received_.inc();
  rejoins_.inc();
  hub_->tracer().instant("fabric.node_rejoined", "fabric", index, "node");
  log_.info("{} (node {}) rejoined at cycle {}", node.name, index, cycle);
  return Status::Ok();
}

Status SyncCoordinator::run_barrier(u64 cycle,
                                    const std::function<Status()>& service) {
  if (!config_status_.ok()) return config_status_;
  barriers_.inc();
  obs::Tracer& tracer = hub_->tracer();
  const u64 span_start = tracer.enabled() ? tracer.now_ns() : 0;
  const auto wait_start = std::chrono::steady_clock::now();
  // Wire v3: stamp the round only when the timeline is armed, so default
  // runs keep the v1/v2 frame bytes (bit-exact recording parity). Boards
  // echo whatever they received, so mixed stamped/unstamped parties mix.
  const bool timed_spans = timeline_.enabled();
  const u64 round = timed_spans ? ++round_ : 0;
  const u64 scatter_start = timed_spans ? timeline_.now_ns() : 0;

  // Scatter: one CLOCK_TICK per due node, granting the cycles elapsed since
  // its previous grant (== its quantum unless due-cycles coincide oddly).
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    if (!node.alive || node.next_due > cycle) continue;
    const u64 elapsed = cycle - node.last_granted;
    net::ClockTick tick{cycle, static_cast<u32>(elapsed)};
    if (timed_spans) tick.round = round;
    Status s = net::send_msg(*node.clock, tick);
    if (!s.ok()) {
      if (config_.evict_after_misses > 0) {
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
    pending.push_back(i);
  }
  const u64 scatter_end = timed_spans ? timeline_.now_ns() : 0;

  const std::vector<std::size_t> ticked = pending;
  Status s = gather(std::move(pending), service);
  if (!s.ok()) return s;

  // Adaptive re-base: every ticked node just froze again and its ack says
  // when it can next interact. max(min, min(lookahead - cycle, max)) keeps
  // the grant finite — a wrong (too large) lookahead costs at most
  // max_quantum of accuracy, never liveness.
  for (std::size_t i : ticked) {
    Node& node = nodes_[i];
    if (!node.alive) continue;
    node.next_due = cycle + policy_.grant(i, cycle, node.lookahead);
  }

  const auto wait_end = std::chrono::steady_clock::now();
  barrier_wait_ns_.record_ns(static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wait_end -
                                                           wait_start)
          .count()));
  if (timed_spans && !ticked.empty()) {
    const u64 now = timeline_.now_ns();
    spans_.record({round, 0, obs::SpanPhase::kScatter, scatter_start,
                   scatter_end, cycle});
    u64 last_ack = scatter_end;
    for (std::size_t i : ticked) {
      const Node& node = nodes_[i];
      // Evicted-mid-gather nodes never acked; they carry no wait span.
      if (!node.alive || node.ack_recv_ns < node.tick_sent_ns) continue;
      spans_.record({round, static_cast<u32>(i), obs::SpanPhase::kNodeWait,
                     node.tick_sent_ns, node.ack_recv_ns, cycle});
      last_ack = std::max(last_ack, node.ack_recv_ns);
    }
    spans_.record({round, 0, obs::SpanPhase::kGather, scatter_end, last_ack,
                   cycle});
    spans_.record({round, 0, obs::SpanPhase::kBarrier, scatter_start, now,
                   cycle});
  }
  if (tracer.enabled()) {
    tracer.complete("fabric.barrier", "fabric", span_start, tracer.now_ns(),
                    cycle, "cycle");
  }
  return Status::Ok();
}

Status SyncCoordinator::gather(std::vector<std::size_t> pending,
                               const std::function<Status()>& service) {
  const auto wait_start = std::chrono::steady_clock::now();
  auto deadline = config_.watchdog.count() > 0
                      ? wait_start + config_.watchdog
                      : std::chrono::steady_clock::time_point::max();
  // Bounded spin-then-wait: a short yield phase keeps the hot path (acks
  // arriving within microseconds) syscall-free, then the gather parks on
  // the stragglers' CLOCK doorbells (plus any set_wake_fds extras) instead
  // of burning a core for the rest of the quantum. The park is capped at
  // 1ms so the watchdog and the service callback keep their cadence even
  // against an fd-less transport.
  constexpr u32 kSpinRounds = 256;
  u32 idle_rounds = 0;
  while (!pending.empty()) {
    bool progressed = false;
    for (std::size_t p = 0; p < pending.size();) {
      Node& node = nodes_[pending[p]];
      auto ack = net::try_recv_msg(*node.clock);
      if (!ack.ok()) {
        if (config_.evict_after_misses > 0) {
          evict_node(pending[p], strformat("CLOCK channel failed: {}",
                                           ack.status().message()));
          pending[p] = pending.back();
          pending.pop_back();
          progressed = true;
          continue;
        }
        return Status{ack.status().code(),
                      strformat("fabric: CLOCK channel of {} failed: {}",
                                node.name, ack.status().message())};
      }
      if (!ack.value().has_value()) {
        ++p;
        continue;
      }
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
      node.missed = 0;
      if (timeline_.enabled()) node.ack_recv_ns = timeline_.now_ns();
      pending[p] = pending.back();
      pending.pop_back();
      progressed = true;
    }
    if (pending.empty()) break;
    if (service) {
      Status s = service();
      if (!s.ok()) return s;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      std::sort(pending.begin(), pending.end());
      if (config_.evict_after_misses > 0) {
        // Graceful degradation: charge every straggler one miss, evict the
        // ones that just reached the limit, and give the rest another
        // watchdog interval. The barrier stays live for the survivors.
        for (std::size_t p = 0; p < pending.size();) {
          Node& node = nodes_[pending[p]];
          if (++node.missed >= config_.evict_after_misses) {
            evict_node(pending[p],
                       strformat("missed {} consecutive barriers "
                                 "(watchdog {} ms)",
                                 node.missed, config_.watchdog.count()));
            pending[p] = pending.back();
            pending.pop_back();
          } else {
            ++p;
          }
        }
        deadline += config_.watchdog;
        continue;
      }
      // The straggler report: name the nodes still missing — with their
      // quantum and last grant — so a wedged board is diagnosable from the
      // Status alone.
      const auto waited =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - wait_start);
      std::string stragglers;
      for (std::size_t index : pending) {
        if (!stragglers.empty()) stragglers += ", ";
        stragglers += strformat(
            "{} (node {}, quantum {} cycles, last granted at cycle {})",
            nodes_[index].name, index, nodes_[index].quantum,
            nodes_[index].last_granted);
      }
      return Status{
          StatusCode::kDeadlineExceeded,
          strformat("fabric: barrier watchdog expired after {} ms (bound {} "
                    "ms) waiting for TIME_ACK from {}",
                    waited.count(), config_.watchdog.count(), stragglers)};
    }
    if (progressed) {
      idle_rounds = 0;
      continue;
    }
    if (++idle_rounds < kSpinRounds) {
      std::this_thread::yield();
      continue;
    }
    std::vector<pollfd> fds;
    fds.reserve(pending.size() + wake_fds_.size());
    for (std::size_t index : pending) {
      const int fd = nodes_[index].clock->readable_fd();
      if (fd >= 0) fds.push_back(pollfd{fd, POLLIN, 0});
    }
    for (int fd : wake_fds_) fds.push_back(pollfd{fd, POLLIN, 0});
    auto cap = std::chrono::milliseconds{1};
    if (deadline != std::chrono::steady_clock::time_point::max()) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      cap = std::clamp(left, std::chrono::milliseconds{0}, cap);
    }
    if (!fds.empty()) {
      (void)::poll(fds.data(), fds.size(), static_cast<int>(cap.count()));
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds{50});
    }
  }
  // Each node flushed its quantum's DATA before its TIME_ACK, but an ack
  // can be seen in the same pass that first sees that DATA. Serve it now,
  // so the barrier always ends with the quantum's DATA handled — not, by
  // host timing, at the next cycle or after run_cycles() has returned.
  if (service) return service();
  return Status::Ok();
}

void SyncCoordinator::shutdown() {
  for (Node& node : nodes_) {
    if (node.alive && node.clock != nullptr) {
      (void)net::send_msg(*node.clock, net::Shutdown{});
    }
  }
}

}  // namespace vhp::fabric
