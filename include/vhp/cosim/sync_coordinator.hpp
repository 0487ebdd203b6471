// N-party generalization of the paper's virtual tick (Section 5.3).
//
// The two-party protocol grants the board T_sync cycles with one CLOCK_TICK
// and blocks for the TIME_ACK. With N boards the simulated-time master runs
// the same exchange as a conservative barrier: scatter one CLOCK_TICK per
// due node, gather the N TIME_ACKs, and advance simulated time only once
// every party has checked in. No node ever observes simulated time beyond
// its last grant, so the composition is deadlock-free and deterministic for
// deterministic parties — the same argument as the two-party proof, applied
// per link.
//
// Nodes may sync at different rates (per-node T_sync override): a barrier at
// cycle C ticks exactly the subset due at C, granting each the cycles
// elapsed since its previous grant. The master never runs past the earliest
// pending due-cycle, which keeps the conservative bound tight per node
// instead of forcing the fastest cadence on everyone.
//
// Adaptive mode (cosim::SyncPolicy::adaptive, DESIGN.md §10) varies each
// node's quantum with the lookahead its TIME_ACKs advertise: after the
// gather at cycle C, a node whose ack promises "nothing before cycle L"
// is next due at C + max(min_quantum, min(L - C, max_quantum)). Nodes
// whose acks advertise no lookahead keep their fixed cadence, so adaptive
// and fixed parties mix freely in one barrier.
//
// The DATA fence (DESIGN.md §14): every TIME_ACK reports how many DATA
// frames the board has sent in total, and a gather completes a node only
// once its ack is in *and* the master has served that many of its frames
// (note_data_served). DATA that a quantum sent therefore always takes
// effect at the barrier that ends the quantum, however the transport
// orders the DATA and CLOCK ports — and a timed master need not poll DATA
// while it simulates: its boards are frozen then, and a frame one sends
// anyway waits for the next barrier.
//
// The coordinator owns no transport: it is handed one CLOCK channel per node
// (the master kernel's links, or a unit test's raw inproc pairs — the
// barrier logic is fiber-free and runs under TSan). A two-party session is
// the N=1 case: CosimKernel grants and gathers through this class whatever
// the number of boards.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "vhp/common/log.hpp"
#include "vhp/common/status.hpp"
#include "vhp/cosim/sync_policy.hpp"
#include "vhp/net/channel.hpp"
#include "vhp/obs/hub.hpp"

namespace vhp::cosim {

/// Node i's name: `name`, or "node<i>" when it is empty — the one naming
/// rule of a co-simulation. The coordinator, the kernel's per-link
/// counters, and the fabric's hubs, boards and recording files follow it.
[[nodiscard]] std::string node_name(const std::string& name, std::size_t i);

class SyncCoordinator {
 public:
  /// `clocks[i]` is the master-side CLOCK channel of node i (borrowed; the
  /// caller keeps the links alive). `names[i]` labels node i in errors and
  /// logs — pass {} for "node0", "node1", ... `hub` may be nullptr
  /// (standalone unit tests); metrics then go to a private registry.
  ///
  /// With `policy.adaptive()`, each gathered TIME_ACK's lookahead re-bases
  /// that node's next due-cycle to `cycle + policy.grant(...)` — a sleeping
  /// node gets a long grant (up to max_quantum), a busy one keeps syncing
  /// at min_quantum — while the conservative barrier argument is untouched:
  /// a node still never observes simulated time beyond its grant.
  SyncCoordinator(SyncPolicy policy, std::vector<net::Channel*> clocks,
                  std::vector<std::string> names = {},
                  obs::Hub* hub = nullptr);

  SyncCoordinator(const SyncCoordinator&) = delete;
  SyncCoordinator& operator=(const SyncCoordinator&) = delete;

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const SyncPolicy& policy() const { return policy_; }
  [[nodiscard]] const std::string& name(std::size_t node) const {
    return nodes_[node].name;
  }

  /// Gathers every node's initial "frozen" TIME_ACK (the board reports it
  /// on boot), fenced like a barrier: DATA a board sent before its first
  /// ack is served here (`service`, as for run_barrier). Must complete
  /// before the first barrier; the watchdog applies and names the nodes
  /// that never reported.
  Status handshake(const std::function<Status()>& service = {});
  /// Non-blocking handshake step: one gather pass; *done once every node
  /// has reported (immediately after a completed handshake).
  Status step_handshake(const std::function<Status()>& service, bool* done);
  [[nodiscard]] bool handshaken() const { return handshaken_; }

  /// Earliest cycle at which any node's grant expires. The master must not
  /// simulate past it before running the barrier there.
  [[nodiscard]] u64 next_due() const { return next_due_; }

  /// The barrier: scatters CLOCK_TICK(cycle, elapsed) to every node due at
  /// `cycle`, then gathers their TIME_ACKs. `service` runs in every gather
  /// pass, after the pass has taken the acks that arrived (the master drains
  /// all DATA ports there, reporting each frame through note_data_served,
  /// which keeps the two-party deadlock-freedom argument); pass nullptr for
  /// none. A node is gathered once its ack is in and its DATA fence holds.
  /// On watchdog expiry returns kDeadlineExceeded naming the pending nodes,
  /// each with what it still owes.
  Status run_barrier(u64 cycle, const std::function<Status()>& service = {});
  /// Non-blocking barrier step (event-loop hosting): the first call at
  /// `cycle` scatters, every later one makes one gather pass under the
  /// watchdog; *done once every ticked node has acked. Repeat with the same
  /// `cycle` until done. run_barrier() is this step in net::wait_until.
  Status step_barrier(u64 cycle, const std::function<Status()>& service,
                      bool* done);
  /// True while a barrier's CLOCK_TICKs are out and TIME_ACKs still owed.
  [[nodiscard]] bool gathering() const { return phase_ == Phase::kBarrier; }

  /// The master served one DATA frame (DATA_WRITE or DATA_READ_REQ) of
  /// `node`: one step toward the count its TIME_ACKs report.
  void note_data_served(std::size_t node) { ++nodes_[node].data_served; }

  /// Sends SHUTDOWN on every live node's CLOCK channel (best effort).
  void shutdown();

  /// Eviction state (see SyncPolicy::evict_after).
  [[nodiscard]] bool alive(std::size_t node) const {
    return node < nodes_.size() && nodes_[node].alive;
  }
  [[nodiscard]] std::size_t alive_count() const;

  /// Re-admits an evicted node at the master's current `cycle`: waits (under
  /// the watchdog) for a fresh TIME_ACK on its CLOCK channel — the returning
  /// party announces itself frozen, exactly like the boot handshake — then
  /// schedules its next grant one quantum out. The DATA fence restarts from
  /// the returning ack's count: what the node sent before it is taken as
  /// served. kFailedPrecondition if the node is alive.
  Status rejoin(std::size_t node, u64 cycle);

  /// Barrier rounds stamped on the wire so far. 0 unless the hub's
  /// timeline is enabled — a stamped run's CLOCK/TIME_ACK frames differ
  /// from an unstamped one's (round 0), so stamping is gated on the
  /// timeline switch to keep default runs byte-exact. Monotone across
  /// eviction and rejoin.
  [[nodiscard]] u64 rounds() const { return round_; }

  /// Barriers completed / ticks scattered / acks gathered (boot acks
  /// included) / evictions.
  [[nodiscard]] u64 barriers() const { return barriers_.value(); }
  [[nodiscard]] u64 ticks_sent() const { return ticks_sent_.value(); }
  [[nodiscard]] u64 acks_received() const { return acks_received_.value(); }
  [[nodiscard]] u64 evictions() const { return evictions_.value(); }
  [[nodiscard]] u64 rejoins() const { return rejoins_.value(); }
  /// Acks that carried a lookahead, and the subset advertising "idle until
  /// data arrives" (kLookaheadUnbounded).
  [[nodiscard]] u64 lookahead_acks() const { return lookahead_acks_.value(); }
  [[nodiscard]] u64 lookahead_unbounded() const {
    return lookahead_unbounded_.value();
  }

  /// Introspection (tests, vhptrace): node i's next due-cycle and the
  /// lookahead from its latest TIME_ACK (nullopt: none advertised yet).
  [[nodiscard]] u64 node_due(std::size_t node) const {
    return nodes_[node].next_due;
  }
  [[nodiscard]] std::optional<u64> node_lookahead(std::size_t node) const {
    return nodes_[node].lookahead;
  }

 private:
  struct Node {
    net::Channel* clock;
    std::string name;
    u64 quantum;           // fixed quantum (policy.node_quantum)
    u64 last_granted = 0;  // cycle of the previous grant
    u64 next_due;          // next barrier this node takes part in
    std::optional<u64> lookahead;  // from the latest TIME_ACK
    obs::Counter& acks;            // fabric.<name>.acks
    obs::LatencyHistogram& grants; // fabric.<name>.grant_cycles
    bool alive = true;     // false once evicted
    u32 missed = 0;        // consecutive watchdog expiries while pending
    // The DATA fence: the latest ack's cumulative count of DATA frames
    // sent, and the master's count of them served. `acked` marks the ack
    // of the gather in progress as taken.
    u64 data_sent = 0;
    u64 data_served = 0;
    bool acked = false;
    // Timeline stamps of the current round: tick send and ack arrival,
    // backing the per-node kNodeWait span. 0 when the timeline is off.
    u64 tick_sent_ns = 0;
    u64 ack_recv_ns = 0;
  };

  /// What the pending set is waiting for.
  enum class Phase { kIdle, kHandshake, kBarrier };

  /// Marks the node dead and reports it (fabric.node_evicted).
  void evict_node(std::size_t index, std::string_view why);
  /// Recomputes next_due_ after a node's due-cycle or liveness changed.
  void update_next_due();

  /// Counts a gathered ack's lookahead (fabric.lookahead_*).
  void note_lookahead(const std::optional<u64>& lookahead);

  /// Sends this barrier's CLOCK_TICKs and fills pending_.
  Status scatter(u64 cycle);
  /// Re-bases the ticked nodes and records the barrier's wait and spans.
  void finish_barrier(u64 cycle);
  /// Records a zero-length `phase` span (evict, rejoin) for node `index`.
  void mark(std::size_t index, obs::SpanPhase phase, u64 cycle);
  /// Starts a gather's watchdog interval (a barrier's one stopwatch).
  void arm_watchdog();
  /// Repeats a non-blocking `step` in net::wait_until on the CLOCK
  /// channels until it is done or fails (the blocking handshake and
  /// barrier).
  Status wait_for(const std::function<Status(bool* done)>& step);
  /// One non-blocking pass: takes every TIME_ACK that has arrived from a
  /// pending node, runs `service`, drops the nodes whose ack and DATA are
  /// in, then applies the watchdog to the rest.
  Status gather_pass(const std::function<Status()>& service);

  SyncPolicy policy_;
  Status config_status_;
  Logger log_{"fabric"};

  std::unique_ptr<obs::Hub> owned_hub_;
  obs::Hub* hub_;
  obs::Counter& barriers_;
  obs::Counter& ticks_sent_;
  obs::Counter& acks_received_;
  obs::Counter& evictions_;
  obs::Counter& rejoins_;
  obs::Counter& lookahead_acks_;
  obs::Counter& lookahead_unbounded_;
  obs::LatencyHistogram& barrier_wait_ns_;
  obs::LatencyHistogram& sync_rtt_ns_;
  obs::Timeline& timeline_;
  obs::SpanSink& spans_;  // timeline ring "fabric" (coordinator-side spans)

  std::vector<Node> nodes_;
  u64 next_due_ = 0;  // min next_due over the live nodes; read every cycle
  /// The gather in progress: nodes still owing a TIME_ACK, and (barrier
  /// phase) every node this round ticked.
  Phase phase_ = Phase::kIdle;
  std::vector<std::size_t> pending_;
  std::vector<std::size_t> ticked_;
  std::chrono::steady_clock::time_point wait_start_;
  std::chrono::steady_clock::time_point deadline_;
  // Timeline stamp of the last CLOCK_TICK sent: the scatter's end.
  u64 scatter_end_ = 0;
  u64 round_ = 0;  // wire round id; monotone across rejoin
  bool handshaken_ = false;
};

}  // namespace vhp::cosim
