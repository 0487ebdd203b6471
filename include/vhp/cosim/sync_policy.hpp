// SyncPolicy — the one knob-set for timing synchronization.
//
// The sync knobs (quantum / per-node quanta / watchdog / eviction) and the
// adaptive lookahead mode in one fluent value type, read by the
// SyncCoordinator — the grant/gather engine of every CosimKernel, whether
// it drives one board (a session) or N (a fabric).
//
// Fixed mode (the paper's T_sync): every node is granted `quantum` cycles
// per CLOCK_TICK at a fixed cadence.
//
// Adaptive mode (DEVS-style time advance / FMI variable-step master): each
// TIME_ACK may carry the sender's *lookahead* — the earliest future master
// cycle at which the board can next interact (next RTOS timer expiry, or
// "idle until data arrives" = unbounded). The master then grants
//
//     max(min_quantum, min(lookahead - cycle, max_quantum))
//
// instead of the fixed quantum. The conservative deadlock-freedom argument
// is untouched: a node still never observes simulated time beyond its
// grant, and a *wrong* (too large) lookahead can only cost accuracy —
// bounded by max_quantum — never liveness, because the node still consumes
// its grant and acks. Hence max_quantum defaults finite.
#pragma once

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "vhp/common/status.hpp"
#include "vhp/common/types.hpp"

namespace vhp::cosim {

class SyncPolicy {
 public:
  /// TIME_ACK lookahead value meaning "idle until data arrives": the board
  /// has no future event of its own, the master may grant up to max_quantum.
  static constexpr u64 kUnboundedLookahead = ~u64{0};
  /// Default cap when max_quantum is left 0: 64x the node's fixed quantum.
  static constexpr u64 kDefaultMaxQuantumFactor = 64;

  // ----- fluent setters -----

  /// Default grant size in HW clock cycles (the paper's T_sync).
  SyncPolicy& quantum(u64 cycles) {
    quantum_ = cycles;
    return *this;
  }
  /// Per-node fixed-quantum override (N-party fabric); 0 = the default.
  SyncPolicy& node_quantum(std::size_t node, u64 cycles) {
    if (overrides_.size() <= node) overrides_.resize(node + 1, 0);
    overrides_[node] = cycles;
    return *this;
  }
  /// Lookahead-driven variable grants (see the grant formula above).
  SyncPolicy& adaptive(bool on = true) {
    adaptive_ = on;
    return *this;
  }
  /// Smallest adaptive grant; 0 = the node's fixed quantum. A busy board
  /// (lookahead "now") keeps syncing at this pace.
  SyncPolicy& min_quantum(u64 cycles) {
    min_quantum_ = cycles;
    return *this;
  }
  /// Largest adaptive grant — the accuracy bound on a sleeping board;
  /// 0 = kDefaultMaxQuantumFactor x the node's fixed quantum.
  SyncPolicy& max_quantum(u64 cycles) {
    max_quantum_ = cycles;
    return *this;
  }
  /// Wall-clock bound on one barrier gather; zero disables the watchdog.
  SyncPolicy& watchdog(std::chrono::milliseconds bound) {
    watchdog_ = bound;
    return *this;
  }
  /// Evict a node after this many consecutive watchdog misses; 0 fail-fast.
  SyncPolicy& evict_after(u32 misses) {
    evict_after_misses_ = misses;
    return *this;
  }

  // ----- getters -----

  [[nodiscard]] u64 quantum() const { return quantum_; }
  /// Fixed quantum of `node` after overrides.
  [[nodiscard]] u64 node_quantum(std::size_t node) const {
    if (node < overrides_.size() && overrides_[node] != 0) {
      return overrides_[node];
    }
    return quantum_;
  }
  [[nodiscard]] const std::vector<u64>& overrides() const { return overrides_; }
  [[nodiscard]] bool is_adaptive() const { return adaptive_; }
  [[nodiscard]] u64 min_quantum() const { return min_quantum_; }
  [[nodiscard]] u64 max_quantum() const { return max_quantum_; }
  [[nodiscard]] std::chrono::milliseconds watchdog() const { return watchdog_; }
  [[nodiscard]] u32 evict_after_misses() const { return evict_after_misses_; }

  /// Effective [min, max] clamp for `node` with the documented defaults
  /// resolved; max is never below min.
  [[nodiscard]] std::pair<u64, u64> clamp_for(std::size_t node) const {
    const u64 fixed = std::max<u64>(1, node_quantum(node));
    const u64 lo = min_quantum_ != 0 ? min_quantum_ : fixed;
    u64 hi = max_quantum_;
    if (hi == 0) {
      // Default cap, bounded to the u32 CLOCK_TICK grant field.
      constexpr u64 kTickMax = 0xffffffffu;
      hi = fixed > kTickMax / kDefaultMaxQuantumFactor
               ? kTickMax
               : fixed * kDefaultMaxQuantumFactor;
    }
    return {lo, std::max(lo, hi)};
  }

  /// Cycles to grant `node` at master cycle `cycle` given the lookahead from
  /// its last TIME_ACK (nullopt = a v1 ack, no lookahead advertised). The
  /// fixed quantum when not adaptive or the node did not advertise;
  /// otherwise max(min_quantum, min(lookahead - cycle, max_quantum)).
  [[nodiscard]] u64 grant(std::size_t node, u64 cycle,
                          std::optional<u64> lookahead) const {
    const u64 fixed = std::max<u64>(1, node_quantum(node));
    if (!adaptive_ || !lookahead.has_value()) return fixed;
    const auto [lo, hi] = clamp_for(node);
    const u64 ahead = *lookahead > cycle ? *lookahead - cycle : 0;
    return std::max(lo, std::min(ahead, hi));
  }

  /// Rejects a zero quantum (any node), min > max, grants that overflow the
  /// u32 n_ticks field of CLOCK_TICK, and eviction without a watchdog.
  [[nodiscard]] Status validate(std::size_t n_nodes = 1) const;

 private:
  u64 quantum_ = 1000;
  std::vector<u64> overrides_;
  bool adaptive_ = false;
  u64 min_quantum_ = 0;
  u64 max_quantum_ = 0;
  std::chrono::milliseconds watchdog_{10000};
  u32 evict_after_misses_ = 0;
};

}  // namespace vhp::cosim
