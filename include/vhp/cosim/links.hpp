// The master<->board links of a co-simulation, and the configuration every
// co-simulation shares: a fabric of N boards, and a session, which is its
// one-node case (fabric::Fabric builds both).
//
// Every link is wrapped in the canonical decorator stack, innermost first:
//
//   transport -> batch -> latency -> inject (hw side) -> reliable
//             -> instrument -> record
//
// Batching sits directly on the transport, so every decorator above sees
// the unbatched frame sequence. Faults are injected below the recovery
// layer, so they hit its wire frames exactly as a lossy network would. The
// recorder sits on top and only ever sees repaired traffic — a faulted
// run's recording matches the clean one.
#pragma once

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "vhp/common/status.hpp"
#include "vhp/cosim/cosim_kernel.hpp"
#include "vhp/fault/plan.hpp"
#include "vhp/fault/reliable.hpp"
#include "vhp/net/channel.hpp"
#include "vhp/net/latency.hpp"
#include "vhp/obs/hub.hpp"

namespace vhp::cosim {

enum class TransportKind {
  kInProc,
  kTcp,
  /// Shared-memory SPSC rings (net/shm_ring.hpp): no syscall on the data
  /// path, eventfd doorbells for readiness — the svc session server's
  /// fast path (DESIGN.md §14).
  kShm,
};

/// The link knobs: one transport and one decorator stack for every link.
struct LinkConfig {
  TransportKind transport = TransportKind::kInProc;
  /// Per-quantum frame batching (net/batching.hpp, DESIGN.md §14): DATA
  /// and INT frames coalesce into one vectored send flushed at the CLOCK
  /// boundary. Incompatible with recovery (validate() enforces it).
  /// Recordings stay bit-identical — the batcher sits below every
  /// decorator.
  bool batch_frames = false;
  /// Deterministic fault injection on the hw side of every link (see
  /// vhp/fault/plan.hpp); an empty plan is zero-hop. A plan that can lose
  /// or mutate frames requires recovery.enabled.
  fault::FaultPlan fault_plan{};
  /// Link-level recovery (sequence numbers, ack/retransmit, reconnect) on
  /// both sides of every link — see vhp/fault/reliable.hpp.
  fault::RecoveryConfig recovery{};
  /// Optional emulated latency on every channel (see net/latency.hpp). The
  /// paper's physical medium (Ethernet + eCos IP stack) is much slower than
  /// loopback; absolute-overhead experiments emulate that here.
  net::LinkEmulationConfig link_emulation{};

  /// The fault plan's own rules, plus: a lossy plan needs recovery, and
  /// batching excludes it. `owner` prefixes the message.
  [[nodiscard]] Status validate(std::string_view owner) const;
};

/// Everything a co-simulation is configured with except its boards: the
/// links, the master, observability and post-mortems. SessionConfig adds
/// one board, FabricConfig the node list.
struct RunConfig : LinkConfig {
  /// The master kernel: sync policy (the paper's T_sync, per-node quanta,
  /// adaptive lookahead, watchdog, eviction), clock period, timed or
  /// free-running, parallel evaluation lanes.
  CosimConfig cosim{};
  /// Observability (vhp::obs): off by default — the costly instruments
  /// (spans, whose totals are the stall buckets, and per-frame link
  /// accounting) are opt-in behind obs.timeline.enabled; plain metric
  /// counters always run.
  obs::ObsConfig obs{};
  /// Where post-mortem flight-recorder dumps land when obs.record is on:
  /// "<prefix>.hw.jsonl" and "<prefix>.<node>.board.jsonl" on an error
  /// Status from run_cycles() — a watchdog expiry (SyncPolicy::watchdog)
  /// included — or a fatal signal
  /// (Fabric::install_postmortem_signal_handler). Empty disables automatic
  /// dumping.
  std::string postmortem_prefix = "vhp-postmortem";
};

/// The fluent knobs SessionConfigBuilder and FabricConfigBuilder share:
/// everything of RunConfig, and the validated build. `Config` derives from
/// RunConfig and has a validate().
template <class Derived, class Config>
class ConfigBuilder {
 public:
  /// The paper's name for the policy quantum: sync.quantum(cycles).
  Derived& t_sync(u64 cycles) {
    config_.cosim.sync.quantum(cycles);
    return self();
  }
  /// The synchronization policy (CosimConfig::sync), replacing any earlier
  /// t_sync(). An adaptive policy automatically configures every board to
  /// advertise its lookahead on every TIME_ACK.
  Derived& sync(SyncPolicy policy) {
    config_.cosim.sync = std::move(policy);
    return self();
  }
  Derived& clock_period(sim::SimTime period) {
    config_.cosim.clock_period = period;
    return self();
  }
  /// Runs the master kernel's evaluation phase on `workers` lanes
  /// (including the calling thread); 0 = serial. Bit-identical results
  /// either way — see sim::Kernel::set_parallel.
  Derived& parallel(u64 workers) {
    config_.cosim.parallel_workers = workers;
    return self();
  }

  Derived& transport(TransportKind kind) {
    config_.transport = kind;
    return self();
  }
  Derived& tcp() { return transport(TransportKind::kTcp); }
  Derived& inproc() { return transport(TransportKind::kInProc); }
  Derived& shm() { return transport(TransportKind::kShm); }
  /// Per-quantum frame batching on DATA/INT (LinkConfig::batch_frames).
  Derived& batching(bool on = true) {
    config_.batch_frames = on;
    return self();
  }
  Derived& fault_plan(fault::FaultPlan plan) {
    config_.fault_plan = std::move(plan);
    return self();
  }
  Derived& recovery(fault::RecoveryConfig recovery_config) {
    config_.recovery = recovery_config;
    return self();
  }
  Derived& recover(bool on = true) {
    config_.recovery.enabled = on;
    return self();
  }
  Derived& link_latency(std::chrono::microseconds one_way) {
    config_.link_emulation.latency = one_way;
    return self();
  }
  /// The one observability switch (ObsConfig::timeline.enabled): spans
  /// (and the stall buckets they total), the armed histograms and
  /// per-frame link accounting.
  /// Armed runs stamp round ids into their CLOCK/TIME_ACK frames, so their
  /// recordings are not byte-exact against unarmed ones.
  Derived& observability(bool on = true) {
    config_.obs.timeline.enabled = on;
    return self();
  }
  /// Flight recorder (independent of observability()): ring-only frame
  /// capture on every link's ports. The default payload cap is raised to
  /// the frame-size maximum so recordings stay replayable.
  Derived& record(bool on = true) {
    config_.obs.record.enabled = on;
    if (on) config_.obs.record.max_payload_bytes = 1u << 16;
    return self();
  }
  Derived& record_ring(std::size_t frames) {
    config_.obs.record.ring_frames = frames;
    return self();
  }
  Derived& postmortem_prefix(std::string prefix) {
    config_.postmortem_prefix = std::move(prefix);
    return self();
  }

  /// Validated result: the config, or the first rule it breaks.
  [[nodiscard]] Result<Config> build() const {
    Status s = config_.validate();
    if (!s.ok()) return s;
    return config_;
  }
  /// For mainline example/benchmark code where misconfiguration is fatal:
  /// throws std::invalid_argument with the status message.
  [[nodiscard]] Config build_or_throw() const {
    Status s = config_.validate();
    if (!s.ok()) throw std::invalid_argument(s.to_string());
    return config_;
  }

 protected:
  Config config_{};

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

/// A built link set: one LinkPair per board, and the compiled fault
/// schedule their injectors share (null when the plan is unarmed).
struct Links {
  std::vector<net::LinkPair> pairs;
  std::shared_ptr<fault::FaultSchedule> schedule;
};

/// Makes one link per entry of `board_hubs` over `config.transport` and
/// wraps each in the canonical stack, with `config.link_emulation` on every
/// channel. The hw side of link i accounts under
/// `hw_labels[i]` in `hw_hub` and records into its hw recorder stamped with
/// node id i; the board side accounts as "board" in `*board_hubs[i]` and
/// records into that hub's board recorder. Injected faults land as marker
/// frames in `hw_hub`'s recorder. Throws std::runtime_error when the TCP
/// fan-out fails.
[[nodiscard]] Links make_links(const LinkConfig& config, obs::Hub& hw_hub,
                               const std::vector<obs::Hub*>& board_hubs,
                               const std::vector<std::string>& hw_labels);

}  // namespace vhp::cosim
